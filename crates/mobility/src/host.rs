//! The mobile host: operation across the paper's three connectivity
//! levels (§4.2.2 iii — "over a period of time, connection may vary from
//! being disconnected to being partially connected ... to being fully
//! connected. ... It is also likely that services will take advantage of
//! higher levels of connection to perform bulk updates, e.g. of cached
//! data").
//!
//! The [`MobileHost`] engine combines the [`crate::cache`] and the
//! [`crate::reintegration`] log: reads and writes are served from the
//! server when connected, from the cache when not; a connectivity
//! *upgrade* triggers reintegration plus a bulk hoard refresh.

use std::fmt;

use odp_concurrency::store::{ObjectId, ObjectStore, StoreError};
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::time::SimTime;

use crate::cache::MobileCache;
use crate::reintegration::{reintegrate, ChangeLog, ConflictPolicy, ReplayOutcome};

/// How an operation was satisfied (for the E10 availability accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Straight from the server (full connectivity).
    Server,
    /// From the cache (disconnected or partial, cache hit).
    Cache,
    /// Logged locally for later reintegration (disconnected write).
    Logged,
}

/// Errors from mobile operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MobileError {
    /// The object is neither reachable nor cached: unavailable.
    Unavailable(ObjectId),
    /// The server store failed.
    Store(StoreError),
}

impl fmt::Display for MobileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MobileError::Unavailable(o) => write!(f, "{o} unavailable while disconnected"),
            MobileError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for MobileError {}

impl From<StoreError> for MobileError {
    fn from(e: StoreError) -> Self {
        MobileError::Store(e)
    }
}

/// A reintegration/bulk-update report produced on reconnection. Its
/// `replay` outcomes project onto the cooperation-event bus
/// (`bus.publish_all(report.replay.iter().filter_map(Option::<CoopEvent>::from))`),
/// so co-authors whose edits raced the disconnection learn how each
/// race was settled.
#[derive(Debug, Clone, Default)]
pub struct ReconnectReport {
    /// Outcomes of replaying the disconnected log.
    pub replay: Vec<ReplayOutcome>,
    /// Number of objects bulk-refreshed into the cache.
    pub refreshed: usize,
    /// Bytes-equivalent shipped (sum of refreshed value lengths) — the
    /// "bulk update" cost.
    pub bulk_bytes: usize,
}

impl ReconnectReport {
    /// Number of conflicts in the replay.
    pub fn conflicts(&self) -> usize {
        self.replay
            .iter()
            .filter(|o| matches!(o, ReplayOutcome::Conflict { .. }))
            .count()
    }
}

/// The mobile host engine. For simulation the server store lives behind
/// `&mut ObjectStore` arguments: the actor adapter owns the messaging,
/// while experiments can also drive the engine directly.
#[derive(Debug)]
pub struct MobileHost {
    connectivity: Connectivity,
    cache: MobileCache,
    log: ChangeLog,
    policy: ConflictPolicy,
    ops_available: u64,
    ops_unavailable: u64,
}

impl MobileHost {
    /// Creates a host starting at full connectivity.
    pub fn new(policy: ConflictPolicy) -> Self {
        MobileHost {
            connectivity: Connectivity::Full,
            cache: MobileCache::new(),
            log: ChangeLog::new(),
            policy,
            ops_available: 0,
            ops_unavailable: 0,
        }
    }

    /// The cache (hoard configuration and statistics).
    pub fn cache_mut(&mut self) -> &mut MobileCache {
        &mut self.cache
    }

    /// Read access to the cache.
    pub fn cache(&self) -> &MobileCache {
        &self.cache
    }

    /// The pending disconnected log.
    pub fn log(&self) -> &ChangeLog {
        &self.log
    }

    /// `(available, unavailable)` operation counts.
    pub fn availability(&self) -> (u64, u64) {
        (self.ops_available, self.ops_unavailable)
    }

    /// Degrades or upgrades connectivity **without** server contact
    /// (downgrades need none). Upgrading to `Full` should go through
    /// [`MobileHost::reconnect`] so reintegration happens.
    pub fn set_connectivity(&mut self, level: Connectivity) {
        self.connectivity = level;
    }

    /// Reads an object. Connected (full): reads the server and refreshes
    /// the cache. Partial: prefers the cache (saving the radio link),
    /// falling back to the server. Disconnected: cache only.
    ///
    /// # Errors
    ///
    /// [`MobileError::Unavailable`] when disconnected without a cached
    /// copy; server errors pass through when connected.
    pub fn read(
        &mut self,
        id: ObjectId,
        server: &mut ObjectStore,
    ) -> Result<(String, Served), MobileError> {
        match self.connectivity {
            Connectivity::Full => {
                let obj = server.read(id)?.clone();
                self.cache.install(id, obj.value.clone(), obj.version);
                self.ops_available += 1;
                Ok((obj.value, Served::Server))
            }
            Connectivity::Partial => {
                if let Some(cached) = self.cache.read(id) {
                    self.ops_available += 1;
                    return Ok((cached.value.clone(), Served::Cache));
                }
                let obj = server.read(id)?.clone();
                self.cache.install(id, obj.value.clone(), obj.version);
                self.ops_available += 1;
                Ok((obj.value, Served::Server))
            }
            Connectivity::Disconnected => match self.cache.read(id) {
                Some(cached) => {
                    self.ops_available += 1;
                    Ok((cached.value.clone(), Served::Cache))
                }
                None => {
                    self.ops_unavailable += 1;
                    Err(MobileError::Unavailable(id))
                }
            },
        }
    }

    /// Writes an object. Connected (full): writes through to the server.
    /// Partial or disconnected: writes the cache and logs for
    /// reintegration.
    ///
    /// # Errors
    ///
    /// [`MobileError::Unavailable`] when disconnected without a cached
    /// base copy.
    pub fn write(
        &mut self,
        id: ObjectId,
        value: impl Into<String>,
        server: &mut ObjectStore,
        now: SimTime,
    ) -> Result<Served, MobileError> {
        let value = value.into();
        match self.connectivity {
            Connectivity::Full => {
                let version = server.write(id, value.clone())?;
                self.cache.install(id, value, version);
                self.ops_available += 1;
                Ok(Served::Server)
            }
            Connectivity::Partial | Connectivity::Disconnected => {
                let Some(base) = self.cache.peek(id).map(|c| c.base_version) else {
                    self.ops_unavailable += 1;
                    return Err(MobileError::Unavailable(id));
                };
                self.cache.write_local(id, value.clone());
                self.log.record(id, base, value, now);
                self.ops_available += 1;
                Ok(Served::Logged)
            }
        }
    }

    /// Restores full connectivity: replays the disconnected log against
    /// the server (as `mobile`, the node this host runs on), then
    /// bulk-refreshes the hoard and every cached entry.
    ///
    /// # Errors
    ///
    /// Propagates reintegration store failures.
    pub fn reconnect(
        &mut self,
        mobile: NodeId,
        server: &mut ObjectStore,
        at: SimTime,
    ) -> Result<ReconnectReport, MobileError> {
        self.connectivity = Connectivity::Full;
        let replay =
            reintegrate(mobile, &self.log, server, self.policy, at).map_err(|e| match e {
                crate::reintegration::ReintegrationError::Store(s) => MobileError::Store(s),
            })?;
        self.log.clear();
        // Bulk update: refresh hoarded objects and all current entries.
        let mut refreshed = 0;
        let mut bulk_bytes = 0;
        let mut targets: Vec<ObjectId> = self.cache.hoard_list().collect();
        targets.extend(self.cache.dirty().iter().map(|&(id, _)| id));
        let cached: Vec<ObjectId> = server
            .ids()
            .filter(|id| self.cache.peek(*id).is_some() || targets.contains(id))
            .collect();
        for id in cached {
            if let Ok(obj) = server.read(id) {
                let obj = obj.clone();
                bulk_bytes += obj.value.len();
                self.cache.install(id, obj.value, obj.version);
                refreshed += 1;
            }
        }
        Ok(ReconnectReport {
            replay,
            refreshed,
            bulk_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::{CoopEvent, EventBus};

    fn server() -> ObjectStore {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "plan");
        s.create(ObjectId(2), "map");
        s
    }

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn connected_reads_write_through_and_populate_cache() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        let (v, served) = host.read(ObjectId(1), &mut srv).unwrap();
        assert_eq!((v.as_str(), served), ("plan", Served::Server));
        assert_eq!(host.cache().len(), 1);
        assert_eq!(
            host.write(ObjectId(1), "plan2", &mut srv, NOW).unwrap(),
            Served::Server
        );
        assert_eq!(srv.read(ObjectId(1)).unwrap().value, "plan2");
    }

    #[test]
    fn disconnected_reads_come_from_cache_or_fail() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.read(ObjectId(1), &mut srv).unwrap(); // cache it
        host.set_connectivity(Connectivity::Disconnected);
        let (v, served) = host.read(ObjectId(1), &mut srv).unwrap();
        assert_eq!((v.as_str(), served), ("plan", Served::Cache));
        assert_eq!(
            host.read(ObjectId(2), &mut srv).unwrap_err(),
            MobileError::Unavailable(ObjectId(2))
        );
        assert_eq!(host.availability(), (2, 1));
    }

    #[test]
    fn disconnected_writes_log_and_reintegrate_cleanly() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.read(ObjectId(1), &mut srv).unwrap();
        host.set_connectivity(Connectivity::Disconnected);
        assert_eq!(
            host.write(ObjectId(1), "field edit", &mut srv, NOW)
                .unwrap(),
            Served::Logged
        );
        assert_eq!(
            srv.read(ObjectId(1)).unwrap().value,
            "plan",
            "server untouched while offline"
        );
        let report = host.reconnect(NodeId(0), &mut srv, NOW).unwrap();
        assert_eq!(report.conflicts(), 0);
        assert_eq!(srv.read(ObjectId(1)).unwrap().value, "field edit");
        assert!(host.log().is_empty());
    }

    #[test]
    fn concurrent_server_edit_conflicts_on_reintegration() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.read(ObjectId(1), &mut srv).unwrap();
        host.set_connectivity(Connectivity::Disconnected);
        host.write(ObjectId(1), "mobile edit", &mut srv, NOW)
            .unwrap();
        // Someone edits at the office meanwhile.
        srv.write(ObjectId(1), "office edit").unwrap();
        let report = host.reconnect(NodeId(0), &mut srv, NOW).unwrap();
        assert_eq!(report.conflicts(), 1);
        assert_eq!(
            srv.read(ObjectId(1)).unwrap().value,
            "office edit",
            "server wins"
        );
        // The bulk refresh leaves the cache clean at the server's value.
        assert_eq!(host.cache().peek(ObjectId(1)).unwrap().value, "office edit");
    }

    #[test]
    fn partial_connectivity_prefers_the_cache_and_logs_writes() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.read(ObjectId(1), &mut srv).unwrap();
        host.set_connectivity(Connectivity::Partial);
        let (_, served) = host.read(ObjectId(1), &mut srv).unwrap();
        assert_eq!(served, Served::Cache, "radio link saved");
        let (_, served2) = host.read(ObjectId(2), &mut srv).unwrap();
        assert_eq!(served2, Served::Server, "miss falls through");
        assert_eq!(
            host.write(ObjectId(1), "x", &mut srv, NOW).unwrap(),
            Served::Logged
        );
    }

    #[test]
    fn partial_connectivity_write_racing_a_server_edit_conflicts_on_reconnect() {
        // The weak-radio scenario: under Partial connectivity writes go
        // to the log (not through to the server), so a colleague's
        // office edit during the weak window races the mobile edit just
        // as a full disconnection would.
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.read(ObjectId(1), &mut srv).unwrap(); // cache the base
        host.set_connectivity(Connectivity::Partial);
        assert_eq!(
            host.write(ObjectId(1), "radio edit", &mut srv, NOW)
                .unwrap(),
            Served::Logged
        );
        srv.write(ObjectId(1), "office edit").unwrap();
        host.set_connectivity(Connectivity::Full);
        let report = host.reconnect(NodeId(0), &mut srv, NOW).unwrap();
        assert_eq!(report.conflicts(), 1, "the race must surface as a conflict");
        assert_eq!(
            srv.read(ObjectId(1)).unwrap().value,
            "office edit",
            "server wins"
        );
        assert_eq!(
            host.cache().peek(ObjectId(1)).unwrap().value,
            "office edit",
            "bulk refresh restores the winning value"
        );
        assert!(host.log().is_empty(), "the log drains on reintegration");
    }

    #[test]
    fn partial_connectivity_client_wins_replays_over_the_server_edit() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ClientWins);
        host.read(ObjectId(1), &mut srv).unwrap();
        host.set_connectivity(Connectivity::Partial);
        host.write(ObjectId(1), "radio edit", &mut srv, NOW)
            .unwrap();
        srv.write(ObjectId(1), "office edit").unwrap();
        let report = host.reconnect(NodeId(0), &mut srv, NOW).unwrap();
        assert_eq!(report.conflicts(), 1, "still counted as a conflict");
        assert_eq!(
            srv.read(ObjectId(1)).unwrap().value,
            "radio edit",
            "client wins: the mobile edit overwrites"
        );
    }

    #[test]
    fn partial_connectivity_unraced_writes_reintegrate_cleanly() {
        // Partial writes on distinct objects: the logged edit replays
        // without conflict while the server-read miss path (object 2)
        // stays untouched by reintegration.
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.read(ObjectId(1), &mut srv).unwrap();
        host.set_connectivity(Connectivity::Partial);
        host.write(ObjectId(1), "radio edit", &mut srv, NOW)
            .unwrap();
        srv.write(ObjectId(2), "office map edit").unwrap(); // different object
        let report = host.reconnect(NodeId(0), &mut srv, NOW).unwrap();
        assert_eq!(report.conflicts(), 0, "no overlap, no conflict");
        assert_eq!(srv.read(ObjectId(1)).unwrap().value, "radio edit");
        assert_eq!(srv.read(ObjectId(2)).unwrap().value, "office map edit");
    }

    #[test]
    fn disconnected_write_without_cached_base_is_unavailable() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.set_connectivity(Connectivity::Disconnected);
        assert_eq!(
            host.write(ObjectId(1), "x", &mut srv, NOW).unwrap_err(),
            MobileError::Unavailable(ObjectId(1))
        );
    }

    #[test]
    fn reconnect_via_broadcasts_the_settled_conflict() {
        let mut bus = EventBus::new();
        bus.register(NodeId(3), 0.0); // the mobile
        bus.register(NodeId(0), 0.0); // the desk-bound co-author
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ClientWins);
        host.read(ObjectId(1), &mut srv).unwrap();
        host.set_connectivity(Connectivity::Disconnected);
        host.write(ObjectId(1), "field edit", &mut srv, NOW)
            .unwrap();
        srv.write(ObjectId(1), "desk edit").unwrap();
        let report = host
            .reconnect(NodeId(3), &mut srv, SimTime::from_secs(5))
            .unwrap();
        assert_eq!(report.conflicts(), 1);
        let seen = bus.publish_all(report.replay.iter().filter_map(Option::<CoopEvent>::from));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].observer, NodeId(0));
        assert_eq!(seen[0].event.kind.label(), "mobility.conflict");
        assert!(
            host.log().is_empty(),
            "the log drains on a conflicting replay too"
        );
    }

    #[test]
    fn reconnect_bulk_refreshes_hoarded_objects() {
        let mut srv = server();
        let mut host = MobileHost::new(ConflictPolicy::ServerWins);
        host.cache_mut().hoard(ObjectId(1));
        host.cache_mut().hoard(ObjectId(2));
        host.set_connectivity(Connectivity::Disconnected);
        let report = host.reconnect(NodeId(0), &mut srv, NOW).unwrap();
        assert_eq!(report.refreshed, 2);
        assert!(report.bulk_bytes >= "plan".len() + "map".len());
        // Now a later disconnection can still read both.
        host.set_connectivity(Connectivity::Disconnected);
        assert!(host.read(ObjectId(1), &mut srv).is_ok());
        assert!(host.read(ObjectId(2), &mut srv).is_ok());
    }
}

//! Disconnected-operation logging and reintegration (after Coda's
//! client-modify-log — the paper cites Kistler & Satyanarayanan's
//! "Disconnected Operation in the Coda File System" as the exemplar).
//!
//! While disconnected, every mutation appends to a [`ChangeLog`]; the log
//! is *optimised* (successive writes to one object collapse). On
//! reconnection the log replays against the server: an entry whose base
//! version no longer matches the server's version is a **conflict**,
//! settled by a [`ConflictPolicy`].

use std::fmt;

use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_concurrency::store::{ObjectId, ObjectStore, StoreError};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// One logged disconnected mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// The object written.
    pub object: ObjectId,
    /// The server version the mobile's copy was based on.
    pub base_version: u64,
    /// The value written (whole-object writes, as in Coda's file model).
    pub new_value: String,
    /// When the (latest collapsed) write happened.
    pub at: SimTime,
}

/// The client modify log.
///
/// # Examples
///
/// ```
/// use odp_concurrency::store::ObjectId;
/// use odp_mobility::reintegration::ChangeLog;
/// use odp_sim::time::SimTime;
///
/// let mut log = ChangeLog::new();
/// log.record(ObjectId(1), 3, "draft A", SimTime::ZERO);
/// log.record(ObjectId(1), 3, "draft B", SimTime::from_secs(60));
/// assert_eq!(log.len(), 1, "writes to one object collapse");
/// assert_eq!(log.entries()[0].new_value, "draft B");
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    entries: Vec<LogEntry>,
    recorded: u64,
}

impl ChangeLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ChangeLog::default()
    }

    /// Records a write; a prior entry for the same object is collapsed
    /// into this one (log optimisation), keeping the *original* base
    /// version.
    pub fn record(
        &mut self,
        object: ObjectId,
        base_version: u64,
        new_value: impl Into<String>,
        at: SimTime,
    ) {
        self.recorded += 1;
        let value = new_value.into();
        if let Some(existing) = self.entries.iter_mut().find(|e| e.object == object) {
            existing.new_value = value;
            existing.at = at;
        } else {
            self.entries.push(LogEntry {
                object,
                base_version,
                new_value: value,
                at,
            });
        }
    }

    /// The optimised entries, in first-write order.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Number of optimised entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Raw writes recorded before optimisation.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Empties the log (after successful reintegration).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// How write/write conflicts are settled at reintegration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// The server's version stands; the mobile's write is discarded into
    /// a conflict report (Coda's approach: preserve, don't clobber).
    ServerWins,
    /// The mobile's write overwrites the server.
    ClientWins,
}

/// The outcome of replaying one log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayOutcome {
    /// Applied cleanly (base version matched).
    Applied {
        /// The object.
        object: ObjectId,
        /// The server's new version.
        new_version: u64,
    },
    /// Conflict detected and settled by policy.
    Conflict {
        /// The reintegrating mobile.
        mobile: NodeId,
        /// The object.
        object: ObjectId,
        /// The mobile's (discarded or applied) value.
        mobile_value: String,
        /// The server's value at replay time.
        server_value: String,
        /// Whether the mobile's value was applied ([`ConflictPolicy::ClientWins`]).
        applied: bool,
        /// When the replay settled it.
        at: SimTime,
    },
}

/// What the outcome tells the co-authors: a write/write conflict is a
/// [`CoopKind::ReintegrationConflict`] broadcast from the mobile on
/// `obj/{id}` — whoever's edit raced the disconnected mobile learns the
/// race was settled (and how). A clean apply is an ordinary write and
/// projects to nothing, hence `Option`:
/// `bus.publish_all(outcomes.iter().filter_map(Option::<CoopEvent>::from))`.
impl From<&ReplayOutcome> for Option<CoopEvent> {
    fn from(outcome: &ReplayOutcome) -> Option<CoopEvent> {
        match *outcome {
            ReplayOutcome::Applied { .. } => None,
            ReplayOutcome::Conflict {
                mobile,
                object,
                applied,
                at,
                ..
            } => Some(CoopEvent::broadcast(
                mobile,
                format!("obj/{}", object.0),
                at,
                CoopKind::ReintegrationConflict { applied },
            )),
        }
    }
}

/// Errors during reintegration.
#[derive(Debug, Clone, PartialEq)]
pub enum ReintegrationError {
    /// The server no longer knows the object.
    Store(StoreError),
}

impl fmt::Display for ReintegrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReintegrationError::Store(e) => write!(f, "reintegration store error: {e}"),
        }
    }
}

impl std::error::Error for ReintegrationError {}

impl From<StoreError> for ReintegrationError {
    fn from(e: StoreError) -> Self {
        ReintegrationError::Store(e)
    }
}

/// Replays `mobile`'s optimised log against the authoritative `server`
/// store at `at`, settling write/write conflicts by `policy`.
///
/// Returns the per-entry outcomes in log order. The log is not cleared —
/// callers clear it after inspecting the outcomes.
///
/// # Errors
///
/// Fails only if an object vanished from the server entirely.
pub fn reintegrate(
    mobile: NodeId,
    log: &ChangeLog,
    server: &mut ObjectStore,
    policy: ConflictPolicy,
    at: SimTime,
) -> Result<Vec<ReplayOutcome>, ReintegrationError> {
    let mut outcomes = Vec::with_capacity(log.len());
    for entry in log.entries() {
        let current = server.read(entry.object)?.clone();
        if current.version == entry.base_version {
            let new_version = server.write(entry.object, entry.new_value.clone())?;
            outcomes.push(ReplayOutcome::Applied {
                object: entry.object,
                new_version,
            });
        } else {
            let applied = policy == ConflictPolicy::ClientWins;
            if applied {
                server.write(entry.object, entry.new_value.clone())?;
            }
            outcomes.push(ReplayOutcome::Conflict {
                mobile,
                object: entry.object,
                mobile_value: entry.new_value.clone(),
                server_value: current.value,
                applied,
                at,
            });
        }
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::EventBus;

    fn server() -> ObjectStore {
        let mut s = ObjectStore::new();
        s.create(ObjectId(1), "base1");
        s.create(ObjectId(2), "base2");
        s
    }

    #[test]
    fn clean_replay_applies_everything() {
        let mut srv = server();
        let mut log = ChangeLog::new();
        log.record(ObjectId(1), 0, "mobile1", SimTime::ZERO);
        log.record(ObjectId(2), 0, "mobile2", SimTime::ZERO);
        let out = reintegrate(
            NodeId(0),
            &log,
            &mut srv,
            ConflictPolicy::ServerWins,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(matches!(out[0], ReplayOutcome::Applied { .. }));
        assert_eq!(srv.read(ObjectId(1)).unwrap().value, "mobile1");
    }

    #[test]
    fn stale_base_is_a_conflict_server_wins() {
        let mut srv = server();
        srv.write(ObjectId(1), "someone else's edit").unwrap(); // version 1
        let mut log = ChangeLog::new();
        log.record(ObjectId(1), 0, "mobile edit", SimTime::ZERO);
        let out = reintegrate(
            NodeId(0),
            &log,
            &mut srv,
            ConflictPolicy::ServerWins,
            SimTime::ZERO,
        )
        .unwrap();
        match &out[0] {
            ReplayOutcome::Conflict {
                applied,
                server_value,
                ..
            } => {
                assert!(!applied);
                assert_eq!(server_value, "someone else's edit");
            }
            other => panic!("expected conflict, got {other:?}"),
        }
        assert_eq!(srv.read(ObjectId(1)).unwrap().value, "someone else's edit");
    }

    #[test]
    fn client_wins_policy_overwrites() {
        let mut srv = server();
        srv.write(ObjectId(1), "server edit").unwrap();
        let mut log = ChangeLog::new();
        log.record(ObjectId(1), 0, "mobile edit", SimTime::ZERO);
        let out = reintegrate(
            NodeId(0),
            &log,
            &mut srv,
            ConflictPolicy::ClientWins,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(matches!(
            &out[0],
            ReplayOutcome::Conflict { applied: true, .. }
        ));
        assert_eq!(srv.read(ObjectId(1)).unwrap().value, "mobile edit");
    }

    #[test]
    fn log_optimisation_collapses_but_counts_raw_writes() {
        let mut log = ChangeLog::new();
        for i in 0..10 {
            log.record(ObjectId(1), 0, format!("v{i}"), SimTime::from_secs(i));
        }
        assert_eq!(log.len(), 1);
        assert_eq!(log.recorded(), 10);
        assert_eq!(log.entries()[0].new_value, "v9");
        assert_eq!(log.entries()[0].base_version, 0, "original base kept");
    }

    #[test]
    fn vanished_object_is_an_error() {
        let mut srv = ObjectStore::new();
        let mut log = ChangeLog::new();
        log.record(ObjectId(9), 0, "x", SimTime::ZERO);
        assert!(matches!(
            reintegrate(
                NodeId(0),
                &log,
                &mut srv,
                ConflictPolicy::ServerWins,
                SimTime::ZERO,
            ),
            Err(ReintegrationError::Store(_))
        ));
    }

    #[test]
    fn clear_empties_the_log() {
        let mut log = ChangeLog::new();
        log.record(ObjectId(1), 0, "x", SimTime::ZERO);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn via_announces_conflicts_but_not_clean_applies() {
        let mut bus = EventBus::new();
        bus.register(NodeId(7), 0.0); // the mobile itself
        bus.register(NodeId(1), 0.0); // the co-author whose edit raced
        let mut srv = server();
        srv.write(ObjectId(1), "desk edit").unwrap(); // races the mobile
        let mut log = ChangeLog::new();
        log.record(ObjectId(1), 0, "field edit", SimTime::ZERO);
        log.record(ObjectId(2), 0, "clean edit", SimTime::ZERO);
        let out = reintegrate(
            NodeId(7),
            &log,
            &mut srv,
            ConflictPolicy::ServerWins,
            SimTime::from_secs(9),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let seen = bus.publish_all(out.iter().filter_map(Option::<CoopEvent>::from));
        // Only the conflict is announced; the broadcast excludes the actor.
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].observer, NodeId(1));
        assert_eq!(seen[0].event.actor, NodeId(7));
        assert_eq!(seen[0].event.artefact, "obj/1");
        assert_eq!(seen[0].event.at, SimTime::from_secs(9));
        assert!(matches!(
            seen[0].event.kind,
            CoopKind::ReintegrationConflict { applied: false }
        ));
    }
}

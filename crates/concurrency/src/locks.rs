//! Cooperative locking schemes: the alternative lock styles the paper
//! surveys against strict exclusive locks (§4.2.1):
//!
//! - **hard** locks — classic shared/exclusive with FIFO queueing (the
//!   building block of the Figure 2a transaction "walls");
//! - **tickle** locks (Greif & Sarin) — a requester "tickles" the holder;
//!   if the holder has been idle longer than a threshold the lock
//!   transfers automatically;
//! - **soft** locks (Cognoter/Colab) — advisory: conflicting access is
//!   granted immediately but both parties receive conflict warnings;
//! - **notification** locks (Hornick & Zdonik) — access is granted as for
//!   hard shared locks, but holders are notified of every other access so
//!   they remain *aware* of concurrent activity.
//!
//! All variants are driven through one [`LockTable`] so experiments can
//! swap the scheme without touching the workload.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt;

use odp_awareness::bus::{CoopEvent, CoopKind, CoopMode};
use odp_sim::net::NodeId;
use odp_sim::time::{SimDuration, SimTime};

/// Identifies a lockable resource (object, or object×unit under
/// fine-grained locking — compose with
/// [`crate::granularity::UnitId`] via [`ResourceId::with_unit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u64);

impl ResourceId {
    /// Composes an object id and a unit index into one resource id.
    pub fn with_unit(object: crate::store::ObjectId, unit: crate::granularity::UnitId) -> Self {
        ResourceId(object.0 << 32 | unit.0 as u64)
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res{}", self.0)
    }
}

/// Identifies a lock client (a user/session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Shared (read) or exclusive (write) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Multiple concurrent holders allowed.
    Shared,
    /// Single holder.
    Exclusive,
}

impl LockMode {
    fn compatible(self, other: LockMode) -> bool {
        self == LockMode::Shared && other == LockMode::Shared
    }
}

impl From<LockMode> for CoopMode {
    fn from(mode: LockMode) -> CoopMode {
        match mode {
            LockMode::Shared => CoopMode::Shared,
            LockMode::Exclusive => CoopMode::Exclusive,
        }
    }
}

/// The locking scheme a table enforces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LockScheme {
    /// Classic blocking shared/exclusive locks.
    Hard,
    /// Hard locks plus automatic transfer from idle holders.
    Tickle {
        /// A holder idle for this long loses the lock to a tickler.
        idle_timeout: SimDuration,
    },
    /// Advisory locks: conflicts grant immediately with warnings.
    Soft,
    /// Hard-shared semantics with awareness notifications on every access.
    Notification,
}

/// The immediate answer to a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockReply {
    /// The lock is held; go ahead.
    Granted,
    /// Queued behind current holders; a [`NoticeKind::Granted`] notice follows.
    Queued,
    /// Granted despite a conflict (soft locks); the listed clients hold
    /// conflicting locks.
    GrantedConflict(Vec<ClientId>),
}

/// Awareness/coordination notices emitted by the table. The caller (a
/// lock-server actor) forwards each to its addressee — this is the
/// "information flow between users" of Figure 2b — or publishes the lot
/// on the cooperation-event bus (`bus.publish_all(&notices)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Notice {
    /// Addressee.
    pub to: ClientId,
    /// What happened.
    pub kind: NoticeKind,
    /// The resource concerned.
    pub resource: ResourceId,
    /// When the table decided it.
    pub at: SimTime,
}

/// The kinds of notice a [`LockTable`] emits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NoticeKind {
    /// A queued request was granted.
    Granted {
        /// The granted mode.
        mode: LockMode,
    },
    /// Someone requested a lock you hold (tickle).
    TickleRequest {
        /// Who wants it.
        by: ClientId,
    },
    /// Your lock was transferred away after idleness (tickle).
    Revoked {
        /// Who received it.
        to: ClientId,
    },
    /// Someone acquired a conflicting soft lock.
    ConflictWarning {
        /// The other party.
        with: ClientId,
    },
    /// Someone accessed a resource you hold a notification lock on.
    AccessNotification {
        /// Who accessed.
        by: ClientId,
        /// How.
        mode: LockMode,
    },
}

/// The notice as a unified cooperation event: directed at its addressee
/// on the resource's artefact path (`res/<id>`), with the causing party
/// carried in the [`CoopKind`] payload. [`ClientId`]s map 1:1 onto
/// [`NodeId`]s.
impl From<&Notice> for CoopEvent {
    fn from(notice: &Notice) -> CoopEvent {
        let to = NodeId(notice.to.0);
        let kind = match notice.kind {
            NoticeKind::Granted { mode } => CoopKind::LockGranted { mode: mode.into() },
            NoticeKind::TickleRequest { by } => CoopKind::LockTickled { by: NodeId(by.0) },
            NoticeKind::Revoked { to } => CoopKind::LockRevoked { to: NodeId(to.0) },
            NoticeKind::ConflictWarning { with } => CoopKind::LockConflict {
                with: NodeId(with.0),
            },
            NoticeKind::AccessNotification { by, mode } => CoopKind::LockAccess {
                by: NodeId(by.0),
                mode: mode.into(),
            },
        };
        CoopEvent::direct(
            to,
            to,
            format!("res/{}", notice.resource.0),
            notice.at,
            kind,
        )
    }
}

/// Errors from lock operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockError {
    /// Release of a lock the client does not hold.
    NotHeld(ClientId, ResourceId),
}

impl fmt::Display for LockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockError::NotHeld(c, r) => write!(f, "{c} does not hold {r}"),
        }
    }
}

impl std::error::Error for LockError {}

#[derive(Debug, Clone)]
struct Waiter {
    client: ClientId,
    mode: LockMode,
}

#[derive(Debug, Default)]
struct LockState {
    holders: BTreeMap<ClientId, LockMode>,
    queue: VecDeque<Waiter>,
    last_access: HashMap<ClientId, SimTime>,
    /// Pending tickles: (requester, tickled holder, when).
    tickles: Vec<(ClientId, ClientId, SimTime)>,
}

impl LockState {
    fn compatible_with_holders(&self, client: ClientId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(&h, &m)| h == client || m.compatible(mode))
    }
}

/// A lock table enforcing one [`LockScheme`].
///
/// # Examples
///
/// ```
/// use odp_awareness::bus::EventBus;
/// use odp_concurrency::locks::{ClientId, LockMode, LockReply, LockScheme, LockTable, ResourceId};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut t = LockTable::new(LockScheme::Hard);
/// let (r1, _) = t.request(ClientId(0), ResourceId(1), LockMode::Exclusive, SimTime::ZERO);
/// assert_eq!(r1, LockReply::Granted);
/// let (r2, _) = t.request(ClientId(1), ResourceId(1), LockMode::Exclusive, SimTime::ZERO);
/// assert_eq!(r2, LockReply::Queued);
///
/// // The table knows nothing of the bus: whoever wants the notices
/// // seen publishes what an operation returned.
/// let mut bus = EventBus::new();
/// bus.register(NodeId(1), 0.0);
/// let notices = t.release(ClientId(0), ResourceId(1), SimTime::ZERO).unwrap();
/// let seen = bus.publish_all(&notices);
/// assert_eq!(seen[0].event.kind.label(), "lock.granted");
/// ```
#[derive(Debug)]
pub struct LockTable {
    scheme: LockScheme,
    locks: BTreeMap<ResourceId, LockState>,
    /// Seeded known-bad for the model differential: a departing
    /// *waiter* no longer promotes the requests queued behind it.
    #[cfg(test)]
    forget_waiter_promotion: bool,
}

impl LockTable {
    /// Creates a table enforcing `scheme`.
    pub fn new(scheme: LockScheme) -> Self {
        LockTable {
            scheme,
            locks: BTreeMap::new(),
            #[cfg(test)]
            forget_waiter_promotion: false,
        }
    }

    /// Requests a lock. Returns the immediate reply plus the notices the
    /// request caused (tickles, conflict warnings, access notifications).
    #[must_use]
    pub fn request(
        &mut self,
        client: ClientId,
        resource: ResourceId,
        mode: LockMode,
        now: SimTime,
    ) -> (LockReply, Vec<Notice>) {
        let scheme = self.scheme;
        let state = self.locks.entry(resource).or_default();
        let mut notices = Vec::new();
        // Re-entrant request: upgrade or confirm.
        if let Some(&held) = state.holders.get(&client) {
            if held == mode || held == LockMode::Exclusive {
                state.last_access.insert(client, now);
                return (LockReply::Granted, notices);
            }
        }
        // Shared -> exclusive upgrade: treat as fresh request below,
        // dropping the shared hold first.
        let upgrading = state.holders.remove(&client).is_some();
        let reply = match scheme {
            LockScheme::Soft => {
                let conflicts: Vec<ClientId> = state
                    .holders
                    .iter()
                    .filter(|(_, &m)| !m.compatible(mode) || mode == LockMode::Exclusive)
                    .map(|(&c, _)| c)
                    .collect();
                for &other in &conflicts {
                    notices.push(Notice {
                        to: other,
                        kind: NoticeKind::ConflictWarning { with: client },
                        resource,
                        at: now,
                    });
                }
                state.holders.insert(client, mode);
                state.last_access.insert(client, now);
                if conflicts.is_empty() {
                    LockReply::Granted
                } else {
                    LockReply::GrantedConflict(conflicts)
                }
            }
            LockScheme::Notification => {
                // Notify every holder of the access attempt (awareness).
                for (&other, _) in state.holders.iter().filter(|(&c, _)| c != client) {
                    notices.push(Notice {
                        to: other,
                        kind: NoticeKind::AccessNotification { by: client, mode },
                        resource,
                        at: now,
                    });
                }
                if state.compatible_with_holders(client, mode) && state.queue.is_empty() {
                    state.holders.insert(client, mode);
                    state.last_access.insert(client, now);
                    LockReply::Granted
                } else {
                    state.queue.push_back(Waiter { client, mode });
                    LockReply::Queued
                }
            }
            LockScheme::Hard | LockScheme::Tickle { .. } => {
                if state.compatible_with_holders(client, mode) && state.queue.is_empty() {
                    state.holders.insert(client, mode);
                    state.last_access.insert(client, now);
                    LockReply::Granted
                } else {
                    state.queue.push_back(Waiter { client, mode });
                    if let LockScheme::Tickle { .. } = scheme {
                        // Tickle every conflicting holder.
                        for (&holder, &m) in state.holders.iter() {
                            if holder != client && !m.compatible(mode) {
                                notices.push(Notice {
                                    to: holder,
                                    kind: NoticeKind::TickleRequest { by: client },
                                    resource,
                                    at: now,
                                });
                                state.tickles.push((client, holder, now));
                            }
                        }
                    }
                    LockReply::Queued
                }
            }
        };
        if upgrading && reply == LockReply::Queued {
            // The upgrader gave up its hold to wait: whoever that hold
            // was keeping at the head of the queue goes now, as on a
            // release.
            state.tickles.retain(|&(_, holder, _)| holder != client);
            notices.extend(Self::promote(scheme, state, resource, now));
        }
        (reply, notices)
    }

    /// Records activity by a holder (resets its tickle idle clock).
    pub fn touch(&mut self, client: ClientId, resource: ResourceId, now: SimTime) {
        if let Some(state) = self.locks.get_mut(&resource) {
            if state.holders.contains_key(&client) {
                state.last_access.insert(client, now);
            }
        }
    }

    /// Releases a lock and promotes waiters, returning their grant
    /// notices.
    ///
    /// # Errors
    ///
    /// [`LockError::NotHeld`] if the client holds no lock on `resource`.
    pub fn release(
        &mut self,
        client: ClientId,
        resource: ResourceId,
        now: SimTime,
    ) -> Result<Vec<Notice>, LockError> {
        let scheme = self.scheme;
        let state = self
            .locks
            .get_mut(&resource)
            .ok_or(LockError::NotHeld(client, resource))?;
        if state.holders.remove(&client).is_none() {
            return Err(LockError::NotHeld(client, resource));
        }
        state.tickles.retain(|&(_, holder, _)| holder != client);
        Ok(Self::promote(scheme, state, resource, now))
    }

    /// Releases everything `client` holds or waits for (client
    /// departure), returning the grant notices of whoever that unblocks
    /// — a departing *waiter* unblocks the compatible requests queued
    /// behind it just as a departing holder does.
    #[must_use]
    pub fn release_all(&mut self, client: ClientId, now: SimTime) -> Vec<Notice> {
        let scheme = self.scheme;
        let mut notices = Vec::new();
        for (&r, state) in self.locks.iter_mut() {
            let queued = state.queue.len();
            state.queue.retain(|w| w.client != client);
            state
                .tickles
                .retain(|&(req, holder, _)| req != client && holder != client);
            let held = state.holders.remove(&client).is_some();
            let left_queue = state.queue.len() != queued;
            #[cfg(test)]
            let left_queue = left_queue && !self.forget_waiter_promotion;
            if held || left_queue {
                notices.extend(Self::promote(scheme, state, r, now));
            }
        }
        notices
    }

    /// Tickle maintenance: revokes the locks of holders idle past the
    /// timeout and hands each to the (oldest) tickler, once no other
    /// holder conflicts with it, returning the revocations and grants.
    /// Call periodically.
    #[must_use]
    pub fn tick(&mut self, now: SimTime) -> Vec<Notice> {
        let LockScheme::Tickle { idle_timeout } = self.scheme else {
            return Vec::new();
        };
        let scheme = self.scheme;
        let mut notices = Vec::new();
        for (&resource, state) in self.locks.iter_mut() {
            let mut transfers: Vec<(ClientId, ClientId)> = Vec::new();
            for &(requester, holder, _when) in &state.tickles {
                let idle_since = state
                    .last_access
                    .get(&holder)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                if now.saturating_since(idle_since) >= idle_timeout
                    && state.holders.contains_key(&holder)
                {
                    transfers.push((requester, holder));
                }
            }
            for (requester, holder) in transfers {
                if !state.holders.contains_key(&holder) {
                    continue; // already transferred this round
                }
                state.holders.remove(&holder);
                state.tickles.retain(|&(_, h, _)| h != holder);
                notices.push(Notice {
                    to: holder,
                    kind: NoticeKind::Revoked { to: requester },
                    resource,
                    at: now,
                });
                // The requester jumps its queue entry, if the holders
                // left (other readers still active) admit it.
                let jumped = state
                    .queue
                    .iter()
                    .position(|w| w.client == requester)
                    .filter(|&pos| state.compatible_with_holders(requester, state.queue[pos].mode))
                    .and_then(|pos| state.queue.remove(pos));
                if let Some(waiter) = jumped {
                    state.holders.insert(waiter.client, waiter.mode);
                    state.last_access.insert(waiter.client, now);
                    notices.push(Notice {
                        to: requester,
                        kind: NoticeKind::Granted { mode: waiter.mode },
                        resource,
                        at: now,
                    });
                    let holder = [(waiter.client, waiter.mode)];
                    notices.extend(Self::tickle_new_holders(state, &holder, resource, now));
                }
                notices.extend(Self::promote(scheme, state, resource, now));
            }
        }
        notices
    }

    /// Grants the head of the queue for as long as the holders admit it.
    /// Under [`LockScheme::Tickle`] the waiters left queued then tickle
    /// the new holders.
    fn promote(
        scheme: LockScheme,
        state: &mut LockState,
        resource: ResourceId,
        now: SimTime,
    ) -> Vec<Notice> {
        let mut notices = Vec::new();
        while let Some(next) = state.queue.front() {
            let ok = state
                .holders
                .iter()
                .all(|(&h, &m)| h == next.client || m.compatible(next.mode));
            if !ok {
                break;
            }
            let Some(w) = state.queue.pop_front() else {
                break;
            };
            state.holders.insert(w.client, w.mode);
            state.last_access.insert(w.client, now);
            notices.push(Notice {
                to: w.client,
                kind: NoticeKind::Granted { mode: w.mode },
                resource,
                at: now,
            });
        }
        if let LockScheme::Tickle { .. } = scheme {
            let granted: Vec<(ClientId, LockMode)> = notices
                .iter()
                .filter_map(|n| match n.kind {
                    NoticeKind::Granted { mode } => Some((n.to, mode)),
                    _ => None,
                })
                .collect();
            notices.extend(Self::tickle_new_holders(state, &granted, resource, now));
        }
        notices
    }

    /// Each waiter still queued tickles every one of `holders` (new
    /// holders and their modes) it conflicts with and has not tickled
    /// yet: the tickles it aimed at the previous holder went with that
    /// holder, and without a new one `tick` could never hand the lock on.
    fn tickle_new_holders(
        state: &mut LockState,
        holders: &[(ClientId, LockMode)],
        resource: ResourceId,
        now: SimTime,
    ) -> Vec<Notice> {
        let mut notices = Vec::new();
        for waiter in &state.queue {
            for &(holder, mode) in holders {
                let tickled = state
                    .tickles
                    .iter()
                    .any(|&(by, to, _)| (by, to) == (waiter.client, holder));
                if holder != waiter.client && !mode.compatible(waiter.mode) && !tickled {
                    notices.push(Notice {
                        to: holder,
                        kind: NoticeKind::TickleRequest { by: waiter.client },
                        resource,
                        at: now,
                    });
                    state.tickles.push((waiter.client, holder, now));
                }
            }
        }
        notices
    }

    /// Every resource with lock state, in ascending id order (so
    /// checkers walking the table see a stable order).
    pub fn resources(&self) -> Vec<ResourceId> {
        self.locks.keys().copied().collect()
    }

    /// Current holders of `resource`.
    pub fn holders(&self, resource: ResourceId) -> Vec<(ClientId, LockMode)> {
        self.locks
            .get(&resource)
            .map(|s| s.holders.iter().map(|(&c, &m)| (c, m)).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_awareness::bus::EventBus;

    const R: ResourceId = ResourceId(1);
    /// Number of clients queued on `resource`.
    fn queue_len(lt: &LockTable, resource: ResourceId) -> usize {
        lt.locks.get(&resource).map_or(0, |s| s.queue.len())
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// An open bus observing clients 0..n (1:1 client→node mapping).
    fn bus(n: u32) -> EventBus {
        let mut b = EventBus::new();
        for i in 0..n {
            b.register(NodeId(i), 0.0);
        }
        b
    }

    #[test]
    fn via_promotion_grants_flow_through_the_bus() {
        let mut b = bus(3);
        let mut lt = LockTable::new(LockScheme::Hard);
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let _ = lt.request(ClientId(1), R, LockMode::Exclusive, t(1));
        let out = b.publish_all(&lt.release(ClientId(0), R, t(2)).unwrap());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].observer, NodeId(1), "grant reaches the promotee");
        assert_eq!(out[0].event.kind.label(), "lock.granted");
        assert_eq!(out[0].event.artefact, "res/1");
        assert_eq!(out[0].event.at, t(2), "stamped when the table decided");
    }

    #[test]
    fn via_tickle_revocation_and_grant_flow_through_the_bus() {
        let mut b = bus(2);
        let mut lt = LockTable::new(LockScheme::Tickle {
            idle_timeout: SimDuration::from_millis(100),
        });
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let (reply, notices) = lt.request(ClientId(1), R, LockMode::Exclusive, t(50));
        assert_eq!(reply, LockReply::Queued);
        let tickles = b.publish_all(&notices);
        assert_eq!(tickles.len(), 1);
        assert_eq!(tickles[0].observer, NodeId(0), "holder is tickled");
        assert_eq!(tickles[0].event.kind.label(), "lock.tickled");
        let out = b.publish_all(&lt.tick(t(160)));
        let labels: Vec<&str> = out.iter().map(|d| d.event.kind.label()).collect();
        assert_eq!(labels, vec!["lock.revoked", "lock.granted"]);
        assert_eq!(out[0].observer, NodeId(0));
        assert_eq!(out[1].observer, NodeId(1));
    }

    #[test]
    fn rights_gate_suppresses_lock_notices_for_unauthorized_clients() {
        use odp_access::matrix::Subject;
        use odp_access::rbac::{Effect, RbacPolicy, RoleId};
        use odp_access::rights::Rights;

        // Only client 1 may read res/*; client 0's conflict warning is
        // suppressed by the gate (a participant you may not see cannot
        // make you aware of its activity).
        let mut policy = RbacPolicy::new();
        policy.add_rule(RoleId(1), "res".into(), Rights::READ, Effect::Allow);
        policy.assign(Subject(1), RoleId(1));
        let mut b = bus(2);
        b.set_policy(policy);

        let mut lt = LockTable::new(LockScheme::Soft);
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let (reply, notices) = lt.request(ClientId(1), R, LockMode::Exclusive, t(1));
        assert!(matches!(reply, LockReply::GrantedConflict(_)));
        assert_eq!(notices.len(), 1, "the table still warns client 0");
        let out = b.publish_all(&notices);
        assert!(out.is_empty(), "warning to client 0 is rights-gated");
        assert_eq!(b.suppressed_by_rights(), 1);
    }

    #[test]
    fn notice_conversion_addresses_the_recipient_directly() {
        let n = Notice {
            to: ClientId(3),
            kind: NoticeKind::AccessNotification {
                by: ClientId(7),
                mode: LockMode::Shared,
            },
            resource: ResourceId(42),
            at: t(5),
        };
        let ev = CoopEvent::from(&n);
        assert_eq!(ev.actor, NodeId(3));
        assert_eq!(ev.artefact, "res/42");
        assert_eq!(ev.at, t(5));
        assert!(matches!(
            ev.kind,
            CoopKind::LockAccess {
                by: NodeId(7),
                mode: CoopMode::Shared
            }
        ));
    }

    #[test]
    fn hard_shared_locks_coexist() {
        let mut lt = LockTable::new(LockScheme::Hard);
        assert_eq!(
            lt.request(ClientId(0), R, LockMode::Shared, t(0)).0,
            LockReply::Granted
        );
        assert_eq!(
            lt.request(ClientId(1), R, LockMode::Shared, t(0)).0,
            LockReply::Granted
        );
        assert_eq!(lt.holders(R).len(), 2);
    }

    #[test]
    fn hard_exclusive_blocks_and_promotes_in_fifo_order() {
        let mut lt = LockTable::new(LockScheme::Hard);
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        assert_eq!(
            lt.request(ClientId(1), R, LockMode::Exclusive, t(1)).0,
            LockReply::Queued
        );
        assert_eq!(
            lt.request(ClientId(2), R, LockMode::Exclusive, t(2)).0,
            LockReply::Queued
        );
        let notices = lt.release(ClientId(0), R, t(3)).unwrap();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].to, ClientId(1));
        assert!(matches!(notices[0].kind, NoticeKind::Granted { .. }));
        assert_eq!(queue_len(&lt, R), 1);
    }

    #[test]
    fn shared_waiters_promote_together() {
        let mut lt = LockTable::new(LockScheme::Hard);
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let _ = lt.request(ClientId(1), R, LockMode::Shared, t(1));
        let _ = lt.request(ClientId(2), R, LockMode::Shared, t(1));
        let notices = lt.release(ClientId(0), R, t(2)).unwrap();
        assert_eq!(notices.len(), 2, "both readers promoted at once");
    }

    #[test]
    fn reentrant_request_is_granted() {
        let mut lt = LockTable::new(LockScheme::Hard);
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        assert_eq!(
            lt.request(ClientId(0), R, LockMode::Shared, t(1)).0,
            LockReply::Granted
        );
        assert_eq!(
            lt.request(ClientId(0), R, LockMode::Exclusive, t(1)).0,
            LockReply::Granted
        );
    }

    #[test]
    fn release_without_hold_is_an_error() {
        let mut lt = LockTable::new(LockScheme::Hard);
        assert!(lt.release(ClientId(0), R, t(0)).is_err());
        let _ = lt.request(ClientId(1), R, LockMode::Shared, t(0));
        assert_eq!(
            lt.release(ClientId(0), R, t(0)).unwrap_err(),
            LockError::NotHeld(ClientId(0), R)
        );
    }

    #[test]
    fn soft_locks_grant_immediately_with_warnings_to_both_sides() {
        let mut lt = LockTable::new(LockScheme::Soft);
        assert_eq!(
            lt.request(ClientId(0), R, LockMode::Exclusive, t(0)).0,
            LockReply::Granted
        );
        let (reply, notices) = lt.request(ClientId(1), R, LockMode::Exclusive, t(1));
        assert_eq!(reply, LockReply::GrantedConflict(vec![ClientId(0)]));
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].to, ClientId(0));
        assert!(
            matches!(notices[0].kind, NoticeKind::ConflictWarning { with } if with == ClientId(1))
        );
        // Nobody ever blocks under soft locking.
        assert_eq!(queue_len(&lt, R), 0);
        assert_eq!(lt.holders(R).len(), 2);
    }

    #[test]
    fn notification_locks_emit_awareness_on_every_access() {
        let mut lt = LockTable::new(LockScheme::Notification);
        let _ = lt.request(ClientId(0), R, LockMode::Shared, t(0));
        let (reply, notices) = lt.request(ClientId(1), R, LockMode::Shared, t(1));
        assert_eq!(reply, LockReply::Granted);
        assert_eq!(notices.len(), 1);
        assert!(matches!(
            notices[0].kind,
            NoticeKind::AccessNotification { by, mode: LockMode::Shared } if by == ClientId(1)
        ));
        // Exclusive still queues (it is a *lock*, not advisory)...
        let (reply2, notices2) = lt.request(ClientId(2), R, LockMode::Exclusive, t(2));
        assert_eq!(reply2, LockReply::Queued);
        // ...but both holders heard about the attempt.
        assert_eq!(notices2.len(), 2);
    }

    #[test]
    fn tickle_transfers_after_idle_timeout() {
        let mut lt = LockTable::new(LockScheme::Tickle {
            idle_timeout: SimDuration::from_millis(100),
        });
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let (reply, notices) = lt.request(ClientId(1), R, LockMode::Exclusive, t(50));
        assert_eq!(reply, LockReply::Queued);
        assert!(matches!(notices[0].kind, NoticeKind::TickleRequest { by } if by == ClientId(1)));
        // Holder still active at t=60: no transfer at t=120 (idle only 60ms).
        lt.touch(ClientId(0), R, t(60));
        assert!(lt.tick(t(120)).is_empty());
        // At t=160 the holder has been idle 100ms: transfer.
        let notices = lt.tick(t(160));
        assert_eq!(notices.len(), 2);
        assert!(matches!(notices[0].kind, NoticeKind::Revoked { to } if to == ClientId(1)));
        assert!(matches!(notices[1].kind, NoticeKind::Granted { .. }));
        assert_eq!(lt.holders(R), vec![(ClientId(1), LockMode::Exclusive)]);
    }

    #[test]
    fn tickle_active_holder_keeps_the_lock_indefinitely() {
        let mut lt = LockTable::new(LockScheme::Tickle {
            idle_timeout: SimDuration::from_millis(100),
        });
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let _ = lt.request(ClientId(1), R, LockMode::Exclusive, t(10));
        for ms in (20..500).step_by(50) {
            lt.touch(ClientId(0), R, t(ms));
            assert!(lt.tick(t(ms + 10)).is_empty(), "at {ms}");
        }
        assert_eq!(lt.holders(R), vec![(ClientId(0), LockMode::Exclusive)]);
    }

    #[test]
    fn release_all_frees_everything_and_promotes() {
        let mut lt = LockTable::new(LockScheme::Hard);
        let r2 = ResourceId(2);
        let _ = lt.request(ClientId(0), R, LockMode::Exclusive, t(0));
        let _ = lt.request(ClientId(0), r2, LockMode::Exclusive, t(0));
        let _ = lt.request(ClientId(1), R, LockMode::Exclusive, t(1));
        let _ = lt.request(ClientId(1), r2, LockMode::Shared, t(1));
        let notices = lt.release_all(ClientId(0), t(2));
        assert_eq!(notices.len(), 2);
        assert_eq!(lt.holders(R), vec![(ClientId(1), LockMode::Exclusive)]);
        assert_eq!(lt.holders(r2), vec![(ClientId(1), LockMode::Shared)]);
    }

    #[test]
    fn a_departing_head_waiter_unblocks_the_compatible_requests_behind_it() {
        let mut lt = LockTable::new(LockScheme::Hard);
        let _ = lt.request(ClientId(0), R, LockMode::Shared, t(0));
        assert_eq!(
            lt.request(ClientId(1), R, LockMode::Exclusive, t(1)).0,
            LockReply::Queued
        );
        assert_eq!(
            lt.request(ClientId(2), R, LockMode::Shared, t(2)).0,
            LockReply::Queued,
            "FIFO: a reader does not overtake the queued writer"
        );
        // The writer gives up while still waiting: the reader behind it is
        // compatible with the holder and must be granted now, not at some
        // unrelated later release.
        let notices = lt.release_all(ClientId(1), t(3));
        assert_eq!(
            notices,
            vec![Notice {
                to: ClientId(2),
                kind: NoticeKind::Granted {
                    mode: LockMode::Shared
                },
                resource: R,
                at: t(3),
            }]
        );
        assert_eq!(queue_len(&lt, R), 0);
        assert_eq!(lt.holders(R).len(), 2);
        // A waiter leaving from behind an incompatible head changes nothing.
        let _ = lt.request(ClientId(3), R, LockMode::Exclusive, t(4));
        let _ = lt.request(ClientId(4), R, LockMode::Shared, t(5));
        assert!(lt.release_all(ClientId(4), t(6)).is_empty());
        assert_eq!(queue_len(&lt, R), 1);
    }

    #[test]
    fn an_upgrader_queued_behind_a_writer_hands_the_resource_to_it() {
        let idle_timeout = SimDuration::from_secs(60);
        for scheme in [
            LockScheme::Hard,
            LockScheme::Tickle { idle_timeout },
            LockScheme::Notification,
            LockScheme::Soft,
        ] {
            let mut lt = LockTable::new(scheme);
            let _ = lt.request(ClientId(0), R, LockMode::Shared, t(0));
            let _ = lt.request(ClientId(1), R, LockMode::Exclusive, t(1));
            // The sole reader upgrades: it drops its hold and takes its
            // place in the queue — behind the writer, who must not be left
            // waiting for a resource nobody holds.
            let (reply, notices) = lt.request(ClientId(0), R, LockMode::Exclusive, t(2));
            if scheme == LockScheme::Soft {
                // Soft locks never queue: the upgrade is a conflict warning.
                assert_eq!(reply, LockReply::GrantedConflict(vec![ClientId(1)]));
                continue;
            }
            assert_eq!(reply, LockReply::Queued, "{scheme:?}");
            let mut expected = vec![Notice {
                to: ClientId(1),
                kind: NoticeKind::Granted {
                    mode: LockMode::Exclusive,
                },
                resource: R,
                at: t(2),
            }];
            if let LockScheme::Tickle { .. } = scheme {
                // Left queued behind the writer it handed the resource
                // to, the upgrader tickles it.
                expected.push(Notice {
                    to: ClientId(1),
                    kind: NoticeKind::TickleRequest { by: ClientId(0) },
                    resource: R,
                    at: t(2),
                });
            }
            assert_eq!(notices, expected, "{scheme:?}");
            assert_eq!(lt.holders(R), vec![(ClientId(1), LockMode::Exclusive)]);
            assert_eq!(queue_len(&lt, R), 1);
            let notices = lt.release(ClientId(1), R, t(3)).unwrap();
            assert_eq!(notices.len(), 1);
            // The tickle aimed at the reader's dropped hold went with it:
            // it cannot come back to revoke the upgraded lock for nobody.
            assert!(lt.tick(t(3) + idle_timeout).is_empty(), "{scheme:?}");
            assert_eq!(lt.holders(R), vec![(ClientId(0), LockMode::Exclusive)]);
        }
    }

    #[test]
    fn a_waiter_left_behind_a_promoted_holder_tickles_it() {
        let mut lt = LockTable::new(LockScheme::Tickle {
            idle_timeout: SimDuration::from_millis(10),
        });
        for c in 0..4 {
            let _ = lt.request(ClientId(c), R, LockMode::Exclusive, t(0));
        }
        let notice = |to, kind, ms| Notice {
            to: ClientId(to),
            kind,
            resource: R,
            at: t(ms),
        };
        let granted = || NoticeKind::Granted {
            mode: LockMode::Exclusive,
        };
        let tickle = |by| NoticeKind::TickleRequest { by: ClientId(by) };
        // Client 1 is promoted; the two still queued behind it tickle it.
        assert_eq!(
            lt.release(ClientId(0), R, t(1)).unwrap(),
            vec![
                notice(1, granted(), 1),
                notice(1, tickle(2), 1),
                notice(1, tickle(3), 1),
            ]
        );
        // Idle, it loses the lock to the oldest tickler, whom the last
        // waiter then tickles in turn...
        assert_eq!(
            lt.tick(t(1_001)),
            vec![
                notice(1, NoticeKind::Revoked { to: ClientId(2) }, 1_001),
                notice(2, granted(), 1_001),
                notice(2, tickle(3), 1_001),
            ]
        );
        // ...so no idle holder keeps a waiter out for good.
        let _ = lt.tick(t(2_001));
        assert_eq!(lt.holders(R), vec![(ClientId(3), LockMode::Exclusive)]);
    }

    #[test]
    fn upgrade_from_shared_to_exclusive_waits_for_other_readers() {
        let mut lt = LockTable::new(LockScheme::Hard);
        let _ = lt.request(ClientId(0), R, LockMode::Shared, t(0));
        let _ = lt.request(ClientId(1), R, LockMode::Shared, t(0));
        // Client 0 upgrades: must wait for client 1.
        let (reply, _) = lt.request(ClientId(0), R, LockMode::Exclusive, t(1));
        assert_eq!(reply, LockReply::Queued);
        let notices = lt.release(ClientId(1), R, t(2)).unwrap();
        assert_eq!(notices.len(), 1);
        assert_eq!(notices[0].to, ClientId(0));
        assert_eq!(lt.holders(R), vec![(ClientId(0), LockMode::Exclusive)]);
    }

    #[test]
    fn an_idle_reader_revoked_beside_an_active_one_hands_a_writer_nothing() {
        let mut lt = LockTable::new(LockScheme::Tickle {
            idle_timeout: SimDuration::from_millis(10),
        });
        let _ = lt.request(ClientId(0), R, LockMode::Shared, t(0));
        let _ = lt.request(ClientId(1), R, LockMode::Shared, t(0));
        let (reply, _) = lt.request(ClientId(2), R, LockMode::Exclusive, t(1));
        assert_eq!(reply, LockReply::Queued);
        // Reader 1 stays active; reader 0 idles out and is revoked. The
        // writer that tickled both may not hold beside reader 1.
        lt.touch(ClientId(1), R, t(15));
        let notices = lt.tick(t(20));
        assert_eq!(
            notices,
            vec![Notice {
                to: ClientId(0),
                kind: NoticeKind::Revoked { to: ClientId(2) },
                resource: R,
                at: t(20),
            }]
        );
        assert_eq!(lt.holders(R), vec![(ClientId(1), LockMode::Shared)]);
        assert_eq!(queue_len(&lt, R), 1);
        // Once reader 1 idles out too, the writer gets the lock.
        let _ = lt.tick(t(40));
        assert_eq!(lt.holders(R), vec![(ClientId(2), LockMode::Exclusive)]);
    }

    /// An answer: a request's reply, and the `Granted` notices as
    /// `(client, resource, mode)` in emission order.
    type Outcome = Result<(Option<LockReply>, Vec<(ClientId, ResourceId, LockMode)>), LockError>;

    /// The executable specification of [`LockTable`] for one resource:
    /// holders, FIFO queue, last accesses and pending tickles
    /// `(requester, holder)` as plain data, each rule stated once. It
    /// answers `Granted` notices only; tickles are kept for `tick`.
    #[derive(Debug, Default)]
    struct Spec {
        holders: BTreeMap<ClientId, LockMode>,
        queue: VecDeque<(ClientId, LockMode)>,
        last: BTreeMap<ClientId, SimTime>,
        tickles: Vec<(ClientId, ClientId)>,
    }

    impl Spec {
        fn admits(&self, c: ClientId, m: LockMode) -> bool {
            self.holders
                .iter()
                .all(|(&h, hm)| h == c || hm.compatible(m))
        }

        /// `new` hold; under tickle locks each waiter then tickles every
        /// one it conflicts with, once.
        fn grant(&mut self, new: &[(ClientId, LockMode)], tickle: bool, now: SimTime) {
            for &(c, m) in new {
                self.holders.insert(c, m);
                self.last.insert(c, now);
            }
            for &(w, wm) in self.queue.iter().filter(|_| tickle) {
                for &(h, hm) in new {
                    if h != w && !hm.compatible(wm) && !self.tickles.contains(&(w, h)) {
                        self.tickles.push((w, h));
                    }
                }
            }
        }

        /// The head of the queue is granted while the holders admit it.
        fn promote(&mut self, r: ResourceId, tickle: bool, now: SimTime) -> Outcome {
            let mut new = Vec::new();
            while let Some(&(c, m)) = self.queue.front().filter(|&&(c, m)| self.admits(c, m)) {
                self.queue.pop_front();
                self.holders.insert(c, m);
                new.push((c, m));
            }
            self.grant(&new, tickle, now);
            Ok((None, new.into_iter().map(|(c, m)| (c, r, m)).collect()))
        }

        fn request(
            &mut self,
            r: ResourceId,
            c: ClientId,
            m: LockMode,
            scheme: LockScheme,
            now: SimTime,
        ) -> Outcome {
            let held = self.holders.get(&c).copied();
            if held == Some(m) || held == Some(LockMode::Exclusive) {
                self.last.insert(c, now);
                return Ok((Some(LockReply::Granted), Vec::new()));
            }
            // An upgrade gives up the shared hold and asks afresh.
            self.holders.remove(&c);
            let conflicts: Vec<ClientId> = self
                .holders
                .iter()
                .filter(|(_, hm)| !hm.compatible(m))
                .map(|(&h, _)| h)
                .collect();
            if scheme == LockScheme::Soft || conflicts.is_empty() && self.queue.is_empty() {
                self.grant(&[(c, m)], false, now);
                let reply = match conflicts.is_empty() {
                    true => LockReply::Granted,
                    false => LockReply::GrantedConflict(conflicts),
                };
                return Ok((Some(reply), Vec::new()));
            }
            self.queue.push_back((c, m));
            let tickle = matches!(scheme, LockScheme::Tickle { .. });
            self.tickles
                .extend(conflicts.iter().filter(|_| tickle).map(|&h| (c, h)));
            if held.is_none() {
                return Ok((Some(LockReply::Queued), Vec::new()));
            }
            self.tickles.retain(|&(_, h)| h != c);
            Ok((Some(LockReply::Queued), self.promote(r, tickle, now)?.1))
        }

        /// Each idle tickled holder loses the lock; its tickler's first
        /// queue entry takes it if the other holders admit it.
        fn tick(&mut self, r: ResourceId, idle_timeout: SimDuration, now: SimTime) -> Outcome {
            let idle = |s: &Spec, h| {
                let since = s.last.get(&h).copied().unwrap_or(SimTime::ZERO);
                s.holders.contains_key(&h) && now.saturating_since(since) >= idle_timeout
            };
            let due: Vec<_> = self
                .tickles
                .iter()
                .copied()
                .filter(|&(_, h)| idle(self, h))
                .collect();
            let mut grants = Vec::new();
            for (req, h) in due {
                if self.holders.remove(&h).is_none() {
                    continue;
                }
                self.tickles.retain(|&(_, x)| x != h);
                let pos = self.queue.iter().position(|&(w, _)| w == req);
                if let Some(p) = pos.filter(|&p| self.admits(req, self.queue[p].1)) {
                    let (w, m) = self.queue.remove(p).expect("position is in range");
                    self.grant(&[(w, m)], true, now);
                    grants.push((w, r, m));
                }
                grants.extend(self.promote(r, true, now)?.1);
            }
            Ok((None, grants))
        }
    }

    /// One operation of a random workload.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Request(ClientId, ResourceId, LockMode),
        Release(ClientId, ResourceId),
        ReleaseAll(ClientId),
        Touch(ClientId, ResourceId),
        Tick,
    }

    /// Applies `op` to the spec of every resource under `scheme`.
    fn spec_step(
        spec: &mut BTreeMap<ResourceId, Spec>,
        scheme: LockScheme,
        op: Op,
        now: SimTime,
    ) -> Outcome {
        let tickle = matches!(scheme, LockScheme::Tickle { .. });
        let mut grants = Vec::new();
        match op {
            Op::Request(c, r, m) => {
                return spec.entry(r).or_default().request(r, c, m, scheme, now)
            }
            Op::Release(c, r) => {
                let s = spec.get_mut(&r).ok_or(LockError::NotHeld(c, r))?;
                s.holders.remove(&c).ok_or(LockError::NotHeld(c, r))?;
                s.tickles.retain(|&(_, h)| h != c);
                return s.promote(r, tickle, now);
            }
            // A departing holder *or waiter* unblocks what queued behind it.
            Op::ReleaseAll(c) => {
                for (&r, s) in spec.iter_mut() {
                    let queued = s.queue.len();
                    s.queue.retain(|&(w, _)| w != c);
                    s.tickles.retain(|&(q, h)| q != c && h != c);
                    if s.holders.remove(&c).is_some() || s.queue.len() != queued {
                        grants.extend(s.promote(r, tickle, now)?.1);
                    }
                }
            }
            Op::Touch(c, r) => {
                if let Some(s) = spec.get_mut(&r).filter(|s| s.holders.contains_key(&c)) {
                    s.last.insert(c, now);
                }
            }
            Op::Tick => {
                if let LockScheme::Tickle { idle_timeout } = scheme {
                    for (&r, s) in spec.iter_mut() {
                        grants.extend(s.tick(r, idle_timeout, now)?.1);
                    }
                }
            }
        }
        Ok((None, grants))
    }

    /// Drives `LockTable` and the spec through `ops` (each after its
    /// delay in ms). After every step the answers, the `Granted` notices
    /// and every resource's holders and queue order agree, the holders
    /// are pairwise compatible (soft locks aside), and the head of each
    /// queue is blocked.
    fn differential(scheme: LockScheme, ops: &[(Op, u64)], forget: bool) -> Result<(), String> {
        let mut lt = LockTable::new(scheme);
        lt.forget_waiter_promotion = forget;
        let mut spec = BTreeMap::new();
        let mut now = SimTime::ZERO;
        let granted = |notices: Vec<Notice>| {
            let grants = notices.into_iter().filter_map(|n| match n.kind {
                NoticeKind::Granted { mode } => Some((n.to, n.resource, mode)),
                _ => None,
            });
            grants.collect()
        };
        for (step, &(op, delay)) in ops.iter().enumerate() {
            now += SimDuration::from_millis(delay);
            let got: Outcome = match op {
                Op::Request(c, r, m) => {
                    let (reply, notices) = lt.request(c, r, m, now);
                    Ok((Some(reply), granted(notices)))
                }
                Op::Release(c, r) => lt.release(c, r, now).map(|n| (None, granted(n))),
                Op::ReleaseAll(c) => Ok((None, granted(lt.release_all(c, now)))),
                Op::Touch(c, r) => {
                    lt.touch(c, r, now);
                    Ok((None, Vec::new()))
                }
                Op::Tick => Ok((None, granted(lt.tick(now)))),
            };
            let want = spec_step(&mut spec, scheme, op, now);
            let at = format!("{scheme:?}, step {step} {op:?} at {now:?}");
            if got != want {
                return Err(format!(
                    "{at}: the table answered {got:?}, the spec {want:?}"
                ));
            }
            for (r, s) in &spec {
                let t = &lt.locks[r];
                let queue: VecDeque<_> = t.queue.iter().map(|w| (w.client, w.mode)).collect();
                if (&t.holders, &queue) != (&s.holders, &s.queue) {
                    return Err(format!(
                        "{at}: {r} is {:?} {queue:?}, the spec {s:?}",
                        t.holders
                    ));
                }
                let conflict =
                    scheme != LockScheme::Soft && s.holders.iter().any(|(&c, &m)| !s.admits(c, m));
                let head = s.queue.front().filter(|&&(c, m)| s.admits(c, m));
                if conflict || head.is_some() {
                    return Err(format!(
                        "{at}: {r} holds {:?} while {:?} waits",
                        s.holders, s.queue
                    ));
                }
            }
        }
        Ok(())
    }

    const SCHEMES: [LockScheme; 4] = [
        LockScheme::Hard,
        LockScheme::Tickle {
            idle_timeout: SimDuration::from_millis(500),
        },
        LockScheme::Soft,
        LockScheme::Notification,
    ];

    /// Up to 40 operations, half of them requests, by up to 4 clients on
    /// up to 2 resources, each after up to 400 ms (so tickled holders
    /// both stay active and go idle).
    fn workload() -> impl proptest::strategy::Strategy<Value = Vec<(Op, u64)>> {
        use proptest::strategy::Strategy;
        let exclusive = proptest::arbitrary::any::<bool>();
        let op =
            (0u8..10, 0u32..4, 0u64..2, exclusive, 0u64..400).prop_map(|(k, c, r, x, delay)| {
                let (c, r) = (ClientId(c), ResourceId(r));
                let m = if x {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let op = [
                    Op::Release(c, r),
                    Op::ReleaseAll(c),
                    Op::Touch(c, r),
                    Op::Tick,
                    Op::Tick,
                ];
                (
                    op.get(k as usize).copied().unwrap_or(Op::Request(c, r, m)),
                    delay,
                )
            });
        proptest::collection::vec(op, 0..=40)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn the_lock_table_follows_its_spec(ops in workload()) {
            for scheme in SCHEMES {
                proptest::prop_assert_eq!(differential(scheme, &ops, false), Ok(()));
            }
        }
    }

    #[test]
    fn the_spec_catches_a_departing_waiter_that_promotes_nobody() {
        use proptest::strategy::Strategy;
        let caught = (0..256).any(|case| {
            let mut rng = proptest::test_runner::TestRng::for_case("forget_waiter_promotion", case);
            let ops = workload().new_value(&mut rng);
            SCHEMES
                .iter()
                .any(|&scheme| differential(scheme, &ops, true).is_err())
        });
        assert!(caught, "restoring the departing-waiter bug went unnoticed");
    }
}

//! The unified, rights-gated cooperation-event bus.
//!
//! The paper's integration thesis (§4.3–§4.4) is that awareness is a
//! *cross-cutting* platform service: concurrency control, floor control,
//! access negotiation, mobility and trading should all feed user
//! awareness, mediated by focus–nimbus weighting and gated by access
//! rights so participants only become aware of what they may see (Shen &
//! Dewan). Before this module, each subsystem spoke its own notice
//! vocabulary (`Notice`, `GroupNotice`, `FloorEvent`, `ReplayOutcome`,
//! session transition logs) and none were rights-checked.
//!
//! [`CoopEvent`] is the single vocabulary: one `actor`/`artefact`/`at`
//! header plus a [`CoopKind`] variant per cooperative phenomenon. The
//! [`EventBus`] routes published events to registered observers:
//!
//! 1. **rights gate** — an observer without [`Rights::READ`] on the
//!    event's artefact path never sees the event (counted per observer
//!    in `suppressed_by_rights`, disclosed via [`EventBus::stats`]);
//! 2. **focus–nimbus weighting** — survivors are scored by a pluggable
//!    [`CoopWeightFn`] and compared against the observer's interest
//!    threshold; a weight of `0.0` never delivers. A weight function
//!    that cares only for the kind of activity matches on
//!    [`CoopKind::activity`].
//!
//! Producers do not know the bus. Every cooperation-aware engine returns
//! its own typed outcome (`Notice`, `FloorEvent`, `GroupNotice`, ...),
//! each outcome projects itself with `CoopEvent::from(&outcome)`, and the
//! caller hands the lot to [`EventBus::publish_all`] — the one way a
//! projection reaches observers.
//!
//! Network distribution of bus deliveries over causal multicast lives in
//! [`crate::dist`].

use std::fmt;

use odp_access::matrix::Subject;
use odp_access::rbac::{ObjectPath, RbacPolicy};
use odp_access::rights::Rights;
use odp_fabric::SortedVecMap;
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

use crate::events::ActivityKind;

/// Lock/access mode carried by cooperation events.
///
/// A bus-local mirror of `odp_concurrency::locks::LockMode` — the
/// awareness crate sits *below* the concurrency crate in the dependency
/// graph, so the mode is restated here rather than imported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoopMode {
    /// Shared / read intent.
    Shared,
    /// Exclusive / write intent.
    Exclusive,
}

impl fmt::Display for CoopMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CoopMode::Shared => "shared",
            CoopMode::Exclusive => "exclusive",
        })
    }
}

/// Who an event is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Audience {
    /// Every registered observer, scored by the weight function; the
    /// actor never observes itself.
    Everyone,
    /// One specific addressee (a lock grant, a tickle request): the
    /// weight function and threshold are bypassed (weight `1.0`) and the
    /// addressee may equal the actor — but the rights gate still
    /// applies.
    Direct(NodeId),
}

/// What happened — one variant per cooperative phenomenon the platform's
/// subsystems previously reported through private notice types.
#[derive(Debug, Clone, PartialEq)]
pub enum CoopKind {
    /// A raw activity observation (edit/view/enter/...), the vocabulary
    /// of [`crate::events`].
    Activity(ActivityKind),
    /// A lock was granted to the actor.
    LockGranted {
        /// Granted mode.
        mode: CoopMode,
    },
    /// A tickle request: `by` wants the actor's idle lock.
    LockTickled {
        /// The requester.
        by: NodeId,
    },
    /// The actor's lock was revoked in favour of `to`.
    LockRevoked {
        /// The new holder.
        to: NodeId,
    },
    /// The actor's optimistic access conflicts with `with`.
    LockConflict {
        /// The conflicting party.
        with: NodeId,
    },
    /// Notification-scheme access: `by` accessed the artefact.
    LockAccess {
        /// Who accessed.
        by: NodeId,
        /// In which mode.
        mode: CoopMode,
    },
    /// A transaction-group member accessed a shared object.
    GroupAccess {
        /// Access mode.
        mode: CoopMode,
    },
    /// The actor acquired the floor.
    FloorGranted,
    /// The actor lost the floor to preemption.
    FloorPreempted,
    /// The floor fell idle after the actor released it.
    FloorIdle,
    /// A remote OT operation from `site` was applied locally.
    RemoteOp {
        /// Originating site.
        site: NodeId,
        /// Site-local sequence number.
        seq: u64,
    },
    /// An access-renegotiation outcome on the artefact.
    AccessChanged {
        /// Granted (`true`) or revoked/denied (`false`).
        granted: bool,
        /// Human-readable rights description.
        rights: String,
    },
    /// Mobile reintegration hit a conflict on the artefact.
    ReintegrationConflict {
        /// Whether the mobile value was applied (client-wins).
        applied: bool,
    },
    /// The session switched cooperation mode.
    SessionSwitched {
        /// Previous mode label.
        from: String,
        /// New mode label.
        to: String,
    },
    /// A traded service binding was invalidated.
    ServiceInvalidated {
        /// Invalidation reason label.
        reason: String,
    },
    /// The placement controller moved a cluster to a new home (the
    /// artefact names the cluster's offer, e.g. `raster/tile/3`).
    ClusterMigrated {
        /// The old home node.
        from: NodeId,
        /// The new home node.
        to: NodeId,
    },
}

impl CoopKind {
    /// A stable dotted label for traces, metrics and reports.
    pub fn label(&self) -> &'static str {
        match self {
            CoopKind::Activity(_) => "activity",
            CoopKind::LockGranted { .. } => "lock.granted",
            CoopKind::LockTickled { .. } => "lock.tickled",
            CoopKind::LockRevoked { .. } => "lock.revoked",
            CoopKind::LockConflict { .. } => "lock.conflict",
            CoopKind::LockAccess { .. } => "lock.access",
            CoopKind::GroupAccess { .. } => "group.access",
            CoopKind::FloorGranted => "floor.granted",
            CoopKind::FloorPreempted => "floor.preempted",
            CoopKind::FloorIdle => "floor.idle",
            CoopKind::RemoteOp { .. } => "ot.remote",
            CoopKind::AccessChanged { .. } => "access.changed",
            CoopKind::ReintegrationConflict { .. } => "mobility.conflict",
            CoopKind::SessionSwitched { .. } => "session.switched",
            CoopKind::ServiceInvalidated { .. } => "trader.invalidated",
            CoopKind::ClusterMigrated { .. } => "place.migrated",
        }
    }

    /// Maps the cooperative phenomenon onto the closest raw
    /// [`ActivityKind`], so a weight function can score every
    /// cooperation event by the kind of activity it is.
    pub fn activity(&self) -> ActivityKind {
        match self {
            CoopKind::Activity(k) => *k,
            CoopKind::LockGranted { .. }
            | CoopKind::LockTickled { .. }
            | CoopKind::LockRevoked { .. }
            | CoopKind::LockConflict { .. }
            | CoopKind::LockAccess { .. }
            | CoopKind::GroupAccess { .. }
            | CoopKind::RemoteOp { .. }
            | CoopKind::ReintegrationConflict { .. } => ActivityKind::Edit,
            CoopKind::SessionSwitched { .. } | CoopKind::ClusterMigrated { .. } => {
                ActivityKind::Move
            }
            CoopKind::FloorGranted
            | CoopKind::FloorPreempted
            | CoopKind::FloorIdle
            | CoopKind::AccessChanged { .. }
            | CoopKind::ServiceInvalidated { .. } => ActivityKind::Gesture,
        }
    }
}

/// One cooperation event: the unified header shared by every subsystem
/// plus the phenomenon-specific [`CoopKind`].
#[derive(Debug, Clone, PartialEq)]
pub struct CoopEvent {
    /// Who caused the event.
    pub actor: NodeId,
    /// The artefact path it concerns (rights are checked against this).
    /// Always in [`ObjectPath`] normal form: a name is normalised where
    /// it enters — these constructors, or the wire decoder — so
    /// `"doc//a/"` reads back as `"doc/a"`.
    pub artefact: ObjectPath,
    /// When.
    pub at: SimTime,
    /// Who should hear about it.
    pub audience: Audience,
    /// What happened.
    pub kind: CoopKind,
}

impl CoopEvent {
    /// A broadcast event (audience [`Audience::Everyone`]).
    pub fn broadcast(
        actor: NodeId,
        artefact: impl Into<ObjectPath>,
        at: SimTime,
        kind: CoopKind,
    ) -> Self {
        CoopEvent {
            actor,
            artefact: artefact.into(),
            at,
            audience: Audience::Everyone,
            kind,
        }
    }

    /// A directed event for one addressee (still rights-gated).
    pub fn direct(
        actor: NodeId,
        to: NodeId,
        artefact: impl Into<ObjectPath>,
        at: SimTime,
        kind: CoopKind,
    ) -> Self {
        CoopEvent {
            actor,
            artefact: artefact.into(),
            at,
            audience: Audience::Direct(to),
            kind,
        }
    }
}

/// A weighted, rights-cleared delivery of a cooperation event to one
/// observer.
#[derive(Debug, Clone, PartialEq)]
pub struct BusDelivery {
    /// The observer receiving the event.
    pub observer: NodeId,
    /// The event.
    pub event: CoopEvent,
    /// Awareness weight in `[0, 1]` (always `1.0` for
    /// [`Audience::Direct`] deliveries).
    pub weight: f64,
}

/// Computes the awareness weight of a cooperation event for an observer.
///
/// Returning `0.0` suppresses delivery entirely (broadcast audience
/// only; directed events bypass weighting).
///
/// `Send` so a bus replica can be hosted on a threaded transport
/// backend (`odp-net`'s TCP driver moves the actor into its driver
/// thread).
pub type CoopWeightFn = Box<dyn Fn(NodeId, &CoopEvent) -> f64 + Send>;

/// Per-observer bus state.
struct BusObserver {
    threshold: f64,
    received: u64,
    suppressed_low_weight: u64,
    suppressed_by_rights: u64,
    /// The last rights verdict: the artefact (a handle on the event's
    /// path, not a copy), the [`RbacPolicy::generation`] it was decided
    /// under, and whether the observer may read it.
    verdict: Option<(ObjectPath, u64, bool)>,
}

impl BusObserver {
    /// Whether `observer` may read `path` under `policy`. The policy is
    /// asked only when the path or the policy's generation differs from
    /// the last question's: an edit stream on one artefact asks once per
    /// observer until the policy changes.
    fn may_read(
        &mut self,
        observer: NodeId,
        path: &ObjectPath,
        policy: &RbacPolicy,
        generation: u64,
    ) -> bool {
        match &self.verdict {
            Some((seen, at, allowed)) if *at == generation && seen == path => *allowed,
            _ => {
                let allowed = policy.allows(Subject(observer.0), path, Rights::READ);
                self.verdict = Some((path.clone(), generation, allowed));
                allowed
            }
        }
    }
}

/// Per-observer delivery statistics, disclosed by [`EventBus::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusStats {
    /// Deliveries that reached the observer.
    pub received: u64,
    /// Events suppressed below the observer's interest threshold.
    pub suppressed_low_weight: u64,
    /// Events suppressed because the observer lacked read rights on the
    /// artefact.
    pub suppressed_by_rights: u64,
}

/// The unified cooperation-event bus: rights gate, then focus–nimbus
/// weighting, then delivery.
///
/// A fresh bus is *open*: weight `1.0` for everyone and no rights gate,
/// matching the pre-bus behaviour of the subsystem notice types it
/// replaces. Installing a policy with [`EventBus::set_policy`] arms the
/// gate.
///
/// # Examples
///
/// ```
/// use odp_access::matrix::Subject;
/// use odp_access::rbac::{Effect, RbacPolicy, RoleId};
/// use odp_access::rights::Rights;
/// use odp_awareness::bus::{CoopEvent, CoopKind, CoopMode, EventBus};
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut policy = RbacPolicy::new();
/// policy.add_rule(RoleId(1), "doc".into(), Rights::READ, Effect::Allow);
/// policy.assign(Subject(1), RoleId(1)); // observer 1 may read doc/*
///
/// let mut bus = EventBus::new();
/// bus.set_policy(policy);
/// bus.register(NodeId(1), 0.0);
/// bus.register(NodeId(2), 0.0); // no rights on doc/*
///
/// let out = bus.publish(CoopEvent::broadcast(
///     NodeId(0),
///     "doc/intro",
///     SimTime::ZERO,
///     CoopKind::LockGranted { mode: CoopMode::Exclusive },
/// ));
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].observer, NodeId(1));
/// assert_eq!(bus.suppressed_by_rights(), 1); // observer 2 never saw it
/// ```
pub struct EventBus {
    weight: CoopWeightFn,
    // Sorted vec, not a BTreeMap: the grant loop in `publish` walks
    // every observer per event, and contiguous entries keep that scan
    // cache-friendly while preserving NodeId iteration order.
    observers: SortedVecMap<NodeId, BusObserver>,
    policy: RbacPolicy,
    gate: bool,
    published: u64,
    /// Seeded known-bad for the cached-verdict differential: the cache
    /// keys on the artefact alone and misses every policy change.
    #[cfg(test)]
    key_on_path_only: bool,
}

impl EventBus {
    /// Creates an open bus: weight `1.0` for every observer, rights gate
    /// disarmed until [`EventBus::set_policy`] installs a policy.
    pub fn new() -> Self {
        EventBus {
            weight: Box::new(|_, _| 1.0),
            observers: SortedVecMap::new(),
            policy: RbacPolicy::new(),
            gate: false,
            published: 0,
            #[cfg(test)]
            key_on_path_only: false,
        }
    }

    /// Installs the access policy the rights gate consults and arms the
    /// gate: from now on an observer needs [`Rights::READ`] on an
    /// event's artefact path to receive it.
    ///
    /// Each observer keeps its last verdict under the policy's
    /// [`generation`](RbacPolicy::generation), which every policy
    /// mutation renews and which is unique process-wide; a policy
    /// installed here, or edited or replaced through
    /// [`EventBus::policy_mut`], is therefore asked afresh.
    pub fn set_policy(&mut self, policy: RbacPolicy) {
        self.policy = policy;
        self.gate = true;
    }

    /// Arms or disarms the rights gate explicitly.
    ///
    /// Intended for harnesses and fault injection (the known-bad
    /// explorer fixture disarms the gate to prove the `awareness-gating`
    /// detector detects); production configurations arm the gate via
    /// [`EventBus::set_policy`].
    pub fn set_rights_gate(&mut self, on: bool) {
        self.gate = on;
    }

    /// The installed access policy.
    pub fn policy(&self) -> &RbacPolicy {
        &self.policy
    }

    /// Mutable access to the installed policy (renegotiation).
    pub fn policy_mut(&mut self) -> &mut RbacPolicy {
        &mut self.policy
    }

    /// Replaces the weighting function.
    pub fn set_weight_fn(&mut self, weight: CoopWeightFn) {
        self.weight = weight;
    }

    /// Registers an observer with a minimum-interest threshold in
    /// `[0, 1]`.
    pub fn register(&mut self, observer: NodeId, threshold: f64) {
        self.observers.insert(
            observer,
            BusObserver {
                threshold: threshold.clamp(0.0, 1.0),
                received: 0,
                suppressed_low_weight: 0,
                suppressed_by_rights: 0,
                verdict: None,
            },
        );
    }

    /// Removes an observer.
    pub fn unregister(&mut self, observer: NodeId) {
        self.observers.remove(&observer);
    }

    /// The registered observers.
    pub fn observers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.observers.keys().copied()
    }

    /// Publishes a cooperation event.
    ///
    /// For each registered observer, in order: the rights gate (no read
    /// rights on the artefact → suppressed, counted), then — broadcast
    /// audience only — the weight function against the observer's
    /// threshold. Directed events go only to their addressee at weight
    /// `1.0`; broadcast events never reach their own actor. A verdict is
    /// reused while the observer, artefact and policy generation are
    /// those it was decided for, so it is exactly what the policy says.
    pub fn publish(&mut self, event: CoopEvent) -> Vec<BusDelivery> {
        self.published += 1;
        let generation = self.policy.generation();
        #[cfg(test)]
        let generation = if self.key_on_path_only { 0 } else { generation };
        // Sized once for the most that can pass, not grown per push.
        let mut out = Vec::with_capacity(match event.audience {
            Audience::Direct(_) => 1,
            Audience::Everyone => self.observers.len(),
        });
        for (&observer, state) in self.observers.iter_mut() {
            let weight = match event.audience {
                Audience::Direct(to) => {
                    if observer != to {
                        continue;
                    }
                    1.0
                }
                Audience::Everyone => {
                    if observer == event.actor {
                        continue;
                    }
                    (self.weight)(observer, &event).clamp(0.0, 1.0)
                }
            };
            // Rights first: an observer without read rights must not
            // learn the event existed, regardless of interest.
            let allowed =
                !self.gate || state.may_read(observer, &event.artefact, &self.policy, generation);
            if !allowed {
                state.suppressed_by_rights += 1;
                continue;
            }
            let pass = match event.audience {
                Audience::Direct(_) => true,
                Audience::Everyone => weight >= state.threshold && weight > 0.0,
            };
            if pass {
                state.received += 1;
                out.push(BusDelivery {
                    observer,
                    // Each observer gets an owned event by API contract.
                    // For activity events that is a refcount bump on the
                    // artefact path plus `Copy` fields; only the rarer
                    // kinds that carry a label string copy it.
                    // odp-check: allow(hot-path-alloc)
                    event: event.clone(),
                    weight,
                });
            } else {
                state.suppressed_low_weight += 1;
            }
        }
        out
    }

    /// Publishes everything an engine's outcome projects to, in order,
    /// concatenating the surviving deliveries: `bus.publish_all(&notices)`.
    pub fn publish_all(
        &mut self,
        events: impl IntoIterator<Item = impl Into<CoopEvent>>,
    ) -> Vec<BusDelivery> {
        events
            .into_iter()
            .flat_map(|e| self.publish(e.into()))
            .collect()
    }

    /// Total events published.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Total deliveries suppressed by the rights gate, across all
    /// observers.
    pub fn suppressed_by_rights(&self) -> u64 {
        self.observers
            .values()
            .map(|o| o.suppressed_by_rights)
            .sum()
    }

    /// Per-observer delivery statistics.
    pub fn stats(&self, observer: NodeId) -> Option<BusStats> {
        self.observers.get(&observer).map(|o| BusStats {
            received: o.received,
            suppressed_low_weight: o.suppressed_low_weight,
            suppressed_by_rights: o.suppressed_by_rights,
        })
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new()
    }
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("observers", &self.observers.len())
            .field("gate", &self.gate)
            .field("published", &self.published)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_access::rbac::{Effect, RoleId};

    fn reader_policy(readers: &[u32], path: &str) -> RbacPolicy {
        let mut p = RbacPolicy::new();
        p.add_rule(RoleId(1), path.into(), Rights::READ, Effect::Allow);
        for &r in readers {
            p.assign(Subject(r), RoleId(1));
        }
        p
    }

    fn bcast(actor: u32) -> CoopEvent {
        CoopEvent::broadcast(
            NodeId(actor),
            "doc/a",
            SimTime::ZERO,
            CoopKind::Activity(ActivityKind::Edit),
        )
    }

    #[test]
    fn open_bus_delivers_to_everyone_but_the_actor() {
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(1), 0.0);
        bus.register(NodeId(2), 0.0);
        let out = bus.publish(bcast(0));
        let observers: Vec<NodeId> = out.iter().map(|d| d.observer).collect();
        assert_eq!(observers, vec![NodeId(1), NodeId(2)], "actor excluded");
        assert_eq!(bus.suppressed_by_rights(), 0);
    }

    #[test]
    fn rights_gate_suppresses_unauthorized_observers_with_disclosure() {
        let mut bus = EventBus::new();
        bus.set_policy(reader_policy(&[1], "doc"));
        bus.register(NodeId(1), 0.0);
        bus.register(NodeId(2), 0.0);
        let out = bus.publish(bcast(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].observer, NodeId(1));
        assert_eq!(bus.suppressed_by_rights(), 1);
        let s2 = bus.stats(NodeId(2)).unwrap();
        assert_eq!(s2.suppressed_by_rights, 1);
        assert_eq!(s2.received, 0);
        assert_eq!(s2.suppressed_low_weight, 0, "rights, not weight");
    }

    #[test]
    fn direct_events_bypass_weighting_but_not_the_rights_gate() {
        let mut bus = EventBus::new();
        bus.set_policy(reader_policy(&[1], "doc"));
        bus.set_weight_fn(Box::new(|_, _| 0.0)); // would suppress broadcasts
        bus.register(NodeId(1), 0.9);
        bus.register(NodeId(2), 0.0);
        let to_reader = bus.publish(CoopEvent::direct(
            NodeId(0),
            NodeId(1),
            "doc/a",
            SimTime::ZERO,
            CoopKind::LockGranted {
                mode: CoopMode::Shared,
            },
        ));
        assert_eq!(to_reader.len(), 1, "weight fn and threshold bypassed");
        assert_eq!(to_reader[0].weight, 1.0);
        let to_stranger = bus.publish(CoopEvent::direct(
            NodeId(0),
            NodeId(2),
            "doc/a",
            SimTime::ZERO,
            CoopKind::LockGranted {
                mode: CoopMode::Shared,
            },
        ));
        assert!(to_stranger.is_empty(), "rights gate still applies");
        assert_eq!(bus.stats(NodeId(2)).unwrap().suppressed_by_rights, 1);
    }

    #[test]
    fn direct_events_may_address_the_actor() {
        let mut bus = EventBus::new();
        bus.register(NodeId(5), 0.0);
        let out = bus.publish(CoopEvent::direct(
            NodeId(5),
            NodeId(5),
            "res/1",
            SimTime::ZERO,
            CoopKind::LockGranted {
                mode: CoopMode::Exclusive,
            },
        ));
        assert_eq!(out.len(), 1, "a lock grant notifies its own requester");
    }

    #[test]
    fn threshold_and_zero_weight_suppress_broadcasts() {
        let mut bus = EventBus::new();
        bus.set_weight_fn(Box::new(|obs, _| if obs == NodeId(1) { 0.9 } else { 0.2 }));
        bus.register(NodeId(1), 0.5);
        bus.register(NodeId(2), 0.5);
        let out = bus.publish(bcast(0));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].observer, NodeId(1));
        let s2 = bus.stats(NodeId(2)).unwrap();
        assert_eq!(s2.suppressed_low_weight, 1);
        assert_eq!(s2.suppressed_by_rights, 0);
    }

    #[test]
    fn publish_all_projects_each_item_and_concatenates_in_order() {
        let mut bus = EventBus::new();
        bus.register(NodeId(1), 0.0);
        bus.register(NodeId(2), 0.0);
        let out = bus.publish_all([bcast(0), bcast(1)]);
        let seen: Vec<(NodeId, NodeId)> = out.iter().map(|d| (d.event.actor, d.observer)).collect();
        assert_eq!(
            seen,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(0), NodeId(2)),
                (NodeId(1), NodeId(2))
            ]
        );
        assert_eq!(bus.published(), 2);
        assert!(bus.publish_all(Vec::<CoopEvent>::new()).is_empty());
    }

    #[test]
    fn disarming_the_gate_reopens_delivery() {
        let mut bus = EventBus::new();
        bus.set_policy(reader_policy(&[], "doc"));
        bus.register(NodeId(1), 0.0);
        assert!(bus.publish(bcast(0)).is_empty());
        bus.set_rights_gate(false);
        assert_eq!(bus.publish(bcast(0)).len(), 1);
    }

    #[test]
    fn legacy_weight_fns_score_coop_events_via_the_activity_mapping() {
        let mut bus = EventBus::new();
        // A fn that only cares about Edit activity.
        bus.set_weight_fn(Box::new(|_, ev| {
            if ev.kind.activity() == ActivityKind::Edit {
                1.0
            } else {
                0.0
            }
        }));
        bus.register(NodeId(1), 0.5);
        // GroupAccess maps onto Edit.
        let seen = bus.publish(CoopEvent::broadcast(
            NodeId(0),
            "obj/1",
            SimTime::ZERO,
            CoopKind::GroupAccess {
                mode: CoopMode::Exclusive,
            },
        ));
        assert_eq!(seen.len(), 1);
        // FloorIdle maps onto Gesture → weight 0 → suppressed.
        let unseen = bus.publish(CoopEvent::broadcast(
            NodeId(0),
            "floor",
            SimTime::ZERO,
            CoopKind::FloorIdle,
        ));
        assert!(unseen.is_empty());
    }

    #[test]
    fn labels_are_stable_and_dotted() {
        assert_eq!(
            CoopKind::LockGranted {
                mode: CoopMode::Shared
            }
            .label(),
            "lock.granted"
        );
        assert_eq!(
            CoopKind::SessionSwitched {
                from: "a".into(),
                to: "b".into()
            }
            .label(),
            "session.switched"
        );
        assert_eq!(
            CoopKind::ServiceInvalidated { reason: "x".into() }.label(),
            "trader.invalidated"
        );
        assert_eq!(
            CoopKind::ClusterMigrated {
                from: NodeId(0),
                to: NodeId(3)
            }
            .label(),
            "place.migrated"
        );
    }

    /// The bus's cached verdicts against a bus that asks the policy for
    /// every observer of every event.
    mod cached_verdicts {
        use super::*;
        use proptest::prelude::*;
        use proptest::strategy::Strategy;
        use proptest::test_runner::TestRng;
        use std::collections::BTreeMap;

        const NODES: u32 = 5;
        const PATHS: [&str; 4] = ["doc/a", "doc/b", "doc/a/x", "other/1"];
        const PREFIXES: [&str; 4] = ["doc", "doc/a", "other", ""];

        fn weight(observer: NodeId, event: &CoopEvent) -> f64 {
            f64::from((observer.0 * 3 + event.actor.0) % 4) / 3.0
        }

        /// The publish loop with `allows` asked every time. Kept as the
        /// oracle.
        #[derive(Default)]
        struct AskEveryTime {
            policy: RbacPolicy,
            gate: bool,
            observers: BTreeMap<NodeId, (f64, BusStats)>,
        }

        impl AskEveryTime {
            fn publish(&mut self, event: &CoopEvent) -> Vec<BusDelivery> {
                let mut out = Vec::new();
                for (&observer, (threshold, stats)) in &mut self.observers {
                    let weight = match event.audience {
                        Audience::Direct(to) if to == observer => 1.0,
                        Audience::Everyone if observer != event.actor => weight(observer, event),
                        _ => continue,
                    };
                    let readable =
                        self.policy
                            .allows(Subject(observer.0), &event.artefact, Rights::READ);
                    if self.gate && !readable {
                        stats.suppressed_by_rights += 1;
                    } else if matches!(event.audience, Audience::Direct(_))
                        || (weight >= *threshold && weight > 0.0)
                    {
                        stats.received += 1;
                        out.push(BusDelivery {
                            observer,
                            event: event.clone(),
                            weight,
                        });
                    } else {
                        stats.suppressed_low_weight += 1;
                    }
                }
                out
            }
        }

        /// A small policy drawn from two numbers: role 0 reads under one
        /// prefix, role 1 holds every right under another, and the
        /// subjects in `members`' low bits hold role `b % 2`.
        fn drawn_policy(a: u32, members: u32) -> RbacPolicy {
            let mut p = RbacPolicy::new();
            p.add_rule(
                RoleId(0),
                PREFIXES[a as usize % 4].into(),
                Rights::READ,
                Effect::Allow,
            );
            p.add_rule(
                RoleId(1),
                PREFIXES[(a / 4) as usize % 4].into(),
                Rights::ALL,
                Effect::Allow,
            );
            for s in (0..NODES).filter(|s| members >> s & 1 == 1) {
                p.assign(Subject(s), RoleId(members >> 8 & 1));
            }
            p
        }

        /// Drives the bus and the oracle through `ops` and compares every
        /// publish's deliveries and every observer's statistics after
        /// every step; the first difference is the error.
        fn drive(ops: &[(u32, u32, u32, u32)], key_on_path_only: bool) -> Result<(), String> {
            let mut bus = EventBus::new();
            bus.key_on_path_only = key_on_path_only;
            bus.set_weight_fn(Box::new(weight));
            let mut oracle = AskEveryTime::default();
            let shared: Vec<ObjectPath> = PATHS.iter().map(ObjectPath::new).collect();
            for (step, &(op, a, b, c)) in ops.iter().enumerate() {
                let role = |x: u32| RoleId(x % 3);
                let mut deliveries = None;
                match op {
                    0..=5 => {
                        let which = a as usize % PATHS.len();
                        // A handle on one allocation, or an equal path
                        // decoded afresh: both must hit the cache.
                        let path = if c % 2 == 0 {
                            shared[which].clone()
                        } else {
                            ObjectPath::new(PATHS[which])
                        };
                        let actor = NodeId(b % NODES);
                        let kind = CoopKind::Activity(ActivityKind::Edit);
                        let event = if (b / NODES).is_multiple_of(3) {
                            CoopEvent::direct(
                                actor,
                                NodeId(c / 2 % NODES),
                                path,
                                SimTime::ZERO,
                                kind,
                            )
                        } else {
                            CoopEvent::broadcast(actor, path, SimTime::ZERO, kind)
                        };
                        deliveries = Some((bus.publish(event.clone()), oracle.publish(&event)));
                    }
                    6 => {
                        let (rights, effect) = [
                            (Rights::READ, Effect::Allow),
                            (Rights::ALL, Effect::Allow),
                            (Rights::READ, Effect::Deny),
                            (Rights::WRITE, Effect::Allow),
                        ][a as usize % 4];
                        let path: ObjectPath = PREFIXES[c as usize % 4].into();
                        bus.policy_mut()
                            .add_rule(role(b), path.clone(), rights, effect);
                        oracle.policy.add_rule(role(b), path, rights, effect);
                    }
                    7 => {
                        bus.policy_mut().add_inheritance(role(b), role(c));
                        oracle.policy.add_inheritance(role(b), role(c));
                    }
                    8 => {
                        bus.policy_mut().assign(Subject(b % NODES), role(c));
                        oracle.policy.assign(Subject(b % NODES), role(c));
                    }
                    9 => {
                        bus.policy_mut().unassign(Subject(b % NODES), role(c));
                        oracle.policy.unassign(Subject(b % NODES), role(c));
                    }
                    10 => {
                        bus.set_policy(drawn_policy(a, b));
                        oracle.policy = drawn_policy(a, b);
                        oracle.gate = true;
                    }
                    11 => {
                        // Replaced whole, not through `set_policy`.
                        *bus.policy_mut() = drawn_policy(a, b);
                        oracle.policy = drawn_policy(a, b);
                    }
                    12 => {
                        bus.set_rights_gate(b % 2 == 0);
                        oracle.gate = b % 2 == 0;
                    }
                    13 => {
                        let threshold = f64::from(c % 3) * 0.3;
                        bus.register(NodeId(b % NODES), threshold);
                        let stats = BusStats {
                            received: 0,
                            suppressed_low_weight: 0,
                            suppressed_by_rights: 0,
                        };
                        oracle
                            .observers
                            .insert(NodeId(b % NODES), (threshold, stats));
                    }
                    _ => {
                        bus.unregister(NodeId(b % NODES));
                        oracle.observers.remove(&NodeId(b % NODES));
                    }
                }
                if let Some((got, want)) = deliveries {
                    if got != want {
                        return Err(format!(
                            "step {step}: delivered {got:?}, the policy says {want:?}"
                        ));
                    }
                }
                for n in (0..NODES).map(NodeId) {
                    let want = oracle.observers.get(&n).map(|(_, stats)| *stats);
                    if bus.stats(n) != want {
                        return Err(format!(
                            "step {step}: {n} stats {:?}, want {want:?}",
                            bus.stats(n)
                        ));
                    }
                }
            }
            Ok(())
        }

        fn ops() -> impl Strategy<Value = Vec<(u32, u32, u32, u32)>> {
            prop::collection::vec((0u32..15, 0u32..64, 0u32..512, 0u32..64), 1..80)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Over any interleaving of publishes (a few paths, both
            /// audiences, any actor) with policy edits, policy swaps, the
            /// gate and observer churn, the cached bus delivers and
            /// counts exactly what asking the policy every time does.
            #[test]
            fn cached_verdicts_decide_what_the_policy_decides(ops in ops()) {
                prop_assert_eq!(drive(&ops, false), Ok(()));
            }
        }

        /// Known-bad for the differential above: a cache keyed on the
        /// artefact alone keeps verdicts the policy has since changed,
        /// and the differential must see it.
        #[test]
        fn the_differential_catches_a_cache_keyed_on_the_path_alone() {
            let caught = (0..256)
                .filter(|&case| {
                    let mut rng = TestRng::for_case("cached_verdicts::known_bad", case);
                    drive(&ops().new_value(&mut rng), true).is_err()
                })
                .count();
            assert!(caught > 0, "a stale verdict went unnoticed in 256 cases");
        }
    }
}

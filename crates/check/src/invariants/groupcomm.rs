//! Group-communication invariants: vector clocks only grow, and
//! ordered multicast produces agreeing delivery sequences.
//!
//! The harness runs one [`GroupEngine`] per member in an
//! [`EngineHost`] on a scripted actor (message type `GcMsg<u64>`), with
//! each member multicasting payloads at staggered times; the explorer
//! permutes the in-flight engine traffic.

use std::collections::BTreeMap;

use odp_groupcomm::host::EngineHost;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GcMsg, GroupEngine, Ordering, Reliability};
use odp_groupcomm::vclock::{Causality, VectorClock};
use odp_sim::net::NodeId;
use odp_sim::prelude::*;

use crate::explore::Invariant;

const SEND_TAG0: u64 = 100;

/// One group member as a simulator actor.
pub(crate) struct Member {
    host: EngineHost<u64>,
    script: Vec<(SimDuration, u64)>,
    /// Deliveries in order: `(origin, payload)`.
    pub delivered: Vec<(NodeId, u64)>,
}

impl Member {
    /// A member of `view` multicasting each `(at, payload)` of `script`.
    pub fn new(
        me: NodeId,
        view: View,
        ordering: Ordering,
        script: Vec<(SimDuration, u64)>,
    ) -> Self {
        Member {
            host: EngineHost::new(
                GroupEngine::new(me, view, ordering, Reliability::reliable()),
                SimDuration::from_millis(50),
            ),
            script,
            delivered: Vec::new(),
        }
    }

    /// The engine (invariants read its vector clock).
    pub fn engine(&self) -> &GroupEngine<u64> {
        self.host.engine()
    }

    fn record(&mut self, deliveries: Vec<Delivery<u64>>) {
        for d in deliveries {
            self.delivered.push((d.id.origin, d.payload));
        }
    }
}

impl Actor<GcMsg<u64>> for Member {
    fn on_start(&mut self, ctx: &mut Ctx<'_, GcMsg<u64>>) {
        self.host.start(ctx);
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*at, SEND_TAG0 + i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, GcMsg<u64>>, from: NodeId, msg: GcMsg<u64>) {
        let delivered = self.host.on_message(ctx, from, msg);
        self.record(delivered);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, GcMsg<u64>>, _timer: TimerId, tag: u64) {
        if self.host.on_timer(ctx, tag, |_| {}).is_some() {
            return;
        }
        let ix = (tag - SEND_TAG0) as usize;
        if let Some((_, payload)) = self.script.get(ix).copied() {
            let delivered = self.host.mcast(ctx, payload, None);
            self.record(delivered);
        }
    }
}

/// A three-member group where every member multicasts `per_member`
/// payloads (payload = `origin * 100 + k`, `k` ascending) at close,
/// interleaved times.
pub(crate) fn group_sim(seed: u64, ordering: Ordering, per_member: u64) -> Sim<GcMsg<u64>> {
    let members = [NodeId(0), NodeId(1), NodeId(2)];
    let view = View::initial(GroupId(1), members);
    let mut sim = SimBuilder::new(seed).build();
    for (m_ix, m) in members.iter().enumerate() {
        let script: Vec<(SimDuration, u64)> = (0..per_member)
            .map(|k| {
                (
                    SimDuration::from_millis(5 + k * 40 + m_ix as u64),
                    m.0 as u64 * 100 + k,
                )
            })
            .collect();
        sim.add_actor(*m, Member::new(*m, view.clone(), ordering, script));
    }
    sim
}

/// The member ids [`group_sim`] uses.
pub(crate) fn group_members() -> Vec<NodeId> {
    vec![NodeId(0), NodeId(1), NodeId(2)]
}

/// Canonical [`crate::explore::StateFingerprint`] for group scenarios:
/// each member's delivery log and vector clock (the clock advances on
/// every receive, so held-back traffic is reflected even before it
/// surfaces as a delivery).
pub fn fingerprint(sim: &Sim<GcMsg<u64>>) -> u64 {
    let mut parts = Vec::new();
    for m in group_members() {
        if let Some(member) = sim.get::<Member>(ActorHandle::of(m)) {
            let delivered: Vec<(u32, u64)> =
                member.delivered.iter().map(|&(o, p)| (o.0, p)).collect();
            parts.push((m.0, delivered, format!("{:?}", member.engine().clock())));
        }
    }
    crate::explore::hash_of(&parts)
}

/// Step invariant: each member's vector clock only ever grows
/// (pointwise) — time never runs backwards inside the causality layer.
pub(crate) struct VClockMonotone {
    members: Vec<NodeId>,
    last: BTreeMap<NodeId, VectorClock>,
}

impl VClockMonotone {
    /// Watches the given members.
    pub fn new(members: Vec<NodeId>) -> Self {
        VClockMonotone {
            members,
            last: BTreeMap::new(),
        }
    }
}

impl Invariant<GcMsg<u64>> for VClockMonotone {
    fn name(&self) -> &'static str {
        "vclock-monotone"
    }

    fn check_step(&mut self, sim: &Sim<GcMsg<u64>>) -> Result<(), String> {
        for &m in &self.members {
            let member: &Member = sim.get(ActorHandle::of(m)).ok_or("member missing")?;
            let clock = member.engine().clock().clone();
            if let Some(prev) = self.last.get(&m) {
                match prev.compare(&clock) {
                    Causality::Equal | Causality::Before => {}
                    other => {
                        return Err(format!(
                            "member {m}: clock regressed ({prev:?} → {clock:?}, {other:?})"
                        ));
                    }
                }
            }
            self.last.insert(m, clock);
        }
        Ok(())
    }
}

/// Per-origin FIFO: at every member, payloads from one origin arrive in
/// ascending order (the harness encodes the origin's send index in the
/// payload). Checked at each step; at quiescence every member must also
/// have delivered everything.
pub(crate) struct FifoDelivery {
    members: Vec<NodeId>,
    expected_total: usize,
}

impl FifoDelivery {
    /// For [`group_sim`] with `per_member` sends per member.
    pub fn new(members: Vec<NodeId>, per_member: u64) -> Self {
        let expected_total = members.len() * per_member as usize;
        FifoDelivery {
            members,
            expected_total,
        }
    }
}

impl Invariant<GcMsg<u64>> for FifoDelivery {
    fn name(&self) -> &'static str {
        "fifo-per-origin"
    }

    fn check_step(&mut self, sim: &Sim<GcMsg<u64>>) -> Result<(), String> {
        for &m in &self.members {
            let member: &Member = sim.get(ActorHandle::of(m)).ok_or("member missing")?;
            let mut last: BTreeMap<NodeId, u64> = BTreeMap::new();
            for &(origin, payload) in &member.delivered {
                if let Some(&prev) = last.get(&origin) {
                    if payload <= prev {
                        return Err(format!(
                            "member {m}: origin {origin} delivered {payload} after {prev}"
                        ));
                    }
                }
                last.insert(origin, payload);
            }
        }
        Ok(())
    }

    fn check_quiescent(&mut self, sim: &Sim<GcMsg<u64>>) -> Result<(), String> {
        self.check_step(sim)?;
        for &m in &self.members {
            let member: &Member = sim.get(ActorHandle::of(m)).ok_or("member missing")?;
            if member.delivered.len() != self.expected_total {
                return Err(format!(
                    "member {m}: delivered {} of {} messages",
                    member.delivered.len(),
                    self.expected_total
                ));
            }
        }
        Ok(())
    }
}

/// One member's delivery sequence, borrowed from its actor.
type MemberSeq<'s> = (NodeId, &'s [(NodeId, u64)]);

/// Delivery-order agreement for totally ordered multicast: at every
/// step the members' delivery sequences are prefix-compatible, and at
/// quiescence they are identical.
pub(crate) struct DeliveryAgreement {
    members: Vec<NodeId>,
}

impl DeliveryAgreement {
    /// Watches the given members.
    pub fn new(members: Vec<NodeId>) -> Self {
        DeliveryAgreement { members }
    }

    fn sequences<'s>(&self, sim: &'s Sim<GcMsg<u64>>) -> Result<Vec<MemberSeq<'s>>, String> {
        self.members
            .iter()
            .map(|&m| {
                let member: &Member = sim.get(ActorHandle::of(m)).ok_or("member missing")?;
                Ok((m, member.delivered.as_slice()))
            })
            .collect()
    }
}

impl Invariant<GcMsg<u64>> for DeliveryAgreement {
    fn name(&self) -> &'static str {
        "delivery-order-agreement"
    }

    fn check_step(&mut self, sim: &Sim<GcMsg<u64>>) -> Result<(), String> {
        let seqs = self.sequences(sim)?;
        for w in seqs.windows(2) {
            let (a, sa) = (w[0].0, w[0].1);
            let (b, sb) = (w[1].0, w[1].1);
            let n = sa.len().min(sb.len());
            if sa[..n] != sb[..n] {
                return Err(format!(
                    "members {a} and {b} disagree on the delivery prefix: {:?} vs {:?}",
                    &sa[..n],
                    &sb[..n]
                ));
            }
        }
        Ok(())
    }

    fn check_quiescent(&mut self, sim: &Sim<GcMsg<u64>>) -> Result<(), String> {
        self.check_step(sim)?;
        let seqs = self.sequences(sim)?;
        for w in seqs.windows(2) {
            if w[0].1.len() != w[1].1.len() {
                return Err(format!(
                    "members {} and {} delivered different counts ({} vs {})",
                    w[0].0,
                    w[1].0,
                    w[0].1.len(),
                    w[1].1.len()
                ));
            }
        }
        Ok(())
    }
}

//! Property tests: delivery-ordering guarantees hold under randomised
//! network conditions (latency, jitter, loss) and workloads, and the
//! engine's range-set dedup and in-order fast path deliver exactly what
//! the set-and-scan definition they replaced delivers.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use odp_groupcomm::actors::{GroupActor, GroupApp};
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{
    DataMsg, Delivery, GcMsg, GroupEngine, MsgId, Ordering, Reliability,
};
use odp_groupcomm::vclock::{Causality, VectorClock};
use odp_sim::prelude::*;
use proptest::prelude::*;

#[derive(Default)]
struct Collector {
    delivered: Vec<(u32, u32)>, // (origin, k)
}

impl GroupApp<(u32, u32)> for Collector {
    fn on_deliver(&mut self, _ctx: &mut Ctx<'_, GcMsg<(u32, u32)>>, d: Delivery<(u32, u32)>) {
        self.delivered.push(d.payload);
    }
}

/// Runs `n` members, each multicasting `k` messages at staggered times,
/// over a link with the given loss, and returns each member's delivery
/// sequence.
fn run(
    seed: u64,
    n: u32,
    k: u32,
    ordering: Ordering,
    loss: f64,
    reliability: Reliability,
) -> Vec<Vec<(u32, u32)>> {
    let view = View::initial(GroupId(0), (0..n).map(NodeId));
    let net = Network::new(LinkSpec {
        loss,
        ..LinkSpec::lan()
    });
    let mut sim = SimBuilder::new(seed).network(net).build();
    sim.trace_mut().disable();
    for i in 0..n {
        let actor = GroupActor::new(
            NodeId(i),
            view.clone(),
            ordering,
            reliability,
            Collector::default(),
        );
        sim.add_actor(NodeId(i), actor);
    }
    for i in 0..n {
        for j in 0..k {
            sim.inject(
                SimTime::from_micros((j as u64) * 700 + (i as u64) * 131),
                NodeId(i),
                NodeId(i),
                GcMsg::AppCmd((i, j)),
            );
        }
    }
    sim.run(Until::For(SimDuration::from_secs(60)));
    (0..n)
        .map(|i| {
            let a: &GroupActor<(u32, u32), Collector> =
                sim.get(ActorHandle::of(NodeId(i))).unwrap();
            a.app().delivered.clone()
        })
        .collect()
}

/// The receiving side of the engine as it was defined before the
/// range sets and the fast path: remember every id in a hash set, park
/// every fresh message, then deliver whatever the ordering's condition
/// admits. Kept as the oracle.
#[derive(Default)]
struct SetAndScanModel {
    seen: HashSet<MsgId>,
    fifo_expected: BTreeMap<NodeId, u64>,
    fifo_holdback: BTreeMap<(NodeId, u64), u32>,
    total_next: u64,
    total_assignments: BTreeMap<u64, MsgId>,
    total_waiting: HashMap<MsgId, u32>,
}

impl SetAndScanModel {
    /// FIFO: dedup by set, park, deliver while an origin's `expected`
    /// is present — rescanning the whole hold-back, as
    /// `try_deliver_fifo` did.
    fn on_fifo_data(&mut self, data: &DataMsg<u32>) -> Vec<u32> {
        let mut out = Vec::new();
        if !self.seen.insert(data.id) {
            return out;
        }
        self.fifo_holdback
            .insert((data.id.origin, data.id.seq), data.payload);
        loop {
            let before = out.len();
            let keys: Vec<(NodeId, u64)> = self.fifo_holdback.keys().copied().collect();
            for (origin, seq) in keys {
                let expected = self.fifo_expected.entry(origin).or_insert(1);
                if seq == *expected {
                    *expected += 1;
                    out.extend(self.fifo_holdback.remove(&(origin, seq)));
                }
            }
            if out.len() == before {
                return out;
            }
        }
    }

    /// Total: dedup data and assignments by the one set, deliver while
    /// the next position's assignment and its data are both here.
    fn on_total(&mut self, msg: &GcMsg<u32>) -> Vec<u32> {
        match msg {
            GcMsg::Data(data) => {
                if self.seen.insert(data.id) {
                    self.total_waiting.insert(data.id, data.payload);
                }
            }
            &GcMsg::SeqAssign {
                assign_id,
                id,
                total,
            } => {
                if self.seen.insert(assign_id) {
                    self.total_assignments.insert(total, id);
                }
            }
            other => panic!("not receiver traffic: {other:?}"),
        }
        let mut out = Vec::new();
        while let Some(id) = self.total_assignments.get(&(self.total_next + 1)) {
            let Some(payload) = self.total_waiting.remove(id) else {
                break;
            };
            self.total_next += 1;
            self.total_assignments.remove(&self.total_next);
            out.push(payload);
        }
        out
    }

    /// How many maximal runs of consecutive seqs `seen` holds, summed
    /// over origins: what a range set must store for it.
    fn seen_runs(&self) -> usize {
        #[expect(clippy::disallowed_methods, reason = "sorted into a BTreeSet")]
        let ordered: BTreeSet<MsgId> = self.seen.iter().copied().collect();
        let mut runs = 0;
        let mut last: Option<MsgId> = None;
        for id in ordered {
            let continues =
                last.is_some_and(|prev| prev.origin == id.origin && prev.seq + 1 == id.seq);
            runs += usize::from(!continues);
            last = Some(id);
        }
        runs
    }
}

const RECEIVER: NodeId = NodeId(2);

fn engine(me: u32, ordering: Ordering) -> GroupEngine<u32> {
    member_of(3, me, ordering)
}

/// Member `me` of the group `0..n`, reliable.
fn member_of(n: u32, me: u32, ordering: Ordering) -> GroupEngine<u32> {
    let view = View::initial(GroupId(0), (0..n).map(NodeId));
    GroupEngine::new(NodeId(me), view, ordering, Reliability::reliable())
}

/// Has `sender` multicast `before` messages, resume its sequence from
/// `jump` (a rejoin: a no-op when it is not ahead) and multicast
/// `after` more. Returns every outbound envelope as `(from, to, msg)`.
fn burst(
    sender: &mut GroupEngine<u32>,
    before: u32,
    jump: u64,
    after: u32,
) -> Vec<(NodeId, NodeId, GcMsg<u32>)> {
    let from = sender.me();
    let mut sent = Vec::new();
    for k in 0..before + after {
        if k == before {
            sender.resume_seq_from(jump);
        }
        let step = sender.mcast((from.0 << 16) | k, SimTime::ZERO);
        sent.extend(step.outbound.into_iter().map(|(to, msg)| (from, to, msg)));
    }
    sent
}

/// An arrival order over `n` envelopes: each once, each of `again`
/// (taken modulo `n`) once more — the retransmission duplicates — all
/// shuffled by `keys`.
fn arrivals(n: usize, again: &[u16], keys: &[u32]) -> Vec<usize> {
    let mut keyed: Vec<(u32, usize)> = (0..n)
        .chain(again.iter().map(|&pick| usize::from(pick) % n))
        .enumerate()
        .map(|(slot, index)| (keys[slot % keys.len()], index))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, index)| index).collect()
}

proptest! {
    /// FIFO at one receiver, two senders, arrivals shuffled and
    /// duplicated, one sender resuming its sequence after a jump: the
    /// engine acks every arrival and delivers, arrival by arrival,
    /// exactly what the set-and-scan model delivers — so exactly once
    /// and in per-origin order up to the jump, and (today's definition)
    /// holding back everything past a jump that left a hole.
    #[test]
    fn fifo_fast_path_and_range_dedup_match_the_set_and_scan_model(
        before in 1u32..7,
        jump in 0u64..30,
        after in 0u32..6,
        other in 0u32..7,
        again in prop::collection::vec(any::<u16>(), 0..20),
        keys in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        let mut sent = burst(&mut engine(0, Ordering::Fifo), before, jump, after);
        sent.extend(burst(&mut engine(1, Ordering::Fifo), other, 0, 0));
        sent.retain(|(_, to, _)| *to == RECEIVER);

        let mut receiver = engine(RECEIVER.0, Ordering::Fifo);
        let mut model = SetAndScanModel::default();
        let mut delivered = Vec::new();
        for index in arrivals(sent.len(), &again, &keys) {
            let (from, _, msg) = sent[index].clone();
            let GcMsg::Data(data) = &msg else { panic!("senders only multicast") };
            let want = model.on_fifo_data(data);
            let ack = (from, GcMsg::Ack { id: data.id });
            let step = receiver.on_message(from, msg, SimTime::ZERO);
            prop_assert_eq!(step.outbound, vec![ack], "fresh or duplicate, every arrival is acked");
            let got: Vec<u32> = step.delivered.iter().map(|d| d.payload).collect();
            prop_assert_eq!(&got, &want, "arrival {} diverges from the model", index);
            delivered.extend(step.delivered.into_iter().map(|d| d.id));
        }
        prop_assert_eq!(receiver.held_back(), model.fifo_holdback.len());
        prop_assert_eq!(receiver.dedup_ranges(), model.seen_runs());
        // Exactly once, and in order per origin.
        let unique: BTreeSet<MsgId> = delivered.iter().copied().collect();
        prop_assert_eq!(unique.len(), delivered.len(), "a message was delivered twice");
        for origin in [NodeId(0), NodeId(1)] {
            let seqs: Vec<u64> = delivered.iter().filter(|id| id.origin == origin).map(|id| id.seq).collect();
            let in_order: Vec<u64> = (1..=seqs.len() as u64).collect();
            prop_assert_eq!(seqs, in_order, "origin {} out of order or with a hole", origin);
        }
        // Everything up to the jump arrives; past it, only if the jump
        // left no hole.
        let from_jumper = if jump <= u64::from(before) { before + after } else { before };
        prop_assert_eq!(delivered.len() as u32, from_jumper + other);
    }

    /// Total order through the same arrival generator: the sequencer
    /// sees every `SeqRequest` twice and assigns once; the receiver
    /// sees data and assignments shuffled and duplicated and delivers,
    /// arrival by arrival, what the model delivers — every message
    /// once, in assignment order, a sender's sequence jump included.
    #[test]
    fn total_order_survives_duplicated_requests_and_assignments(
        before in 1u32..6,
        jump in 0u64..30,
        after in 0u32..5,
        own in 0u32..5,
        again in prop::collection::vec(any::<u16>(), 0..24),
        keys in prop::collection::vec(any::<u32>(), 1..48),
    ) {
        let mut sequencer = engine(0, Ordering::Total);
        // The sequencer's own multicasts are sequenced on the spot...
        let mut sent = burst(&mut sequencer, own, 0, 0);
        // ...a member's when its requests reach the sequencer: twice
        // each here, as after a retransmission.
        for (from, to, msg) in burst(&mut engine(1, Ordering::Total), before, jump, after) {
            if to == RECEIVER {
                sent.push((from, to, msg));
                continue;
            }
            let is_request = matches!(msg, GcMsg::SeqRequest { .. });
            let first = sequencer.on_message(from, msg.clone(), SimTime::ZERO);
            let second = sequencer.on_message(from, msg, SimTime::ZERO);
            if is_request {
                prop_assert_eq!(first.outbound.len(), 2, "one assignment per peer");
                prop_assert!(second.outbound.is_empty(), "a duplicate request assigns nothing");
            }
            sent.extend(first.outbound.into_iter().map(|(to, msg)| (NodeId(0), to, msg)));
        }
        sent.retain(|(_, to, msg)| *to == RECEIVER && !matches!(msg, GcMsg::Ack { .. }));
        let multicasts = (own + before + after) as usize;
        prop_assert_eq!(sent.len(), 2 * multicasts, "a data message and an assignment each");

        let mut receiver = engine(RECEIVER.0, Ordering::Total);
        let mut model = SetAndScanModel::default();
        let mut delivered = Vec::new();
        for index in arrivals(sent.len(), &again, &keys) {
            let (from, _, msg) = sent[index].clone();
            let want = model.on_total(&msg);
            let step = receiver.on_message(from, msg, SimTime::ZERO);
            prop_assert_eq!(step.outbound.len(), 1, "fresh or duplicate, every arrival is acked");
            let got: Vec<u32> = step.delivered.iter().map(|d| d.payload).collect();
            prop_assert_eq!(&got, &want, "arrival {} diverges from the model", index);
            delivered.extend(got);
        }
        prop_assert_eq!(receiver.held_back(), 0);
        prop_assert_eq!(receiver.dedup_ranges(), model.seen_runs());
        // The order the sequencer decided: its own first, then the
        // member's as requested, each exactly once.
        let decided: Vec<u32> = (0..own).chain((0..before + after).map(|k| (1 << 16) | k)).collect();
        prop_assert_eq!(delivered, decided);
    }

    /// Total order at every member of a group of 3–5, each of which
    /// multicasts: the sequencer sees its traffic twice and assigns
    /// once; every other member gets its data and assignments shuffled
    /// and duplicated, and some assignments again under a fresh
    /// assignment id (as a re-sent decision would come), landing before
    /// or after the member's cursor has passed them. Each member
    /// delivers, arrival by arrival, what the `BTreeMap` model delivers,
    /// and every member ends with the sequencer's order, exactly once.
    #[test]
    fn the_total_order_ring_delivers_what_the_btreemap_model_does(
        n in 3u32..6,
        counts in prop::collection::vec(0u32..4, 5),
        again in prop::collection::vec(any::<u16>(), 0..24),
        reissue in prop::collection::vec(any::<u16>(), 0..6),
        keys in prop::collection::vec(any::<u32>(), 1..64),
    ) {
        let mut members: Vec<GroupEngine<u32>> =
            (0..n).map(|i| member_of(n, i, Ordering::Total)).collect();
        let mut delivered: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        let mut wire: Vec<(NodeId, NodeId, GcMsg<u32>)> = Vec::new();
        for i in 0..n {
            for k in 0..counts[i as usize] {
                let step = members[i as usize].mcast((i << 16) | k, SimTime::ZERO);
                delivered[i as usize].extend(step.delivered.iter().map(|d| d.payload));
                wire.extend(step.outbound.into_iter().map(|(to, msg)| (NodeId(i), to, msg)));
            }
        }
        // The sequencer takes what was sent to it, in order, twice.
        let to_sequencer: Vec<_> = wire.iter().filter(|(_, to, _)| *to == NodeId(0)).cloned().collect();
        for (from, _, msg) in to_sequencer {
            for _ in 0..2 {
                let step = members[0].on_message(from, msg.clone(), SimTime::ZERO);
                delivered[0].extend(step.delivered.iter().map(|d| d.payload));
                wire.extend(step.outbound.into_iter().map(|(to, msg)| (NodeId(0), to, msg)));
            }
        }
        let mut decided: Vec<(u64, MsgId)> = wire
            .iter()
            .filter_map(|(_, _, msg)| match *msg {
                GcMsg::SeqAssign { id, total, .. } => Some((total, id)),
                _ => None,
            })
            .collect();
        decided.sort_unstable();
        decided.dedup();
        let decided: Vec<u32> =
            decided.iter().map(|(_, id)| (id.origin.0 << 16) | (id.seq - 1) as u32).collect();
        prop_assert_eq!(decided.len() as u32, counts.iter().take(n as usize).sum::<u32>());
        prop_assert_eq!(&delivered[0], &decided, "the sequencer");

        for r in 1..n {
            let me = NodeId(r);
            let mut inbound: Vec<(NodeId, GcMsg<u32>)> = wire
                .iter()
                .filter(|(_, to, msg)| *to == me && !matches!(msg, GcMsg::Ack { .. }))
                .map(|(from, _, msg)| (*from, msg.clone()))
                .collect();
            let assignments: Vec<(MsgId, u64)> = inbound
                .iter()
                .filter_map(|(_, msg)| match *msg {
                    GcMsg::SeqAssign { id, total, .. } => Some((id, total)),
                    _ => None,
                })
                .collect();
            for (j, &pick) in reissue.iter().enumerate() {
                if let Some(&(id, total)) = assignments.get(usize::from(pick) % assignments.len().max(1)) {
                    let assign_id = MsgId { origin: NodeId(0), seq: u64::MAX / 2 + 1_000 + j as u64 };
                    inbound.push((NodeId(0), GcMsg::SeqAssign { assign_id, id, total }));
                }
            }
            // The model starts from what the member's own multicasts
            // left it holding.
            let mut model = SetAndScanModel::default();
            for (from, to, msg) in &wire {
                if from.0 == r && *to == NodeId(0) && matches!(msg, GcMsg::Data(_)) {
                    prop_assert!(model.on_total(msg).is_empty());
                }
            }
            let order = if inbound.is_empty() { Vec::new() } else { arrivals(inbound.len(), &again, &keys) };
            for index in order {
                let (from, msg) = inbound[index].clone();
                let want = model.on_total(&msg);
                let step = members[r as usize].on_message(from, msg, SimTime::ZERO);
                let got: Vec<u32> = step.delivered.iter().map(|d| d.payload).collect();
                prop_assert_eq!(&got, &want, "member {} arrival {} diverges from the model", r, index);
                delivered[r as usize].extend(got);
            }
            prop_assert_eq!(&delivered[r as usize], &decided, "member {}", r);
            prop_assert_eq!(members[r as usize].held_back(), 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// FIFO: per-origin order is preserved at every member, and with
    /// reliability every message arrives exactly once despite loss.
    #[test]
    fn fifo_preserves_per_origin_order(seed in any::<u64>(), n in 2u32..5, k in 1u32..8) {
        let seqs = run(seed, n, k, Ordering::Fifo, 0.15, Reliability::reliable());
        for member in &seqs {
            prop_assert_eq!(member.len() as u32, n * k, "every message delivered once");
            for origin in 0..n {
                let ks: Vec<u32> = member.iter().filter(|(o, _)| *o == origin).map(|&(_, j)| j).collect();
                let mut sorted = ks.clone();
                sorted.sort_unstable();
                prop_assert_eq!(ks, sorted, "per-origin FIFO violated");
            }
        }
    }

    /// Total order: all members deliver the identical global sequence.
    #[test]
    fn total_order_agreement(seed in any::<u64>(), n in 2u32..5, k in 1u32..8) {
        let seqs = run(seed, n, k, Ordering::Total, 0.0, Reliability::BestEffort);
        for member in &seqs[1..] {
            prop_assert_eq!(member, &seqs[0], "total order differs between members");
        }
        prop_assert_eq!(seqs[0].len() as u32, n * k);
    }

    /// Causal order: if message (i, a) causally precedes (j, b) — which is
    /// guaranteed when the same origin sent a before b — every member
    /// delivers them in that order; and all messages arrive exactly once
    /// on a lossless network.
    #[test]
    fn causal_subsumes_fifo(seed in any::<u64>(), n in 2u32..5, k in 1u32..8) {
        let seqs = run(seed, n, k, Ordering::Causal, 0.0, Reliability::BestEffort);
        for member in &seqs {
            prop_assert_eq!(member.len() as u32, n * k);
            for origin in 0..n {
                let ks: Vec<u32> = member.iter().filter(|(o, _)| *o == origin).map(|&(_, j)| j).collect();
                let mut sorted = ks.clone();
                sorted.sort_unstable();
                prop_assert_eq!(ks, sorted, "causal order must include per-origin order");
            }
        }
    }

    /// Vector clock laws: compare() is antisymmetric and merge() is the
    /// least upper bound.
    #[test]
    fn vclock_partial_order_laws(
        ticks_a in prop::collection::vec(0u32..4, 1..6),
        ticks_b in prop::collection::vec(0u32..4, 1..6),
    ) {
        let mut a = VectorClock::new();
        for &n in &ticks_a { a.tick(NodeId(n)); }
        let mut b = VectorClock::new();
        for &n in &ticks_b { b.tick(NodeId(n)); }
        match a.compare(&b) {
            Causality::Before => prop_assert_eq!(b.compare(&a), Causality::After),
            Causality::After => prop_assert_eq!(b.compare(&a), Causality::Before),
            Causality::Equal => prop_assert_eq!(b.compare(&a), Causality::Equal),
            Causality::Concurrent => prop_assert_eq!(b.compare(&a), Causality::Concurrent),
        }
        let mut m = a.clone();
        m.merge(&b);
        prop_assert!(a.dominated_by(&m));
        prop_assert!(b.dominated_by(&m));
    }
}

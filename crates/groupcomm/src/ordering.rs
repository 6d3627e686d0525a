//! Hold-back: one sans-IO [`Orderer`] per [`Ordering`] (paper §4.2.2 iv:
//! "multicast transport protocols are necessary to enable group
//! communication"). An orderer only decides when a message may be
//! delivered: it has no clock, no peers and no retransmit state, and the
//! engine's duplicate filter below it hands it each message once.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

use odp_sim::net::NodeId;

use crate::membership::View;
use crate::multicast::{DataMsg, MsgId, Ordering, Step};
use crate::vclock::VectorClock;

/// How far past the delivery cursor an assignment may reach. A
/// sequencer orders positions one after another, so a member holds at
/// most as many as it has not delivered; a `total` further out than
/// this is a malformed frame, and is dropped rather than sized into the
/// ring.
pub(crate) const TOTAL_AHEAD_MAX: u64 = 1 << 16;

/// The clock of a member that does not order causally: it never ticks.
static NO_CLOCK: VectorClock = VectorClock::new();

/// One discipline's hold-back state.
pub(crate) enum Orderer<P> {
    /// Deliver on arrival.
    Unordered,
    /// Per-origin FIFO: the next expected sequence number of each
    /// origin, and what arrived ahead of it.
    Fifo {
        expected: BTreeMap<NodeId, u64>,
        holdback: BTreeMap<(NodeId, u64), Arc<DataMsg<P>>>,
    },
    /// Causal: this member's vector clock, and what arrived before a
    /// message it depends on.
    Causal {
        clock: VectorClock,
        holdback: Vec<Arc<DataMsg<P>>>,
    },
    /// Total order via a sequencer (the view leader).
    Total(TotalOrder<P>),
}

/// Total-order hold-back: slot `i` of `assignments` holds the message
/// ordered at `next + i` once its assignment is here, a ring that
/// advances with the cursor; `waiting` holds the data.
pub(crate) struct TotalOrder<P> {
    next: u64,
    pub(crate) assignments: VecDeque<Option<MsgId>>,
    pub(crate) waiting: HashMap<MsgId, Arc<DataMsg<P>>>,
}

impl<P: Clone> Orderer<P> {
    pub(crate) fn new(ordering: Ordering) -> Self {
        match ordering {
            Ordering::Unordered => Orderer::Unordered,
            Ordering::Fifo => Orderer::Fifo {
                expected: BTreeMap::new(),
                holdback: BTreeMap::new(),
            },
            Ordering::Causal => Orderer::Causal {
                clock: VectorClock::new(),
                holdback: Vec::new(),
            },
            Ordering::Total => Orderer::Total(TotalOrder {
                next: 1,
                assignments: VecDeque::new(),
                waiting: HashMap::new(),
            }),
        }
    }

    /// True when delivery waits for a sequencer's assignments.
    pub(crate) fn sequenced(&self) -> bool {
        matches!(self, Orderer::Total(_))
    }

    /// The timestamp of `me`'s next multicast: the causal clock, ticked.
    pub(crate) fn stamp(&mut self, me: NodeId) -> Option<VectorClock> {
        let Orderer::Causal { clock, .. } = self else {
            return None;
        };
        clock.tick(me);
        Some(clock.clone())
    }

    /// This member's own multicast: delivered at once, except under total
    /// order, where even the sender waits for the sequencer.
    pub(crate) fn on_own(&mut self, data: Arc<DataMsg<P>>, step: &mut Step<P>) {
        match self {
            Orderer::Total(_) => self.on_data(data, step),
            _ => step.deliver(data),
        }
    }

    /// A message from another member, arriving for the first time.
    pub(crate) fn on_data(&mut self, data: Arc<DataMsg<P>>, step: &mut Step<P>) {
        match self {
            Orderer::Unordered => step.deliver(data),
            Orderer::Fifo { expected, holdback } => {
                let origin = data.id.origin;
                let expected = expected.entry(origin).or_insert(1);
                if data.id.seq == *expected {
                    // The next in line is delivered without touching
                    // the hold-back, and then whatever it was blocking.
                    *expected += 1;
                    step.deliver(data);
                    while let Some(next) = holdback.remove(&(origin, *expected)) {
                        *expected += 1;
                        step.deliver(next);
                    }
                } else {
                    holdback.insert((origin, data.id.seq), data);
                }
            }
            Orderer::Causal { holdback, .. } => {
                holdback.push(data);
                self.try_deliver_causal(step);
            }
            Orderer::Total(order) => {
                order.waiting.insert(data.id, data);
                order.try_deliver_total(step);
            }
        }
    }

    /// The sequencer's decision that `id` is `total`th, arriving for the
    /// first time. Only total order reads it.
    pub(crate) fn on_assign(&mut self, total: u64, id: MsgId, step: &mut Step<P>) {
        if let Orderer::Total(order) = self {
            order.assign_total(total, id);
            order.try_deliver_total(step);
        }
    }

    /// Drops FIFO and causal hold-back from origins outside `view`. Total
    /// order keeps a departed origin's data: its assignment may still
    /// arrive, and dropping an assigned message would stall the cursor
    /// for good.
    pub(crate) fn install_view(&mut self, view: &View) {
        match self {
            Orderer::Fifo { holdback, .. } => {
                holdback.retain(|(origin, _), _| view.contains(*origin));
            }
            Orderer::Causal { holdback, .. } => holdback.retain(|m| view.contains(m.id.origin)),
            Orderer::Unordered | Orderer::Total(_) => {}
        }
    }

    /// Number of messages held back.
    pub(crate) fn held_back(&self) -> usize {
        match self {
            Orderer::Unordered => 0,
            Orderer::Fifo { holdback, .. } => holdback.len(),
            Orderer::Causal { holdback, .. } => holdback.len(),
            Orderer::Total(order) => order.waiting.len(),
        }
    }

    /// The highest total-order position this member has delivered or
    /// holds an assignment for; 0 under every other discipline.
    pub(crate) fn highest_total(&self) -> u64 {
        match self {
            Orderer::Total(order) => order.next - 1 + order.assignments.len() as u64,
            _ => 0,
        }
    }

    /// The causal clock, ticked per causal delivery; empty under every
    /// other discipline.
    pub(crate) fn clock(&self) -> &VectorClock {
        match self {
            Orderer::Causal { clock, .. } => clock,
            _ => &NO_CLOCK,
        }
    }

    fn try_deliver_causal(&mut self, step: &mut Step<P>) {
        let Orderer::Causal { clock, holdback } = self else {
            return;
        };
        loop {
            // Causal senders always stamp a clock; a clockless message
            // (a peer in the wrong mode) is simply never deliverable.
            let idx = holdback.iter().position(|m| {
                m.vclock
                    .as_ref()
                    .is_some_and(|stamp| clock.deliverable(stamp, m.id.origin))
            });
            let Some(idx) = idx else { break };
            let data = holdback.remove(idx);
            clock.tick(data.id.origin);
            step.deliver(data);
        }
    }
}

impl<P: Clone> TotalOrder<P> {
    /// Records that `id` is ordered at `total`. A position the cursor
    /// has passed was delivered already, so its assignment is ignored.
    fn assign_total(&mut self, total: u64, id: MsgId) {
        let Some(ahead) = total.checked_sub(self.next) else {
            return;
        };
        if ahead >= TOTAL_AHEAD_MAX {
            return;
        }
        let slot = ahead as usize;
        if slot >= self.assignments.len() {
            self.assignments.resize(slot + 1, None);
        }
        self.assignments[slot] = Some(id);
    }

    fn try_deliver_total(&mut self, step: &mut Step<P>) {
        while let Some(&Some(id)) = self.assignments.front() {
            let Some(data) = self.waiting.remove(&id) else {
                break; // assignment known but data not yet arrived
            };
            self.assignments.pop_front();
            self.next += 1;
            step.deliver(data);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Each discipline, checked by exhaustive small-scope enumeration
    //! against a declarative spec: every arrival order, with every single
    //! duplicate inserted, goes through the engine's receive path (the
    //! duplicate filter, then the orderer). In a failure an arrival reads
    //! `n1#2` for a message's data and `n1#2@3` for its assignment to
    //! position 3.

    use std::iter;

    use super::*;
    use crate::membership::GroupId;
    use crate::multicast::IdSet;
    use crate::vclock::Causality;

    type Msg = Arc<DataMsg<u32>>;

    const SEQUENCER: NodeId = NodeId(0);

    /// What reaches the receiver: a message's data, or the sequencer's
    /// assignment of its position; both by index into the scenario.
    #[derive(Clone, Copy)]
    enum Arrival {
        Data(usize),
        Assign(usize),
    }

    /// The seeded known-bads: the real orderer with one fault at its edge.
    #[derive(Clone, Copy)]
    enum Fault {
        /// FIFO without its `else`: a message that arrives early is
        /// delivered at once as well as parked, and again when the gap
        /// before it fills.
        LeakEarly,
        /// Causal delivery that checks only the sender's own entry of the
        /// stamp, not what the sender had delivered from others.
        SkipDependencies,
        /// Total order that delivers every assigned message whose data is
        /// here, without waiting for the cursor to reach it.
        AheadOfCursor,
    }

    /// A discipline's scenario: the messages, each one's assigned
    /// position (total order only), and the spec a run's deliveries must
    /// meet.
    struct Scenario<'a> {
        name: &'static str,
        ordering: Ordering,
        msgs: Vec<Msg>,
        totals: Vec<u64>,
        spec: &'a dyn Fn(&[MsgId]) -> Result<(), String>,
    }

    fn data(origin: u32, seq: u64, vclock: Option<VectorClock>) -> Msg {
        let id = MsgId {
            origin: NodeId(origin),
            seq,
        };
        Arc::new(DataMsg {
            id,
            group: GroupId(0),
            vclock,
            span: None,
            payload: 0,
        })
    }

    /// Every order of `0..n`, lexicographically.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        if n == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for first in 0..n {
            for rest in permutations(n - 1) {
                let mut order = vec![first];
                order.extend(rest.into_iter().map(|i| i + usize::from(i >= first)));
                out.push(order);
            }
        }
        out
    }

    /// `order` as it is, then with one more copy of one of its arrivals
    /// at each position.
    fn with_one_duplicate(order: Vec<Arrival>) -> impl Iterator<Item = Vec<Arrival>> {
        let n = order.len();
        let copies = (0..n).flat_map(move |dup| (0..=n).map(move |at| (dup, at)));
        iter::once(order.clone()).chain(copies.map(move |(dup, at)| {
            let mut seq = order.clone();
            seq.insert(at, order[dup]);
            seq
        }))
    }

    /// Every arrival order of every message's data (and, under total
    /// order, its assignment), each with every single duplicate.
    fn sequences(sc: &Scenario) -> impl Iterator<Item = Vec<Arrival>> {
        let n = sc.msgs.len();
        let mut arrivals: Vec<Arrival> = (0..n).map(Arrival::Data).collect();
        if sc.ordering == Ordering::Total {
            arrivals.extend((0..n).map(Arrival::Assign));
        }
        permutations(arrivals.len())
            .into_iter()
            .flat_map(move |order| with_one_duplicate(order.iter().map(|&i| arrivals[i]).collect()))
    }

    /// The orderer's handling of a fresh `Data`, with `fault` at its edge.
    fn on_data(orderer: &mut Orderer<u32>, data: Msg, step: &mut Step<u32>, fault: Option<Fault>) {
        let origin = data.id.origin;
        match (fault, &mut *orderer) {
            (Some(Fault::LeakEarly), Orderer::Fifo { expected, .. })
                if expected.get(&origin).copied().unwrap_or(1) != data.id.seq =>
            {
                step.deliver(Arc::clone(&data));
            }
            (Some(Fault::SkipDependencies), Orderer::Causal { clock, .. })
                if data.vclock.as_ref().map(|s| s.get(origin)) == Some(clock.get(origin) + 1) =>
            {
                clock.tick(origin);
                step.deliver(data);
                return orderer.try_deliver_causal(step);
            }
            _ => {}
        }
        orderer.on_data(data, step);
    }

    /// Drives every sequence through a fresh receiver, the way the engine
    /// receives: the duplicate filter, then the orderer. Each run must
    /// meet the scenario's spec and, every message having arrived, have
    /// delivered them all and hold nothing back. Returns the number of
    /// sequences, or the first that fails and why.
    fn enumerate(sc: &Scenario, fault: Option<Fault>) -> Result<usize, String> {
        let mut count = 0;
        for seq in sequences(sc) {
            count += 1;
            let (mut seen, mut orderer) = (IdSet::default(), Orderer::new(sc.ordering));
            let mut delivered = Vec::new();
            for &arrival in &seq {
                let mut step = Step::empty();
                match arrival {
                    Arrival::Data(i) => {
                        if seen.insert(sc.msgs[i].id) {
                            on_data(&mut orderer, Arc::clone(&sc.msgs[i]), &mut step, fault);
                        }
                    }
                    Arrival::Assign(i) => {
                        let total = sc.totals[i];
                        let assign_id = MsgId {
                            origin: SEQUENCER,
                            seq: u64::MAX / 2 + total,
                        };
                        if seen.insert(assign_id) {
                            orderer.on_assign(total, sc.msgs[i].id, &mut step);
                        }
                    }
                }
                if let (Some(Fault::AheadOfCursor), Orderer::Total(order)) = (fault, &mut orderer) {
                    for id in order.assignments.iter().flatten() {
                        if let Some(data) = order.waiting.remove(id) {
                            step.deliver(data);
                        }
                    }
                }
                delivered.extend(step.delivered.iter().map(|d| d.id));
            }
            let verdict = (sc.spec)(&delivered).and_then(|()| {
                let missing = sc
                    .msgs
                    .iter()
                    .filter(|m| !delivered.contains(&m.id))
                    .count();
                match (missing, orderer.held_back()) {
                    (0, 0) => Ok(()),
                    (missing, held) => Err(format!(
                        "all arrived, yet {missing} undelivered and {held} held back"
                    )),
                }
            });
            if let Err(why) = verdict {
                let arrivals: Vec<String> = seq
                    .iter()
                    .map(|&a| match a {
                        Arrival::Data(i) => sc.msgs[i].id.to_string(),
                        Arrival::Assign(i) => format!("{}@{}", sc.msgs[i].id, sc.totals[i]),
                    })
                    .collect();
                let out: Vec<String> = delivered.iter().map(MsgId::to_string).collect();
                return Err(format!(
                    "{}: arrivals [{}] delivered [{}]: {why}",
                    sc.name,
                    arrivals.join(" "),
                    out.join(" ")
                ));
            }
        }
        Ok(count)
    }

    /// The first message `delivered` holds twice, if any.
    fn twice(delivered: &[MsgId]) -> Result<(), String> {
        match (1..delivered.len()).find(|&at| delivered[..at].contains(&delivered[at])) {
            Some(at) => Err(format!("{} delivered twice", delivered[at])),
            None => Ok(()),
        }
    }

    /// FIFO's spec: exactly once, and each origin's messages in ascending
    /// order from 1, with no gaps.
    fn fifo_spec(delivered: &[MsgId]) -> Result<(), String> {
        twice(delivered)?;
        let mut next = BTreeMap::new();
        for id in delivered {
            let want = next.entry(id.origin).or_insert(1);
            if id.seq != *want {
                return Err(format!("{id} delivered before {}#{want}", id.origin));
            }
            *want += 1;
        }
        Ok(())
    }

    /// Three origins, two messages each.
    fn fifo(fault: Option<Fault>) -> Result<usize, String> {
        let msgs = (1..=3)
            .flat_map(|origin| (1..=2).map(move |seq| data(origin, seq, None)))
            .collect();
        let sc = Scenario {
            name: "FIFO",
            ordering: Ordering::Fifo,
            msgs,
            totals: Vec::new(),
            spec: &fifo_spec,
        };
        enumerate(&sc, fault)
    }

    /// A step of a causal history: `node` multicasts, or `node` receives
    /// (and delivers) the history's `i`th message.
    enum Act {
        Send(u32),
        Recv(u32, usize),
    }

    /// The messages of a causal history, stamped by their senders' own
    /// orderers.
    fn causal_history(acts: &[Act]) -> Vec<Msg> {
        let mut members: BTreeMap<u32, (Orderer<u32>, u64)> = BTreeMap::new();
        let mut msgs = Vec::new();
        for act in acts {
            let (&Act::Send(node) | &Act::Recv(node, _)) = act;
            let (orderer, sent) = members
                .entry(node)
                .or_insert_with(|| (Orderer::new(Ordering::Causal), 0));
            match *act {
                Act::Send(_) => {
                    *sent += 1;
                    msgs.push(data(node, *sent, orderer.stamp(NodeId(node))));
                }
                Act::Recv(_, i) => {
                    let mut step = Step::empty();
                    orderer.on_data(Arc::clone(&msgs[i]), &mut step);
                    assert_eq!(
                        step.delivered.len(),
                        1,
                        "a history receives in causal order"
                    );
                }
            }
        }
        msgs
    }

    /// Causal's spec: nothing twice, and nothing before a message it
    /// causally depends on (one whose stamp happened before its own).
    fn causal_spec(msgs: &[Msg]) -> impl Fn(&[MsgId]) -> Result<(), String> {
        let stamp = |m: &Msg| m.vclock.clone().unwrap_or_default();
        let deps: Vec<(MsgId, Vec<MsgId>)> = msgs
            .iter()
            .map(|m| {
                let before = msgs
                    .iter()
                    .filter(|d| stamp(d).compare(&stamp(m)) == Causality::Before)
                    .map(|d| d.id);
                (m.id, before.collect())
            })
            .collect();
        move |delivered| {
            twice(delivered)?;
            for (at, id) in delivered.iter().enumerate() {
                let earlier = &delivered[..at];
                let (_, needs) = deps.iter().find(|(m, _)| m == id).expect("a known id");
                if let Some(dep) = needs.iter().find(|dep| !earlier.contains(dep)) {
                    return Err(format!("{id} delivered before {dep}, which it depends on"));
                }
            }
            Ok(())
        }
    }

    /// Three origins, two messages each, under three histories: all
    /// concurrent; one causal chain through every message; and a mix, in
    /// which node 2 sends after delivering 1#1 and node 3 after 1#1 and
    /// 2#1, while 1#2 stays concurrent with both.
    fn causal(fault: Option<Fault>) -> Result<usize, String> {
        use Act::{Recv, Send};
        let histories = [
            vec![Send(1), Send(1), Send(2), Send(2), Send(3), Send(3)],
            vec![
                Send(1),
                Recv(2, 0),
                Send(2),
                Recv(3, 0),
                Recv(3, 1),
                Send(3),
                Recv(1, 1),
                Recv(1, 2),
                Send(1),
                Recv(2, 2),
                Recv(2, 3),
                Send(2),
                Recv(3, 3),
                Recv(3, 4),
                Send(3),
            ],
            vec![
                Send(1),
                Send(1),
                Recv(2, 0),
                Send(2),
                Send(2),
                Recv(3, 0),
                Recv(3, 2),
                Send(3),
                Send(3),
            ],
        ];
        let mut count = 0;
        for acts in &histories {
            let msgs = causal_history(acts);
            let spec = causal_spec(&msgs);
            let sc = Scenario {
                name: "causal",
                ordering: Ordering::Causal,
                msgs,
                totals: Vec::new(),
                spec: &spec,
            };
            count += enumerate(&sc, fault)?;
        }
        Ok(count)
    }

    /// Three messages under every assignment order. Total's spec: the
    /// delivered sequence is a prefix of the assignment order.
    fn total(fault: Option<Fault>) -> Result<usize, String> {
        let msgs = vec![data(1, 1, None), data(2, 1, None), data(1, 2, None)];
        let mut count = 0;
        for order in permutations(msgs.len()) {
            let mut totals = vec![0; msgs.len()];
            for (at, &i) in order.iter().enumerate() {
                totals[i] = at as u64 + 1;
            }
            let assigned: Vec<MsgId> = order.iter().map(|&i| msgs[i].id).collect();
            let spec = |delivered: &[MsgId]| match delivered
                .iter()
                .zip(&assigned)
                .position(|(got, want)| got != want)
            {
                Some(at) => Err(format!(
                    "{} delivered at position {}, which is assigned to {}",
                    delivered[at],
                    at + 1,
                    assigned[at]
                )),
                None => twice(delivered),
            };
            let sc = Scenario {
                name: "total",
                ordering: Ordering::Total,
                msgs: msgs.clone(),
                totals,
                spec: &spec,
            };
            count += enumerate(&sc, fault)?;
        }
        Ok(count)
    }

    #[test]
    fn fifo_delivers_every_arrival_order_per_origin_in_order_exactly_once() {
        // 6! orders, each alone and with one of 6 arrivals again at 7 places.
        assert_eq!(fifo(None), Ok(720 * 43));
    }

    #[test]
    fn causal_delivers_every_arrival_order_after_its_dependencies() {
        assert_eq!(causal(None), Ok(3 * 720 * 43));
    }

    #[test]
    fn total_delivers_every_interleaving_in_assignment_order() {
        // 3! assignment orders × 6! orders of 3 data and 3 assignments,
        // each alone and with one of 6 arrivals again at 7 places.
        assert_eq!(total(None), Ok(6 * 720 * 43));
    }

    #[test]
    fn the_fifo_enumeration_catches_an_orderer_that_delivers_a_duplicate() {
        let first = "FIFO: arrivals [n1#2 n1#1 n1#2 n2#1 n2#2 n3#1 n3#2] \
                     delivered [n1#2 n1#1 n1#2 n2#1 n2#2 n3#1 n3#2]: n1#2 delivered twice";
        assert_eq!(fifo(Some(Fault::LeakEarly)), Err(first.to_owned()));
    }

    #[test]
    fn the_causal_enumeration_catches_an_orderer_that_skips_a_dependency() {
        // The concurrent history has no dependency to skip; the chain's
        // first sequence with its second message early shows the fault.
        let first = "causal: arrivals [n2#1 n1#1 n2#1 n3#1 n1#2 n2#2 n3#2] \
                     delivered [n2#1 n1#1 n3#1 n1#2 n2#2 n3#2]: \
                     n2#1 delivered before n1#1, which it depends on";
        assert_eq!(causal(Some(Fault::SkipDependencies)), Err(first.to_owned()));
    }

    #[test]
    fn the_total_enumeration_catches_an_orderer_that_delivers_ahead_of_the_cursor() {
        let first = "total: arrivals [n2#1@2 n1#1 n2#1 n1#2 n1#1@1 n2#1@2 n1#2@3] \
                     delivered [n2#1 n1#1 n1#2]: \
                     n2#1 delivered at position 1, which is assigned to n1#1";
        assert_eq!(total(Some(Fault::AheadOfCursor)), Err(first.to_owned()));
    }
}

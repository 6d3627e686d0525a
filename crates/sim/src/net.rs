//! The simulated network: links with latency, jitter, bandwidth and loss,
//! plus partitions and per-node connectivity levels.
//!
//! The network computes, for each message, either a delivery delay or a
//! drop decision. Time-varying behaviour (degradation, partitions, mobile
//! hosts moving between coverage levels) is expressed by mutating the
//! network mid-run via scheduled control events (see
//! [`Sim::schedule_net_change`](crate::sim::Sim::schedule_net_change)).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a simulated node (one per actor in the default topology).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The characteristics of a directed link.
///
/// # Examples
///
/// ```
/// use odp_sim::net::LinkSpec;
/// use odp_sim::time::SimDuration;
///
/// let lan = LinkSpec::lan();
/// assert!(lan.latency < SimDuration::from_millis(5));
/// let wan = LinkSpec::wan(SimDuration::from_millis(80));
/// assert_eq!(wan.latency, SimDuration::from_millis(80));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base one-way propagation delay.
    pub latency: SimDuration,
    /// Maximum symmetric uniform jitter applied to the latency.
    pub jitter: SimDuration,
    /// Bandwidth in bytes per second; `None` models an uncongested link.
    pub bytes_per_sec: Option<u64>,
    /// Independent per-message loss probability in `[0, 1]`.
    pub loss: f64,
}

impl LinkSpec {
    /// A local-area link: 1 ms latency, 200 us jitter, 100 Mbit/s, lossless.
    pub fn lan() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(1),
            jitter: SimDuration::from_micros(200),
            bytes_per_sec: Some(12_500_000),
            loss: 0.0,
        }
    }

    /// A wide-area link with the given latency: 10% jitter, 10 Mbit/s,
    /// 0.1% loss.
    pub fn wan(latency: SimDuration) -> Self {
        LinkSpec {
            latency,
            jitter: latency.mul_f64(0.10),
            bytes_per_sec: Some(1_250_000),
            loss: 0.001,
        }
    }

    /// A 1990s mobile radio link: 150 ms latency, heavy jitter, 9600 baud
    /// class bandwidth, 2% loss. Models the paper's "partially connected"
    /// level.
    pub(crate) fn radio() -> Self {
        LinkSpec {
            latency: SimDuration::from_millis(150),
            jitter: SimDuration::from_millis(60),
            bytes_per_sec: Some(1_200),
            loss: 0.02,
        }
    }

    /// An ideal link: zero latency/jitter/loss, infinite bandwidth. Useful
    /// in unit tests that need exact timings.
    pub fn ideal() -> Self {
        LinkSpec {
            latency: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            bytes_per_sec: None,
            loss: 0.0,
        }
    }

    /// Returns the serialisation (transmission) time of `bytes` on this
    /// link, zero when bandwidth is unlimited.
    pub fn transmit_time(&self, bytes: usize) -> SimDuration {
        match self.bytes_per_sec {
            None => SimDuration::ZERO,
            Some(bps) => {
                let micros = (bytes as u128 * 1_000_000u128) / bps.max(1) as u128;
                SimDuration::from_micros(micros.min(u64::MAX as u128) as u64)
            }
        }
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec::lan()
    }
}

/// The QoS degradation one traversed link charges end-to-end: added
/// latency, added jitter and compounded loss.
///
/// Overlay layers (e.g. trader federation links) annotate their edges
/// with a `LinkQos` drawn from the topology ([`LinkQos::from_spec`]) and
/// accumulate it along a path with [`LinkQos::then`], so that a remote
/// offer's QoS can be judged *as seen from here* rather than as
/// advertised at its home.
///
/// # Examples
///
/// ```
/// use odp_sim::net::{LinkQos, LinkSpec};
/// use odp_sim::time::SimDuration;
///
/// let hop = LinkQos::from_spec(&LinkSpec::wan(SimDuration::from_millis(40)));
/// let path = LinkQos::NONE.then(hop).then(hop);
/// assert_eq!(path.latency, SimDuration::from_millis(80));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkQos {
    /// Added one-way propagation delay.
    pub latency: SimDuration,
    /// Added delay variance.
    pub jitter: SimDuration,
    /// Independent loss probability contributed by this link, in `[0, 1]`.
    pub loss: f64,
}

impl LinkQos {
    /// The identity penalty: a free traversal (local resolution, or an
    /// un-annotated overlay edge).
    pub const NONE: LinkQos = LinkQos {
        latency: SimDuration::ZERO,
        jitter: SimDuration::ZERO,
        loss: 0.0,
    };

    /// A penalty with the given components; loss is clamped to `[0, 1]`.
    pub fn new(latency: SimDuration, jitter: SimDuration, loss: f64) -> Self {
        LinkQos {
            latency,
            jitter,
            loss: loss.clamp(0.0, 1.0),
        }
    }

    /// The penalty a message pays crossing a link of this spec
    /// (bandwidth is a capacity constraint, not a per-traversal charge,
    /// so it does not appear here).
    pub fn from_spec(spec: &LinkSpec) -> Self {
        LinkQos::new(spec.latency, spec.jitter, spec.loss)
    }

    /// Sequential composition: latency and jitter add; independent loss
    /// stages compound as `1 - (1-a)(1-b)`. A zero-loss side is the
    /// exact identity on the other (no floating-point drift), so
    /// composing with [`LinkQos::NONE`] changes nothing.
    pub fn then(self, next: LinkQos) -> LinkQos {
        let loss = if self.loss == 0.0 {
            next.loss
        } else if next.loss == 0.0 {
            self.loss
        } else {
            (1.0 - (1.0 - self.loss) * (1.0 - next.loss)).clamp(0.0, 1.0)
        };
        LinkQos {
            latency: self.latency + next.latency,
            jitter: self.jitter + next.jitter,
            loss,
        }
    }

    /// True for the identity penalty.
    pub fn is_none(&self) -> bool {
        *self == LinkQos::NONE
    }
}

impl Default for LinkQos {
    fn default() -> Self {
        LinkQos::NONE
    }
}

impl fmt::Display for LinkQos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "+{} lat, +{} jit, {:.2}% loss",
            self.latency,
            self.jitter,
            self.loss * 100.0
        )
    }
}

/// The paper's three connectivity levels for mobile hosts (§4.2.2:
/// "connection may vary from being disconnected to being partially
/// connected ... to being fully connected").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Connectivity {
    /// No traffic in or out of the node.
    Disconnected,
    /// Traffic flows over a degraded (radio-class) link regardless of the
    /// underlying topology.
    Partial,
    /// Normal topology-defined links.
    #[default]
    Full,
}

/// Outcome of submitting a message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Message will arrive at the given time.
    DeliverAt(SimTime),
    /// Message was dropped (loss, partition, or disconnection).
    Dropped(DropReason),
}

/// Why a message was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// Source and destination are in different partitions.
    Partitioned,
    /// Source or destination is at [`Connectivity::Disconnected`].
    Disconnected,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DropReason::Loss => write!(f, "random loss"),
            DropReason::Partitioned => write!(f, "network partition"),
            DropReason::Disconnected => write!(f, "host disconnected"),
        }
    }
}

/// Hashes a directed link `(from, to)` in a multiply and a rotate per
/// node id. Link keys are the simulation's own node ids, never outside
/// input, and the simulation only looks the map up, never walks it, so
/// neither SipHash's collision resistance nor its order matters there.
#[derive(Debug, Default, Clone, Copy)]
struct LinkHasher(u64);

impl Hasher for LinkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(n)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The mutable network state for a simulation.
///
/// Delivery delay for a message of `b` bytes on link `l` is
/// `queueing + transmit(b) + latency + jitter`, where queueing serialises
/// messages through the link's bandwidth (FIFO per directed pair).
#[derive(Debug, Clone)]
pub struct Network {
    default_link: LinkSpec,
    overrides: HashMap<(NodeId, NodeId), LinkSpec>,
    /// Earliest time each directed link is free to begin transmitting.
    link_free: HashMap<(NodeId, NodeId), SimTime, BuildHasherDefault<LinkHasher>>,
    partitions: Vec<HashSet<NodeId>>,
    connectivity: HashMap<NodeId, Connectivity>,
    partial_link: LinkSpec,
}

impl Default for Network {
    fn default() -> Self {
        Network::new(LinkSpec::default())
    }
}

impl Network {
    /// Creates a network in which every pair of nodes is joined by
    /// `default_link`.
    pub fn new(default_link: LinkSpec) -> Self {
        Network {
            default_link,
            overrides: HashMap::new(),
            link_free: HashMap::default(),
            partitions: Vec::new(),
            connectivity: HashMap::new(),
            partial_link: LinkSpec::radio(),
        }
    }

    /// Replaces the default link used for pairs without an override.
    pub fn set_default_link(&mut self, spec: LinkSpec) {
        self.default_link = spec;
    }

    /// Sets the link used in **both** directions between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) {
        self.overrides.insert((a, b), spec);
        self.overrides.insert((b, a), spec);
    }

    /// Returns the spec currently in force from `from` to `to`, accounting
    /// for partial connectivity of either endpoint.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkSpec {
        let base = self
            .overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_link);
        let partial = self.connectivity_of(from) == Connectivity::Partial
            || self.connectivity_of(to) == Connectivity::Partial;
        if partial {
            // A degraded endpoint dominates: take the worse of each field.
            LinkSpec {
                latency: base.latency.max(self.partial_link.latency),
                jitter: base.jitter.max(self.partial_link.jitter),
                bytes_per_sec: match (base.bytes_per_sec, self.partial_link.bytes_per_sec) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                },
                loss: base.loss.max(self.partial_link.loss),
            }
        } else {
            base
        }
    }

    /// The per-traversal QoS penalty currently charged from `from` to
    /// `to` (the [`LinkQos`] of the link in force, including partial
    /// connectivity degradation).
    pub fn link_qos(&self, from: NodeId, to: NodeId) -> LinkQos {
        LinkQos::from_spec(&self.link(from, to))
    }

    /// Splits the network into the given groups; traffic crosses group
    /// boundaries only if neither endpoint appears in any group. Replaces
    /// any previous partition.
    pub fn partition(&mut self, groups: Vec<HashSet<NodeId>>) {
        self.partitions = groups;
    }

    /// Removes all partitions.
    pub fn heal(&mut self) {
        self.partitions.clear();
    }

    /// True if a partition separates `a` from `b`.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        let ga = self.partitions.iter().position(|g| g.contains(&a));
        let gb = self.partitions.iter().position(|g| g.contains(&b));
        match (ga, gb) {
            (Some(x), Some(y)) => x != y,
            (None, None) => false,
            // A node listed in a partition group cannot talk to unlisted
            // nodes: the partition is total over listed membership.
            _ => true,
        }
    }

    /// Sets a node's connectivity level (mobile hosts).
    pub fn set_connectivity(&mut self, node: NodeId, level: Connectivity) {
        self.connectivity.insert(node, level);
    }

    /// Reads a node's connectivity level (defaults to `Full`).
    pub(crate) fn connectivity_of(&self, node: NodeId) -> Connectivity {
        self.connectivity.get(&node).copied().unwrap_or_default()
    }

    /// Decides the fate of a message submitted at `now`.
    ///
    /// Hot-path note: every skip below is behaviour-preserving. Empty
    /// connectivity/partition/override tables answer every query with
    /// their default, and the `link_free` bookkeeping is skipped only
    /// when `transmit == 0` — in that regime `*free = max(free, now)`,
    /// so by induction `free <= now` and the recorded value can never
    /// push a later `start` past `now`, exactly as if the entry were
    /// absent. The RNG draw order (one `chance`, then at most one
    /// `jittered`) is identical on every path, so runs are bit-equal to
    /// the unskipped form, kept as the reference in this module's tests,
    /// where a property test holds this function to it.
    pub fn submit(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        rng: &mut DetRng,
    ) -> Verdict {
        if !self.connectivity.is_empty()
            && (self.connectivity_of(from) == Connectivity::Disconnected
                || self.connectivity_of(to) == Connectivity::Disconnected)
        {
            return Verdict::Dropped(DropReason::Disconnected);
        }
        if !self.partitions.is_empty() && self.is_partitioned(from, to) {
            return Verdict::Dropped(DropReason::Partitioned);
        }
        let spec = if self.overrides.is_empty() && self.connectivity.is_empty() {
            self.default_link
        } else {
            self.link(from, to)
        };
        if rng.chance(spec.loss) {
            return Verdict::Dropped(DropReason::Loss);
        }
        // Local delivery bypasses the network entirely.
        if from == to {
            return Verdict::DeliverAt(now);
        }
        let transmit = spec.transmit_time(bytes);
        let delay = rng.jittered(spec.latency, spec.jitter);
        if transmit == SimDuration::ZERO && self.link_free.is_empty() {
            return Verdict::DeliverAt(now + delay);
        }
        let free = self.link_free.entry((from, to)).or_insert(SimTime::ZERO);
        let start = (*free).max(now);
        *free = start + transmit;
        Verdict::DeliverAt(start + transmit + delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rng() -> DetRng {
        DetRng::seed_from(1)
    }

    /// [`Network::submit`] without its hot-path skips: every table is
    /// consulted and every link's free time recorded, whatever their
    /// contents. The reference `submit` must stay bit-equal to.
    fn submit_unoptimized(
        net: &mut Network,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        rng: &mut DetRng,
    ) -> Verdict {
        if net.connectivity_of(from) == Connectivity::Disconnected
            || net.connectivity_of(to) == Connectivity::Disconnected
        {
            return Verdict::Dropped(DropReason::Disconnected);
        }
        if net.is_partitioned(from, to) {
            return Verdict::Dropped(DropReason::Partitioned);
        }
        let spec = net.link(from, to);
        if rng.chance(spec.loss) {
            return Verdict::Dropped(DropReason::Loss);
        }
        // Local delivery bypasses the network entirely.
        if from == to {
            return Verdict::DeliverAt(now);
        }
        let free = net.link_free.entry((from, to)).or_insert(SimTime::ZERO);
        let start = (*free).max(now);
        let transmit = spec.transmit_time(bytes);
        *free = start + transmit;
        let delay = rng.jittered(spec.latency, spec.jitter);
        Verdict::DeliverAt(start + transmit + delay)
    }

    /// Link specs with and without bandwidth, loss and jitter.
    fn palette(i: u32) -> LinkSpec {
        match i % 4 {
            0 => LinkSpec::ideal(),
            1 => LinkSpec::lan(),
            2 => LinkSpec {
                latency: SimDuration::from_millis(4),
                jitter: SimDuration::from_millis(1),
                bytes_per_sec: None,
                loss: 0.3,
            },
            _ => LinkSpec::radio(),
        }
    }

    proptest! {
        /// Over any interleaving of sends with connectivity, override
        /// and partition changes — so every table is empty at some
        /// point and populated at another, and bandwidth-limited sends
        /// follow free ones on the same link — `submit` and the
        /// reference return the same verdict and leave the RNG in the
        /// same state.
        #[test]
        fn submit_matches_the_unoptimized_reference(
            seed in any::<u64>(),
            default_link in 0u32..4,
            ops in prop::collection::vec((0u32..12, 0u32..5, 0u32..5, 0u32..6_000), 1..120),
        ) {
            let mut fast = Network::new(palette(default_link));
            let mut slow = fast.clone();
            let (mut fast_rng, mut slow_rng) = (DetRng::seed_from(seed), DetRng::seed_from(seed));
            let mut now = SimTime::ZERO;
            for (i, &(op, a, b, c)) in ops.iter().enumerate() {
                let (na, nb) = (NodeId(a), NodeId(b));
                for net in [&mut fast, &mut slow] {
                    match op {
                        8 => net.set_link(na, nb, palette(c)),
                        9 => {
                            let level = [
                                Connectivity::Disconnected,
                                Connectivity::Partial,
                                Connectivity::Full,
                            ][c as usize % 3];
                            net.set_connectivity(na, level);
                        }
                        10 => net.partition(vec![
                            (0..=a).map(NodeId).collect(),
                            (a + 1..5).map(NodeId).collect(),
                        ]),
                        11 => net.heal(),
                        _ => {}
                    }
                }
                if op < 8 {
                    now += SimDuration::from_micros(u64::from(c) / 8);
                    let bytes = c as usize;
                    let got = fast.submit(now, na, nb, bytes, &mut fast_rng);
                    let want = submit_unoptimized(&mut slow, now, na, nb, bytes, &mut slow_rng);
                    prop_assert_eq!(got, want, "verdict of op #{}", i);
                    prop_assert_eq!(
                        fast_rng.clone().next_u64(),
                        slow_rng.clone().next_u64(),
                        "rng state after op #{}",
                        i
                    );
                }
            }
        }
    }

    #[test]
    fn ideal_link_delivers_instantly() {
        let mut net = Network::new(LinkSpec::ideal());
        let v = net.submit(SimTime::ZERO, NodeId(0), NodeId(1), 100, &mut rng());
        assert_eq!(v, Verdict::DeliverAt(SimTime::ZERO));
    }

    #[test]
    fn latency_applies() {
        let mut spec = LinkSpec::ideal();
        spec.latency = SimDuration::from_millis(10);
        let mut net = Network::new(spec);
        let v = net.submit(SimTime::ZERO, NodeId(0), NodeId(1), 0, &mut rng());
        assert_eq!(v, Verdict::DeliverAt(SimTime::from_millis(10)));
    }

    #[test]
    fn bandwidth_serialises_messages() {
        let mut spec = LinkSpec::ideal();
        spec.bytes_per_sec = Some(1_000_000); // 1 MB/s -> 1000 bytes per ms
        let mut net = Network::new(spec);
        let mut r = rng();
        let v1 = net.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000, &mut r);
        let v2 = net.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1_000, &mut r);
        assert_eq!(v1, Verdict::DeliverAt(SimTime::from_millis(1)));
        assert_eq!(v2, Verdict::DeliverAt(SimTime::from_millis(2)));
        // Opposite direction has its own queue.
        let v3 = net.submit(SimTime::ZERO, NodeId(1), NodeId(0), 1_000, &mut r);
        assert_eq!(v3, Verdict::DeliverAt(SimTime::from_millis(1)));
    }

    #[test]
    fn lossy_link_eventually_drops() {
        let mut spec = LinkSpec::ideal();
        spec.loss = 0.5;
        let mut net = Network::new(spec);
        let mut r = rng();
        let drops = (0..200)
            .filter(|_| {
                matches!(
                    net.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1, &mut r),
                    Verdict::Dropped(DropReason::Loss)
                )
            })
            .count();
        assert!(drops > 50 && drops < 150, "drops={drops}");
    }

    #[test]
    fn partition_blocks_cross_traffic_and_heals() {
        let mut net = Network::new(LinkSpec::ideal());
        let a: HashSet<_> = [NodeId(0), NodeId(1)].into();
        let b: HashSet<_> = [NodeId(2)].into();
        net.partition(vec![a, b]);
        assert!(net.is_partitioned(NodeId(0), NodeId(2)));
        assert!(!net.is_partitioned(NodeId(0), NodeId(1)));
        // Listed vs unlisted node: treated as separated.
        assert!(net.is_partitioned(NodeId(0), NodeId(9)));
        let v = net.submit(SimTime::ZERO, NodeId(0), NodeId(2), 1, &mut rng());
        assert_eq!(v, Verdict::Dropped(DropReason::Partitioned));
        net.heal();
        assert!(!net.is_partitioned(NodeId(0), NodeId(2)));
    }

    #[test]
    fn disconnected_node_sends_and_receives_nothing() {
        let mut net = Network::new(LinkSpec::ideal());
        net.set_connectivity(NodeId(0), Connectivity::Disconnected);
        let mut r = rng();
        assert_eq!(
            net.submit(SimTime::ZERO, NodeId(0), NodeId(1), 1, &mut r),
            Verdict::Dropped(DropReason::Disconnected)
        );
        assert_eq!(
            net.submit(SimTime::ZERO, NodeId(1), NodeId(0), 1, &mut r),
            Verdict::Dropped(DropReason::Disconnected)
        );
    }

    #[test]
    fn partial_connectivity_degrades_the_link() {
        let mut net = Network::new(LinkSpec::ideal());
        net.set_connectivity(NodeId(0), Connectivity::Partial);
        let spec = net.link(NodeId(0), NodeId(1));
        assert_eq!(spec.latency, LinkSpec::radio().latency);
        assert_eq!(spec.bytes_per_sec, LinkSpec::radio().bytes_per_sec);
        net.set_connectivity(NodeId(0), Connectivity::Full);
        assert_eq!(net.link(NodeId(0), NodeId(1)), LinkSpec::ideal());
    }

    #[test]
    fn per_pair_override_wins_over_default() {
        let mut net = Network::new(LinkSpec::ideal());
        let wan = LinkSpec::wan(SimDuration::from_millis(50));
        net.set_link(NodeId(0), NodeId(1), wan);
        assert_eq!(net.link(NodeId(0), NodeId(1)).latency, wan.latency);
        assert_eq!(net.link(NodeId(1), NodeId(0)).latency, wan.latency);
        assert_eq!(net.link(NodeId(0), NodeId(2)), LinkSpec::ideal());
    }

    #[test]
    fn self_send_is_immediate() {
        let mut spec = LinkSpec::ideal();
        spec.latency = SimDuration::from_millis(50);
        let mut net = Network::new(spec);
        let v = net.submit(
            SimTime::from_millis(3),
            NodeId(4),
            NodeId(4),
            10,
            &mut rng(),
        );
        assert_eq!(v, Verdict::DeliverAt(SimTime::from_millis(3)));
    }

    #[test]
    fn link_qos_composes_additively_and_compounds_loss() {
        let a = LinkQos::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(2),
            0.1,
        );
        let b = LinkQos::new(
            SimDuration::from_millis(30),
            SimDuration::from_millis(5),
            0.1,
        );
        let path = a.then(b);
        assert_eq!(path.latency, SimDuration::from_millis(40));
        assert_eq!(path.jitter, SimDuration::from_millis(7));
        // 1 - 0.9 * 0.9
        assert!((path.loss - 0.19).abs() < 1e-12, "loss={}", path.loss);
    }

    #[test]
    fn link_qos_none_is_the_exact_identity() {
        let hop = LinkQos::new(
            SimDuration::from_millis(25),
            SimDuration::from_millis(3),
            0.01,
        );
        assert_eq!(hop.then(LinkQos::NONE), hop);
        assert_eq!(LinkQos::NONE.then(hop), hop);
        assert!(LinkQos::NONE.is_none());
        assert!(!hop.is_none());
    }

    #[test]
    fn link_qos_reads_off_the_network_topology() {
        let mut net = Network::new(LinkSpec::ideal());
        let wan = LinkSpec::wan(SimDuration::from_millis(50));
        net.set_link(NodeId(0), NodeId(1), wan);
        let qos = net.link_qos(NodeId(0), NodeId(1));
        assert_eq!(qos, LinkQos::from_spec(&wan));
        assert!(net.link_qos(NodeId(0), NodeId(2)).is_none());
    }

    #[test]
    fn transmit_time_math() {
        let mut spec = LinkSpec::ideal();
        spec.bytes_per_sec = Some(2_000_000);
        assert_eq!(spec.transmit_time(2_000_000), SimDuration::from_secs(1));
        assert_eq!(spec.transmit_time(0), SimDuration::ZERO);
        assert_eq!(LinkSpec::ideal().transmit_time(1 << 30), SimDuration::ZERO);
    }
}

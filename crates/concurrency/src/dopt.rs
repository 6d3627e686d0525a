//! dOPT: the distributed operational transformation algorithm of GROVE
//! (Ellis & Gibbs 1989), peer-to-peer with vector-clock causality.
//!
//! This is the historically faithful algorithm the paper cites. Each site
//! applies local operations immediately, stamps them with its vector
//! clock, and broadcasts them; remote operations wait until causally
//! ready, are transformed against concurrent operations in the site's
//! log, and then applied.
//!
//! **Known limitation** (the "dOPT puzzle", documented in later
//! literature): with three or more sites and certain interleavings of
//! *mutually concurrent* operations, sites may transform against the same
//! concurrent set in different orders and diverge. The experiments in
//! this workspace therefore use the provably convergent client–server
//! scheme in [`crate::jupiter`]; `dopt` is provided for fidelity to the
//! paper and is guaranteed convergent for two sites (see tests).

use odp_awareness::bus::{CoopEvent, CoopKind};
use odp_groupcomm::vclock::{Causality, VectorClock};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

use crate::ot::{transform_pair, ApplyError, CharOp, TextDoc, TieBreak};

/// Artefact path used for dOPT remote-op cooperation events.
pub const DOPT_ARTEFACT: &str = "doc";

/// A stamped operation broadcast between sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteOp {
    /// Originating site.
    pub site: NodeId,
    /// The origin's vector clock *after* generating the op (so
    /// `clock[site]` numbers the op itself).
    pub clock: VectorClock,
    /// The operation, in the origin's context at generation time.
    pub op: CharOp,
}

/// A remote operation a site integrated into its document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedOp {
    /// Originating site.
    pub site: NodeId,
    /// The op's number at its origin (`clock[site]` of the stamped op).
    pub seq: u64,
    /// The op in the form it was executed here, after transformation.
    pub executed: CharOp,
    /// When it was integrated.
    pub at: SimTime,
}

/// The integration as a unified cooperation event: a
/// [`CoopKind::RemoteOp`] broadcast from the *originating* site on
/// [`DOPT_ARTEFACT`] — so co-authors become aware of whose edit just
/// landed, not merely that the text changed.
impl From<&AppliedOp> for CoopEvent {
    fn from(applied: &AppliedOp) -> CoopEvent {
        CoopEvent::broadcast(
            applied.site,
            DOPT_ARTEFACT,
            applied.at,
            CoopKind::RemoteOp {
                site: applied.site,
                seq: applied.seq,
            },
        )
    }
}

#[derive(Debug, Clone)]
struct LogEntry {
    site: NodeId,
    clock: VectorClock,
    /// The op in the form it was executed at this site.
    executed: CharOp,
}

/// One collaborating site.
///
/// # Examples
///
/// ```
/// use odp_concurrency::dopt::DoptSite;
/// use odp_concurrency::ot::CharOp;
/// use odp_sim::net::NodeId;
/// use odp_sim::time::SimTime;
///
/// let mut a = DoptSite::new(NodeId(0), "ab");
/// let mut b = DoptSite::new(NodeId(1), "ab");
/// let op_a = a.local(CharOp::Insert { pos: 1, ch: 'X' })?;
/// let op_b = b.local(CharOp::Insert { pos: 1, ch: 'Y' })?;
/// let landed = a.receive(op_b, SimTime::ZERO);
/// assert_eq!(landed[0].site, NodeId(1));
/// let _ = b.receive(op_a, SimTime::ZERO);
/// assert_eq!(a.text(), b.text(), "concurrent inserts converge");
/// # Ok::<(), odp_concurrency::ot::ApplyError>(())
/// ```
#[derive(Debug)]
pub struct DoptSite {
    site: NodeId,
    doc: TextDoc,
    clock: VectorClock,
    log: Vec<LogEntry>,
    pending: Vec<RemoteOp>,
}

impl DoptSite {
    /// Creates a site replica with the shared initial text.
    pub fn new(site: NodeId, initial: &str) -> Self {
        DoptSite {
            site,
            doc: TextDoc::from(initial),
            clock: VectorClock::new(),
            log: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// This site's id.
    pub fn site(&self) -> NodeId {
        self.site
    }

    /// The local text.
    pub fn text(&self) -> String {
        self.doc.text()
    }

    /// Remote operations waiting for causal predecessors.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Applies a local edit immediately and returns the stamped op to
    /// broadcast to the other sites.
    ///
    /// # Errors
    ///
    /// [`ApplyError`] if the edit is out of bounds.
    pub fn local(&mut self, op: CharOp) -> Result<RemoteOp, ApplyError> {
        self.doc.apply(op)?;
        self.clock.tick(self.site);
        let stamped = RemoteOp {
            site: self.site,
            clock: self.clock.clone(),
            op,
        };
        self.log.push(LogEntry {
            site: self.site,
            clock: self.clock.clone(),
            executed: op,
        });
        Ok(stamped)
    }

    /// Integrates a remote operation (possibly deferring it until its
    /// causal predecessors arrive). Returns the ops actually applied to
    /// the local document, in application order.
    #[must_use]
    pub fn receive(&mut self, op: RemoteOp, at: SimTime) -> Vec<AppliedOp> {
        self.pending.push(op);
        let mut applied = Vec::new();
        loop {
            let ready = self
                .pending
                .iter()
                .position(|r| self.clock.deliverable(&r.clock, r.site));
            let Some(idx) = ready else { break };
            let remote = self.pending.remove(idx);
            applied.push(AppliedOp {
                site: remote.site,
                seq: remote.clock.get(remote.site),
                executed: self.integrate(&remote),
                at,
            });
        }
        applied
    }

    fn integrate(&mut self, remote: &RemoteOp) -> CharOp {
        // Transform against every logged op concurrent with the remote op,
        // in the order this site executed them (the dOPT rule). Each
        // concurrent log entry is itself re-transformed against the
        // incoming op so that later arrivals — whose context includes this
        // op — meet log entries expressed in the matching context (the
        // two-party "bridge" fold; without it even two sites diverge).
        let mut op = remote.op;
        for entry in &mut self.log {
            if remote.clock.compare(&entry.clock) == Causality::Concurrent {
                let tie = if remote.site.0 < entry.site.0 {
                    TieBreak::OpWins
                } else {
                    TieBreak::AgainstWins
                };
                let (op2, entry2) = transform_pair(op, entry.executed, tie);
                op = op2;
                entry.executed = entry2;
            }
        }
        // OT transformation keeps remote ops applicable; failing here is
        // a transformation-function bug and fail-stop is the only safe
        // response for a replica.
        self.doc
            .apply(op)
            // odp-check: allow(unwrap)
            .expect("transformed remote op applies cleanly");
        self.clock.tick(remote.site);
        self.log.push(LogEntry {
            site: remote.site,
            clock: remote.clock.clone(),
            executed: op,
        });
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ot::CharOp::*;
    use odp_awareness::bus::EventBus;

    const NOW: SimTime = SimTime::ZERO;

    #[test]
    fn sequential_ops_need_no_transformation() {
        let mut a = DoptSite::new(NodeId(0), "ab");
        let mut b = DoptSite::new(NodeId(1), "ab");
        let op1 = a.local(Insert { pos: 0, ch: 'X' }).unwrap();
        let _ = b.receive(op1, NOW);
        let op2 = b.local(Insert { pos: 3, ch: 'Y' }).unwrap();
        let _ = a.receive(op2, NOW);
        assert_eq!(a.text(), "XabY");
        assert_eq!(b.text(), "XabY");
    }

    #[test]
    fn concurrent_edits_converge_for_two_sites() {
        let mut a = DoptSite::new(NodeId(0), "abcd");
        let mut b = DoptSite::new(NodeId(1), "abcd");
        let oa = a.local(Delete { pos: 1 }).unwrap();
        let ob = b.local(Insert { pos: 2, ch: 'Z' }).unwrap();
        let _ = a.receive(ob, NOW);
        let _ = b.receive(oa, NOW);
        assert_eq!(a.text(), b.text());
        assert_eq!(a.text(), "aZcd".to_owned());
    }

    #[test]
    fn out_of_causal_order_delivery_is_buffered() {
        let mut a = DoptSite::new(NodeId(0), "x");
        let mut b = DoptSite::new(NodeId(1), "x");
        let op1 = a.local(Insert { pos: 1, ch: '1' }).unwrap();
        // a's second op causally follows its first.
        let op2 = a.local(Insert { pos: 2, ch: '2' }).unwrap();
        // b receives op2 first: must buffer.
        assert!(b.receive(op2, NOW).is_empty());
        assert_eq!(b.pending(), 1);
        let applied = b.receive(op1, NOW);
        assert_eq!(applied.len(), 2, "both apply once the gap fills");
        assert_eq!(b.text(), "x12");
    }

    #[test]
    fn two_site_random_convergence() {
        use odp_sim::rng::DetRng;
        for seed in 0..20u64 {
            let mut rng = DetRng::seed_from(seed);
            let mut a = DoptSite::new(NodeId(0), "seed text");
            let mut b = DoptSite::new(NodeId(1), "seed text");
            let mut from_a = Vec::new();
            let mut from_b = Vec::new();
            for _ in 0..10 {
                // Each site makes a random valid local edit.
                let la = a.text().chars().count();
                let op_a = if rng.chance(0.5) || la == 0 {
                    Insert {
                        pos: rng.index(la + 1),
                        ch: 'a',
                    }
                } else {
                    Delete { pos: rng.index(la) }
                };
                from_a.push(a.local(op_a).unwrap());
                let lb = b.text().chars().count();
                let op_b = if rng.chance(0.5) || lb == 0 {
                    Insert {
                        pos: rng.index(lb + 1),
                        ch: 'b',
                    }
                } else {
                    Delete { pos: rng.index(lb) }
                };
                from_b.push(b.local(op_b).unwrap());
            }
            // Exchange everything (causal order preserved per sender).
            for op in from_b {
                let _ = a.receive(op, NOW);
            }
            for op in from_a {
                let _ = b.receive(op, NOW);
            }
            assert_eq!(a.text(), b.text(), "diverged at seed {seed}");
            assert_eq!(a.pending(), 0);
            assert_eq!(b.pending(), 0);
        }
    }

    #[test]
    fn local_response_is_immediate() {
        let mut a = DoptSite::new(NodeId(0), "");
        a.local(Insert { pos: 0, ch: 'h' }).unwrap();
        a.local(Insert { pos: 1, ch: 'i' }).unwrap();
        assert_eq!(a.text(), "hi", "no communication required");
    }

    #[test]
    fn out_of_bounds_local_edit_fails_cleanly() {
        let mut a = DoptSite::new(NodeId(0), "ab");
        assert!(a.local(Delete { pos: 7 }).is_err());
        assert_eq!(a.text(), "ab");
    }

    #[test]
    fn via_integration_announces_the_originating_site() {
        let mut bus = EventBus::new();
        bus.register(NodeId(0), 0.0);
        bus.register(NodeId(2), 0.0);
        let mut a = DoptSite::new(NodeId(0), "x");
        let mut b = DoptSite::new(NodeId(1), "x");
        let op1 = b.local(Insert { pos: 1, ch: '1' }).unwrap();
        let op2 = b.local(Insert { pos: 2, ch: '2' }).unwrap();
        // Deliver out of causal order: op2 buffers, op1 releases both.
        assert!(a.receive(op2, NOW).is_empty());
        let applied = a.receive(op1, SimTime::from_millis(7));
        assert_eq!(applied.len(), 2);
        let seen = bus.publish_all(&applied);
        assert!(seen.iter().all(|d| d.event.at == SimTime::from_millis(7)));
        // One broadcast per integrated op: actor is the *origin* (site 1),
        // so both registered observers hear about both ops.
        assert_eq!(seen.len(), 4);
        assert!(seen.iter().all(|d| matches!(
            d.event.kind,
            CoopKind::RemoteOp {
                site: NodeId(1),
                ..
            }
        )));
        let seqs: Vec<u64> = seen
            .iter()
            .filter(|d| d.observer == NodeId(2))
            .map(|d| match d.event.kind {
                CoopKind::RemoteOp { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![1, 2], "announced in application order");
    }
}

//! Replication invariant: dOPT replicas converge — all site texts are
//! equal (with no operation still deferred) once the system quiesces.
//!
//! The harness wraps one [`DoptSite`] per node; each site applies a
//! scripted local edit and broadcasts the stamped op to its peers, and
//! the explorer permutes the broadcast deliveries. Two sites are
//! provably convergent; with three or more sites the explorer can
//! surface the classic "dOPT puzzle" divergence (see
//! [`odp_concurrency::dopt`]).

use odp_concurrency::dopt::{DoptSite, RemoteOp};
use odp_concurrency::ot::CharOp;
use odp_sim::net::NodeId;
use odp_sim::prelude::*;

use crate::explore::Invariant;

/// One dOPT replica as a simulator actor.
pub struct DoptActor {
    site: DoptSite,
    peers: Vec<NodeId>,
    script: Vec<(SimDuration, CharOp)>,
    /// Origins of remote ops, in receive order (diagnostics).
    pub received: Vec<NodeId>,
}

impl DoptActor {
    /// A replica of `initial` that applies each `(at, op)` of `script`
    /// locally and broadcasts it to `peers`.
    pub fn new(
        me: NodeId,
        initial: &str,
        peers: Vec<NodeId>,
        script: Vec<(SimDuration, CharOp)>,
    ) -> Self {
        DoptActor {
            site: DoptSite::new(me, initial),
            peers,
            script,
            received: Vec::new(),
        }
    }

    /// The wrapped site (invariants read its text and pending count).
    pub fn site(&self) -> &DoptSite {
        &self.site
    }
}

impl Actor<RemoteOp> for DoptActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, RemoteOp>) {
        for (i, (at, _)) in self.script.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, RemoteOp>, _from: NodeId, msg: RemoteOp) {
        self.received.push(msg.site);
        // The convergence invariant reads the site's text; nobody here
        // observes whose op landed.
        let _applied = self.site.receive(msg, ctx.now());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, RemoteOp>, _timer: TimerId, tag: u64) {
        let Some((_, op)) = self.script.get(tag as usize).copied() else {
            return;
        };
        // Scripted edits target positions that exist in every reachable
        // intermediate state, so a local apply cannot fail.
        if let Ok(stamped) = self.site.local(op) {
            for &p in &self.peers {
                ctx.send(p, stamped.clone());
            }
        }
    }
}

/// A sim of `n` replicas of `"abcd"` editing the same position at the
/// same instant — all ops mutually concurrent and all broadcasts
/// simultaneously in flight, so the explorer can permute every delivery
/// order. The first two sites insert distinct characters; the third
/// site (when present) deletes, the insert/insert/delete mix that
/// violates transformation property TP2 and exhibits the dOPT puzzle.
pub fn dopt_sim(seed: u64, n: usize) -> Sim<RemoteOp> {
    let nodes: Vec<NodeId> = (0..n).map(|i| NodeId(i as u32)).collect();
    let mut sim = SimBuilder::new(seed).build();
    for (i, &me) in nodes.iter().enumerate() {
        let peers: Vec<NodeId> = nodes.iter().copied().filter(|&p| p != me).collect();
        let op = if i == 2 {
            CharOp::Delete { pos: 0 }
        } else {
            CharOp::Insert {
                pos: 0,
                ch: (b'A' + i as u8) as char,
            }
        };
        let script = vec![(SimDuration::from_millis(1), op)];
        sim.add_actor(me, DoptActor::new(me, "abcd", peers, script));
    }
    sim
}

/// The replica ids [`dopt_sim`] uses.
pub fn dopt_sites(n: usize) -> Vec<NodeId> {
    (0..n).map(|i| NodeId(i as u32)).collect()
}

/// A deep two-site scenario: both replicas of `"abcd"` apply three
/// position-0 inserts each at the same instant (six mutually concurrent
/// broadcasts simultaneously in flight), so the bounded schedule space
/// reaches the depth-10 branch budget. Two sites are provably convergent under
/// dOPT, so the convergence check must *pass* at every depth — the
/// scenario exists to exercise deep DPOR search, not to fail.
pub fn dopt_deep_sim(seed: u64) -> Sim<RemoteOp> {
    let nodes = dopt_sites(2);
    let mut sim = SimBuilder::new(seed).build();
    for (i, &me) in nodes.iter().enumerate() {
        let peers: Vec<NodeId> = nodes.iter().copied().filter(|&p| p != me).collect();
        let script: Vec<(SimDuration, CharOp)> = (0..3u64)
            .map(|k| {
                (
                    SimDuration::from_millis(1),
                    CharOp::Insert {
                        pos: 0,
                        ch: (b'A' + (i as u8) * 3 + k as u8) as char,
                    },
                )
            })
            .collect();
        sim.add_actor(me, DoptActor::new(me, "abcd", peers, script));
    }
    sim
}

/// Canonical [`crate::explore::StateFingerprint`] for dOPT scenarios
/// over `sites`: each replica's text, deferred-op count, and remote-op
/// receive order (the receive order determines all future transforms,
/// so two states hashing equal genuinely behave identically).
pub fn fingerprint_for(sites: Vec<NodeId>) -> impl Fn(&Sim<RemoteOp>) -> u64 {
    move |sim| {
        let mut parts: Vec<(u32, String, usize, Vec<u32>)> = Vec::new();
        for &s in &sites {
            if let Some(actor) = sim.get::<DoptActor>(ActorHandle::of(s)) {
                parts.push((
                    s.0,
                    actor.site().text(),
                    actor.site().pending(),
                    actor.received.iter().map(|n| n.0).collect(),
                ));
            }
        }
        crate::explore::hash_of(&parts)
    }
}

/// Quiescence invariant: every replica drained its pending queue and
/// all texts are identical.
pub struct Converged {
    sites: Vec<NodeId>,
}

impl Converged {
    /// Watches the given replicas.
    pub fn new(sites: Vec<NodeId>) -> Self {
        Converged { sites }
    }
}

impl Invariant<RemoteOp> for Converged {
    fn name(&self) -> &'static str {
        "dopt-convergence"
    }

    fn check_quiescent(&mut self, sim: &Sim<RemoteOp>) -> Result<(), String> {
        let mut texts = Vec::new();
        for &s in &self.sites {
            let actor: &DoptActor = sim.get(ActorHandle::of(s)).ok_or("replica missing")?;
            if actor.site().pending() != 0 {
                return Err(format!(
                    "site {s}: {} op(s) still deferred at quiescence",
                    actor.site().pending()
                ));
            }
            texts.push((s, actor.site().text()));
        }
        for w in texts.windows(2) {
            if w[0].1 != w[1].1 {
                return Err(format!(
                    "sites {} and {} diverged: {:?} vs {:?}",
                    w[0].0, w[1].0, w[0].1, w[1].1
                ));
            }
        }
        Ok(())
    }
}

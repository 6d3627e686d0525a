//! The COLiER-style `collab_raster` workload: a shared raster canvas
//! edited by two islands of editors in turn.
//!
//! Two storage nodes sit on opposite sides of a WAN link. Every tile
//! starts at storage A. Phase 1: island-A editors pan across the
//! canvas (LAN round trips). At the phase boundary the session view
//! changes — the A editors go home, island-B editors join — and phase
//! 2 repeats the same panning from the far side of the WAN. A
//! telemetry-driven controller should notice the access locus moved,
//! migrate the hot tiles to storage B, and cut phase-2 critical paths
//! from WAN to LAN round trips; the benchmark's baseline arm runs the
//! identical schedule with the controller's policy loop disabled.
//!
//! Everything here is built from [`SimHost`]-wrapped
//! [`TransportActor`]s, so the same actors run over the TCP backend
//! unchanged (the failure-injection suite does exactly that).

use std::collections::BTreeMap;

use odp_fabric::SpanCarrier;
use odp_mgmt::model::ClusterId;
use odp_net::actor::TransportActor;
use odp_net::ctx::NetCtx;
use odp_net::sim_host::SimHost;
use odp_sim::actor::TimerId;
use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::sim::{Sim, SimBuilder};
use odp_sim::time::{SimDuration, SimTime};

use odp_awareness::bus::CoopEvent;

use crate::controller::{PlaceConfig, PlacementActor, ACCESS_KIND_PREFIX};
use crate::host::TileHostActor;
use crate::wire::{PlaceWire, SpanObs};

const TAG_OP: u64 = 1 << 56;
const TAG_REPORT: u64 = 2 << 56;
const TAG_RETRY: u64 = 3 << 56;
const TAG_MASK: u64 = 0xff << 56;

/// One scripted access in an editor's panning schedule.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedOp {
    /// Offset from simulation start.
    pub at: SimDuration,
    /// The tile accessed.
    pub cluster: ClusterId,
    /// Write (paint) rather than read (pan).
    pub write: bool,
}

#[derive(Debug)]
struct Pending {
    span: SpanCarrier,
    write: bool,
    byte: u8,
    opened: SimTime,
}

/// A scripted raster editor: runs its panning schedule, follows
/// redirects and home updates, backs off on write freezes, and ships
/// span observations plus access counts to the controller.
#[derive(Debug)]
pub struct EditorActor {
    me: NodeId,
    controller: NodeId,
    homes: BTreeMap<ClusterId, NodeId>,
    ops: Vec<ScriptedOp>,
    pending: BTreeMap<ClusterId, Pending>,
    span_buf: Vec<SpanObs>,
    access_counts: BTreeMap<ClusterId, u64>,
    report_timer: Option<TimerId>,
    report_every: SimDuration,
    retry_after: SimDuration,
    completed: u64,
    skipped: u64,
    refusals: u64,
    notices: Vec<CoopEvent>,
}

impl EditorActor {
    /// An editor at `me` reporting to `controller`, with every tile's
    /// initial home seeded in `homes`.
    pub fn new(me: NodeId, controller: NodeId, homes: BTreeMap<ClusterId, NodeId>) -> Self {
        EditorActor {
            me,
            controller,
            homes,
            ops: Vec::new(),
            pending: BTreeMap::new(),
            span_buf: Vec::new(),
            access_counts: BTreeMap::new(),
            report_timer: None,
            report_every: SimDuration::from_millis(50),
            retry_after: SimDuration::from_millis(20),
            completed: 0,
            skipped: 0,
            refusals: 0,
            notices: Vec::new(),
        }
    }

    /// Appends one scripted access.
    pub fn script(&mut self, op: ScriptedOp) {
        self.ops.push(op);
    }

    /// Sets the stats-report cadence.
    pub fn set_report_every(&mut self, every: SimDuration) {
        self.report_every = every;
    }

    /// Accesses that completed (got their `ReadOk`/`WriteOk`).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Scripted ops skipped because the previous op on the same tile
    /// was still in flight.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Writes refused by a freeze (each later retried).
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Placement notices received from the awareness bus.
    pub fn notices(&self) -> &[CoopEvent] {
        &self.notices
    }

    /// The editor's current belief about a tile's home.
    pub fn home_of(&self, cluster: ClusterId) -> Option<NodeId> {
        self.homes.get(&cluster).copied()
    }

    fn buffer_obs(&mut self, ctx: &mut dyn NetCtx<PlaceWire>, obs: SpanObs) {
        self.span_buf.push(obs);
        if self.report_timer.is_none() {
            self.report_timer = Some(ctx.set_timer(self.report_every, TAG_REPORT));
        }
    }

    fn flush_report(&mut self, ctx: &mut dyn NetCtx<PlaceWire>) {
        self.report_timer = None;
        if self.span_buf.is_empty() && self.access_counts.is_empty() {
            return;
        }
        let spans = std::mem::take(&mut self.span_buf);
        let accesses = std::mem::take(&mut self.access_counts)
            .into_iter()
            .map(|(c, n)| (c.0, n))
            .collect();
        ctx.send(self.controller, PlaceWire::Stats { spans, accesses });
    }

    fn send_pending(&mut self, ctx: &mut dyn NetCtx<PlaceWire>, cluster: ClusterId) {
        let Some(home) = self.homes.get(&cluster).copied() else {
            return;
        };
        let Some(p) = self.pending.get(&cluster) else {
            return;
        };
        let msg = if p.write {
            PlaceWire::Write {
                cluster,
                byte: p.byte,
                span: Some(p.span),
            }
        } else {
            PlaceWire::Read {
                cluster,
                span: Some(p.span),
            }
        };
        ctx.send(home, msg);
    }

    fn begin_op(&mut self, ctx: &mut dyn NetCtx<PlaceWire>, index: usize) {
        let Some(op) = self.ops.get(index).copied() else {
            return;
        };
        if self.pending.contains_key(&op.cluster) {
            // One outstanding access per tile; panning past an
            // unanswered tile is simply dropped frames.
            self.skipped += 1;
            ctx.metrics().incr("place.editor.skipped");
            return;
        }
        let span = ctx.rng().span_root();
        let kind = format!("{ACCESS_KIND_PREFIX}{}", op.cluster.0);
        ctx.span_open(span, &kind);
        self.pending.insert(
            op.cluster,
            Pending {
                span,
                write: op.write,
                byte: (index as u8).wrapping_add(1),
                opened: ctx.now(),
            },
        );
        self.send_pending(ctx, op.cluster);
    }

    fn complete_op(&mut self, ctx: &mut dyn NetCtx<PlaceWire>, cluster: ClusterId) {
        let Some(p) = self.pending.remove(&cluster) else {
            return;
        };
        let now = ctx.now();
        ctx.span_close(p.span);
        let me = self.me;
        self.buffer_obs(
            ctx,
            SpanObs {
                ctx: p.span,
                kind: format!("{ACCESS_KIND_PREFIX}{}", cluster.0),
                node: me,
                opened: p.opened,
                closed: now,
            },
        );
        *self.access_counts.entry(cluster).or_insert(0) += 1;
        self.completed += 1;
        ctx.metrics().incr("place.editor.completed");
    }
}

impl TransportActor<PlaceWire> for EditorActor {
    fn on_start(&mut self, ctx: &mut dyn NetCtx<PlaceWire>) {
        let now = ctx.now();
        for (i, op) in self.ops.iter().enumerate() {
            let at = SimTime::ZERO + op.at;
            ctx.set_timer(at.saturating_since(now), TAG_OP | i as u64);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn NetCtx<PlaceWire>, _from: NodeId, msg: PlaceWire) {
        match msg {
            PlaceWire::ReadOk { cluster } | PlaceWire::WriteOk { cluster } => {
                self.complete_op(ctx, cluster);
            }
            PlaceWire::WriteRefused { cluster } => {
                // The tile is frozen mid-migration: retry the same
                // span after a short backoff, so the freeze stall
                // lands in the observed access latency.
                self.refusals += 1;
                ctx.metrics().incr("place.editor.refused");
                if self.pending.contains_key(&cluster) {
                    ctx.set_timer(self.retry_after, TAG_RETRY | cluster.0 as u64);
                }
            }
            PlaceWire::Moved { cluster, to } => {
                self.homes.insert(cluster, to);
                // Chase the redirect with the same span: the extra hop
                // is genuine observed latency.
                self.send_pending(ctx, cluster);
            }
            PlaceWire::HomeUpdate { cluster, node } => {
                self.homes.insert(cluster, node);
            }
            PlaceWire::Notice(event) => {
                self.notices.push(event);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn NetCtx<PlaceWire>, _timer: TimerId, tag: u64) {
        match tag & TAG_MASK {
            TAG_OP => self.begin_op(ctx, (tag & !TAG_MASK) as usize),
            TAG_REPORT => self.flush_report(ctx),
            TAG_RETRY => {
                let cluster = ClusterId((tag & 0xffff_ffff) as u32);
                self.send_pending(ctx, cluster);
            }
            _ => {}
        }
    }
}

/// Knobs for the `collab_raster` scenario.
#[derive(Debug, Clone)]
pub struct RasterConfig {
    /// Deterministic seed.
    pub seed: u64,
    /// Editors on each island.
    pub editors_per_island: usize,
    /// Raster tiles (one cluster each).
    pub tiles: u32,
    /// Bytes per tile.
    pub tile_bytes: usize,
    /// Migration chunk bound.
    pub chunk_bytes: usize,
    /// Scripted accesses per editor per phase.
    pub phase_ops: usize,
    /// Gap between one editor's consecutive accesses.
    pub op_gap: SimDuration,
    /// One-way WAN latency between the islands.
    pub wan: SimDuration,
    /// Run the controller's policy loop (the benchmark's "on" arm).
    pub controller_on: bool,
    /// Enforce the write freeze (disarmed only by the known-bad
    /// soundness fixture).
    pub quiesce: bool,
}

impl Default for RasterConfig {
    fn default() -> Self {
        RasterConfig {
            seed: 42,
            editors_per_island: 3,
            tiles: 8,
            tile_bytes: 32 * 1024,
            chunk_bytes: 16 * 1024,
            phase_ops: 48,
            op_gap: SimDuration::from_millis(20),
            wan: SimDuration::from_millis(20),
            controller_on: true,
            quiesce: true,
        }
    }
}

/// Node layout and phase boundaries of a built scenario.
#[derive(Debug, Clone)]
pub struct RasterScenario {
    /// Storage on island A (every tile's initial home).
    pub storage_a: NodeId,
    /// Storage on island B.
    pub storage_b: NodeId,
    /// The placement controller (island A side).
    pub controller: NodeId,
    /// Island-A editors.
    pub editors_a: Vec<NodeId>,
    /// Island-B editors.
    pub editors_b: Vec<NodeId>,
    /// The tile clusters, ascending.
    pub tiles: Vec<ClusterId>,
    /// When phase 2 (island B) starts.
    pub phase2_start: SimTime,
    /// When the last scripted access fires.
    pub last_op: SimTime,
}

/// Builds the two-island raster-editing simulation. The returned sim is
/// ready to `run(Until::Idle)`; all quiescence is timer-bounded.
pub fn collab_raster(cfg: &RasterConfig) -> (Sim<PlaceWire>, RasterScenario) {
    let k = cfg.editors_per_island;
    let storage_a = NodeId(0);
    let storage_b = NodeId(1);
    let controller = NodeId(2);
    let editors_a: Vec<NodeId> = (0..k).map(|i| NodeId(3 + i as u32)).collect();
    let editors_b: Vec<NodeId> = (0..k).map(|i| NodeId(3 + (k + i) as u32)).collect();

    // Deterministic links: zero jitter, zero loss, LAN bandwidth.
    let lan = LinkSpec {
        latency: SimDuration::from_micros(500),
        jitter: SimDuration::ZERO,
        bytes_per_sec: Some(12_500_000),
        loss: 0.0,
    };
    let wan = LinkSpec {
        latency: cfg.wan,
        jitter: SimDuration::ZERO,
        bytes_per_sec: Some(12_500_000),
        loss: 0.0,
    };
    let mut island_of: BTreeMap<NodeId, u8> = BTreeMap::new();
    island_of.insert(storage_a, 0);
    island_of.insert(controller, 0);
    island_of.insert(storage_b, 1);
    for &e in &editors_a {
        island_of.insert(e, 0);
    }
    for &e in &editors_b {
        island_of.insert(e, 1);
    }
    let mut net = Network::new(lan);
    let nodes: Vec<NodeId> = island_of.keys().copied().collect();
    for (i, &a) in nodes.iter().enumerate() {
        for &b in nodes.iter().skip(i + 1) {
            if island_of[&a] != island_of[&b] {
                net.set_link(a, b, wan);
            }
        }
    }

    let mut sim = SimBuilder::new(cfg.seed)
        .network(net)
        .trace_capacity(1 << 20)
        .build::<PlaceWire>();

    // Controller: registry mirror, usage manager, offer store, bus.
    let phase1_span = cfg.op_gap.mul_f64(cfg.phase_ops as f64);
    let phase2_start = SimTime::ZERO + SimDuration::from_millis(50) + phase1_span;
    let last_op = phase2_start + phase1_span;
    let mut pc = PlaceConfig {
        eval_every: SimDuration::from_millis(100),
        // Enough rounds to cover both phases plus drain time.
        eval_rounds: ((last_op.saturating_since(SimTime::ZERO).as_micros() / 100_000) + 20) as u32,
        min_accesses: 4,
        // Optimistic exploration prior: an unmeasured destination is
        // assumed LAN-close, so observed WAN pain can beat it.
        default_latency_us: 2_000,
        ..PlaceConfig::default()
    };
    pc.active = cfg.controller_on;
    let mut ctl = PlacementActor::new(controller, pc);
    ctl.add_storage(storage_a);
    ctl.add_storage(storage_b);
    let mut tiles = Vec::new();
    let mut homes = BTreeMap::new();
    for _ in 0..cfg.tiles {
        if let Some(cluster) = ctl.add_cluster(storage_a, cfg.tile_bytes) {
            homes.insert(cluster, storage_a);
            tiles.push(cluster);
        }
    }
    ctl.set_view(1, editors_a.iter().copied());
    for &e in editors_a.iter().chain(&editors_b) {
        ctl.add_observer(e, 0.0);
    }
    sim.add_actor(controller, SimHost::new(ctl));

    // Storage hosts.
    for &node in &[storage_a, storage_b] {
        let mut host = TileHostActor::new(node, controller);
        host.set_chunk_bytes(cfg.chunk_bytes);
        host.set_quiesce(cfg.quiesce);
        if node == storage_a {
            for (i, &tile) in tiles.iter().enumerate() {
                // Distinct deterministic content per tile.
                let fill = (i as u8).wrapping_mul(37).wrapping_add(11);
                host.add_tile(tile, vec![fill; cfg.tile_bytes]);
            }
        }
        sim.add_actor(node, SimHost::new(host));
    }

    // Editors: island A pans in phase 1, island B in phase 2.
    let phase_starts = [SimTime::ZERO + SimDuration::from_millis(10), phase2_start];
    for (island, editors) in [(0usize, &editors_a), (1usize, &editors_b)] {
        for (ei, &editor) in editors.iter().enumerate() {
            let mut actor = EditorActor::new(editor, controller, homes.clone());
            let start = phase_starts[island];
            // Stagger editors so their waves interleave.
            let stagger = SimDuration::from_millis(ei as u64 * 3);
            for i in 0..cfg.phase_ops {
                let cluster = tiles[(i + ei) % tiles.len()];
                actor.script(ScriptedOp {
                    at: start.saturating_since(SimTime::ZERO)
                        + stagger
                        + cfg.op_gap.mul_f64(i as f64),
                    cluster,
                    write: i % 4 == 3,
                });
            }
            sim.add_actor(editor, SimHost::new(actor));
        }
    }

    // The session view changes at the phase boundary: A departs, B joins.
    sim.inject(
        phase2_start - SimDuration::from_millis(10),
        controller,
        controller,
        PlaceWire::ViewChange {
            view_id: 2,
            members: editors_b.clone(),
        },
    );

    let scenario = RasterScenario {
        storage_a,
        storage_b,
        controller,
        editors_a,
        editors_b,
        tiles,
        phase2_start,
        last_op,
    };
    (sim, scenario)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odp_sim::sim::{ActorHandle, Until};

    #[test]
    fn controller_migrates_the_hot_tiles_to_island_b() {
        let cfg = RasterConfig::default();
        let (mut sim, sc) = collab_raster(&cfg);
        sim.run(Until::Idle);
        assert_eq!(sim.trace().dropped(), 0, "trace ring overflowed");

        let ctl = sim
            .get::<SimHost<PlacementActor>>(ActorHandle::of(sc.controller))
            .expect("controller")
            .inner();
        assert!(
            !ctl.migrations().is_empty(),
            "no migrations happened: decisions={:?}",
            ctl.decisions().len()
        );
        // Every committed migration went A -> B.
        for ev in ctl.migrations() {
            assert_eq!(ev.from, sc.storage_a);
            assert_eq!(ev.to, sc.storage_b);
        }
        // Offers re-registered at the new home.
        for ev in ctl.migrations() {
            let offer = ctl.offer_of(ev.cluster).expect("offer");
            assert_eq!(offer.node, sc.storage_b);
        }
        // The destination actually holds the migrated tiles; the source
        // redirects.
        let host_b = sim
            .get::<SimHost<TileHostActor>>(ActorHandle::of(sc.storage_b))
            .expect("host b")
            .inner();
        let host_a = sim
            .get::<SimHost<TileHostActor>>(ActorHandle::of(sc.storage_a))
            .expect("host a")
            .inner();
        for ev in ctl.migrations() {
            assert!(host_b.tile(ev.cluster).is_some(), "tile not installed");
            assert_eq!(host_a.redirect(ev.cluster), Some(sc.storage_b));
            assert!(host_a.tile(ev.cluster).is_none(), "source kept the tile");
        }
        // Placement notices reached the island-B editors.
        let notified = sc.editors_b.iter().any(|&e| {
            sim.get::<SimHost<EditorActor>>(ActorHandle::of(e))
                .is_some_and(|h| !h.inner().notices().is_empty())
        });
        assert!(notified, "no editor saw a ClusterMigrated notice");
        // Nothing was lost to the freeze: hosts never applied a frozen
        // write (quiesce on), and every refused write was retried to
        // completion.
        assert!(host_a.writes_in_freeze().is_empty());
        for &e in sc.editors_a.iter().chain(&sc.editors_b) {
            let ed = sim
                .get::<SimHost<EditorActor>>(ActorHandle::of(e))
                .expect("editor")
                .inner();
            assert_eq!(
                ed.completed() + ed.skipped(),
                cfg.phase_ops as u64,
                "editor {e} lost ops"
            );
        }
    }

    #[test]
    fn baseline_arm_never_migrates() {
        let cfg = RasterConfig {
            controller_on: false,
            ..RasterConfig::default()
        };
        let (mut sim, sc) = collab_raster(&cfg);
        sim.run(Until::Idle);
        let ctl = sim
            .get::<SimHost<PlacementActor>>(ActorHandle::of(sc.controller))
            .expect("controller")
            .inner();
        assert!(ctl.migrations().is_empty());
        assert!(ctl.decisions().is_empty());
    }
}

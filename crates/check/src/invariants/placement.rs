//! Placement-soundness invariant: every migration the closed-loop
//! controller executes must withstand independent recomputation, across
//! *every* explored delivery schedule of the raster workload.
//!
//! The harness is a shrunk `collab_raster` scenario (one editor per
//! island, three tiles): phase 1 pans from island A, the session view
//! flips, phase 2 pans from island B, and the controller migrates the
//! now-remote tiles across the WAN while writes are still arriving.
//!
//! The invariant re-derives every verdict from recorded inputs alone:
//!
//! - **decision soundness** — each [`DecisionRecord`] is replayed
//!   through [`odp_mgmt::placement::place`] with a [`UsagePattern`]
//!   rebuilt from the recorded weights and a latency oracle rebuilt
//!   from the recorded pair estimates; the chosen node, both costs and
//!   the hysteresis gate must reproduce bit-for-bit;
//! - **serialised epochs** — migration epochs never overlap (at most
//!   one in flight), and none is left dangling at quiescence;
//! - **exactly-once transfer** — each committed epoch installed its
//!   state exactly once at the destination, no orphan installs exist,
//!   and no tile is resident at both storage nodes;
//! - **freeze atomicity** — no host ever applied a write inside a
//!   freeze window (the snapshot in flight would silently drop it).
//!
//! Vacuity guards demand at least one committed migration and at least
//! one write that actually hit a freeze window (refused, under the
//! fixed protocol). The seeded known-bad fixture disarms the write
//! freeze ([`odp_place::host::TileHostActor::set_quiesce`]`(false)`):
//! writes then land inside the freeze window and are lost to the
//! already-snapshotted transfer, and the detector must say so.

use std::collections::BTreeMap;

use odp_mgmt::model::ClusterId;
use odp_mgmt::placement::{place, UsagePattern};
use odp_place::controller::{DecisionRecord, EpochOutcome, EpochRecord, PlacementActor};
use odp_place::host::TileHostActor;
use odp_place::scenario::{collab_raster, RasterConfig};
use odp_place::wire::PlaceWire;
use odp_sim::net::NodeId;
use odp_sim::sim::{ActorHandle, Sim};
use odp_sim::time::SimDuration;

use crate::explore::Invariant;

/// Storage on island A (every tile's initial home).
pub(crate) const STORAGE_A: NodeId = NodeId(0);
/// Storage on island B (the profitable destination in phase 2).
pub(crate) const STORAGE_B: NodeId = NodeId(1);
/// The placement controller.
pub(crate) const CONTROLLER: NodeId = NodeId(2);

/// Builds the shrunk raster scenario. `quiesce: false` is the seeded
/// known-bad fixture (writes land inside freeze windows and are lost).
///
/// Phase 2 keeps writing for ~600 ms while each freeze streams sixteen
/// stop-and-wait chunks across the 8 ms WAN (~260 ms per transfer), so
/// every schedule sees at least one write arrive at a frozen tile — the
/// non-vacuity the invariant insists on. The WAN is kept short enough
/// that an access round trip (~17 ms) finishes inside the editor's
/// 30 ms per-tile cadence; otherwise its one-outstanding-per-tile rule
/// would skip exactly the writes the freeze window is meant to catch.
pub(crate) fn placement_sim(seed: u64, quiesce: bool) -> Sim<PlaceWire> {
    let cfg = RasterConfig {
        seed,
        editors_per_island: 1,
        tiles: 3,
        tile_bytes: 32 * 1024,
        chunk_bytes: 2 * 1024,
        phase_ops: 60,
        op_gap: SimDuration::from_millis(10),
        wan: SimDuration::from_millis(8),
        controller_on: true,
        quiesce,
    };
    collab_raster(&cfg).0
}

fn controller(sim: &Sim<PlaceWire>) -> Result<&PlacementActor, String> {
    sim.get::<PlacementActor>(ActorHandle::of(CONTROLLER))
        .ok_or_else(|| "placement controller missing".to_owned())
}

fn host(sim: &Sim<PlaceWire>, node: NodeId) -> Result<&TileHostActor, String> {
    sim.get::<TileHostActor>(ActorHandle::of(node))
        .ok_or_else(|| format!("tile host {node} missing"))
}

/// Canonical [`crate::explore::StateFingerprint`] for the placement
/// scenario: the controller's decision/epoch logs and homes, plus each
/// storage host's residency, freeze log, installs and write counters.
pub fn fingerprint(sim: &Sim<PlaceWire>) -> u64 {
    let mut parts: Vec<String> = Vec::new();
    if let Ok(ctl) = controller(sim) {
        let homes: Vec<(ClusterId, Option<NodeId>)> = ctl
            .epochs()
            .iter()
            .map(|e| (e.cluster, ctl.home_of(e.cluster)))
            .collect();
        parts.push(format!(
            "ctl:{:?}|{:?}|{homes:?}",
            ctl.decisions(),
            ctl.epochs()
        ));
    }
    for node in [STORAGE_A, STORAGE_B] {
        if let Ok(h) = host(sim, node) {
            parts.push(format!(
                "{node}:{:?}:{:?}:{:?}:{:?}:{}",
                h.resident(),
                h.freeze_log(),
                h.installs(),
                h.writes_in_freeze(),
                h.writes_refused()
            ));
        }
    }
    crate::explore::hash_of(&parts)
}

/// Replays one recorded decision through [`place`] and checks the
/// verdict, both costs and the hysteresis gate reproduce exactly.
fn recheck_decision(d: &DecisionRecord) -> Result<(), String> {
    let mut usage = UsagePattern::new();
    for &(site, weight) in &d.weights {
        usage.record(site, weight);
    }
    let pairs: BTreeMap<(NodeId, NodeId), u64> = d.latency_us.iter().copied().collect();
    let default_us = d.default_us;
    let latency = move |a: NodeId, b: NodeId| -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let us = pairs
            .get(&(a, b))
            .or_else(|| pairs.get(&(b, a)))
            .copied()
            .unwrap_or(default_us);
        SimDuration::from_micros(us)
    };
    if d.to == d.from {
        return Err(format!(
            "epoch {}: decision migrates cluster {:?} to its own source {}",
            d.epoch, d.cluster, d.from
        ));
    }
    let chosen = place(d.policy, &usage, &d.candidates, d.home, &latency);
    if chosen.node != d.to {
        return Err(format!(
            "epoch {}: recomputed placement picks {} but the controller \
             migrated cluster {:?} to {} (weights {:?}, latencies {:?})",
            d.epoch, chosen.node, d.cluster, d.to, d.weights, d.latency_us
        ));
    }
    if chosen.cost_us != d.cost_after_us {
        return Err(format!(
            "epoch {}: recomputed destination cost {} != recorded {}",
            d.epoch, chosen.cost_us, d.cost_after_us
        ));
    }
    // Cost of staying put, under the identical scoring.
    let before = place(d.policy, &usage, &[d.from], d.home, &latency).cost_us;
    if before != d.cost_before_us {
        return Err(format!(
            "epoch {}: recomputed status-quo cost {} != recorded {}",
            d.epoch, before, d.cost_before_us
        ));
    }
    // Mirrors `MigrationManager::plan`'s gate exactly: it migrates
    // only when the new cost is strictly under the hysteresis margin.
    if d.cost_after_us >= before * (1.0 - d.hysteresis) {
        return Err(format!(
            "epoch {}: hysteresis gate does not clear ({} !< {} * {}), \
             the migration was not worth taking",
            d.epoch,
            d.cost_after_us,
            before,
            1.0 - d.hysteresis
        ));
    }
    Ok(())
}

/// Epochs must be fully serialised: every one ended, starts ordered
/// after the previous end, epoch numbers unique.
fn recheck_epochs(epochs: &[EpochRecord]) -> Result<(), String> {
    let mut sorted: Vec<&EpochRecord> = epochs.iter().collect();
    sorted.sort_by_key(|e| e.started);
    let mut prev: Option<&EpochRecord> = None;
    for e in sorted {
        let Some((ended_at, _)) = e.ended else {
            return Err(format!("epoch {} never ended: {e:?}", e.epoch));
        };
        if ended_at < e.started {
            return Err(format!("epoch {} ended before it started: {e:?}", e.epoch));
        }
        if let Some(p) = prev {
            if p.epoch == e.epoch {
                return Err(format!("epoch number {} reused", e.epoch));
            }
            let (p_end, _) = p
                .ended
                .ok_or_else(|| format!("epoch {} unended", p.epoch))?;
            if e.started < p_end {
                return Err(format!(
                    "concurrent migrations: epoch {} (cluster {:?}) started at \
                     {:?} while epoch {} (cluster {:?}) ran until {:?}",
                    e.epoch, e.cluster, e.started, p.epoch, p.cluster, p_end
                ));
            }
        }
        prev = Some(e);
    }
    Ok(())
}

/// The placement-soundness invariant for [`placement_sim`].
pub(crate) struct PlacementSound;

impl PlacementSound {
    /// The invariant instance for [`placement_sim`].
    pub(crate) fn for_placement_sim() -> Self {
        PlacementSound
    }
}

impl Invariant<PlaceWire> for PlacementSound {
    fn name(&self) -> &'static str {
        "placement-soundness"
    }

    fn check_quiescent(&mut self, sim: &Sim<PlaceWire>) -> Result<(), String> {
        let ctl = controller(sim)?;
        let host_a = host(sim, STORAGE_A)?;
        let host_b = host(sim, STORAGE_B)?;

        // Freeze atomicity first: a write applied inside a freeze window
        // was dropped from the already-snapshotted transfer — the
        // lost-update the known-bad fixture seeds.
        for (node, h) in [(STORAGE_A, host_a), (STORAGE_B, host_b)] {
            if let Some(&(at, cluster, epoch)) = h.writes_in_freeze().first() {
                return Err(format!(
                    "host {node} applied a write to cluster {:?} inside the \
                     freeze window of epoch {epoch} (at {at:?}): the update is \
                     lost to the in-flight snapshot ({} such writes)",
                    cluster,
                    h.writes_in_freeze().len()
                ));
            }
        }

        // Every decision withstands independent recomputation.
        for d in ctl.decisions() {
            recheck_decision(d)?;
        }

        // Epochs are serialised and none dangles.
        recheck_epochs(ctl.epochs())?;

        // Exactly-once state transfer: each committed epoch has exactly
        // one install at its destination, and no install exists without
        // a committed epoch behind it.
        let committed: Vec<&EpochRecord> = ctl
            .epochs()
            .iter()
            .filter(|e| matches!(e.ended, Some((_, EpochOutcome::Committed))))
            .collect();
        for e in &committed {
            let dest = host(sim, e.to)?;
            let n = dest
                .installs()
                .iter()
                .filter(|i| i.cluster == e.cluster && i.epoch == e.epoch)
                .count();
            if n != 1 {
                return Err(format!(
                    "epoch {} (cluster {:?}) committed but installed {n} times \
                     at {} — state must transfer exactly once",
                    e.epoch, e.cluster, e.to
                ));
            }
        }
        for (node, h) in [(STORAGE_A, host_a), (STORAGE_B, host_b)] {
            for inst in h.installs() {
                let backed = committed
                    .iter()
                    .any(|e| e.cluster == inst.cluster && e.epoch == inst.epoch && e.to == node);
                if !backed {
                    return Err(format!(
                        "orphan install at {node}: cluster {:?} epoch {} was \
                         installed without a committed epoch",
                        inst.cluster, inst.epoch
                    ));
                }
            }
        }

        // Residency is exclusive, and a committed cluster lives where
        // its last committed epoch (and the offer registry) says.
        for cluster in host_a.resident() {
            if host_b.tile(cluster).is_some() {
                return Err(format!(
                    "cluster {cluster:?} resident at both storage nodes"
                ));
            }
        }
        for e in &committed {
            let last_commit = committed
                .iter()
                .filter(|c| c.cluster == e.cluster)
                .max_by_key(|c| c.epoch)
                .map(|c| c.to);
            if last_commit != Some(e.to) {
                continue; // superseded by a later move of the same cluster
            }
            if host(sim, e.to)?.tile(e.cluster).is_none() {
                return Err(format!(
                    "cluster {:?} committed to {} but is not resident there",
                    e.cluster, e.to
                ));
            }
            if ctl.home_of(e.cluster) != Some(e.to) {
                return Err(format!(
                    "cluster {:?} committed to {} but the controller's home is {:?}",
                    e.cluster,
                    e.to,
                    ctl.home_of(e.cluster)
                ));
            }
            if ctl.offer_of(e.cluster).map(|o| o.node) != Some(e.to) {
                return Err(format!(
                    "cluster {:?} committed to {} but its service offer points at {:?}",
                    e.cluster,
                    e.to,
                    ctl.offer_of(e.cluster).map(|o| o.node)
                ));
            }
        }

        // Vacuity guards: the loop must actually have migrated, and the
        // write stream must actually have hit a freeze window.
        if committed.is_empty() {
            return Err("no migration ever committed — the control loop never \
                 closed (vacuous)"
                .to_owned());
        }
        let freeze_hits = host_a.writes_refused()
            + host_b.writes_refused()
            + (host_a.writes_in_freeze().len() + host_b.writes_in_freeze().len()) as u64;
        if freeze_hits == 0 {
            return Err("no write ever arrived during a freeze window — the \
                 freeze-atomicity path never ran (vacuous)"
                .to_owned());
        }
        Ok(())
    }
}

//! Backend-parametrised failure suite: the destination host dies
//! mid-transfer and the migration must abort cleanly, leaving the
//! cluster fully readable (and writable) at its old home.
//!
//! - **sim** — the full closed loop runs the `collab_raster` scenario;
//!   a scheduled network change disconnects storage B while the
//!   controller is still migrating the phase-2 tiles. Every epoch that
//!   started after the cut must end `Aborted`, and every aborted tile
//!   must still be resident and unfrozen at storage A.
//! - **tcp** — the migration plane runs over real sockets; the
//!   destination process is stopped right after the transfer starts.
//!   The source's failure detector reports the peer down, the transfer
//!   fails, the scripted controller aborts, and a follow-up read at
//!   the old home is served.

use std::collections::BTreeMap;

use odp_mgmt::model::ClusterId;
use odp_net::tcp::{TcpConfig, TcpNode};
use odp_place::controller::{EpochOutcome, PlacementActor};
use odp_place::host::TileHostActor;
use odp_place::scenario::{collab_raster, RasterConfig};
use odp_place::wire::PlaceWire;
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::prelude::*;

// ------------------------------------------------------------------- sim

#[test]
fn destination_dies_mid_transfer_on_the_sim_backend() {
    let cfg = RasterConfig::default();
    let (mut sim, sc) = collab_raster(&cfg);
    // Storage B drops off the network while phase-2 migrations are
    // still in progress (the first usually commits around 300 ms after
    // the phase starts; seven more are queued behind it).
    let cut = sc.phase2_start + SimDuration::from_millis(500);
    sim.schedule_net_change(cut, move |net| {
        net.set_connectivity(NodeId(1), Connectivity::Disconnected);
    });
    sim.run(Until::Idle);
    assert_eq!(sim.trace().dropped(), 0, "trace ring overflowed");

    let ctl = sim
        .get::<PlacementActor>(ActorHandle::of(sc.controller))
        .expect("controller");
    let host_a = sim
        .get::<TileHostActor>(ActorHandle::of(sc.storage_a))
        .expect("host a");

    // The loop kept trying after the cut, so at least one epoch aborted;
    // and with 500 ms of healthy phase 2 at least one committed first.
    let aborted: Vec<_> = ctl
        .epochs()
        .iter()
        .filter(|e| matches!(e.ended, Some((_, EpochOutcome::Aborted))))
        .collect();
    let committed: Vec<_> = ctl
        .epochs()
        .iter()
        .filter(|e| matches!(e.ended, Some((_, EpochOutcome::Committed))))
        .collect();
    assert!(!aborted.is_empty(), "no epoch aborted: {:?}", ctl.epochs());
    assert!(
        !committed.is_empty(),
        "no epoch committed before the cut: {:?}",
        ctl.epochs()
    );
    // No epoch is left dangling once the sim is idle.
    for e in ctl.epochs() {
        assert!(e.ended.is_some(), "dangling epoch: {e:?}");
    }
    // Every epoch that *started* after the cut aborted.
    for e in ctl.epochs() {
        if e.started >= cut {
            assert!(
                matches!(e.ended, Some((_, EpochOutcome::Aborted))),
                "epoch started after the cut did not abort: {e:?}"
            );
        }
    }
    // Aborted tiles fell back: still resident at A, unfrozen, with the
    // authoritative home unchanged (unless a later epoch committed it,
    // which cannot happen after the cut).
    for e in &aborted {
        assert!(
            host_a.tile(e.cluster).is_some(),
            "aborted tile {:?} lost from the old home",
            e.cluster
        );
        assert!(!host_a.is_frozen(e.cluster));
        assert_eq!(ctl.home_of(e.cluster), Some(sc.storage_a));
        assert_eq!(
            ctl.offer_of(e.cluster).map(|o| o.node),
            Some(sc.storage_a),
            "aborted tile's offer was rehomed"
        );
    }
    // Committed tiles really did move before the cut.
    for e in &committed {
        assert!(host_a.tile(e.cluster).is_none());
        assert_eq!(ctl.home_of(e.cluster), Some(sc.storage_b));
    }
}

// ------------------------------------------------------------------- tcp

/// A scripted controller for the TCP half: freeze one cluster towards
/// the destination, abort on failure, then prove the old home still
/// serves reads.
#[derive(Debug)]
struct ScriptedController {
    source: NodeId,
    destination: NodeId,
    cluster: ClusterId,
    started: bool,
    transfer_failed: bool,
    read_ok: bool,
}

impl ScriptedController {
    fn new(source: NodeId, destination: NodeId, cluster: ClusterId) -> Self {
        ScriptedController {
            source,
            destination,
            cluster,
            started: false,
            transfer_failed: false,
            read_ok: false,
        }
    }
}

impl Actor<PlaceWire> for ScriptedController {
    fn on_start(&mut self, ctx: &mut Ctx<'_, PlaceWire>) {
        // Give the mesh a moment to connect, then freeze. (The session
        // layer treats peers as alive from first contact, so there is
        // no peer-up edge to wait for on a fresh mesh.)
        ctx.set_timer(SimDuration::from_millis(150), 1);
    }

    fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_, PlaceWire>,
        _timer: odp_sim::actor::TimerId,
        _tag: u64,
    ) {
        if !self.started {
            self.started = true;
            ctx.send(
                self.source,
                PlaceWire::Freeze {
                    cluster: self.cluster,
                    epoch: 1,
                    to: self.destination,
                },
            );
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, PlaceWire>, _from: NodeId, msg: PlaceWire) {
        match msg {
            PlaceWire::TransferFailed { cluster, epoch, .. } => {
                self.transfer_failed = true;
                ctx.send(self.source, PlaceWire::Abort { cluster, epoch });
                // The fallback guarantee: the old home still serves.
                ctx.send(
                    self.source,
                    PlaceWire::Read {
                        cluster,
                        span: None,
                    },
                );
            }
            PlaceWire::ReadOk { .. } => {
                self.read_ok = true;
            }
            _ => {}
        }
    }
}

fn settle(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

#[test]
fn destination_dies_mid_transfer_on_the_tcp_backend() {
    const SOURCE: NodeId = NodeId(0);
    const DEST: NodeId = NodeId(1);
    const CTL: NodeId = NodeId(2);
    const TILE: ClusterId = ClusterId(1);

    let cfg = TcpConfig::default();
    let mut nodes: BTreeMap<NodeId, TcpNode> = [SOURCE, DEST, CTL]
        .iter()
        .map(|&id| (id, TcpNode::bind(id, cfg.clone()).expect("bind")))
        .collect();
    let addrs: BTreeMap<NodeId, std::net::SocketAddr> = nodes
        .iter()
        .map(|(&id, n)| (id, n.local_addr().expect("addr")))
        .collect();
    for node in nodes.values_mut() {
        node.set_peers(addrs.clone());
    }

    // A big tile in small chunks: the stop-and-wait transfer takes long
    // enough that stopping the destination lands mid-stream.
    let mut source = TileHostActor::new(SOURCE, CTL);
    source.add_tile(TILE, vec![0xAB; 2 * 1024 * 1024]);
    source.set_chunk_bytes(2 * 1024);
    let dest = TileHostActor::new(DEST, CTL);

    let dest_node = nodes.remove(&DEST).expect("dest node");
    let source_handle = nodes
        .remove(&SOURCE)
        .expect("source node")
        .spawn::<PlaceWire, _>(source);
    let dest_handle = dest_node.spawn::<PlaceWire, _>(dest);
    let ctl_handle = nodes
        .remove(&CTL)
        .expect("ctl node")
        .spawn::<PlaceWire, _>(ScriptedController::new(SOURCE, DEST, TILE));

    // Let the freeze land and the first chunks flow, then crash the
    // destination mid-transfer.
    settle(300);
    let (dest_actor, _) = dest_handle.stop().expect("stop dest");
    assert!(
        dest_actor.installs().is_empty(),
        "destination installed before dying?"
    );

    // Source's failure detector declares the peer down, the transfer
    // fails, the controller aborts and re-reads from the old home.
    settle(800);

    let (ctl_actor, _) = ctl_handle.stop().expect("stop ctl");
    let (source_actor, _) = source_handle.stop().expect("stop source");

    assert!(ctl_actor.started, "controller never issued the freeze");
    assert!(
        ctl_actor.transfer_failed,
        "source never reported the dead destination"
    );
    assert!(ctl_actor.read_ok, "old home did not serve after the abort");
    assert!(!source_actor.is_frozen(TILE));
    assert_eq!(
        source_actor.tile(TILE).map(<[u8]>::len),
        Some(2 * 1024 * 1024),
        "source lost the tile"
    );
    let last = source_actor.freeze_log().last().expect("freeze logged");
    assert_eq!(last.committed, Some(false), "freeze did not end aborted");
}

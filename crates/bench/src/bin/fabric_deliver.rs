//! Delivery hot-path bench for the `odp-fabric` envelope layer, and
//! the CI gate on its acceptance number: writes `BENCH_fabric.json`.
//!
//! A 32-member group under FIFO/best-effort multicast where the sender
//! multicasts 4 KiB payloads and every peer engine processes the wire
//! message. The same loop runs over `GroupEngine<Vec<u8>>` (the
//! pre-fabric typed baseline, where each per-peer envelope clone
//! deep-copies the payload) and over `GroupEngine<Payload>` (where a
//! clone is a reference-count bump), interleaved under the harness
//! protocol. Both variants must deliver identical counts and byte
//! checksums — a built-in differential — and the fabric ns/delivery is
//! gated (`fabric_ns_per_delivery` in `floors.json`: the bound is where
//! the typed baseline runs, so the gate trips before the zero-copy win
//! is lost).
//!
//! The other claim the fabric makes — binary `SpanCarrier` spans
//! brought the E13 telemetry overhead from ~9.8 % under 2 % — is
//! measured and gated by `telemetry_report`.
//!
//! ```text
//! cargo run -p cscw-bench --bin fabric_deliver --release [OUT.json]
//! ```

use cscw_bench::harness::{self, Bench};
use odp_fabric::Payload;
use odp_groupcomm::membership::{GroupId, View};
use odp_groupcomm::multicast::{Delivery, GroupEngine, Ordering, Reliability};
use odp_sim::net::NodeId;
use odp_sim::time::SimTime;

/// Group size of the fan-out microbench (1 sender + 31 peers).
const GROUP: u32 = 32;
/// Payload size per multicast — large enough that a deep copy is
/// visible against the envelope bookkeeping.
const PAYLOAD_BYTES: usize = 4096;
/// Multicasts per timed round.
const MCASTS: u64 = 1000;
/// Timed rounds per variant, interleaved; the fastest is reported.
const ROUNDS: u32 = 7;

/// Runs `MCASTS` multicasts from node 0 through a full set of peer
/// engines, timing the mcast fan-out plus every peer's `on_message`.
/// Returns the wall nanoseconds and `(deliveries, checksum)`; `bytes`
/// projects a payload back to its bytes so the checksum (and thus the
/// loop) stays live under optimization.
fn fanout_round<P: Clone>(
    make: &dyn Fn(u64) -> P,
    bytes: &dyn Fn(&P) -> &[u8],
) -> (u128, (u64, u64)) {
    let nodes: Vec<NodeId> = (0..GROUP).map(NodeId).collect();
    let view = View::initial(GroupId(0), nodes.iter().copied());
    let mut sender = GroupEngine::new(
        NodeId(0),
        view.clone(),
        Ordering::Fifo,
        Reliability::BestEffort,
    );
    let mut receivers: Vec<GroupEngine<P>> = (1..GROUP)
        .map(|n| {
            GroupEngine::new(
                NodeId(n),
                view.clone(),
                Ordering::Fifo,
                Reliability::BestEffort,
            )
        })
        .collect();
    // Payloads are built outside the timed loop: construction cost is
    // identical across variants; the loop times fan-out and delivery.
    let mut payloads: Vec<P> = (0..MCASTS).map(make).collect();
    payloads.reverse();

    let mut deliveries = 0u64;
    let mut checksum = 0u64;
    let now = SimTime::ZERO;
    let (wall_ns, ()) = harness::time(|| {
        let mut fold = |delivered: &[Delivery<P>]| {
            for d in delivered {
                deliveries += 1;
                let b = bytes(&d.payload);
                checksum = checksum
                    .wrapping_mul(31)
                    .wrapping_add(u64::from(b[0]) ^ b.len() as u64);
            }
        };
        while let Some(payload) = payloads.pop() {
            let step = sender.mcast(payload, now);
            fold(&step.delivered);
            for (to, msg) in step.outbound {
                fold(
                    &receivers[to.0 as usize - 1]
                        .on_message(NodeId(0), msg, now)
                        .delivered,
                );
            }
        }
    });
    (wall_ns, (deliveries, checksum))
}

/// A deterministic 4 KiB payload for multicast `i`.
fn payload_bytes(i: u64) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; PAYLOAD_BYTES];
    v[..8].copy_from_slice(&i.to_be_bytes());
    v
}

fn main() {
    harness::main("fabric_deliver", "BENCH_fabric.json", run);
}

fn run(bench: &mut Bench) -> Result<(), String> {
    let fabric_payload = |i| Payload::from_vec(payload_bytes(i));
    let mut typed = || Ok(fanout_round::<Vec<u8>>(&payload_bytes, &|p| p.as_slice()));
    let mut fabric = || Ok(fanout_round::<Payload>(&fabric_payload, &|p| p.as_slice()));
    let [(typed_round_ns, typed), (fabric_round_ns, fabric)] =
        harness::interleaved(ROUNDS, [&mut typed, &mut fabric])?;
    let (deliveries, _) = typed;
    if typed != fabric || deliveries != MCASTS * u64::from(GROUP) {
        return Err(format!(
            "typed and fabric fan-outs must deliver the same payloads and bytes: \
             (deliveries, checksum) typed {typed:?}, fabric {fabric:?}"
        ));
    }
    let typed_ns = harness::fastest(&typed_round_ns) as f64 / deliveries as f64;
    let fabric_ns = harness::fastest(&fabric_round_ns) as f64 / deliveries as f64;

    bench
        .report
        .text("workload", "fabric-deliver")
        .int("seed", cscw_bench::REPORT_SEED)
        .int("group", GROUP)
        .int("payload_bytes", PAYLOAD_BYTES as u64)
        .int("mcasts", MCASTS)
        .int("rounds", ROUNDS)
        .int("deliveries", deliveries)
        .timing("typed_round_ns", &typed_round_ns)
        .timing("fabric_round_ns", &fabric_round_ns)
        .float("typed_ns_per_delivery", typed_ns, 1)
        .float("fabric_ns_per_delivery", fabric_ns, 1)
        .float("speedup", typed_ns / fabric_ns, 2);
    bench.at_most("fabric_ns_per_delivery", fabric_ns)?;
    Ok(())
}

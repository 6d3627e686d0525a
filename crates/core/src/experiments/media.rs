//! Experiments E6–E7: continuous-media QoS management and real-time
//! synchronisation.

use odp_sim::net::{LinkSpec, Network, NodeId};
use odp_sim::prelude::{ActorHandle, Sim, SimBuilder, Until};
use odp_sim::rng::DetRng;
use odp_sim::time::{SimDuration, SimTime};
use odp_streams::actors::{SinkActor, SourceActor, StreamMsg};
use odp_streams::media::{Frame, MediaKind, MediaSink, MediaSource, StreamId};
use odp_streams::monitor::QosMonitor;
use odp_streams::qos::QosSpec;
use odp_streams::sync::{EventSync, LipSync};

use super::{Shape, Table};

fn degrading_link() -> LinkSpec {
    LinkSpec {
        latency: SimDuration::from_millis(350),
        jitter: SimDuration::from_millis(90),
        bytes_per_sec: Some(35_000),
        loss: 0.05,
    }
}

/// **E6 — QoS negotiation, monitoring and renegotiation.** A 25 fps
/// video stream over a link that degrades at t=5 s, with and without
/// dynamic renegotiation. Expected shape: without renegotiation the
/// contract stays broken and integrity stays low; with it the source
/// adapts and the (renegotiated) contract is met again.
pub(crate) fn e6_qos_streams(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E6",
        "QoS management on a degrading link (degrades at t=5s, 40s run)",
        [
            "configuration",
            "violations",
            "renegotiations",
            "final_fps",
            "integrity_pct",
            "mean_delay_ms",
        ],
    );
    for adaptive in [true, false] {
        let mut sim: Sim<StreamMsg> = {
            let net = Network::new(LinkSpec::lan());
            SimBuilder::new(seed).network(net).build()
        };
        let contract = QosSpec::video();
        let source = MediaSource::new(StreamId(0), MediaKind::Video, 25, 4_000);
        let mut src_actor = SourceActor::new(source, vec![NodeId(1)], contract);
        if !adaptive {
            src_actor.disable_adaptation();
        }
        sim.add_actor(NodeId(0), src_actor);
        let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(120));
        let monitor = QosMonitor::new(contract, SimDuration::from_secs(1));
        sim.add_actor(NodeId(1), SinkActor::new(sink, monitor, NodeId(0)));
        sim.schedule_net_change(SimTime::from_secs(5), |net| {
            net.set_link(NodeId(0), NodeId(1), degrading_link());
        });
        sim.run(Until::For(SimDuration::from_secs(40)));

        let sink: &SinkActor = sim.get(ActorHandle::of(NodeId(1))).expect("sink present");
        let source: &SourceActor = sim.get(ActorHandle::of(NodeId(0))).expect("source present");
        let mean_delay = sim
            .metrics()
            .histogram("stream.frame_delay")
            .map(|h| {
                let mut h = h.clone();
                h.summary().mean.as_micros() as f64 / 1_000.0
            })
            .unwrap_or(0.0);
        table.push_row([
            if adaptive {
                "with-renegotiation"
            } else {
                "no-renegotiation"
            }
            .to_owned(),
            sim.metrics()
                .counter("stream.violation_reports")
                .to_string(),
            source.renegotiations().to_string(),
            source.contract().throughput_fps.to_string(),
            format!("{:.1}", sink.sink().integrity() * 100.0),
            format!("{mean_delay:.1}"),
        ]);
    }

    // Recovery: the outage ends at t=30s; upward renegotiation climbs the
    // contract back to the original.
    let mut recovery = Table::new(
        "E6b",
        "Upward renegotiation after link recovery (outage 5s-30s, 120s run)",
        ["phase", "renegotiations_down", "upgrades", "final_fps"],
    );
    {
        let mut sim: Sim<StreamMsg> = {
            let net = Network::new(LinkSpec::lan());
            SimBuilder::new(seed).network(net).build()
        };
        let contract = QosSpec::video();
        let source = MediaSource::new(StreamId(0), MediaKind::Video, 25, 4_000);
        sim.add_actor(
            NodeId(0),
            SourceActor::new(source, vec![NodeId(1)], contract),
        );
        let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(120));
        let monitor = QosMonitor::new(contract, SimDuration::from_secs(1));
        sim.add_actor(NodeId(1), SinkActor::new(sink, monitor, NodeId(0)));
        sim.schedule_net_change(SimTime::from_secs(5), |net| {
            net.set_link(NodeId(0), NodeId(1), degrading_link());
        });
        sim.schedule_net_change(SimTime::from_secs(30), |net| {
            net.set_link(NodeId(0), NodeId(1), LinkSpec::lan());
        });
        sim.run(Until::For(SimDuration::from_secs(120)));
        let source: &SourceActor = sim.get(ActorHandle::of(NodeId(0))).expect("source present");
        recovery.push_row([
            "outage-then-recovery".to_owned(),
            source.renegotiations().to_string(),
            source.upgrades().to_string(),
            source.contract().throughput_fps.to_string(),
        ]);
    }
    vec![table, recovery]
}

/// **E7 — real-time synchronisation.** (a) Lip-sync: audio master +
/// video slave whose network path is slower and jittered, with and
/// without the continuous-synchronisation controller. (b) Event-driven:
/// caption firing skew under a 20 ms scheduler tick.
pub(crate) fn e7_media_sync(seed: u64) -> Vec<Table> {
    let mut table = Table::new(
        "E7",
        "Lip-sync skew with and without continuous synchronisation",
        [
            "configuration",
            "frames",
            "max_abs_skew_ms",
            "tail_max_skew_ms",
            "corrections",
        ],
    );
    for correct in [false, true] {
        let ls = run_lipsync(seed, correct);
        let samples = ls.skew_samples();
        let tail_max = samples
            .iter()
            .rev()
            .take(20)
            .map(|s| s.unsigned_abs())
            .max()
            .unwrap_or(0);
        table.push_row([
            if correct {
                "continuous-sync"
            } else {
                "no-sync"
            }
            .to_owned(),
            samples.len().to_string(),
            format!("{:.1}", ls.max_abs_skew() as f64 / 1_000.0),
            format!("{:.1}", tail_max as f64 / 1_000.0),
            ls.corrections().to_string(),
        ]);
    }

    // Event-driven sync: captions scheduled on a 20 ms-tick scheduler.
    let mut events = Table::new(
        "E7b",
        "Event-driven synchronisation: caption firing skew (20 ms tick)",
        ["metric", "value_ms"],
    );
    let mut es = EventSync::new();
    let mut rng = DetRng::seed_from(seed);
    for k in 0..50u64 {
        // Captions at arbitrary (non-tick-aligned) instants.
        es.schedule(
            format!("caption-{k}"),
            SimTime::from_micros(k * 333_337 + rng.range_u64(0, 20_000)),
        );
    }
    let mut fired = 0;
    let mut now = SimTime::ZERO;
    while fired < 50 {
        now += SimDuration::from_millis(20);
        fired += es.fire_due(now).len();
    }
    let skews = es.skews();
    let max_ms = skews.iter().map(|d| d.as_micros()).max().unwrap_or(0) as f64 / 1_000.0;
    let mean_ms =
        skews.iter().map(|d| d.as_micros()).sum::<u64>() as f64 / skews.len() as f64 / 1_000.0;
    events.push_row(["mean_skew".to_owned(), format!("{mean_ms:.2}")]);
    events.push_row(["max_skew".to_owned(), format!("{max_ms:.2}")]);

    vec![table, events]
}

/// Drives a 25 fps audio/video pair for 40 s where the video path has
/// +180 ms base delay and ±40 ms jitter.
fn run_lipsync(seed: u64, correct: bool) -> LipSync {
    let audio = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
    let video = MediaSink::new(StreamId(1), SimDuration::from_millis(100));
    let mut ls = LipSync::new(audio, video, SimDuration::from_millis(80));
    if !correct {
        ls.disable_correction();
    }
    let mut rng = DetRng::seed_from(seed);
    let total_frames = 1_000u64;
    // Precompute arrival schedules.
    let mut arrivals: Vec<(u64, bool, u64)> = Vec::new(); // (arrival_us, is_master, seq)
    for seq in 0..total_frames {
        let cap = seq * 40_000;
        let a_delay = rng.jittered(SimDuration::from_millis(20), SimDuration::from_millis(5));
        let v_delay = rng.jittered(SimDuration::from_millis(200), SimDuration::from_millis(40));
        arrivals.push((cap + a_delay.as_micros(), true, seq));
        arrivals.push((cap + v_delay.as_micros(), false, seq));
    }
    arrivals.sort_unstable();
    let mut idx = 0usize;
    let mut now_us = 0u64;
    let end = total_frames * 40_000 + 2_000_000;
    while now_us < end {
        now_us += 10_000; // 10 ms ticks
        while idx < arrivals.len() && arrivals[idx].0 <= now_us {
            let (at, is_master, seq) = arrivals[idx];
            idx += 1;
            let frame = Frame {
                stream: StreamId(if is_master { 0 } else { 1 }),
                seq,
                kind: if is_master {
                    MediaKind::Audio
                } else {
                    MediaKind::Video
                },
                captured: SimTime::from_micros(seq * 40_000),
                bytes: 1_000,
                span: None,
            };
            if is_master {
                ls.master_mut().arrive(frame, SimTime::from_micros(at));
            } else {
                ls.slave_mut().arrive(frame, SimTime::from_micros(at));
            }
        }
        ls.tick(SimTime::from_micros(now_us));
    }
    ls
}

/// The shapes the E6 and E7 verdicts state, one per table.
pub(crate) const SHAPES: &[Shape] = &[
    Shape {
        table: "E6",
        claim: "the managed source renegotiates below 25 fps; the unmanaged one never renegotiates and its integrity falls under 90 %",
        holds: |t| {
            let managed = |c: &str| t.cell_f64("with-renegotiation", c);
            let unmanaged = |c: &str| t.cell_f64("no-renegotiation", c);
            Some(
                managed("renegotiations")? >= 1.0
                    && unmanaged("renegotiations")? == 0.0
                    && managed("final_fps")? < 25.0
                    && unmanaged("integrity_pct")? < 90.0,
            )
        },
    },
    Shape {
        table: "E6b",
        claim: "the contract steps down in the outage, climbs after it, and ends at the original 25 fps",
        holds: |t| {
            let cell = |c: &str| t.cell_f64("outage-then-recovery", c);
            Some(
                cell("renegotiations_down")? >= 1.0
                    && cell("upgrades")? >= 1.0
                    && cell("final_fps")? == 25.0,
            )
        },
    },
    Shape {
        table: "E7",
        claim: "uncorrected tail skew exceeds the 80 ms budget; continuous sync corrects at least once and ends within it",
        holds: |t| {
            Some(
                t.cell_f64("no-sync", "tail_max_skew_ms")? > 80.0
                    && t.cell_f64("continuous-sync", "tail_max_skew_ms")? <= 80.0
                    && t.cell_f64("continuous-sync", "corrections")? >= 1.0,
            )
        },
    },
    Shape {
        table: "E7b",
        claim: "event-driven firing skew stays within the 20 ms tick",
        holds: |t| Some(t.cell_f64("max_skew", "value_ms")? <= 20.0 + 1e-9),
    },
];

#[cfg(test)]
mod tests {
    use super::super::assert_detects;

    #[test]
    fn e6_fails_when_the_unmanaged_stream_keeps_its_integrity() {
        assert_detects("E6", "no-renegotiation", "integrity_pct", "95.0");
    }

    #[test]
    fn e6b_fails_when_recovery_stops_short_of_the_original_contract() {
        assert_detects("E6b", "outage-then-recovery", "final_fps", "16");
    }

    #[test]
    fn e7_fails_when_continuous_sync_leaves_the_budget() {
        assert_detects("E7", "continuous-sync", "tail_max_skew_ms", "80.1");
    }

    #[test]
    fn e7b_fails_when_a_caption_fires_a_tick_late() {
        assert_detects("E7b", "max_skew", "value_ms", "20.01");
    }
}

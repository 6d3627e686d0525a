//! Simulator actors for continuous-media streaming: a paced source, a
//! monitoring sink that reports violations upstream, and a source-side
//! renegotiation loop — the full QoS-management cycle of §4.2.2
//! (negotiate → monitor → inform → re-negotiate).

use odp_sim::actor::{Actor, Ctx, TimerId};
use odp_sim::net::{Connectivity, NodeId};
use odp_sim::time::{SimDuration, SimTime};

use crate::media::{Frame, MediaSink, MediaSource};
use crate::monitor::{QosMonitor, Violation};
use crate::qos::QosSpec;

/// Wire messages between stream endpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamMsg {
    /// A media frame.
    Frame(Frame),
    /// Sink → source: the contract broke.
    ViolationReport(Violation),
    /// Sink → source: the (degraded) contract has been healthy for a
    /// while — the source may try to renegotiate upward.
    HealthReport,
    /// Source → sink: new contract after renegotiation.
    NewContract(QosSpec),
    /// Harness/host → sink: the sink's host changed connectivity level
    /// (mobile hosts). Below the contract's accepted level, monitoring is
    /// suspended rather than violated.
    ConnectivityChanged(Connectivity),
}

const SEND: u64 = 1;
const PLAY: u64 = 2;
const BEACON: u64 = 3;

/// A paced media source; degrades its rate when sinks report violations
/// (dynamic renegotiation).
pub struct SourceActor {
    source: MediaSource,
    consumers: Vec<NodeId>,
    contract: QosSpec,
    /// The originally negotiated contract — the ceiling for upward
    /// renegotiation.
    original: QosSpec,
    renegotiations: u64,
    upgrades: u64,
    /// No further contract change until this long after the last one
    /// (prevents oscillation between up- and down-steps).
    change_cooldown: SimDuration,
    last_change: Option<SimTime>,
    /// If false, violations are ignored (the E6 "no renegotiation"
    /// baseline).
    adaptive: bool,
    telemetry: bool,
}

impl SourceActor {
    /// Creates a source streaming to `consumers` under `contract`.
    pub fn new(source: MediaSource, consumers: Vec<NodeId>, contract: QosSpec) -> Self {
        SourceActor {
            source,
            consumers,
            contract,
            original: contract,
            renegotiations: 0,
            upgrades: 0,
            change_cooldown: SimDuration::from_secs(5),
            last_change: None,
            adaptive: true,
            telemetry: false,
        }
    }

    /// Disables adaptation (violations are received but ignored).
    pub fn disable_adaptation(&mut self) {
        self.adaptive = false;
    }

    /// Enables span telemetry. Off by default: minting spans draws from
    /// the actor's RNG stream, which would perturb existing seeded runs.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// Contracts renegotiated downward so far.
    pub fn renegotiations(&self) -> u64 {
        self.renegotiations
    }

    /// Contracts renegotiated upward so far.
    pub fn upgrades(&self) -> u64 {
        self.upgrades
    }

    /// The current contract.
    pub fn contract(&self) -> &QosSpec {
        &self.contract
    }

    fn cooling(&self, now: SimTime) -> bool {
        self.last_change
            .is_some_and(|at| now.saturating_since(at) < self.change_cooldown)
    }

    fn announce(&mut self, ctx: &mut Ctx<'_, StreamMsg>, spec: QosSpec) {
        self.contract = spec;
        self.source.set_fps(spec.throughput_fps);
        self.last_change = Some(ctx.now());
        for &c in &self.consumers {
            ctx.send(c, StreamMsg::NewContract(spec));
        }
    }
}

impl Actor<StreamMsg> for SourceActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, StreamMsg>) {
        ctx.set_timer(self.source.interval(), SEND);
        // Contract beacon: a NewContract announcement can be lost on the
        // very link whose degradation triggered it, which would wedge the
        // control loop — so the current contract is re-announced as soft
        // state every couple of seconds.
        ctx.set_timer(SimDuration::from_secs(2), BEACON);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StreamMsg>, _from: NodeId, msg: StreamMsg) {
        match msg {
            StreamMsg::ViolationReport(v) => {
                ctx.metrics().incr("stream.violation_reports");
                ctx.trace("qos.violation", format_args!("{:?}", v.kind));
                if self.adaptive && !self.cooling(ctx.now()) {
                    if let Some(degraded) = self.contract.degraded() {
                        self.renegotiations += 1;
                        ctx.metrics().incr("stream.renegotiations");
                        ctx.trace("qos.renegotiated", degraded);
                        self.announce(ctx, degraded);
                    }
                }
            }
            StreamMsg::HealthReport if self.adaptive && !self.cooling(ctx.now()) => {
                if let Some(upgraded) = self.contract.upgraded(&self.original) {
                    self.upgrades += 1;
                    ctx.metrics().incr("stream.upgrades");
                    ctx.trace("qos.upgraded", upgraded);
                    self.announce(ctx, upgraded);
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StreamMsg>, _timer: TimerId, tag: u64) {
        match tag {
            SEND => {
                let mut frame = self.source.next_frame(ctx.now());
                // Frame span: a root per frame, closed at emission (the
                // source cannot know arrival times); each sink hangs a
                // stream.recv child off it as the frame lands.
                if self.telemetry {
                    let root = ctx.rng().span_root();
                    ctx.span_open(root, "stream.frame");
                    ctx.span_close(root);
                    frame.span = Some(root);
                }
                ctx.metrics().incr("stream.frames_sent");
                for &c in &self.consumers {
                    ctx.send_sized(c, StreamMsg::Frame(frame), frame.bytes);
                }
                ctx.set_timer(self.source.interval(), SEND);
            }
            BEACON => {
                for &c in &self.consumers {
                    ctx.send(c, StreamMsg::NewContract(self.contract));
                }
                ctx.set_timer(SimDuration::from_secs(2), BEACON);
            }
            _ => {}
        }
    }
}

/// A playout sink with an attached QoS monitor; reports violations back
/// to the source.
pub struct SinkActor {
    sink: MediaSink,
    monitor: QosMonitor,
    source_node: NodeId,
    play_every: SimDuration,
    health_report_every: SimDuration,
    last_health_report: Option<SimTime>,
    /// The latched violation, re-sent periodically while it persists —
    /// a single report can be lost on the very link that is violating.
    last_violation: Option<(Violation, SimTime)>,
    telemetry: bool,
}

impl SinkActor {
    /// Creates a sink playing frames from `source_node`.
    pub fn new(sink: MediaSink, monitor: QosMonitor, source_node: NodeId) -> Self {
        SinkActor {
            sink,
            monitor,
            source_node,
            play_every: SimDuration::from_millis(10),
            health_report_every: SimDuration::from_secs(2),
            last_health_report: None,
            last_violation: None,
            telemetry: false,
        }
    }

    /// Enables span telemetry. Off by default: minting spans draws from
    /// the actor's RNG stream, which would perturb existing seeded runs.
    pub fn set_telemetry(&mut self, on: bool) {
        self.telemetry = on;
    }

    /// The playout sink (post-run inspection).
    pub fn sink(&self) -> &MediaSink {
        &self.sink
    }

    /// The monitor (post-run inspection).
    pub fn monitor(&self) -> &QosMonitor {
        &self.monitor
    }
}

impl Actor<StreamMsg> for SinkActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, StreamMsg>) {
        ctx.set_timer(self.play_every, PLAY);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StreamMsg>, _from: NodeId, msg: StreamMsg) {
        match msg {
            StreamMsg::Frame(frame) => {
                ctx.metrics().incr("stream.frames_received");
                // Receive span: a child of the frame's root, marking the
                // arrival at this sink.
                if self.telemetry {
                    if let Some(parent) = frame.span {
                        let recv = ctx.rng().span_child(&parent);
                        ctx.span_open(recv, "stream.recv");
                        ctx.span_close(recv);
                    }
                }
                self.sink.arrive(frame, ctx.now());
            }
            StreamMsg::NewContract(spec) => {
                self.monitor.set_contract(spec);
                ctx.trace("qos.contract_updated", spec);
            }
            StreamMsg::ConnectivityChanged(level) => {
                self.monitor.set_connectivity(level);
                ctx.trace("qos.connectivity", format_args!("{level:?}"));
            }
            StreamMsg::ViolationReport(_) | StreamMsg::HealthReport => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StreamMsg>, _timer: TimerId, tag: u64) {
        if tag != PLAY {
            return;
        }
        let records = self.sink.play_until(ctx.now());
        for r in &records {
            if let Some(d) = r.delay {
                ctx.metrics().observe("stream.frame_delay", d);
            }
        }
        if let Some(violation) = self.monitor.observe(&records, ctx.now()) {
            ctx.metrics().incr("stream.violations_detected");
            ctx.send(
                self.source_node,
                StreamMsg::ViolationReport(violation.clone()),
            );
            self.last_violation = Some((violation, ctx.now()));
        } else if self.monitor.is_in_violation() {
            // Re-send the latched violation as soft state: the first
            // report can be lost on the very link that is failing.
            if let Some((violation, sent_at)) = self.last_violation.clone() {
                if ctx.now().saturating_since(sent_at) >= self.health_report_every {
                    ctx.send(
                        self.source_node,
                        StreamMsg::ViolationReport(violation.clone()),
                    );
                    self.last_violation = Some((violation, ctx.now()));
                }
            }
        } else {
            self.last_violation = None;
            let due = self
                .last_health_report
                .is_none_or(|at| ctx.now().saturating_since(at) >= self.health_report_every);
            if due {
                self.last_health_report = Some(ctx.now());
                ctx.send(self.source_node, StreamMsg::HealthReport);
            }
        }
        ctx.set_timer(self.play_every, PLAY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{MediaKind, StreamId};
    use odp_sim::prelude::*;

    fn stream_sim(link: LinkSpec, adaptive: bool) -> Sim<StreamMsg> {
        let net = Network::new(link);
        let mut sim = SimBuilder::new(42).network(net).build();
        let contract = QosSpec::video();
        let src = MediaSource::new(StreamId(0), MediaKind::Video, 25, 4_000);
        let mut source = SourceActor::new(src, vec![NodeId(1)], contract);
        if !adaptive {
            source.disable_adaptation();
        }
        sim.add_actor(NodeId(0), source);
        let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(120));
        let monitor = QosMonitor::new(contract, SimDuration::from_secs(1));
        sim.add_actor(NodeId(1), SinkActor::new(sink, monitor, NodeId(0)));
        sim
    }

    #[test]
    fn telemetry_spans_link_frames_to_arrivals() {
        let net = Network::new(LinkSpec::lan());
        let mut sim: Sim<StreamMsg> = SimBuilder::new(42).network(net).build();
        let contract = QosSpec::video();
        let src = MediaSource::new(StreamId(0), MediaKind::Video, 25, 4_000);
        let mut source = SourceActor::new(src, vec![NodeId(1)], contract);
        source.set_telemetry(true);
        sim.add_actor(NodeId(0), source);
        let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(120));
        let monitor = QosMonitor::new(contract, SimDuration::from_secs(1));
        let mut sink_actor = SinkActor::new(sink, monitor, NodeId(0));
        sink_actor.set_telemetry(true);
        sim.add_actor(NodeId(1), sink_actor);
        sim.run(Until::For(SimDuration::from_secs(1)));

        let collector = odp_telemetry::collector::Collector::from_trace(sim.trace());
        assert_eq!(collector.well_formed(), Ok(()), "span audit must pass");
        assert!(collector.len() >= 20, "one trace per frame at 25 fps");
        let mut delivered = 0;
        for (_, dag) in collector.traces() {
            // On a healthy LAN every emitted frame arrives: each trace is
            // a stream.frame root with one stream.recv child — except a
            // frame still in flight when the horizon cut the run short.
            assert!(dag.len() <= 2);
            if dag.len() == 2 {
                delivered += 1;
                let kinds: Vec<&str> = dag
                    .critical_path()
                    .iter()
                    .map(|s| s.kind.as_str())
                    .collect();
                assert_eq!(kinds, ["stream.frame", "stream.recv"]);
            }
        }
        assert!(delivered >= 20, "only {delivered} frames delivered");
    }

    #[test]
    fn telemetry_off_emits_no_stream_span_events() {
        let mut sim = stream_sim(LinkSpec::lan(), true);
        sim.run(Until::For(SimDuration::from_secs(1)));
        assert!(sim.trace().spans().is_empty());
    }

    #[test]
    fn healthy_link_streams_without_violations() {
        let mut sim = stream_sim(LinkSpec::lan(), true);
        sim.run(Until::For(SimDuration::from_secs(10)));
        let sink: &SinkActor = sim.get(ActorHandle::of(NodeId(1))).unwrap();
        assert!(
            sink.sink().integrity() > 0.99,
            "integrity {}",
            sink.sink().integrity()
        );
        assert_eq!(sim.metrics().counter("stream.renegotiations"), 0);
    }

    #[test]
    fn degraded_link_triggers_violation_and_renegotiation() {
        // A terrible link: 300 ms latency, heavy jitter, low bandwidth.
        let bad = LinkSpec {
            latency: SimDuration::from_millis(300),
            jitter: SimDuration::from_millis(80),
            bytes_per_sec: Some(40_000),
            loss: 0.05,
        };
        let mut sim = stream_sim(bad, true);
        sim.run(Until::For(SimDuration::from_secs(20)));
        assert!(sim.metrics().counter("stream.violation_reports") >= 1);
        let source: &SourceActor = sim.get(ActorHandle::of(NodeId(0))).unwrap();
        assert!(source.renegotiations() >= 1, "source adapted");
        assert!(source.contract().throughput_fps < 25, "rate reduced");
    }

    #[test]
    fn without_renegotiation_violations_persist() {
        let bad = LinkSpec {
            latency: SimDuration::from_millis(300),
            jitter: SimDuration::from_millis(80),
            bytes_per_sec: Some(40_000),
            loss: 0.05,
        };
        let mut sim = stream_sim(bad, false);
        sim.run(Until::For(SimDuration::from_secs(20)));
        let source: &SourceActor = sim.get(ActorHandle::of(NodeId(0))).unwrap();
        assert_eq!(source.renegotiations(), 0);
        let sink: &SinkActor = sim.get(ActorHandle::of(NodeId(1))).unwrap();
        assert!(sink.sink().integrity() < 0.9, "integrity stays damaged");
    }

    #[test]
    fn link_recovery_renegotiates_the_contract_back_up() {
        let mut sim = stream_sim(LinkSpec::lan(), true);
        let bad = LinkSpec {
            latency: SimDuration::from_millis(300),
            jitter: SimDuration::from_millis(80),
            bytes_per_sec: Some(40_000),
            loss: 0.05,
        };
        sim.schedule_net_change(SimTime::from_secs(5), move |net| {
            net.set_link(NodeId(0), NodeId(1), bad);
        });
        sim.schedule_net_change(SimTime::from_secs(30), |net| {
            net.set_link(NodeId(0), NodeId(1), LinkSpec::lan());
        });
        sim.run(Until::For(SimDuration::from_secs(120)));
        let source: &SourceActor = sim.get(ActorHandle::of(NodeId(0))).unwrap();
        assert!(source.renegotiations() >= 1, "degraded during the outage");
        assert!(source.upgrades() >= 1, "climbed back after recovery");
        assert_eq!(
            source.contract().throughput_fps,
            25,
            "original contract restored: {}",
            source.contract()
        );
    }

    #[test]
    fn accepted_partial_connectivity_suspends_violations() {
        // Contract tolerant of partial connectivity; host drops to
        // Partial and the (physically degraded) stream is *not* reported.
        let net = Network::new(LinkSpec::lan());
        let mut sim: Sim<StreamMsg> = SimBuilder::new(9).network(net).build();
        let contract = QosSpec::mobile_video(); // min_connectivity: Partial
        let src = MediaSource::new(StreamId(0), MediaKind::Video, 5, 500);
        sim.add_actor(NodeId(0), SourceActor::new(src, vec![NodeId(1)], contract));
        let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(400));
        let monitor = QosMonitor::new(contract, SimDuration::from_secs(1));
        sim.add_actor(NodeId(1), SinkActor::new(sink, monitor, NodeId(0)));
        // At t=3s the host drops below even Partial: Disconnected.
        sim.schedule_net_change(SimTime::from_secs(3), |net| {
            net.set_connectivity(NodeId(1), Connectivity::Disconnected);
        });
        sim.inject(
            SimTime::from_secs(3),
            NodeId(1),
            NodeId(1),
            StreamMsg::ConnectivityChanged(Connectivity::Disconnected),
        );
        sim.run(Until::For(SimDuration::from_secs(15)));
        // The stream physically stalls (total disconnection), but the
        // contract accepts levels down to Partial only — Disconnected is
        // below it, so judgement is suspended: no violations reported.
        assert_eq!(
            sim.metrics().counter("stream.violations_detected"),
            0,
            "accepted disconnection must not violate"
        );
        assert_eq!(sim.metrics().counter("stream.renegotiations"), 0);
    }

    #[test]
    fn mid_run_network_degradation_is_detected() {
        let mut sim = stream_sim(LinkSpec::lan(), true);
        sim.schedule_net_change(SimTime::from_secs(5), |net| {
            net.set_link(
                NodeId(0),
                NodeId(1),
                LinkSpec {
                    latency: SimDuration::from_millis(400),
                    jitter: SimDuration::from_millis(100),
                    bytes_per_sec: Some(30_000),
                    loss: 0.05,
                },
            );
        });
        sim.run(Until::For(SimDuration::from_secs(25)));
        assert!(sim.trace().with_label("qos.violation").count() >= 1);
        assert!(sim.trace().with_label("qos.renegotiated").count() >= 1);
        // The violation was detected only after the change.
        let first = sim.trace().first("qos.violation").unwrap();
        assert!(first.time >= SimTime::from_secs(5));
    }
}

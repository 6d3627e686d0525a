//! End-to-end QoS monitoring: sliding-window measurement of a stream
//! against its contract, emitting violations when the contract breaks —
//! the paper's "end-to-end monitoring of QoS so that the application can
//! be informed if degradations occur".

use std::collections::VecDeque;

use odp_sim::net::Connectivity;
use odp_sim::time::{SimDuration, SimTime};

use crate::media::{FrameFate, PlayoutRecord};
use crate::qos::{QosSpec, ViolationKind};

/// A detected contract violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which bound broke.
    pub kind: ViolationKind,
    /// When it was detected.
    pub at: SimTime,
    /// Measured value, in the unit of the bound (fps / us / us / fraction).
    pub measured: f64,
    /// The contract value it exceeded or undercut.
    pub bound: f64,
}

/// Sliding-window QoS monitor for one stream.
///
/// # Examples
///
/// ```
/// use odp_streams::monitor::QosMonitor;
/// use odp_streams::qos::QosSpec;
/// use odp_sim::time::SimDuration;
///
/// let m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
/// assert_eq!(m.contract().throughput_fps, 25);
/// ```
#[derive(Debug, Clone)]
pub struct QosMonitor {
    contract: QosSpec,
    window: SimDuration,
    /// `(playout time, record)` within the window.
    recent: VecDeque<(SimTime, PlayoutRecord)>,
    /// Suppress duplicate reports until the stream recovers.
    in_violation: bool,
    /// Time of the first observation — no judgement until a full window
    /// has elapsed from here (warm-up).
    started: Option<SimTime>,
    /// The host's current connectivity (mobile sinks): judgement pauses
    /// below the contract's accepted level (§4.2.2: "quality of service
    /// requests [should] specify accepted levels of disconnection").
    connectivity: Connectivity,
}

impl QosMonitor {
    /// Creates a monitor for `contract` measuring over `window`.
    pub fn new(contract: QosSpec, window: SimDuration) -> Self {
        QosMonitor {
            contract,
            window,
            recent: VecDeque::new(),
            in_violation: false,
            started: None,
            connectivity: Connectivity::Full,
        }
    }

    /// Updates the host's connectivity level; while it is below the
    /// contract's `min_connectivity`, no violations are reported (the
    /// degradation is *accepted*, per the contract).
    pub fn set_connectivity(&mut self, level: Connectivity) {
        self.connectivity = level;
    }

    /// True while the stream is in a latched violation.
    pub(crate) fn is_in_violation(&self) -> bool {
        self.in_violation
    }

    /// The contract being monitored.
    pub fn contract(&self) -> &QosSpec {
        &self.contract
    }

    /// Replaces the contract (after re-negotiation) and clears the
    /// violation latch. Re-announcements of the unchanged contract (the
    /// source's soft-state beacon) are idempotent — they do not clear
    /// the latch, so sustained violations are not masked.
    pub(crate) fn set_contract(&mut self, contract: QosSpec) {
        if self.contract != contract {
            self.contract = contract;
            self.in_violation = false;
        }
    }

    /// Feeds playout records at time `now`; returns at most one new
    /// violation (further reports are latched until recovery).
    pub fn observe(&mut self, records: &[PlayoutRecord], now: SimTime) -> Option<Violation> {
        // The warm-up clock starts at the first actual record, not the
        // first (possibly empty) observation.
        if !records.is_empty() {
            self.started.get_or_insert(now);
        }
        let started = self.started?;
        for &r in records {
            self.recent.push_back((now, r));
        }
        let window = self.effective_window();
        let horizon = if now.as_micros() > window.as_micros() {
            now - window
        } else {
            SimTime::ZERO
        };
        while let Some(&(t, _)) = self.recent.front() {
            if t < horizon {
                self.recent.pop_front();
            } else {
                break;
            }
        }
        // Judge only after a full (rate-adjusted) window has elapsed since
        // the first record. The effective window never spans fewer than
        // ~3 frame intervals of the contract, so low-rate contracts
        // (e.g. 1 fps after heavy re-negotiation) are still judgeable and
        // a momentarily empty window is not a false stall.
        if now.saturating_since(started) < self.effective_window() {
            return None;
        }
        // Accepted disconnection: below the contract's connectivity floor
        // the contract is suspended, not violated.
        if rank(self.connectivity) < rank(self.contract.min_connectivity) {
            return None;
        }
        let violation = self.current_violation(now);
        match violation {
            Some(v) if !self.in_violation => {
                self.in_violation = true;
                Some(v)
            }
            Some(_) => None, // latched
            None => {
                self.in_violation = false;
                None
            }
        }
    }

    /// The measurement window, widened so it always spans at least ~3
    /// frame intervals of the current contract.
    fn effective_window(&self) -> SimDuration {
        let three_frames =
            SimDuration::from_micros(3_000_000 / self.contract.throughput_fps.max(1) as u64);
        self.window.max(three_frames)
    }

    /// The delays of the window's played frames, in µs, oldest first.
    fn played_delays_us(&self) -> impl Iterator<Item = f64> + '_ {
        self.recent
            .iter()
            .filter(|(_, r)| r.fate == FrameFate::Played)
            .filter_map(|(_, r)| r.delay)
            .map(|d| d.as_micros() as f64)
    }

    fn current_violation(&self, now: SimTime) -> Option<Violation> {
        let total = self.recent.len() as f64;
        // Throughput: played frames per second over the window. An empty
        // window is a stalled stream: zero throughput. One pass counts the
        // played delays and sums them, in window order, for the latency
        // mean below.
        let (played, delay_sum_us) = self
            .played_delays_us()
            .fold((0usize, 0.0f64), |(n, sum), d| (n + 1, sum + d));
        let fps = played as f64 / self.effective_window().as_secs_f64();
        if fps < self.contract.throughput_fps as f64 * 0.9 {
            return Some(Violation {
                kind: ViolationKind::Throughput,
                at: now,
                measured: fps,
                bound: self.contract.throughput_fps as f64,
            });
        }
        // Loss: late + lost fraction (vacuously zero on an empty window;
        // the throughput check above already covers total stalls).
        let bad = self
            .recent
            .iter()
            .filter(|(_, r)| r.fate != FrameFate::Played)
            .count() as f64;
        let loss = if total == 0.0 { 0.0 } else { bad / total };
        if loss > self.contract.loss_bound {
            return Some(Violation {
                kind: ViolationKind::Loss,
                at: now,
                measured: loss,
                bound: self.contract.loss_bound,
            });
        }
        // Latency: mean delay of played frames.
        if played > 0 {
            let mean_us = delay_sum_us / played as f64;
            if mean_us > self.contract.latency_bound.as_micros() as f64 {
                return Some(Violation {
                    kind: ViolationKind::Latency,
                    at: now,
                    measured: mean_us,
                    bound: self.contract.latency_bound.as_micros() as f64,
                });
            }
            // Jitter: standard deviation of delays.
            if played >= 2 {
                let var = self
                    .played_delays_us()
                    .map(|d| {
                        let x = d - mean_us;
                        x * x
                    })
                    .sum::<f64>()
                    / (played as f64 - 1.0);
                let sd = var.sqrt();
                if sd > self.contract.jitter_bound.as_micros() as f64 {
                    return Some(Violation {
                        kind: ViolationKind::Jitter,
                        at: now,
                        measured: sd,
                        bound: self.contract.jitter_bound.as_micros() as f64,
                    });
                }
            }
        }
        None
    }
}

/// Orders connectivity levels for the accepted-disconnection check.
fn rank(level: Connectivity) -> u8 {
    match level {
        Connectivity::Disconnected => 0,
        Connectivity::Partial => 1,
        Connectivity::Full => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn played(seq: u64, delay_ms: u64) -> PlayoutRecord {
        PlayoutRecord {
            seq,
            fate: FrameFate::Played,
            delay: Some(SimDuration::from_millis(delay_ms)),
        }
    }

    fn lost(seq: u64) -> PlayoutRecord {
        PlayoutRecord {
            seq,
            fate: FrameFate::Lost,
            delay: None,
        }
    }

    fn feed_steady_from(
        m: &mut QosMonitor,
        start_ms: u64,
        n: u64,
        delay_ms: u64,
        step_ms: u64,
    ) -> Vec<Violation> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = SimTime::from_millis(start_ms + i * step_ms);
            if let Some(v) = m.observe(&[played(i, delay_ms)], t) {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn healthy_stream_reports_nothing() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        let v = feed_steady_from(&mut m, 0, 50, 50, 40);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn excess_latency_is_detected() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        let v = feed_steady_from(&mut m, 0, 50, 400, 40);
        assert_eq!(v.len(), 1, "latched after the first report: {v:?}");
        assert_eq!(v[0].kind, ViolationKind::Latency);
        assert!(v[0].measured > v[0].bound);
    }

    #[test]
    fn loss_is_detected() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        let mut hits = Vec::new();
        for i in 0..50u64 {
            let t = SimTime::from_millis(1_000 + i * 40);
            let rec = if i % 3 == 0 { lost(i) } else { played(i, 50) };
            if let Some(v) = m.observe(&[rec], t) {
                hits.push(v);
            }
        }
        assert!(!hits.is_empty());
        // Heavy loss also drags throughput down; either report is valid.
        assert!(matches!(
            hits[0].kind,
            ViolationKind::Loss | ViolationKind::Throughput
        ));
    }

    #[test]
    fn recovery_unlatches_future_reports() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        assert_eq!(feed_steady_from(&mut m, 0, 50, 400, 40).len(), 1);
        // Recover: healthy delays flush the window.
        let mut t = 3_000u64;
        for i in 100..160u64 {
            m.observe(&[played(i, 40)], SimTime::from_millis(t));
            t += 40;
        }
        // Degrade again: a second report fires.
        let mut hits = 0;
        for i in 200..260u64 {
            if m.observe(&[played(i, 400)], SimTime::from_millis(t))
                .is_some()
            {
                hits += 1;
            }
            t += 40;
        }
        assert_eq!(hits, 1);
    }

    #[test]
    fn renegotiated_contract_accepts_the_degraded_stream() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        assert_eq!(feed_steady_from(&mut m, 0, 50, 400, 40).len(), 1);
        m.set_contract(QosSpec::mobile_video());
        // 400 ms delay at 25 fps satisfies the 500 ms mobile contract.
        let v = feed_steady_from(&mut m, 0, 50, 400, 40);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn accepted_disconnection_suspends_judgement() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        m.set_connectivity(Connectivity::Partial);
        // Terrible delays, but the host is below the contract's floor:
        // nothing is reported.
        let v = feed_steady_from(&mut m, 0, 50, 900, 40);
        assert!(v.is_empty(), "{v:?}");
        // Back at full connectivity the contract re-engages.
        m.set_connectivity(Connectivity::Full);
        let v2 = feed_steady_from(&mut m, 3_000, 50, 900, 40);
        assert_eq!(v2.len(), 1);
    }

    #[test]
    fn needs_a_minimum_sample_before_judging() {
        let mut m = QosMonitor::new(QosSpec::video(), SimDuration::from_secs(1));
        // Only 3 records, all terrible — too few to judge.
        for i in 0..3 {
            assert!(m
                .observe(&[played(i, 5_000)], SimTime::from_millis(2_000 + i * 40))
                .is_none());
        }
    }
}

//! Real-time synchronisation (§4.2.2 iii): *event-driven* synchronisation
//! ("initiate an action, such as displaying a caption, at a particular
//! point in time") and *continuous* synchronisation ("data presentation
//! devices must be tied together so that they consume data in fixed
//! ratios, e.g. in lip synchronisation").

use std::collections::BTreeMap;

use odp_sim::time::{SimDuration, SimTime};

use crate::media::{MediaSink, PlayoutRecord};

/// A scheduled event-driven action (e.g. show a caption at t).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// Arbitrary action label.
    pub action: String,
    /// The instant it must fire.
    pub due: SimTime,
}

/// Tracks event-driven synchronisation accuracy: schedule actions, record
/// when they actually fired, and measure the skew.
#[derive(Debug, Clone, Default)]
pub struct EventSync {
    scheduled: Vec<ScheduledEvent>,
    fired: Vec<(ScheduledEvent, SimTime)>,
}

impl EventSync {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        EventSync::default()
    }

    /// Schedules an action.
    pub fn schedule(&mut self, action: impl Into<String>, due: SimTime) {
        self.scheduled.push(ScheduledEvent {
            action: action.into(),
            due,
        });
    }

    /// Actions due at or before `now` that have not fired yet; marks them
    /// fired at `now`.
    pub fn fire_due(&mut self, now: SimTime) -> Vec<ScheduledEvent> {
        let mut due = Vec::new();
        let mut keep = Vec::new();
        for ev in self.scheduled.drain(..) {
            if ev.due <= now {
                self.fired.push((ev.clone(), now));
                due.push(ev);
            } else {
                keep.push(ev);
            }
        }
        self.scheduled = keep;
        due
    }

    /// Firing skews (actual − due) of every fired action.
    pub fn skews(&self) -> Vec<SimDuration> {
        self.fired
            .iter()
            .map(|(ev, at)| at.saturating_since(ev.due))
            .collect()
    }

    /// Actions still waiting.
    pub fn pending(&self) -> usize {
        self.scheduled.len()
    }
}

/// No lip-sync correction until this long after the previous one, so
/// frames already in the pipeline (played against the old delay) do not
/// trigger runaway over-correction.
const CORRECTION_COOLDOWN: SimDuration = SimDuration::from_millis(500);

/// Continuous synchronisation of a slave stream to a master stream
/// (lip-sync): both sinks play out; the controller measures the playout
/// skew and nudges the slave's playout delay to keep the skew inside a
/// tolerance.
///
/// # Examples
///
/// ```
/// use odp_streams::media::{MediaSink, StreamId};
/// use odp_streams::sync::LipSync;
/// use odp_sim::time::SimDuration;
///
/// let audio = MediaSink::new(StreamId(0), SimDuration::from_millis(80));
/// let video = MediaSink::new(StreamId(1), SimDuration::from_millis(80));
/// let sync = LipSync::new(audio, video, SimDuration::from_millis(80));
/// assert_eq!(sync.skew_samples().len(), 0);
/// ```
#[derive(Debug)]
pub struct LipSync {
    /// The master (usually audio — the ear is less forgiving).
    master: MediaSink,
    /// The slave (usually video).
    slave: MediaSink,
    /// Maximum acceptable |skew| before correction.
    tolerance: SimDuration,
    /// Whether correction is enabled (disable for the E7 baseline).
    correcting: bool,
    /// Playout-time of the latest played frame per stream.
    last_master_play: BTreeMap<u64, SimTime>,
    last_slave_play: BTreeMap<u64, SimTime>,
    skews: Vec<i64>, // microseconds, signed (slave − master)
    corrections: u64,
    last_correction: Option<SimTime>,
}

impl LipSync {
    /// Creates a synchroniser; `tolerance` is the lip-sync budget
    /// (±80 ms is the classic figure).
    pub fn new(master: MediaSink, slave: MediaSink, tolerance: SimDuration) -> Self {
        LipSync {
            master,
            slave,
            tolerance,
            correcting: true,
            last_master_play: BTreeMap::new(),
            last_slave_play: BTreeMap::new(),
            skews: Vec::new(),
            corrections: 0,
            last_correction: None,
        }
    }

    /// Disables the correction loop (measure raw drift instead).
    pub fn disable_correction(&mut self) {
        self.correcting = false;
    }

    /// The master sink.
    pub fn master_mut(&mut self) -> &mut MediaSink {
        &mut self.master
    }

    /// The slave sink.
    pub fn slave_mut(&mut self) -> &mut MediaSink {
        &mut self.slave
    }

    /// Advances both playouts to `now`, measures the skew between frames
    /// with equal sequence numbers, and (if enabled) corrects the slave's
    /// playout delay when the skew exceeds the tolerance.
    pub fn tick(&mut self, now: SimTime) -> (Vec<PlayoutRecord>, Vec<PlayoutRecord>) {
        let m = self.master.play_until(now);
        let s = self.slave.play_until(now);
        // Late frames are still presented (just late), so they count for
        // skew; only lost frames are excluded.
        for r in &m {
            if r.fate != crate::media::FrameFate::Lost {
                self.last_master_play.insert(r.seq, now);
            }
        }
        for r in &s {
            if r.fate != crate::media::FrameFate::Lost {
                self.last_slave_play.insert(r.seq, now);
            }
        }
        // Measure skew on matching sequence numbers played by both sides.
        let common: Vec<u64> = self
            .last_master_play
            .keys()
            .filter(|k| self.last_slave_play.contains_key(k))
            .copied()
            .collect();
        for seq in common {
            let (Some(tm), Some(ts)) = (
                self.last_master_play.remove(&seq),
                self.last_slave_play.remove(&seq),
            ) else {
                continue;
            };
            let skew_us = ts.as_micros() as i64 - tm.as_micros() as i64;
            self.skews.push(skew_us);
            let cooling = self
                .last_correction
                .is_some_and(|at| now.saturating_since(at) < CORRECTION_COOLDOWN);
            if self.correcting && !cooling && skew_us.unsigned_abs() > self.tolerance.as_micros() {
                // A stream can be delayed but never sped up: hold back
                // whichever side is *ahead* by half the skew.
                let adjust = SimDuration::from_micros(skew_us.unsigned_abs() / 2);
                if skew_us > 0 {
                    // Slave is behind: delay the master to meet it.
                    let d = self.master.playout_delay() + adjust;
                    self.master.set_playout_delay(d);
                } else {
                    // Slave is ahead: delay the slave.
                    let d = self.slave.playout_delay() + adjust;
                    self.slave.set_playout_delay(d);
                }
                self.corrections += 1;
                self.last_correction = Some(now);
            }
        }
        (m, s)
    }

    /// Signed skew samples in microseconds (slave − master).
    pub fn skew_samples(&self) -> &[i64] {
        &self.skews
    }

    /// The largest |skew| seen, in microseconds.
    pub fn max_abs_skew(&self) -> u64 {
        self.skews
            .iter()
            .map(|s| s.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Number of corrections applied.
    pub fn corrections(&self) -> u64 {
        self.corrections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::{Frame, MediaKind, StreamId};

    fn frame(stream: u32, seq: u64, captured_ms: u64, kind: MediaKind) -> Frame {
        Frame {
            stream: StreamId(stream),
            seq,
            kind,
            captured: SimTime::from_millis(captured_ms),
            bytes: 100,
            span: None,
        }
    }

    #[test]
    fn event_sync_fires_on_time_and_measures_skew() {
        let mut es = EventSync::new();
        es.schedule("caption-1", SimTime::from_millis(100));
        es.schedule("caption-2", SimTime::from_millis(200));
        assert!(es.fire_due(SimTime::from_millis(50)).is_empty());
        let fired = es.fire_due(SimTime::from_millis(120));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].action, "caption-1");
        assert_eq!(es.pending(), 1);
        es.fire_due(SimTime::from_millis(200));
        let skews = es.skews();
        assert_eq!(skews, vec![SimDuration::from_millis(20), SimDuration::ZERO]);
    }

    /// Drives 40 frames through both sinks (25 fps, 20 ms network delay
    /// for the master, `20 + slave_extra_ms` for the slave), delivering
    /// each frame only once its arrival time passes, and returns the
    /// synchroniser.
    fn run_lipsync(correct: bool, slave_extra_ms: u64) -> LipSync {
        let audio = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
        let video = MediaSink::new(StreamId(1), SimDuration::from_millis(100));
        let mut ls = LipSync::new(audio, video, SimDuration::from_millis(80));
        if !correct {
            ls.disable_correction();
        }
        let total = 40u64;
        for now_ms in (0..4_000u64).step_by(20) {
            for seq in 0..total {
                let cap = seq * 40;
                if cap + 20 == now_ms {
                    ls.master_mut().arrive(
                        frame(0, seq, cap, MediaKind::Audio),
                        SimTime::from_millis(now_ms),
                    );
                }
                if cap + 20 + slave_extra_ms == now_ms {
                    ls.slave_mut().arrive(
                        frame(1, seq, cap, MediaKind::Video),
                        SimTime::from_millis(now_ms),
                    );
                }
            }
            ls.tick(SimTime::from_millis(now_ms));
        }
        ls
    }

    #[test]
    fn aligned_streams_have_zero_skew() {
        let ls = run_lipsync(true, 0);
        assert!(!ls.skew_samples().is_empty());
        assert_eq!(ls.max_abs_skew(), 0);
        assert_eq!(ls.corrections(), 0);
    }

    #[test]
    fn lagging_slave_without_correction_drifts() {
        let ls = run_lipsync(false, 200);
        // Slave frames arrive 220 ms after capture but play out against a
        // 100 ms target: a persistent ~120 ms skew with no fix applied.
        assert!(ls.max_abs_skew() >= 100_000, "skew {}us", ls.max_abs_skew());
        assert_eq!(ls.corrections(), 0);
    }

    #[test]
    fn correction_bounds_the_skew() {
        let ls = run_lipsync(true, 200);
        assert!(ls.corrections() > 0, "controller engaged");
        // Once the controller converges, skew sits inside the tolerance.
        let tail: Vec<i64> = ls.skew_samples().iter().rev().take(5).copied().collect();
        let head_max = ls
            .skew_samples()
            .iter()
            .take(5)
            .map(|s| s.unsigned_abs())
            .max()
            .unwrap();
        let tail_max = tail.iter().map(|s| s.unsigned_abs()).max().unwrap();
        assert!(
            tail_max <= 80_000,
            "tail skew {tail_max}us must sit inside the 80ms tolerance (initial {head_max}us)"
        );
    }
}

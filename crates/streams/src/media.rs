//! Continuous-media primitives: frames, sources and playout sinks.
//!
//! "The most fundamental characteristic of multimedia systems is that
//! they incorporate continuous media ... If the required rate of
//! presentation is not met, the integrity of these media is destroyed"
//! (§4.2.2 i). Sources generate frames at a fixed rate; sinks play them
//! out behind a fixed playout delay, counting every frame as played,
//! late, or lost — the integrity measure.

use std::collections::BTreeMap;
use std::fmt;

use odp_fabric::SpanCarrier;
use odp_sim::time::{SimDuration, SimTime};

/// The kind of a continuous-media stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaKind {
    /// Sampled sound.
    Audio,
    /// Moving pictures.
    Video,
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MediaKind::Audio => "audio",
            MediaKind::Video => "video",
        };
        f.write_str(s)
    }
}

/// Identifies a stream within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

/// One media frame (headers only — payload bytes are simulated by size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    /// Which stream.
    pub stream: StreamId,
    /// Sequence number, starting at 0.
    pub seq: u64,
    /// Media kind.
    pub kind: MediaKind,
    /// Capture timestamp at the source.
    pub captured: SimTime,
    /// Wire size in bytes (drives the bandwidth model).
    pub bytes: usize,
    /// Piggybacked telemetry span (the source's `stream.frame` root),
    /// if the source has telemetry on.
    pub span: Option<SpanCarrier>,
}

/// Generates frames at a fixed rate.
///
/// # Examples
///
/// ```
/// use odp_streams::media::{MediaKind, MediaSource, StreamId};
/// use odp_sim::time::SimTime;
///
/// let mut src = MediaSource::new(StreamId(0), MediaKind::Video, 25, 8_000);
/// let f0 = src.next_frame(SimTime::ZERO);
/// let f1 = src.next_frame(SimTime::from_millis(40));
/// assert_eq!(f0.seq, 0);
/// assert_eq!(f1.seq, 1);
/// assert_eq!(src.interval().as_millis(), 40);
/// ```
#[derive(Debug, Clone)]
pub struct MediaSource {
    stream: StreamId,
    kind: MediaKind,
    fps: u32,
    frame_bytes: usize,
    next_seq: u64,
}

impl MediaSource {
    /// Creates a source emitting `fps` frames of `frame_bytes` each per
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `fps` is zero.
    pub fn new(stream: StreamId, kind: MediaKind, fps: u32, frame_bytes: usize) -> Self {
        assert!(fps > 0, "frame rate must be positive");
        MediaSource {
            stream,
            kind,
            fps,
            frame_bytes,
            next_seq: 0,
        }
    }

    /// The inter-frame interval.
    pub fn interval(&self) -> SimDuration {
        SimDuration::from_micros(1_000_000 / self.fps as u64)
    }

    /// Re-rates the source (renegotiation outcome).
    ///
    /// # Panics
    ///
    /// Panics if `fps` is zero.
    pub(crate) fn set_fps(&mut self, fps: u32) {
        assert!(fps > 0, "frame rate must be positive");
        self.fps = fps;
    }

    /// Produces the next frame, stamped `now`.
    pub fn next_frame(&mut self, now: SimTime) -> Frame {
        let frame = Frame {
            stream: self.stream,
            seq: self.next_seq,
            kind: self.kind,
            captured: now,
            bytes: self.frame_bytes,
            span: None,
        };
        self.next_seq += 1;
        frame
    }
}

/// How a frame fared at the sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    /// Arrived in time and was played at its deadline.
    Played,
    /// Arrived after its playout deadline (integrity damaged).
    Late,
    /// Never arrived (counted when a later frame is played).
    Lost,
}

/// Per-frame playout record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlayoutRecord {
    /// The frame sequence number.
    pub seq: u64,
    /// What happened.
    pub fate: FrameFate,
    /// One-way network delay (for played/late frames).
    pub delay: Option<SimDuration>,
}

/// A playout sink: buffers arriving frames and plays each at
/// `captured + playout_delay`.
#[derive(Debug, Clone)]
pub struct MediaSink {
    stream: StreamId,
    playout_delay: SimDuration,
    /// Arrived frames not yet played, keyed by seq.
    buffer: BTreeMap<u64, (Frame, SimTime)>,
    next_play: u64,
    records: Vec<PlayoutRecord>,
}

impl MediaSink {
    /// Creates a sink with the given playout delay.
    pub fn new(stream: StreamId, playout_delay: SimDuration) -> Self {
        MediaSink {
            stream,
            playout_delay,
            buffer: BTreeMap::new(),
            next_play: 0,
            records: Vec::new(),
        }
    }

    /// The configured playout delay.
    pub(crate) fn playout_delay(&self) -> SimDuration {
        self.playout_delay
    }

    /// Adjusts the playout delay (continuous synchronisation does this).
    pub(crate) fn set_playout_delay(&mut self, delay: SimDuration) {
        self.playout_delay = delay;
    }

    /// Accepts an arriving frame.
    pub fn arrive(&mut self, frame: Frame, now: SimTime) {
        debug_assert_eq!(frame.stream, self.stream);
        if frame.seq >= self.next_play {
            self.buffer.insert(frame.seq, (frame, now));
        } else {
            // Arrived after its slot was already given up: late.
            self.records.push(PlayoutRecord {
                seq: frame.seq,
                fate: FrameFate::Late,
                delay: Some(now.saturating_since(frame.captured)),
            });
        }
    }

    /// Advances playout to `now`: plays every frame whose deadline
    /// (`captured + playout_delay`) has passed, marking gaps as lost.
    /// Returns the new records.
    pub fn play_until(&mut self, now: SimTime) -> Vec<PlayoutRecord> {
        let mut out = Vec::new();
        // The next frame to play is next_play; check whether its deadline
        // has arrived, based on any buffered frame's capture time (frames
        // are equally spaced, so use what we have).
        while let Some((&seq, &(frame, arrived))) = self.buffer.iter().next() {
            let deadline = frame.captured + self.playout_delay;
            if deadline > now {
                break;
            }
            // Frames between next_play and seq never arrived in time: as
            // their successors' deadlines pass, declare them lost.
            while self.next_play < seq {
                let rec = PlayoutRecord {
                    seq: self.next_play,
                    fate: FrameFate::Lost,
                    delay: None,
                };
                self.records.push(rec);
                out.push(rec);
                self.next_play += 1;
            }
            self.buffer.remove(&seq);
            let delay = arrived.saturating_since(frame.captured);
            let fate = if arrived <= deadline {
                FrameFate::Played
            } else {
                FrameFate::Late
            };
            let rec = PlayoutRecord {
                seq,
                fate,
                delay: Some(delay),
            };
            self.records.push(rec);
            out.push(rec);
            self.next_play = seq + 1;
        }
        out
    }

    /// All playout records so far.
    pub fn records(&self) -> &[PlayoutRecord] {
        &self.records
    }

    /// `(played, late, lost)` counts.
    pub fn tallies(&self) -> (u64, u64, u64) {
        let mut played = 0;
        let mut late = 0;
        let mut lost = 0;
        for r in &self.records {
            match r.fate {
                FrameFate::Played => played += 1,
                FrameFate::Late => late += 1,
                FrameFate::Lost => lost += 1,
            }
        }
        (played, late, lost)
    }

    /// Media integrity: fraction of frames played on time.
    pub fn integrity(&self) -> f64 {
        let (played, late, lost) = self.tallies();
        let total = played + late + lost;
        if total == 0 {
            1.0
        } else {
            played as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(seq: u64, captured_ms: u64) -> Frame {
        Frame {
            stream: StreamId(0),
            seq,
            kind: MediaKind::Video,
            captured: SimTime::from_millis(captured_ms),
            bytes: 1000,
            span: None,
        }
    }

    #[test]
    fn source_paces_frames() {
        let mut src = MediaSource::new(StreamId(0), MediaKind::Video, 25, 8000);
        assert_eq!(src.interval(), SimDuration::from_millis(40));
        let f = src.next_frame(SimTime::ZERO);
        assert_eq!(f.bytes, 8000);
    }

    #[test]
    fn in_time_frames_play() {
        let mut sink = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
        sink.arrive(frame(0, 0), SimTime::from_millis(30));
        let recs = sink.play_until(SimTime::from_millis(100));
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].fate, FrameFate::Played);
        assert_eq!(recs[0].delay, Some(SimDuration::from_millis(30)));
        assert_eq!(sink.integrity(), 1.0);
    }

    #[test]
    fn frames_arriving_past_deadline_are_late() {
        let mut sink = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
        sink.arrive(frame(0, 0), SimTime::from_millis(150));
        let recs = sink.play_until(SimTime::from_millis(200));
        assert_eq!(recs[0].fate, FrameFate::Late);
    }

    #[test]
    fn gaps_count_as_lost_when_successors_play() {
        let mut sink = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
        sink.arrive(frame(0, 0), SimTime::from_millis(10));
        // Frame 1 never arrives; frame 2 does.
        sink.arrive(frame(2, 80), SimTime::from_millis(90));
        let recs = sink.play_until(SimTime::from_millis(500));
        let fates: Vec<FrameFate> = recs.iter().map(|r| r.fate).collect();
        assert_eq!(
            fates,
            vec![FrameFate::Played, FrameFate::Lost, FrameFate::Played]
        );
        let (played, late, lost) = sink.tallies();
        assert_eq!((played, late, lost), (2, 0, 1));
        assert!((sink.integrity() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn very_late_arrivals_after_slot_given_up_are_late() {
        let mut sink = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
        sink.arrive(frame(1, 40), SimTime::from_millis(60));
        sink.play_until(SimTime::from_millis(200)); // frame 0 declared lost
        sink.arrive(frame(0, 0), SimTime::from_millis(220));
        let (_, late, lost) = sink.tallies();
        assert_eq!(late, 1, "the stale arrival is recorded late");
        assert_eq!(lost, 1);
    }

    #[test]
    fn playout_not_due_yet_plays_nothing() {
        let mut sink = MediaSink::new(StreamId(0), SimDuration::from_millis(100));
        sink.arrive(frame(0, 0), SimTime::from_millis(10));
        assert!(sink.play_until(SimTime::from_millis(99)).is_empty());
        assert_eq!(sink.play_until(SimTime::from_millis(100)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "frame rate must be positive")]
    fn zero_fps_is_rejected() {
        MediaSource::new(StreamId(0), MediaKind::Audio, 0, 100);
    }

    #[test]
    fn empty_sink_has_full_integrity() {
        let sink = MediaSink::new(StreamId(0), SimDuration::from_millis(1));
        assert_eq!(sink.integrity(), 1.0);
        assert_eq!(sink.tallies(), (0, 0, 0));
    }
}

//! The workloads. Each builds its system from the seed (set-up, timed
//! apart), drives it through a fixed amount of work (the timed
//! region), and audits what came out against figures derived from the
//! parameters — never from golden digests, so any seed works.

pub mod campus;
pub mod check;
pub mod group_edit;
pub mod tcp;
pub mod wire;

use crate::probe::Mode;

/// How much work a round does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A tiny size for `--check`: every audit runs, nothing is timed
    /// for its own sake.
    Quick,
}

/// What one round is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Input seed.
    pub seed: u64,
    /// Work per round.
    pub size: Size,
    /// Inject the workload family's seeded fault, which the audit must
    /// report (see each workload's module docs).
    pub fault: bool,
}

/// What one round measured.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Everything before the timed region.
    pub setup_ns: u64,
    /// The timed region.
    pub wall_ns: u64,
    /// Events dispatched (see README: simulator events, or frames
    /// handled on the sans-IO and TCP paths).
    pub events: u64,
    /// Application-level deliveries.
    pub deliveries: u64,
    /// Payload bytes delivered, headers and acks excluded.
    pub payload_bytes: u64,
    /// Operations the audit expected.
    pub attempted: u64,
    /// Operations the audit found missing or wrong.
    pub failed: u64,
    /// Why, for the first few.
    pub errors: Vec<String>,
    /// Counts that must repeat bit-for-bit for a seed.
    pub exact: Vec<(&'static str, f64)>,
    /// Other per-layer readings the round took itself.
    pub measured: Vec<(&'static str, f64)>,
    /// Actors built during set-up (0 where the notion does not apply).
    pub actors: u64,
    /// Allocations made inside the timed region (traced binary only).
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
}

/// Times the timed region and, in the traced binary, counts what it
/// allocated.
pub struct Stopwatch {
    started: std::time::Instant,
    allocated: (u64, u64),
}

impl Stopwatch {
    /// Starts the clock.
    pub fn start() -> Self {
        Stopwatch {
            allocated: crate::alloc::snapshot(),
            started: std::time::Instant::now(),
        }
    }

    /// Stops it and files the readings under `out`.
    pub fn stop(self, out: &mut Round) {
        out.wall_ns = self.started.elapsed().as_nanos() as u64;
        let (allocs, bytes) = crate::alloc::snapshot();
        out.allocs = allocs - self.allocated.0;
        out.alloc_bytes = bytes - self.allocated.1;
    }
}

impl Round {
    /// Records an audit failure covering `missing` operations.
    pub fn fail(&mut self, missing: u64, why: String) {
        self.failed += missing.max(1);
        if self.errors.len() < 8 {
            self.errors.push(why);
        }
    }

    /// Records a failure unless `got == want`.
    pub fn expect_eq(&mut self, what: &str, got: u64, want: u64) {
        if got != want {
            self.fail(
                got.abs_diff(want),
                format!("{what}: got {got}, want {want}"),
            );
        }
    }
}

/// Runs one round of the named workload.
///
/// # Panics
///
/// Panics on a name `cli::parse` would have refused.
pub fn round<M: Mode>(name: &str, spec: &Spec) -> Round {
    match name {
        "campus_rush" => campus::round::<M>(spec),
        "group_edit" => group_edit::round::<M>(spec, false),
        "group_edit_spans" => group_edit::round::<M>(spec, true),
        "wire_small" => wire::round::<M>(spec, wire::SMALL),
        "wire_bulk" => wire::round::<M>(spec, wire::BULK),
        "tcp_pair" => tcp::round::<M>(spec),
        "check_explore" => check::round::<M>(spec),
        other => panic!("no workload named {other}"),
    }
}

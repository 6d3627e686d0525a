//! Explorer smoke test for the calendar queue: the deep dOPT
//! convergence check explores exactly the schedule space recorded from
//! the `BTreeMap` queue it replaced — same `ExploreStats`, same
//! run/event counts, and byte-identical schedules (the executed `seq`
//! stream of every run) — and the dOPT puzzle surfaces under the same
//! `seed:choices` string.
//!
//! This is the contract that keeps every recorded `seed:choices`
//! counterexample in the repo replayable. The pinned constants were
//! produced at commit 632eeb9, the last one carrying the `BTreeMap`
//! queue, by running this file there with `dopt_deep_sim_on(seed,
//! QueueKind::Legacy)` / `dopt_sim_on(seed, 3, QueueKind::Legacy)` as
//! the factories and reading the values off the failing `assert_eq!`s;
//! the calendar queue produced the same values at that commit.

use std::cell::RefCell;
use std::rc::Rc;

use odp_check::explore::{Budget, Explorer, Invariant, Report};
use odp_check::invariants::replication::{
    dopt_deep_sim, dopt_sim, dopt_sites, fingerprint_for, Converged,
};
use odp_concurrency::dopt::RemoteOp;
use odp_sim::prelude::*;

/// Wraps [`Converged`] and additionally records, per explored run, the
/// sequence numbers of every executed event — a byte-exact transcript
/// of the schedule the explorer drove.
struct ScheduleRecorder {
    inner: Converged,
    current: Vec<u64>,
    runs: Rc<RefCell<Vec<Vec<u64>>>>,
}

impl ScheduleRecorder {
    fn new(sites: Vec<NodeId>, runs: Rc<RefCell<Vec<Vec<u64>>>>) -> Self {
        ScheduleRecorder {
            inner: Converged::new(sites),
            current: Vec::new(),
            runs,
        }
    }
}

impl Invariant<RemoteOp> for ScheduleRecorder {
    fn name(&self) -> &'static str {
        "schedule-recorder"
    }

    fn check_step(&mut self, sim: &Sim<RemoteOp>) -> Result<(), String> {
        self.current
            .extend(sim.last_executed().iter().map(|e| e.desc.seq()));
        self.inner.check_step(sim)
    }

    fn check_quiescent(&mut self, sim: &Sim<RemoteOp>) -> Result<(), String> {
        self.runs
            .borrow_mut()
            .push(std::mem::take(&mut self.current));
        self.inner.check_quiescent(sim)
    }
}

/// The figures of a [`Report`] that must not move.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    runs: usize,
    events: u64,
    complete: bool,
    naive_bound: u64,
    sleep_pruned: usize,
    hash_pruned: usize,
    racing_pairs: u64,
    reduction_factor_bits: u64,
}

fn pinned_of(report: &Report) -> Pinned {
    Pinned {
        runs: report.runs,
        events: report.events,
        complete: report.complete,
        naive_bound: report.stats.naive_bound,
        sleep_pruned: report.stats.sleep_pruned,
        hash_pruned: report.stats.hash_pruned,
        racing_pairs: report.stats.racing_pairs,
        reduction_factor_bits: report.stats.reduction_factor.to_bits(),
    }
}

/// FNV-1a over every schedule's length-prefixed `seq` stream.
fn schedules_digest(schedules: &[Vec<u64>]) -> u64 {
    let mut bytes = Vec::new();
    for run in schedules {
        bytes.extend((run.len() as u64).to_le_bytes());
        for seq in run {
            bytes.extend(seq.to_le_bytes());
        }
    }
    odp_place::content_hash(&bytes)
}

/// The headline check: the deep dOPT exploration (DPOR + state
/// hashing, depth-10 budget) is schedule-for-schedule the recorded one.
#[test]
fn deep_dopt_exploration_matches_the_recorded_schedules() {
    let runs = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&runs);
    let report = Explorer::new(11, Budget::deep()).explore_hashed(
        dopt_deep_sim,
        move || {
            vec![
                Box::new(ScheduleRecorder::new(dopt_sites(2), Rc::clone(&sink)))
                    as Box<dyn Invariant<RemoteOp>>,
            ]
        },
        fingerprint_for(dopt_sites(2)),
    );
    assert!(
        report.violation.is_none(),
        "two-site dOPT must converge: {:?}",
        report.violation
    );
    assert_eq!(
        pinned_of(&report),
        Pinned {
            runs: 12,
            events: 150,
            complete: true,
            naive_bound: 384,
            sleep_pruned: 0,
            hash_pruned: 6,
            racing_pairs: 46,
            reduction_factor_bits: 4629700416936869888, // 32.0
        }
    );
    assert_eq!(schedules_digest(&runs.borrow()), 3355657551402167077);
}

/// The three-site dOPT-puzzle scenario finds the recorded divergence
/// counterexample: same seed, same choice trace, same message.
#[test]
fn dopt_puzzle_counterexample_matches_the_recorded_trace() {
    let report = Explorer::new(7, Budget::default()).explore(
        |seed| dopt_sim(seed, 3),
        || vec![Box::new(Converged::new(dopt_sites(3))) as Box<dyn Invariant<RemoteOp>>],
    );
    assert_eq!(
        pinned_of(&report),
        Pinned {
            runs: 3,
            events: 36,
            complete: false,
            naive_bound: 162,
            sleep_pruned: 0,
            hash_pruned: 0,
            racing_pairs: 6,
            reduction_factor_bits: 4632796641680687104, // 54.0
        }
    );
    let cx = report.violation.expect("dOPT puzzle must surface");
    assert_eq!(cx.trace(), "7:0.1.0.2.0");
    assert_eq!(
        cx.violation,
        "sites n0 and n1 diverged: \"ABbcd\" vs \"Aabcd\""
    );
}

//! The explorer's exact accounting, pinned per suite at seed 42: how
//! many schedules it ran, how many events they executed, the naive
//! bound, both prune counts, the racing pairs, whether the space was
//! covered, and the counterexample it stopped at. A change to the
//! explorer's bookkeeping must leave every row as it is; a change to
//! the reduction itself shows here row by row.
//!
//! Every suite's armed arm, and its disarmed arm where it has one, runs
//! under the smoke budget. The deep table holds every arm whose deep
//! run takes under 2 s in a debug build; `group-total` and
//! `awareness-deep` armed take longer and are left to `odpbench`'s
//! exact counts and the CLI's `explore --deep` output.

use odp_check::suites::{self, Arm, BudgetKind, Suite};

const SEED: u64 = 42;

const SMOKE: &[&str] = &[
    "locks-cycle-2 armed smoke: runs=3 events=13 naive=4 sleep=0 hash=1 races=9 complete=true violation=-",
    "locks-cycle-3 armed smoke: runs=11 events=62 naive=36 sleep=0 hash=5 races=87 complete=true violation=-",
    "group-fifo armed smoke: runs=22 events=1657 naive=54 sleep=12 hash=0 races=106 complete=true violation=-",
    "group-total armed smoke: runs=15 events=653 naive=54 sleep=10 hash=2 races=61 complete=true violation=-",
    "group-total disarmed smoke: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=delivery-order-agreement 42:",
    "dopt-pair armed smoke: runs=1 events=6 naive=2 sleep=0 hash=0 races=0 complete=true violation=-",
    "dopt armed smoke: runs=12 events=155 naive=81 sleep=0 hash=4 races=48 complete=true violation=-",
    "trader-rebalance armed smoke: runs=8 events=377 naive=54 sleep=4 hash=0 races=32 complete=true violation=-",
    "trader-rebalance disarmed smoke: runs=4 events=165 naive=12 sleep=2 hash=0 races=3 complete=false violation=trader-cache-coherent 42:0.0.1.0",
    "trader-federation armed smoke: runs=11 events=53 naive=18 sleep=0 hash=1 races=59 complete=true violation=-",
    "trader-federation disarmed smoke: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=trader-federation-sound 42:0.0.0",
    "telemetry-spans armed smoke: runs=2 events=254 naive=8 sleep=0 hash=0 races=2 complete=true violation=-",
    "telemetry-spans disarmed smoke: runs=1 events=127 naive=0 sleep=0 hash=0 races=0 complete=false violation=telemetry-spans 42:0.0.0",
    "awareness-gating armed smoke: runs=8 events=561 naive=54 sleep=4 hash=0 races=17 complete=true violation=-",
    "awareness-gating disarmed smoke: runs=1 events=133 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0",
    "awareness-deep armed smoke: runs=32 events=1856 naive=81 sleep=20 hash=0 races=161 complete=true violation=-",
    "awareness-deep disarmed smoke: runs=1 events=143 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0",
    "transport-fidelity armed smoke: runs=10 events=2115 naive=81 sleep=6 hash=2 races=54 complete=true violation=-",
    "transport-fidelity disarmed smoke: runs=1 events=959 naive=0 sleep=0 hash=0 races=0 complete=false violation=transport-fidelity 42:0.0.0.0",
    "tcp-driver armed smoke: runs=49 events=1670 naive=81 sleep=20 hash=0 races=476 complete=true violation=-",
    "tcp-driver disarmed smoke: runs=2 events=61 naive=81 sleep=0 hash=0 races=16 complete=false violation=tcp-driver 42:2.0",
    "placement-soundness armed smoke: runs=5 events=1387 naive=24 sleep=3 hash=0 races=69 complete=true violation=-",
    "placement-soundness disarmed smoke: runs=1 events=590 naive=0 sleep=0 hash=0 races=0 complete=false violation=placement-soundness 42:0.0.0.0",
];

const DEEP: &[&str] = &[
    "locks-cycle-2 armed deep: runs=3 events=13 naive=4 sleep=0 hash=1 races=9 complete=true violation=-",
    "locks-cycle-3 armed deep: runs=11 events=62 naive=36 sleep=0 hash=5 races=87 complete=true violation=-",
    "group-fifo armed deep: runs=347 events=16665 naive=196608 sleep=113 hash=152 races=3902 complete=true violation=-",
    "group-total disarmed deep: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=delivery-order-agreement 42:",
    "dopt-pair armed deep: runs=1 events=6 naive=2 sleep=0 hash=0 races=0 complete=true violation=-",
    "dopt armed deep: runs=10 events=125 naive=384 sleep=0 hash=5 races=40 complete=true violation=-",
    "trader-rebalance armed deep: runs=987 events=60188 naive=393216 sleep=158 hash=183 races=12354 complete=true violation=-",
    "trader-rebalance disarmed deep: runs=4 events=165 naive=12 sleep=2 hash=0 races=3 complete=false violation=trader-cache-coherent 42:0.0.1.0",
    "trader-federation armed deep: runs=11 events=53 naive=18 sleep=0 hash=1 races=59 complete=true violation=-",
    "trader-federation disarmed deep: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=trader-federation-sound 42:0.0.0",
    "telemetry-spans armed deep: runs=2 events=254 naive=8 sleep=0 hash=0 races=2 complete=true violation=-",
    "telemetry-spans disarmed deep: runs=1 events=127 naive=0 sleep=0 hash=0 races=0 complete=false violation=telemetry-spans 42:0.0.0",
    "awareness-gating armed deep: runs=232 events=22386 naive=36864 sleep=3 hash=66 races=1575 complete=true violation=-",
    "awareness-gating disarmed deep: runs=1 events=133 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0.0.0.0.0.0",
    "awareness-deep disarmed deep: runs=1 events=143 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0.0.0.0.0.0.0",
    "transport-fidelity armed deep: runs=38 events=3980 naive=196608 sleep=16 hash=19 races=413 complete=true violation=-",
    "transport-fidelity disarmed deep: runs=1 events=959 naive=0 sleep=0 hash=0 races=0 complete=false violation=transport-fidelity 42:0.0.0.0.0.0.0.0.0.0",
    "tcp-driver armed deep: runs=400 events=13370 naive=3888 sleep=105 hash=186 races=6122 complete=true violation=-",
    "tcp-driver disarmed deep: runs=2 events=61 naive=3888 sleep=0 hash=0 races=25 complete=false violation=tcp-driver 42:2.0",
    "placement-soundness armed deep: runs=17 events=3698 naive=3456 sleep=13 hash=0 races=368 complete=true violation=-",
    "placement-soundness disarmed deep: runs=1 events=590 naive=0 sleep=0 hash=0 races=0 complete=false violation=placement-soundness 42:0.0.0.0.0.0.0.0.0.0",
];

fn arm_label(arm: Arm) -> &'static str {
    match arm {
        Arm::Armed => "armed",
        Arm::Disarmed => "disarmed",
    }
}

/// One arm's accounting, in the tables' format.
fn row(suite: &Suite, arm: Arm, kind: BudgetKind) -> String {
    let report = suite.explore(arm, kind, SEED);
    let violation = match &report.violation {
        Some(cx) => format!("{} {}", cx.invariant, cx.trace()),
        None => "-".to_owned(),
    };
    format!(
        "{} {} {}: runs={} events={} naive={} sleep={} hash={} races={} complete={} violation={violation}",
        suite.name,
        arm_label(arm),
        kind.label(),
        report.runs,
        report.events,
        report.stats.naive_bound,
        report.stats.sleep_pruned,
        report.stats.hash_pruned,
        report.stats.racing_pairs,
        report.complete,
    )
}

/// Compares row by row, so a failure names the arm that moved.
fn assert_rows(got: &[String], want: &[&str]) {
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
    assert_eq!(got.len(), want.len(), "row count");
}

#[test]
fn every_suite_keeps_its_smoke_accounting() {
    let mut got = Vec::new();
    for suite in suites::all() {
        got.push(row(&suite, Arm::Armed, BudgetKind::Smoke));
        if suite.known_bad.is_some() {
            got.push(row(&suite, Arm::Disarmed, BudgetKind::Smoke));
        }
    }
    assert_rows(&got, SMOKE);
}

#[test]
fn the_fast_deep_arms_keep_their_accounting() {
    let got: Vec<String> = DEEP
        .iter()
        .map(|line| {
            let mut words = line.split(' ');
            let name = words.next().unwrap_or_default();
            let suite =
                suites::find(name).unwrap_or_else(|| panic!("no suite `{name}` is registered"));
            let arm = match words.next() {
                Some("disarmed") => Arm::Disarmed,
                _ => Arm::Armed,
            };
            row(&suite, arm, BudgetKind::Deep)
        })
        .collect();
    assert_rows(&got, DEEP);
}

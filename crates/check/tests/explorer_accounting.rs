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
    "locks-cycle-2 armed smoke: runs=3 events=13 naive=4 sleep=0 hash=1 races=13 complete=true violation=-",
    "locks-cycle-3 armed smoke: runs=11 events=62 naive=36 sleep=0 hash=5 races=105 complete=true violation=-",
    "group-fifo armed smoke: runs=18 events=2607 naive=54 sleep=1 hash=0 races=655 complete=true violation=-",
    "group-total armed smoke: runs=11 events=1122 naive=54 sleep=3 hash=2 races=971 complete=true violation=-",
    "group-total disarmed smoke: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=delivery-order-agreement 42:",
    "dopt-pair armed smoke: runs=1 events=6 naive=2 sleep=0 hash=0 races=0 complete=true violation=-",
    "dopt armed smoke: runs=9 events=116 naive=81 sleep=0 hash=3 races=41 complete=true violation=-",
    "trader-rebalance armed smoke: runs=8 events=583 naive=54 sleep=1 hash=0 races=164 complete=true violation=-",
    "trader-rebalance disarmed smoke: runs=2 events=148 naive=12 sleep=0 hash=0 races=7 complete=false violation=trader-cache-coherent 42:0.0.1.0",
    "trader-federation armed smoke: runs=10 events=48 naive=18 sleep=0 hash=1 races=55 complete=true violation=-",
    "trader-federation disarmed smoke: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=trader-federation-sound 42:0.0.0",
    "telemetry-spans armed smoke: runs=2 events=254 naive=8 sleep=0 hash=0 races=2 complete=true violation=-",
    "telemetry-spans disarmed smoke: runs=1 events=127 naive=0 sleep=0 hash=0 races=0 complete=false violation=telemetry-spans 42:0.0.0",
    "awareness-gating armed smoke: runs=12 events=1596 naive=54 sleep=0 hash=0 races=90 complete=true violation=-",
    "awareness-gating disarmed smoke: runs=1 events=133 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0",
    "awareness-deep armed smoke: runs=26 events=3718 naive=81 sleep=0 hash=0 races=1182 complete=true violation=-",
    "awareness-deep disarmed smoke: runs=1 events=143 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0",
    "transport-fidelity armed smoke: runs=13 events=10596 naive=81 sleep=0 hash=2 races=10089 complete=true violation=-",
    "transport-fidelity disarmed smoke: runs=1 events=959 naive=0 sleep=0 hash=0 races=0 complete=false violation=transport-fidelity 42:0.0.0.0",
    "tcp-driver armed smoke: runs=30 events=1296 naive=81 sleep=1 hash=0 races=2229 complete=true violation=-",
    "tcp-driver disarmed smoke: runs=3 events=108 naive=81 sleep=0 hash=0 races=152 complete=false violation=tcp-driver 42:0.0.0.2",
    "placement-soundness armed smoke: runs=2 events=671 naive=24 sleep=0 hash=1 races=704 complete=true violation=-",
    "placement-soundness disarmed smoke: runs=1 events=590 naive=0 sleep=0 hash=0 races=0 complete=false violation=placement-soundness 42:0.0.0.0",
];

const DEEP: &[&str] = &[
    "locks-cycle-2 armed deep: runs=3 events=13 naive=4 sleep=0 hash=1 races=13 complete=true violation=-",
    "locks-cycle-3 armed deep: runs=11 events=62 naive=36 sleep=0 hash=5 races=105 complete=true violation=-",
    "group-fifo armed deep: runs=120 events=10815 naive=196608 sleep=12 hash=43 races=2902 complete=true violation=-",
    "group-total disarmed deep: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=delivery-order-agreement 42:",
    "dopt-pair armed deep: runs=1 events=6 naive=2 sleep=0 hash=0 races=0 complete=true violation=-",
    "dopt armed deep: runs=9 events=117 naive=384 sleep=0 hash=3 races=41 complete=true violation=-",
    "trader-rebalance armed deep: runs=483 events=35733 naive=393216 sleep=1 hash=62 races=10118 complete=true violation=-",
    "trader-rebalance disarmed deep: runs=2 events=148 naive=12 sleep=0 hash=0 races=7 complete=false violation=trader-cache-coherent 42:0.0.1.0",
    "trader-federation armed deep: runs=10 events=48 naive=18 sleep=0 hash=1 races=55 complete=true violation=-",
    "trader-federation disarmed deep: runs=1 events=5 naive=0 sleep=0 hash=0 races=0 complete=false violation=trader-federation-sound 42:0.0.0",
    "telemetry-spans armed deep: runs=2 events=254 naive=8 sleep=0 hash=0 races=2 complete=true violation=-",
    "telemetry-spans disarmed deep: runs=1 events=127 naive=0 sleep=0 hash=0 races=0 complete=false violation=telemetry-spans 42:0.0.0",
    "awareness-gating armed deep: runs=70 events=6733 naive=36864 sleep=0 hash=21 races=449 complete=true violation=-",
    "awareness-gating disarmed deep: runs=1 events=133 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0.0.0.0.0.0",
    "awareness-deep disarmed deep: runs=1 events=143 naive=0 sleep=0 hash=0 races=0 complete=false violation=awareness-gating 42:0.0.0.0.0.0.0.0.0.0",
    "transport-fidelity armed deep: runs=32 events=17667 naive=196608 sleep=5 hash=9 races=16702 complete=true violation=-",
    "transport-fidelity disarmed deep: runs=1 events=959 naive=0 sleep=0 hash=0 races=0 complete=false violation=transport-fidelity 42:0.0.0.0.0.0.0.0.0.0",
    "tcp-driver armed deep: runs=237 events=8873 naive=3888 sleep=42 hash=63 races=13216 complete=true violation=-",
    "tcp-driver disarmed deep: runs=13 events=506 naive=3888 sleep=3 hash=1 races=775 complete=false violation=tcp-driver 42:0.0.0.1.1.0",
    "placement-soundness armed deep: runs=4 events=902 naive=3456 sleep=0 hash=3 races=755 complete=true violation=-",
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

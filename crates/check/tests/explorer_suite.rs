//! End-to-end exploration suite over the `odp_check::suites` registry:
//! the checker must *pass* the fixed protocols across every bounded
//! schedule, and must *fail* the seeded known-bad variants — proving
//! the detector actually detects. Each arm of each suite is one named
//! test; only scenarios that are not a registry entry build their own
//! explorer.

use odp_check::explore::{Budget, Counterexample, Explorer, Invariant, ReplayError};
use odp_check::invariants::{locks, replication, tcp_driver, transport};
use odp_check::suites::{self, Arm, BudgetKind, Suite};
use odp_sim::prelude::{ActorHandle, SimTime, Until};

const SEED: u64 = 42;

fn suite(name: &str) -> Suite {
    suites::find(name).unwrap_or_else(|| panic!("no suite `{name}` is registered"))
}

/// The armed arm violates nothing in any schedule of the default
/// budget, and the scenario is not vacuous: it has more than one.
fn holds(suite: Suite) {
    let report = suite.explore(Arm::Armed, BudgetKind::Default, SEED);
    if let Some(cx) = &report.violation {
        panic!("{}: {cx}", suite.name);
    }
    assert!(report.runs > 1, "{} explored one schedule", suite.name);
}

/// The disarmed arm trips the declared invariant with the declared
/// message within the CI smoke budget, the counterexample replays to
/// the same violation, and its trace — the user-facing replay handle —
/// round-trips.
fn caught(suite: Suite) {
    let bad = suite.known_bad.expect("the suite declares a disarmed arm");
    let cx = suite
        .explore(Arm::Disarmed, BudgetKind::Smoke, SEED)
        .violation
        .expect("the disarmed arm must be detected");
    assert_eq!(cx.invariant, bad.invariant);
    assert!(
        cx.violation.contains(bad.needle),
        "unexpected violation: {}",
        cx.violation
    );
    let replayed = suite
        .replay(Arm::Disarmed, BudgetKind::Smoke, SEED, &cx.choices)
        .expect("trace stays in range")
        .expect("counterexample must reproduce");
    assert_eq!(replayed.violation, cx.violation);
    let parsed = Counterexample::parse_trace(&cx.trace());
    assert_eq!(parsed, Some((SEED, cx.choices)));
}

/// One named test per arm, so a failure says which protocol broke or
/// which detector went blind.
macro_rules! arm_tests {
    ($($test:ident => $driver:ident $suite:literal;)+) => {$(
        #[test]
        fn $test() {
            $driver(suite($suite));
        }
    )+};
}

arm_tests! {
    group_fifo_holds_in_every_schedule => holds "group-fifo";
    group_total_order_agreement_holds_in_every_schedule => holds "group-total";
    explorer_finds_fifo_passed_off_as_total_order => caught "group-total";
    dopt_six_edits_converge_in_every_schedule => holds "dopt";
    trader_rebalance_is_coherent_in_every_schedule => holds "trader-rebalance";
    explorer_finds_the_silent_transfer_coherence_bug => caught "trader-rebalance";
    federated_imports_are_sound_in_every_schedule => holds "trader-federation";
    explorer_finds_the_unaccounted_penalty_bug => caught "trader-federation";
    telemetry_spans_are_well_formed_in_every_schedule => holds "telemetry-spans";
    explorer_finds_the_leaked_span => caught "telemetry-spans";
    awareness_gating_holds_in_every_schedule => holds "awareness-gating";
    explorer_finds_the_disarmed_rights_gate => caught "awareness-gating";
    awareness_deep_holds_in_every_schedule => holds "awareness-deep";
    explorer_finds_the_disarmed_rights_gate_under_four_publications => caught "awareness-deep";
    transport_fidelity_holds_in_every_schedule => holds "transport-fidelity";
    explorer_finds_the_disarmed_forward_dedup => caught "transport-fidelity";
    tcp_driver_link_table_holds_in_every_schedule => holds "tcp-driver";
    explorer_finds_a_stale_gone_taking_its_successors_link => caught "tcp-driver";
    placement_soundness_holds_in_every_schedule => holds "placement-soundness";
    explorer_finds_the_disarmed_write_freeze => caught "placement-soundness";
}

/// Every 2-, 3- and 4-transaction lock cycle resolves by aborting
/// exactly the youngest transaction, under every explored acquisition
/// order. Two and three are the registered `locks-cycle-*` suites.
#[test]
fn txn_cycles_abort_exactly_the_youngest_in_every_schedule() {
    for n in 2..=4 {
        holds(suites::locks_cycle(n));
    }
}

/// The default (un-permuted) schedule of the ring scenario always forms
/// the full deadlock, and resolution picks the youngest victim.
#[test]
fn default_schedule_deadlocks_and_aborts_the_youngest() {
    for n in 2..=4 {
        let mut sim = locks::cycle_sim(SEED, n);
        sim.run(Until::At(SimTime::from_secs(1)));
        let host: &locks::TxnHost = sim.get(ActorHandle::of(locks::HOST)).expect("host");
        let youngest = *host.txn_ids().last().expect("txns");
        assert_eq!(
            host.aborted,
            vec![youngest],
            "{n}-cycle must abort exactly the youngest"
        );
        assert_eq!(host.committed.len(), n - 1, "{n}-cycle survivors commit");
        assert_eq!(host.manager().active(), 0);
    }
}

/// Two dOPT replicas converge under every delivery order (the provable
/// case). Their two deliveries commute, so one schedule covers the space:
/// completeness, not a run count, is what shows nothing was skipped.
#[test]
fn dopt_pair_converges_in_every_schedule() {
    let report = suite("dopt-pair").explore(Arm::Armed, BudgetKind::Default, SEED);
    assert!(report.violation.is_none(), "{}", report.violation.unwrap());
    assert!(report.complete);
}

/// The documented "dOPT puzzle": with three sites and mutually
/// concurrent edits, some delivery order diverges. The explorer
/// surfaces the divergence the module docs only assert.
#[test]
fn explorer_exhibits_the_dopt_puzzle_on_three_sites() {
    let budget = Budget {
        max_runs: 800,
        ..Budget::default()
    };
    let report = Explorer::new(SEED, budget).explore(
        |s| replication::dopt_sim(s, 3),
        || {
            vec![
                Box::new(replication::Converged::new(replication::dopt_sites(3)))
                    as Box<dyn Invariant<odp_concurrency::dopt::RemoteOp>>,
            ]
        },
    );
    let cx = report
        .violation
        .expect("three-site dOPT must diverge somewhere");
    assert_eq!(cx.invariant, "dopt-convergence");
}

/// ROADMAP item 6, pinned: a connection is whoever its `Hello` says.
/// An impostor's claim to node 0, read at node 1 after the real node
/// 0's, takes node 0's link, and node 0 never delivers what node 1
/// sends it next. `tcp-driver` leaves this interleaving out until a
/// checked claim guards it; this test fails once one does.
#[test]
fn a_duplicate_hello_claim_takes_the_dialers_link() {
    let report = Explorer::new(SEED, Budget::default()).explore_hashed(
        tcp_driver::duplicate_claim_sim,
        || vec![Box::new(tcp_driver::TcpDriverSound) as Box<dyn Invariant<_>>],
        transport::fingerprint,
    );
    let cx = report
        .violation
        .expect("a duplicate claim steals the link in some schedule");
    assert_eq!(cx.trace(), "42:0.0.0.0.0.2");
    assert_eq!(cx.invariant, "tcp-driver");
    assert!(
        cx.violation.contains(r#"expected [(NodeId(1), "b-late")"#),
        "{}",
        cx.violation
    );
}

/// Every suite either declares a known-bad arm or is listed here with
/// the reason it has none; a new suite cannot join this list unseen.
#[test]
fn only_these_suites_lack_a_disarmed_arm() {
    let knob_free = [
        "locks-cycle-2", // TxnManager has no switch for victim choice
        "locks-cycle-3", // as locks-cycle-2
        "group-fifo",    // an origin's multicasts are 40 ms apart: none reorders
        "dopt-pair",     // two-site dOPT is the provable case
        "dopt",          // as dopt-pair; three sites diverge in the test above
    ];
    let unarmed: Vec<String> = suites::all()
        .into_iter()
        .filter(|suite| suite.known_bad.is_none())
        .map(|suite| suite.name)
        .collect();
    assert_eq!(unarmed, knob_free);
}

/// A `--deep` counterexample replays under the budget that found it,
/// and a shallower budget refuses it instead of reading six of its ten
/// choices and calling the rest of the default schedule clean. Seed 71
/// is one whose first fifteen schedules agree.
#[test]
fn deep_counterexample_replays_only_under_the_deep_budget() {
    let suite = suite("group-total");
    let found = suite.explore(Arm::Disarmed, BudgetKind::Deep, 71);
    let cx = found.violation.expect("FIFO diverges in some schedule");
    assert!(found.runs > 1 && cx.choices.len() > 6, "{}", cx.trace());
    let replayed = suite.replay(Arm::Disarmed, BudgetKind::Deep, 71, &cx.choices);
    assert_eq!(replayed, Ok(Some(cx.clone())));
    let shallow = suite.replay(Arm::Disarmed, BudgetKind::Default, 71, &cx.choices);
    let refused = ReplayError::UnconsumedChoices {
        consumed: 6,
        prescribed: cx.choices.len(),
    };
    assert_eq!(shallow, Err(refused));
}

//! Differential suite for the reduced explorer: on small, fully
//! enumerable schedule spaces, DPOR (with and without state hashing)
//! must reach *exactly* the same final states and catch *exactly* the
//! same seeded violations as exhaustive enumeration — in fewer runs.
//! A deliberately disarmed dependence relation must demonstrably miss
//! a seeded violation, proving the dependence analysis is what makes
//! the reduction sound rather than lucky.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use odp_check::explore::{hash_of, Budget, Explorer, Invariant, Reduction, ReplayError};
use odp_sim::prelude::*;

const SEED: u64 = 7;

/// Separator between per-receiver delivery orders in a recorded key.
const SEP: u64 = u64::MAX;

/// A receiver that logs payloads in arrival order — the order *is* the
/// state, so every distinct interleaving of same-receiver messages is a
/// distinct final state, and disjoint-receiver messages commute.
struct OrderLog {
    order: Vec<u64>,
}

impl Actor<u64> for OrderLog {
    fn on_message(&mut self, _ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
        self.order.push(msg);
    }
}

/// The workload source (no actor; messages only originate here).
const DRIVER: NodeId = NodeId(9);

/// `payloads[i]` is delivered to `receivers[i]`, all injected at the
/// same instant so every delivery is mutually concurrent.
fn fan_sim(seed: u64, receivers: &[NodeId], payloads: &[(NodeId, u64)]) -> Sim<u64> {
    let mut sim = SimBuilder::new(seed).build();
    for &r in receivers {
        sim.add_actor(r, OrderLog { order: Vec::new() });
    }
    for &(to, payload) in payloads {
        sim.inject(SimTime::from_millis(1), DRIVER, to, payload);
    }
    sim
}

/// Records each run's final `(per-receiver order)` key into a shared
/// set; never fails. The recorded sets are what the differential
/// assertions compare across reduction modes.
struct RecordFinal {
    receivers: Vec<NodeId>,
    seen: Rc<RefCell<BTreeSet<Vec<u64>>>>,
}

impl Invariant<u64> for RecordFinal {
    fn name(&self) -> &'static str {
        "record-final"
    }

    fn check_quiescent(&mut self, sim: &Sim<u64>) -> Result<(), String> {
        let mut key = Vec::new();
        for &r in &self.receivers {
            let log: &OrderLog = sim.get(ActorHandle::of(r)).ok_or("receiver missing")?;
            key.extend(log.order.iter().copied());
            key.push(SEP);
        }
        self.seen.borrow_mut().insert(key);
        Ok(())
    }
}

/// Fails iff the receiver saw exactly `forbidden` — a violation seeded
/// on one specific non-default delivery order.
struct BadOrder {
    receiver: NodeId,
    forbidden: Vec<u64>,
}

impl Invariant<u64> for BadOrder {
    fn name(&self) -> &'static str {
        "bad-order"
    }

    fn check_quiescent(&mut self, sim: &Sim<u64>) -> Result<(), String> {
        let log: &OrderLog = sim
            .get(ActorHandle::of(self.receiver))
            .ok_or("receiver missing")?;
        if log.order == self.forbidden {
            return Err(format!("forbidden delivery order {:?} reached", log.order));
        }
        Ok(())
    }
}

/// Canonical fingerprint for the fan-in harness: the per-receiver
/// orders (everything the invariants read).
fn order_fingerprint(receivers: Vec<NodeId>) -> impl Fn(&Sim<u64>) -> u64 {
    move |sim| {
        let mut key: Vec<u64> = Vec::new();
        for &r in &receivers {
            if let Some(log) = sim.get::<OrderLog>(ActorHandle::of(r)) {
                key.extend(log.order.iter().copied());
                key.push(SEP);
            }
        }
        hash_of(&key)
    }
}

fn recorder_invs(
    receivers: Vec<NodeId>,
    seen: Rc<RefCell<BTreeSet<Vec<u64>>>>,
) -> impl Fn() -> Vec<Box<dyn Invariant<u64>>> {
    move || {
        vec![Box::new(RecordFinal {
            receivers: receivers.clone(),
            seen: seen.clone(),
        }) as Box<dyn Invariant<u64>>]
    }
}

/// Three same-receiver messages: every pair is dependent, so DPOR may
/// not skip anything — exhaustive enumeration, plain DPOR and
/// DPOR+hashing must each reach all 3! = 6 final orders.
#[test]
fn fully_dependent_three_message_space_reaches_all_orders_in_every_mode() {
    let receivers = vec![NodeId(0)];
    let payloads = [(NodeId(0), 1), (NodeId(0), 2), (NodeId(0), 3)];
    let sim = |s| fan_sim(s, &[NodeId(0)], &payloads);

    let mut sets = Vec::new();
    let mut runs = Vec::new();
    for mode in [Reduction::Full, Reduction::Dpor] {
        let seen = Rc::new(RefCell::new(BTreeSet::new()));
        let report = Explorer::new(SEED, Budget::default())
            .with_reduction(mode)
            .explore(sim, recorder_invs(receivers.clone(), seen.clone()));
        assert!(report.complete, "{mode:?} must exhaust the space");
        assert!(report.violation.is_none());
        sets.push(seen.borrow().clone());
        runs.push(report.runs);
    }
    let seen = Rc::new(RefCell::new(BTreeSet::new()));
    let report = Explorer::new(SEED, Budget::default()).explore_hashed(
        sim,
        recorder_invs(receivers.clone(), seen.clone()),
        order_fingerprint(receivers),
    );
    assert!(report.complete);
    sets.push(seen.borrow().clone());
    runs.push(report.runs);

    assert_eq!(sets[0].len(), 6, "exhaustive must reach all 3! orders");
    assert_eq!(sets[0], sets[1], "DPOR lost or invented a final state");
    assert_eq!(sets[0], sets[2], "hashing lost or invented a final state");
    assert_eq!(runs[0], 6);
    assert_eq!(runs[1], 6, "a fully dependent space admits no reduction");
}

/// Two disjoint receivers with two messages each: cross-receiver pairs
/// commute, so exhaustive enumeration wastes 24 runs on 2! x 2! = 4
/// distinct final states. DPOR must reach exactly the same state set in
/// strictly fewer runs.
#[test]
fn disjoint_receivers_dpor_reaches_full_state_set_in_fewer_runs() {
    let receivers = vec![NodeId(0), NodeId(1)];
    let payloads = [
        (NodeId(0), 1),
        (NodeId(0), 2),
        (NodeId(1), 11),
        (NodeId(1), 12),
    ];
    let budget = Budget {
        max_branch: 4,
        max_runs: 200,
        ..Budget::default()
    };
    let sim = |s| fan_sim(s, &[NodeId(0), NodeId(1)], &payloads);

    let full_seen = Rc::new(RefCell::new(BTreeSet::new()));
    let full = Explorer::new(SEED, budget)
        .with_reduction(Reduction::Full)
        .explore(sim, recorder_invs(receivers.clone(), full_seen.clone()));
    assert!(full.complete && full.violation.is_none());
    assert_eq!(full.runs, 24, "exhaustive enumeration of 4 deliveries");

    let dpor_seen = Rc::new(RefCell::new(BTreeSet::new()));
    let dpor = Explorer::new(SEED, budget)
        .explore(sim, recorder_invs(receivers.clone(), dpor_seen.clone()));
    assert!(dpor.complete && dpor.violation.is_none());

    let hash_seen = Rc::new(RefCell::new(BTreeSet::new()));
    let hashed = Explorer::new(SEED, budget).explore_hashed(
        sim,
        recorder_invs(receivers.clone(), hash_seen.clone()),
        order_fingerprint(receivers),
    );
    assert!(hashed.complete && hashed.violation.is_none());

    assert_eq!(full_seen.borrow().len(), 4, "2! x 2! distinct final states");
    assert_eq!(*full_seen.borrow(), *dpor_seen.borrow());
    assert_eq!(*full_seen.borrow(), *hash_seen.borrow());
    assert!(
        dpor.runs < full.runs,
        "DPOR must prune commuting reversals ({} vs {})",
        dpor.runs,
        full.runs
    );
    assert!(hashed.runs <= dpor.runs);
}

/// A violation seeded on one specific non-default order: exhaustive
/// enumeration, DPOR and DPOR+hashing must all find it (same invariant,
/// same forbidden order), and each counterexample must replay.
#[test]
fn every_sound_mode_finds_the_seeded_bad_order_and_it_replays() {
    let payloads = [(NodeId(0), 1), (NodeId(0), 2), (NodeId(0), 3)];
    let sim = |s| fan_sim(s, &[NodeId(0)], &payloads);
    let invs = || {
        vec![Box::new(BadOrder {
            receiver: NodeId(0),
            forbidden: vec![3, 2, 1],
        }) as Box<dyn Invariant<u64>>]
    };

    let mut traces = Vec::new();
    for mode in [Reduction::Full, Reduction::Dpor] {
        let ex = Explorer::new(SEED, Budget::default()).with_reduction(mode);
        let report = ex.explore(sim, invs);
        let cx = report
            .violation
            .unwrap_or_else(|| panic!("{mode:?} missed the seeded bad order"));
        assert_eq!(cx.invariant, "bad-order");
        assert!(cx.violation.contains("[3, 2, 1]"));
        let replayed = ex
            .replay(sim, invs, &cx.choices)
            .expect("trace stays in range")
            .expect("counterexample must reproduce");
        assert_eq!(replayed.violation, cx.violation);
        traces.push(cx.trace());
    }

    let ex = Explorer::new(SEED, Budget::default());
    let report = ex.explore_hashed(sim, invs, order_fingerprint(vec![NodeId(0)]));
    let cx = report
        .violation
        .expect("DPOR+hashing missed the seeded bad order");
    assert_eq!(cx.invariant, "bad-order");
    let replayed = ex
        .replay(sim, invs, &cx.choices)
        .expect("trace stays in range")
        .expect("counterexample must reproduce");
    assert_eq!(replayed.violation, cx.violation);
}

/// The known-bad reducer: declaring every pair independent collapses
/// the space to a single run that reports itself `complete` — and
/// misses the violation exhaustive enumeration finds. This is the
/// soundness counterweight to the differential tests above: the
/// dependence relation is load-bearing, not decorative.
#[test]
fn disarmed_dependence_claims_completeness_but_misses_the_violation() {
    let payloads = [(NodeId(0), 1), (NodeId(0), 2), (NodeId(0), 3)];
    let sim = |s| fan_sim(s, &[NodeId(0)], &payloads);
    let invs = || {
        vec![Box::new(BadOrder {
            receiver: NodeId(0),
            forbidden: vec![3, 2, 1],
        }) as Box<dyn Invariant<u64>>]
    };

    let disarmed = Explorer::new(SEED, Budget::default())
        .with_reduction(Reduction::DisarmedDependence)
        .explore(sim, invs);
    assert_eq!(disarmed.runs, 1, "no dependence, no backtracking");
    assert!(
        disarmed.complete,
        "the unsound reducer even claims completeness"
    );
    assert!(
        disarmed.violation.is_none(),
        "the default schedule does not exhibit the bug"
    );

    let full = Explorer::new(SEED, Budget::default())
        .with_reduction(Reduction::Full)
        .explore(sim, invs);
    assert!(
        full.violation.is_some(),
        "exhaustive enumeration finds what the disarmed reducer missed"
    );
}

/// A stale or hand-mangled trace whose choice index exceeds the branch
/// point's candidate count surfaces as a typed error, not a silently
/// clamped (wrong) schedule.
#[test]
fn replay_reports_out_of_range_choices_as_typed_errors() {
    let payloads = [(NodeId(0), 1), (NodeId(0), 2), (NodeId(0), 3)];
    let sim = |s| fan_sim(s, &[NodeId(0)], &payloads);
    let invs = || Vec::<Box<dyn Invariant<u64>>>::new();

    let err = Explorer::new(SEED, Budget::default())
        .replay(sim, invs, &[42])
        .expect_err("choice 42 cannot be in range");
    assert!(err.to_string().contains("out of range"));
    let ReplayError::ChoiceOutOfRange {
        position,
        choice,
        candidates,
    } = err
    else {
        panic!("expected an out-of-range choice, got {err:?}");
    };
    assert_eq!(position, 0);
    assert_eq!(choice, 42);
    assert_eq!(candidates, 3);
}

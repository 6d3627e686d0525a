//! The `odp-check` command-line tool.
//!
//! ```text
//! odp-check lint [ROOT]          run the determinism lint pass
//! odp-check explore [--smoke|--deep]    run every invariant suite
//! odp-check explore <CHECK> [--smoke|--deep] [--json PATH] [--min-reduction X]
//! odp-check replay <CHECK> <TRACE>   re-run one schedule (seed:c0.c1...)
//! odp-check list                 list the invariant suites
//! ```
//!
//! Exits non-zero on any lint finding, invariant violation, or
//! `--min-reduction` regression. `--json` writes the per-check
//! exploration statistics (runs, prunes, reduction factor) as a
//! machine-readable artifact (`BENCH_check.json` in CI).

use std::process::ExitCode;

use odp_check::explore::{Budget, Counterexample, Explorer, Invariant, ReplayError, Report};
use odp_check::invariants::{
    awareness, federation, groupcomm, locks, placement, replication, telemetry, trader, transport,
};
use odp_check::lint;
use odp_groupcomm::multicast::Ordering;
use odp_sim::time::SimTime;

/// Which of the three stock budgets a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BudgetKind {
    Smoke,
    Default,
    Deep,
}

impl BudgetKind {
    fn label(self) -> &'static str {
        match self {
            BudgetKind::Smoke => "smoke",
            BudgetKind::Default => "default",
            BudgetKind::Deep => "deep",
        }
    }
}

/// The replay entry point of a registered check.
type ReplayFn = fn(u64, Budget, &[usize]) -> Result<Option<Counterexample>, ReplayError>;

/// One named invariant suite: a harness factory plus its invariants,
/// with a budget tuned to its schedule space.
struct Check {
    name: &'static str,
    about: &'static str,
    run: fn(u64, Budget) -> Report,
    replay: ReplayFn,
    budget: fn(BudgetKind) -> Budget,
}

fn plain_budget(kind: BudgetKind) -> Budget {
    match kind {
        BudgetKind::Smoke => Budget::smoke(),
        BudgetKind::Default => Budget::default(),
        BudgetKind::Deep => Budget::deep(),
    }
}

fn horizon_budget(kind: BudgetKind) -> Budget {
    plain_budget(kind).with_horizon(SimTime::from_secs(2))
}

fn locks_invs(n: usize) -> Vec<Box<dyn Invariant<locks::TxnHarnessMsg>>> {
    vec![
        Box::new(locks::LockTableConsistent),
        Box::new(locks::DeadlockResolved::new(n)),
    ]
}

fn run_locks(n: usize, seed: u64, budget: Budget) -> Report {
    Explorer::new(seed, budget).explore_hashed(
        |s| locks::cycle_sim(s, n),
        || locks_invs(n),
        locks::fingerprint,
    )
}

fn replay_locks(
    n: usize,
    seed: u64,
    budget: Budget,
    choices: &[usize],
) -> Result<Option<Counterexample>, ReplayError> {
    Explorer::new(seed, budget).replay(|s| locks::cycle_sim(s, n), || locks_invs(n), choices)
}

fn group_invs(ordering: Ordering) -> Vec<Box<dyn Invariant<odp_groupcomm::multicast::GcMsg<u64>>>> {
    let members = groupcomm::group_members();
    let mut invs: Vec<Box<dyn Invariant<_>>> =
        vec![Box::new(groupcomm::VClockMonotone::new(members.clone()))];
    match ordering {
        Ordering::Fifo => invs.push(Box::new(groupcomm::FifoDelivery::new(members, 2))),
        Ordering::Total => invs.push(Box::new(groupcomm::DeliveryAgreement::new(members))),
        Ordering::Causal | Ordering::Unordered => {}
    }
    invs
}

fn run_group(ordering: Ordering, seed: u64, budget: Budget) -> Report {
    Explorer::new(seed, budget).explore_hashed(
        |s| groupcomm::group_sim(s, ordering, 2),
        || group_invs(ordering),
        groupcomm::fingerprint,
    )
}

fn replay_group(
    ordering: Ordering,
    seed: u64,
    budget: Budget,
    choices: &[usize],
) -> Result<Option<Counterexample>, ReplayError> {
    Explorer::new(seed, budget).replay(
        |s| groupcomm::group_sim(s, ordering, 2),
        || group_invs(ordering),
        choices,
    )
}

fn dopt_invs(n: usize) -> Vec<Box<dyn Invariant<odp_concurrency::dopt::RemoteOp>>> {
    vec![Box::new(replication::Converged::new(
        replication::dopt_sites(n),
    ))]
}

fn trader_invs() -> Vec<Box<dyn Invariant<odp_trader::actors::TraderMsg>>> {
    vec![Box::new(trader::CacheCoherent::for_rebalance_sim())]
}

fn federation_invs() -> Vec<Box<dyn Invariant<federation::FedMsg>>> {
    vec![Box::new(federation::FederationSound)]
}

fn telemetry_invs() -> Vec<Box<dyn Invariant<odp_groupcomm::multicast::GcMsg<String>>>> {
    vec![Box::new(telemetry::TelemetrySpans)]
}

fn awareness_invs(
) -> Vec<Box<dyn Invariant<odp_groupcomm::multicast::GcMsg<odp_awareness::dist::BusWire>>>> {
    vec![Box::new(awareness::RightsGated::for_gating_sim())]
}

fn transport_invs() -> Vec<Box<dyn Invariant<transport::TransportMsg>>> {
    vec![Box::new(transport::TransportFidelity::for_transport_sim())]
}

fn placement_invs() -> Vec<Box<dyn Invariant<odp_place::wire::PlaceWire>>> {
    vec![Box::new(placement::PlacementSound::for_placement_sim())]
}

const CHECKS: &[Check] = &[
    Check {
        name: "locks-cycle-2",
        about: "strict 2PL: 2-txn lock cycle resolves, victim is youngest",
        run: |seed, b| run_locks(2, seed, b),
        replay: |seed, b, c| replay_locks(2, seed, b, c),
        budget: plain_budget,
    },
    Check {
        name: "locks-cycle-3",
        about: "strict 2PL: 3-txn lock cycle resolves, victim is youngest",
        run: |seed, b| run_locks(3, seed, b),
        replay: |seed, b, c| replay_locks(3, seed, b, c),
        budget: plain_budget,
    },
    Check {
        name: "group-fifo",
        about: "multicast: vclock monotone + per-origin FIFO delivery",
        run: |seed, b| run_group(Ordering::Fifo, seed, b),
        replay: |seed, b, c| replay_group(Ordering::Fifo, seed, b, c),
        budget: horizon_budget,
    },
    Check {
        name: "group-total",
        about: "multicast: vclock monotone + total-order delivery agreement",
        run: |seed, b| run_group(Ordering::Total, seed, b),
        replay: |seed, b, c| replay_group(Ordering::Total, seed, b, c),
        budget: horizon_budget,
    },
    Check {
        name: "dopt-pair",
        about: "dOPT: two concurrent replicas converge at quiescence",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| replication::dopt_sim(s, 2),
                || dopt_invs(2),
                replication::fingerprint_for(replication::dopt_sites(2)),
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(|s| replication::dopt_sim(s, 2), || dopt_invs(2), c)
        },
        budget: plain_budget,
    },
    Check {
        name: "dopt",
        about: "dOPT: six concurrent edits across two replicas converge (deep DPOR space)",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                replication::dopt_deep_sim,
                || dopt_invs(2),
                replication::fingerprint_for(replication::dopt_sites(2)),
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(replication::dopt_deep_sim, || dopt_invs(2), c)
        },
        budget: plain_budget,
    },
    Check {
        name: "trader-rebalance",
        about: "trader: importer caches stay coherent across a ring change",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| trader::rebalance_sim(s, true),
                trader_invs,
                trader::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(|s| trader::rebalance_sim(s, true), trader_invs, c)
        },
        budget: horizon_budget,
    },
    Check {
        name: "trader-federation",
        about: "trader: federated imports are scope-sound and penalty-accounted",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| federation::federation_sim(s, true),
                federation_invs,
                federation::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(
                |s| federation::federation_sim(s, true),
                federation_invs,
                c,
            )
        },
        budget: plain_budget,
    },
    Check {
        name: "telemetry-spans",
        about: "telemetry: every span closes, parents precede children, DAGs acyclic",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| telemetry::telemetry_sim(s, true),
                telemetry_invs,
                telemetry::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(|s| telemetry::telemetry_sim(s, true), telemetry_invs, c)
        },
        budget: horizon_budget,
    },
    Check {
        name: "awareness-gating",
        about: "awareness: no event reaches an observer without rights on its artefact",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| awareness::gating_sim(s, true),
                awareness_invs,
                awareness::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(|s| awareness::gating_sim(s, true), awareness_invs, c)
        },
        budget: horizon_budget,
    },
    Check {
        name: "awareness-deep",
        about: "awareness: four racing publications stay rights-gated (deep DPOR space)",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| awareness::gating_deep_sim(s, true),
                awareness_invs,
                awareness::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(
                |s| awareness::gating_deep_sim(s, true),
                awareness_invs,
                c,
            )
        },
        budget: horizon_budget,
    },
    Check {
        name: "transport-fidelity",
        about: "net: no seq gaps after reconnect, forwarded broadcasts exactly-once",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| transport::transport_sim(s, true),
                transport_invs,
                transport::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(|s| transport::transport_sim(s, true), transport_invs, c)
        },
        budget: horizon_budget,
    },
    Check {
        name: "placement-soundness",
        about: "place: migration decisions replay from recorded inputs, transfers exactly-once",
        run: |seed, b| {
            Explorer::new(seed, b).explore_hashed(
                |s| placement::placement_sim(s, true),
                placement_invs,
                placement::fingerprint,
            )
        },
        replay: |seed, b, c| {
            Explorer::new(seed, b).replay(|s| placement::placement_sim(s, true), placement_invs, c)
        },
        budget: horizon_budget,
    },
];

const DEFAULT_SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  odp-check lint [ROOT]\n  odp-check explore [CHECK] [--smoke|--deep] [--seed N] \
         [--json PATH] [--min-reduction X]\n  \
         odp-check replay <CHECK> <TRACE>\n  odp-check list"
    );
    ExitCode::from(2)
}

fn cmd_lint(root_arg: Option<&str>) -> ExitCode {
    let start = match root_arg {
        Some(r) => std::path::PathBuf::from(r),
        None => match std::env::current_dir() {
            Ok(d) => d,
            Err(e) => {
                eprintln!("odp-check: cannot determine working directory: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let root = lint::workspace_root(&start).unwrap_or(start);
    match lint::run(&root, &lint::LintConfig::default()) {
        Ok(diags) => {
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                println!("odp-check lint: clean ({})", root.display());
                ExitCode::SUCCESS
            } else {
                eprintln!("odp-check lint: {} finding(s)", diags.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("odp-check lint: {e}");
            ExitCode::FAILURE
        }
    }
}

fn find_check(name: &str) -> Option<&'static Check> {
    CHECKS.iter().find(|c| c.name == name)
}

fn stats_json(seed: u64, kind: BudgetKind, rows: &[(&'static str, Report)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"odp-check/explore-stats/v1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"budget\": \"{}\",\n", kind.label()));
    out.push_str("  \"checks\": [\n");
    for (i, (name, report)) in rows.iter().enumerate() {
        let violation = match &report.violation {
            Some(cx) => odp_telemetry::report::json_string(&cx.trace()),
            None => "null".to_owned(),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"runs\": {}, \"events\": {}, \
             \"naive_bound\": {}, \"sleep_pruned\": {}, \"hash_pruned\": {}, \
             \"racing_pairs\": {}, \"reduction_factor\": {:.2}, \
             \"complete\": {}, \"violation\": {violation}}}{}\n",
            report.runs,
            report.events,
            report.stats.naive_bound,
            report.stats.sleep_pruned,
            report.stats.hash_pruned,
            report.stats.racing_pairs,
            report.stats.reduction_factor,
            report.complete,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn cmd_explore(
    which: Option<&str>,
    kind: BudgetKind,
    seed: u64,
    json: Option<&str>,
    min_reduction: Option<f64>,
) -> ExitCode {
    let selected: Vec<&Check> = match which {
        Some(name) => match find_check(name) {
            Some(c) => vec![c],
            None => {
                eprintln!("odp-check: unknown check `{name}` (try `odp-check list`)");
                return ExitCode::from(2);
            }
        },
        None => CHECKS.iter().collect(),
    };
    let mut failed = false;
    let mut rows: Vec<(&'static str, Report)> = Vec::new();
    for check in selected {
        let report = (check.run)(seed, (check.budget)(kind));
        let coverage = if report.complete {
            "complete"
        } else {
            "bounded"
        };
        let s = &report.stats;
        match &report.violation {
            Some(cx) => {
                failed = true;
                println!(
                    "FAIL {} — {} ({} runs, {} events)\n     {}",
                    check.name, check.about, report.runs, report.events, cx
                );
                println!(
                    "     replay: odp-check replay {} {}",
                    check.name,
                    cx.trace()
                );
            }
            None => {
                println!(
                    "ok   {} — {} ({} runs of ~{} naive, {} sleep- / {} hash-pruned, \
                     {} races, {:.1}x reduction, {} events, {coverage})",
                    check.name,
                    check.about,
                    report.runs,
                    s.naive_bound,
                    s.sleep_pruned,
                    s.hash_pruned,
                    s.racing_pairs,
                    s.reduction_factor,
                    report.events
                );
            }
        }
        if let Some(floor) = min_reduction {
            if report.stats.reduction_factor < floor {
                failed = true;
                println!(
                    "FAIL {} — reduction factor {:.2} regressed below the floor {floor:.2}",
                    check.name, report.stats.reduction_factor
                );
            }
        }
        rows.push((check.name, report));
    }
    if let Some(path) = json {
        let body = stats_json(seed, kind, &rows);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("odp-check: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("stats written to {path}");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_replay(name: &str, trace: &str) -> ExitCode {
    let Some(check) = find_check(name) else {
        eprintln!("odp-check: unknown check `{name}` (try `odp-check list`)");
        return ExitCode::from(2);
    };
    let Some((seed, choices)) = Counterexample::parse_trace(trace) else {
        eprintln!("odp-check: malformed trace `{trace}` (expected seed:c0.c1...)");
        return ExitCode::from(2);
    };
    match (check.replay)(seed, (check.budget)(BudgetKind::Default), &choices) {
        Ok(Some(cx)) => {
            println!("reproduced: {cx}");
            ExitCode::FAILURE
        }
        Ok(None) => {
            println!("schedule {trace} runs clean for {name}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("odp-check: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut kind = BudgetKind::Default;
    let mut seed = DEFAULT_SEED;
    let mut json: Option<&str> = None;
    let mut min_reduction: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => kind = BudgetKind::Smoke,
            "--deep" => kind = BudgetKind::Deep,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--json" => match it.next() {
                Some(v) => json = Some(v.as_str()),
                None => return usage(),
            },
            "--min-reduction" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => min_reduction = Some(v),
                None => return usage(),
            },
            "-h" | "--help" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => return usage(),
            other => positional.push(other),
        }
    }
    match positional.as_slice() {
        ["lint"] => cmd_lint(None),
        ["lint", root] => cmd_lint(Some(root)),
        ["explore"] => cmd_explore(None, kind, seed, json, min_reduction),
        ["explore", name] => cmd_explore(Some(name), kind, seed, json, min_reduction),
        ["replay", name, trace] => cmd_replay(name, trace),
        ["list"] => {
            for c in CHECKS {
                println!("{:18} {}", c.name, c.about);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

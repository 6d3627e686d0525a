//! The `odp-check` command-line tool.
//!
//! ```text
//! odp-check lint [ROOT]          run the workspace lint pass
//! odp-check explore [--smoke|--deep]    run every invariant suite
//! odp-check explore <CHECK> [--smoke|--deep] [--json PATH] [--min-reduction X]
//! odp-check replay <CHECK> <TRACE> [--smoke|--deep]
//!                                re-run one schedule (seed:c0.c1...) under its budget
//! odp-check list                 list the invariant suites
//! ```
//!
//! Exits non-zero on any lint finding, invariant violation, or
//! `--min-reduction` regression. `--json` writes the per-check
//! exploration statistics (runs, prunes, sleep blocks by bound, runs
//! that went on past a sleeping head at the depth cap, fallbacks, peak
//! wakeup-tree size, reduction factor) as a machine-readable artifact
//! (`BENCH_check.json` in CI).

use std::process::ExitCode;

use odp_check::explore::{Counterexample, Report};
use odp_check::lint;
use odp_check::suites::{self, Arm, BudgetKind, Suite};

const DEFAULT_SEED: u64 = 42;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  odp-check lint [ROOT]\n  odp-check explore [CHECK] [--smoke|--deep] [--seed N] \
         [--json PATH] [--min-reduction X]\n  \
         odp-check replay <CHECK> <TRACE> [--smoke|--deep]\n  odp-check list"
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
    match lint::run(&root) {
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

/// The registered suite called `name`, or the exit code for a typo.
fn find_suite(name: &str) -> Result<Suite, ExitCode> {
    suites::find(name).ok_or_else(|| {
        eprintln!("odp-check: unknown check `{name}` (try `odp-check list`)");
        ExitCode::from(2)
    })
}

fn stats_json(seed: u64, kind: BudgetKind, rows: &[(String, Report)]) -> String {
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
             \"naive_bound\": {}, \"sleep_pruned\": {}, \"blocked_by_width\": {}, \
             \"blocked_by_head\": {}, \"asleep_past_depth\": {}, \"hash_pruned\": {}, \
             \"racing_pairs\": {}, \"fallbacks\": {}, \"peak_wakeup\": {}, \
             \"reduction_factor\": {:.2}, \
             \"complete\": {}, \"violation\": {violation}}}{}\n",
            report.runs,
            report.events,
            report.stats.naive_bound,
            report.stats.sleep_pruned,
            report.stats.blocked_by_width,
            report.stats.blocked_by_head,
            report.stats.asleep_past_depth,
            report.stats.hash_pruned,
            report.stats.racing_pairs,
            report.stats.fallbacks,
            report.stats.peak_wakeup,
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
    let selected = match which {
        Some(name) => match find_suite(name) {
            Ok(suite) => vec![suite],
            Err(code) => return code,
        },
        None => suites::all(),
    };
    // The flag that makes `replay` read a trace as deep and as wide as
    // this run recorded it.
    let flag = match kind {
        BudgetKind::Default => String::new(),
        other => format!(" --{}", other.label()),
    };
    let mut failed = false;
    let mut rows: Vec<(String, Report)> = Vec::new();
    for check in selected {
        let report = check.explore(Arm::Armed, kind, seed);
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
                    "     replay: odp-check replay {} {}{flag}",
                    check.name,
                    cx.trace()
                );
            }
            None => {
                println!(
                    "ok   {} — {} ({} runs of ~{} naive, {} sleep- (width {}, head {}) / \
                     {} hash-pruned, {} asleep past depth, {} races, {} fallbacks, \
                     wakeup peak {}, {:.1}x reduction, {} events, {coverage})",
                    check.name,
                    check.about,
                    report.runs,
                    s.naive_bound,
                    s.sleep_pruned,
                    s.blocked_by_width,
                    s.blocked_by_head,
                    s.hash_pruned,
                    s.asleep_past_depth,
                    s.racing_pairs,
                    s.fallbacks,
                    s.peak_wakeup,
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

fn cmd_replay(name: &str, trace: &str, kind: BudgetKind) -> ExitCode {
    let check = match find_suite(name) {
        Ok(suite) => suite,
        Err(code) => return code,
    };
    let Some((seed, choices)) = Counterexample::parse_trace(trace) else {
        eprintln!("odp-check: malformed trace `{trace}` (expected seed:c0.c1...)");
        return ExitCode::from(2);
    };
    match check.replay(Arm::Armed, kind, seed, &choices) {
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
        ["replay", name, trace] => cmd_replay(name, trace, kind),
        ["list"] => {
            for c in suites::all() {
                println!("{:18} {}", c.name, c.about);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

//! What the two binaries do with their arguments.
//!
//! `odpbench` (no `#[global_allocator]`) measures end to end;
//! `odpbench-traced` (counting allocator, spans) measures per layer.
//! Asked for the other kind, each hands the run to its sibling, so one
//! command covers both. Every workload of the full set runs in a child
//! process of its own: `peak_rss_mib` is then that workload's mark, and
//! one workload's heap cannot colour the next one's timings.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::cli::{self, Action, Args};
use crate::harness;
use crate::host;
use crate::names::{self, END_TO_END, WORKLOADS};
use crate::probe::{Plain, Traced};
use crate::workloads::{self, Size, Spec};

const PLAIN_BIN: &str = "odpbench";
const TRACED_BIN: &str = "odpbench-traced";

/// glibc gives every new thread a malloc arena of its own, up to eight
/// per core, and never returns what an arena grew to. `tcp_pair` starts
/// fresh driver and reader threads every round, so its peak RSS climbed
/// from 32 MiB to anywhere between 69 and 93 MiB depending on which
/// arenas the threads happened to be handed. Two arenas (one for the
/// main thread, one shared by the rest) make the mark repeat within 1 %.
/// The variable only takes effect at process start, hence the re-exec.
fn pin_malloc_arenas() {
    use std::os::unix::process::CommandExt;
    const VAR: &str = "MALLOC_ARENA_MAX";
    if std::env::var_os(VAR).is_some() {
        return;
    }
    if let Ok(me) = std::env::current_exe() {
        // Only returns on failure; the run then goes on unpinned.
        let err = Command::new(me)
            .args(std::env::args_os().skip(1))
            .env(VAR, "2")
            .exec();
        eprintln!(
            "odpbench: could not re-exec with {VAR}=2 ({err}); peak_rss_mib will be less steady"
        );
    }
}

/// Entry point shared by both binaries.
pub fn main_with(traced_binary: bool) -> ExitCode {
    pin_malloc_arenas();
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("odpbench: {why}");
            eprintln!(
                "usage: odpbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                 | --check | --repeat | --emit-contract"
            );
            return ExitCode::from(2);
        }
    };
    match &args.action {
        Action::EmitContract => {
            print!("{}", names::contract_json());
            ExitCode::SUCCESS
        }
        Action::One(workload) if args.trace == traced_binary => run_one(workload, &args),
        // The other binary's kind of run.
        Action::One(_) => hand_over(if args.trace { TRACED_BIN } else { PLAIN_BIN }),
        _ if traced_binary => hand_over(PLAIN_BIN),
        Action::All => exit_code(run_set(&args, "").is_some()),
        Action::Check => exit_code(check()),
        Action::Repeat => exit_code(repeat(&args)),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn sibling(name: &str) -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let path = me.with_file_name(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is not built; build the whole package (cargo build --release) first",
            path.display()
        ))
    }
}

/// Re-runs this command line in the sibling binary and waits for it.
fn hand_over(name: &str) -> ExitCode {
    let status = sibling(name).and_then(|exe| {
        Command::new(exe)
            .args(std::env::args().skip(1))
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))
    });
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("odpbench: {why}");
            ExitCode::FAILURE
        }
    }
}

fn run_one(workload: &str, args: &Args) -> ExitCode {
    println!(
        "odpbench workload={workload} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("machine: {}", host::machine_note());
    let outcome = if args.trace {
        harness::per_layer(workload, args.seed, args.seconds)
    } else {
        harness::end_to_end(workload, args.seed, args.seconds)
    };
    print!("{}", outcome.detail);
    print!("{}", outcome.metric_lines());
    for e in &outcome.errors {
        println!("FAILED {e}");
    }
    println!("{}", outcome.result_line());
    exit_code(outcome.correct())
}

/// One child's `metric` lines: `(name, unit, reported value)`.
type Medians = Vec<(String, String, f64)>;

/// Runs one workload in a child process, echoing its output indented;
/// returns its reported values when it exited cleanly.
fn child(bin: &str, workload: &str, args: &Args, trace: bool) -> Option<Medians> {
    let exe = match sibling(bin) {
        Ok(exe) => exe,
        Err(why) => {
            eprintln!("odpbench: {why}");
            return None;
        }
    };
    let mut proc = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| eprintln!("odpbench: cannot start {bin}: {e}"))
        .ok()?;
    let mut medians = Medians::new();
    if let Some(stdout) = proc.stdout.take() {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            println!("    {line}");
            let mut f = line.split_whitespace();
            if f.next() == Some("metric") {
                if let (Some(name), Some(unit), Some("value"), Some(v)) =
                    (f.next(), f.next(), f.next(), f.next())
                {
                    if let Ok(v) = v.parse() {
                        medians.push((name.to_owned(), unit.to_owned(), v));
                    }
                }
            }
        }
    }
    let ok = proc.wait().is_ok_and(|s| s.success());
    ok.then_some(medians)
}

/// Everything one pass over the full set measured, per workload:
/// end-to-end values, then per-layer values.
type SetResult = Vec<(&'static str, Medians, Medians)>;

/// The full set: every workload end to end, then per layer, each in its
/// own process. Writes `out/odpbench-<seed><tag>.json`. `None` when any
/// run failed.
fn run_set(args: &Args, tag: &str) -> Option<SetResult> {
    println!("machine: {}", host::machine_note());
    let mut set = SetResult::new();
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {} — {}", w.name, w.why);
        println!("  end to end (tracing off):");
        let e2e = child(PLAIN_BIN, w.name, args, false);
        println!("  per layer (odpbench-traced):");
        let layers = child(TRACED_BIN, w.name, args, true);
        ok &= e2e.is_some() && layers.is_some();
        set.push((w.name, e2e.unwrap_or_default(), layers.unwrap_or_default()));
    }
    println!("== summary (each run's best round)");
    for (name, e2e, _) in &set {
        let cells: Vec<String> = e2e
            .iter()
            .map(|(metric, unit, v)| format!("{metric} {v:.6} {unit}"))
            .collect();
        println!("  {name:<18} {}", cells.join("  "));
    }
    write_set_file(args.seed, tag, &set);
    if !ok {
        println!("FAILED: at least one run did not pass its audits");
    }
    ok.then_some(set)
}

fn write_set_file(seed: u64, tag: &str, set: &SetResult) {
    let dir = host::OUT_DIR;
    let render = |m: &Medians| -> String {
        let cells: Vec<String> = m
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "{}:{{\"value\":{v},\"unit\":{}}}",
                    host::json_string(name),
                    host::json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", cells.join(","))
    };
    let workloads: Vec<String> = set
        .iter()
        .map(|(name, e2e, layers)| {
            format!(
                "{}:{{\"end_to_end\":{},\"per_layer\":{}}}",
                host::json_string(name),
                render(e2e),
                render(layers)
            )
        })
        .collect();
    let body = format!(
        "{{\"seed\":{seed},\"machine\":{},\"workloads\":{{{}}}}}\n",
        host::json_string(host::machine_note()),
        workloads.join(",")
    );
    let path = format!("{dir}/odpbench-{seed}{tag}.json");
    if std::fs::create_dir_all(dir).is_ok() && std::fs::write(&path, body).is_ok() {
        println!("wrote {path}");
    }
}

/// `--repeat`: the full set twice back to back; per end-to-end metric
/// and workload both values, their relative difference and the bound;
/// and every exact count compared between the two passes.
fn repeat(args: &Args) -> bool {
    let (Some(a), Some(b)) = (run_set(args, "-a"), run_set(args, "-b")) else {
        return false;
    };
    let mut ok = true;
    println!(
        "== repeat: second pass against the first (seed {})",
        args.seed
    );
    println!(
        "  {:<18} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((name, e2e_a, layers_a), (_, e2e_b, layers_b)) in a.iter().zip(&b) {
        for def in END_TO_END {
            let find = |m: &Medians| m.iter().find(|(n, _, _)| n == def.name).map(|x| x.2);
            let (Some(first), Some(second)) = (find(e2e_a), find(e2e_b)) else {
                continue;
            };
            let worse = match def.better {
                names::Better::Higher => (first - second) / first,
                names::Better::Lower => (second - first) / first,
            };
            let verdict = if worse <= def.bound { "" } else { "  OUTSIDE" };
            ok &= worse <= def.bound;
            println!(
                "  {name:<18} {:<20} {first:>16.6} {second:>16.6} {:>8.2}% {:>6.0}%{verdict}",
                def.name,
                100.0 * worse,
                100.0 * def.bound
            );
        }
        for (metric, _, first) in layers_a {
            let exact = names::EXACT.contains(&metric.as_str()) && *name != "tcp_pair";
            let second = layers_b.iter().find(|(n, _, _)| n == metric).map(|x| x.2);
            if exact && second != Some(*first) {
                ok = false;
                println!("  {name:<18} {metric:<20} exact count changed: {first} then {second:?}");
            }
        }
    }
    println!(
        "{}",
        if ok {
            "repeat: every metric within its bound, every exact count identical"
        } else {
            "repeat: FAILED"
        }
    );
    ok
}

/// `--check`: every audit on tiny sizes and two seeds, in both modes;
/// one seeded known-bad per workload family, which the audit must
/// report; and `BENCHMARK.json` against the tables it is rendered from.
fn check() -> bool {
    let mut ok = true;
    let mut verdict = |what: String, pass: bool, why: &[String]| {
        println!("{} {what}", if pass { "ok    " } else { "FAILED" });
        if !pass {
            for w in why {
                println!("         {w}");
            }
        }
        ok &= pass;
    };
    for seed in [42u64, 7] {
        let spec = Spec {
            seed,
            size: Size::Quick,
            fault: false,
        };
        for w in WORKLOADS {
            let plain = workloads::round::<Plain>(w.name, &spec);
            verdict(
                format!("{} seed {seed}: audits pass", w.name),
                plain.failed == 0 && plain.attempted > 0,
                &plain.errors,
            );
            let traced = workloads::round::<Traced>(w.name, &spec);
            verdict(
                format!(
                    "{} seed {seed}: traced run passes with identical exact counts",
                    w.name
                ),
                traced.failed == 0 && traced.exact == plain.exact,
                &traced.errors,
            );
        }
    }
    for w in WORKLOADS {
        let bad = workloads::round::<Plain>(
            w.name,
            &Spec {
                seed: 42,
                size: Size::Quick,
                fault: true,
            },
        );
        verdict(
            format!(
                "{} known-bad: audit reports it ({})",
                w.name,
                bad.errors
                    .first()
                    .map_or("nothing reported", String::as_str)
            ),
            bad.failed > 0,
            &[],
        );
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    match std::fs::read_to_string(path) {
        Ok(on_disk) => verdict(
            "BENCHMARK.json matches --emit-contract".to_owned(),
            on_disk == names::contract_json(),
            &["regenerate it: odpbench --emit-contract > BENCHMARK.json".to_owned()],
        ),
        Err(_) => println!("skip   BENCHMARK.json not found beside the package"),
    }
    println!(
        "{}",
        if ok {
            "check: all passed"
        } else {
            "check: FAILED"
        }
    );
    ok
}

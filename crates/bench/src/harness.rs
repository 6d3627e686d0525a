//! The one harness under the six measuring bins.
//!
//! - **Run protocol** — [`time`] is the crate's only clock read;
//!   [`interleaved`] is the only timing loop. A variant's figure is its
//!   *minimum* (scheduler noise only ever adds time), written with the
//!   median, max and round count beside it ([`Report::timing`]); two
//!   variants are compared round by round ([`overhead_pct`],
//!   [`overhead_ns`]).
//! - **Report writer** — [`Report`], an insertion-ordered JSON object
//!   builder; [`main`] prints it as the summary and writes the file.
//! - **Gate** — [`Bench::at_least`] / [`Bench::at_most`] judge a
//!   measurement against the threshold of that name in the checked-in
//!   `crates/bench/floors.json` and record the verdict under `"gates"`.
//! - **Exit** — a bin's body returns `Err(String)` for a failed audit;
//!   [`main`] reports it, or the tripped gates, and exits non-zero once.

use std::fmt::Debug;

use odp_telemetry::report::json_string;

/// The checked-in gate thresholds, compiled in.
const FLOORS: &str = include_str!("../floors.json");

/// Wall-clock nanoseconds `f` took, and what it returned.
pub fn time<T>(f: impl FnOnce() -> T) -> (u128, T) {
    let start = std::time::Instant::now(); // odp-check: allow(wallclock)
    let out = f();
    (start.elapsed().as_nanos(), out)
}

/// One variant's outcome under [`interleaved`]: the nanoseconds of each
/// timed round in the order they ran, and the artefact all reproduced.
pub type Timed<T> = (Vec<u128>, T);

/// The fastest of `samples`: a variant's reported figure.
pub fn fastest(samples: &[u128]) -> u128 {
    samples.iter().copied().min().unwrap_or(0)
}

/// One round of one variant: stages its input untimed, then returns
/// the measured section's nanoseconds (from [`time`]) and its artefact.
pub type Round<'a, T> = &'a mut dyn FnMut() -> Result<(u128, T), String>;

/// The run protocol: one warm-up round (it pages in code and allocator
/// arenas), then `rounds` timed rounds, each running every variant once
/// in order so frequency drift hits them equally. The workloads are
/// deterministic: a round whose artefact (a census, a checksum) differs
/// from the warm-up's is an error.
pub fn interleaved<T: PartialEq + Debug, const N: usize>(
    rounds: u32,
    mut variants: [Round<'_, T>; N],
) -> Result<[Timed<T>; N], String> {
    let mut reference = Vec::with_capacity(N);
    for run in &mut variants {
        reference.push(run()?.1);
    }
    let mut samples = vec![Vec::with_capacity(rounds as usize); N];
    for round in 0..rounds {
        for (i, run) in variants.iter_mut().enumerate() {
            let (ns, artefact) = run()?;
            let warm_up = &reference[i];
            if artefact != *warm_up {
                let was = format!("round {round} produced {artefact:?}, the warm-up {warm_up:?}");
                return Err(format!("variant {i} is not deterministic: {was}"));
            }
            samples[i].push(ns);
        }
    }
    let mut outcomes = samples.into_iter().zip(reference);
    Ok(std::array::from_fn(|_| {
        outcomes.next().expect("one per variant")
    }))
}

/// [`interleaved`] for a single variant.
pub fn best_of<T: PartialEq + Debug>(rounds: u32, run: Round<'_, T>) -> Result<Timed<T>, String> {
    interleaved(rounds, [run]).map(|[timed]| timed)
}

/// The median over rounds of `compare(base, with)` on the samples of
/// one [`interleaved`] call. Round *k* of both variants ran back to
/// back, so comparing round by round cancels the drift that comparing
/// two minima, each found in a different round, keeps. NaN with
/// nothing to compare.
fn median_paired(base: &[u128], with: &[u128], compare: impl Fn(f64, f64) -> f64) -> f64 {
    let mut rounds: Vec<f64> = base
        .iter()
        .zip(with)
        .filter(|(b, _)| **b > 0)
        .map(|(b, w)| compare(*b as f64, *w as f64))
        .collect();
    rounds.sort_unstable_by(f64::total_cmp);
    rounds.get(rounds.len() / 2).copied().unwrap_or(f64::NAN)
}

/// How much slower `with` ran than `base`, in percent of `base`: the
/// median of the per-round differences.
pub fn overhead_pct(base: &[u128], with: &[u128]) -> f64 {
    median_paired(base, with, |b, w| (w - b) / b * 100.0)
}

/// How much slower `with` ran than `base`, in nanoseconds: the median
/// of the per-round differences. Unlike [`overhead_pct`] it does not
/// move when a change makes `base` itself faster.
pub fn overhead_ns(base: &[u128], with: &[u128]) -> f64 {
    median_paired(base, with, |b, w| w - b)
}

/// An insertion-ordered JSON object under construction: `(key,
/// rendered value)` pairs. Setters chain.
#[derive(Debug, Clone, Default)]
pub struct Report(Vec<(String, String)>);

impl Report {
    /// A string member.
    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.raw(key, json_string(value))
    }

    /// An unsigned integer member.
    pub fn int(&mut self, key: &str, value: impl Into<u128>) -> &mut Self {
        self.raw(key, value.into().to_string())
    }

    /// A float member with `decimals` fraction digits; `null` when the
    /// value is not finite (JSON has no NaN).
    pub fn float(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        if !value.is_finite() {
            return self.raw(key, "null".to_owned());
        }
        self.raw(key, format!("{value:.decimals$}"))
    }

    /// A variant's timing: the minimum of `samples` under `key` itself,
    /// then `{key}_median` (the upper one of an even count),
    /// `{key}_max` and `{key}_rounds`.
    pub fn timing(&mut self, key: &str, samples: &[u128]) -> &mut Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let at = |i: usize| sorted.get(i).copied().unwrap_or(0);
        self.int(key, at(0))
            .int(&format!("{key}_median"), at(sorted.len() / 2))
            .int(&format!("{key}_max"), at(sorted.len().saturating_sub(1)))
            .int(&format!("{key}_rounds"), sorted.len() as u64)
    }

    /// An array of objects.
    pub fn array(&mut self, key: &str, items: impl Iterator<Item = Report>) -> &mut Self {
        let items: Vec<String> = items.map(|item| item.to_json()).collect();
        self.raw(key, format!("[{}]", items.join(",")))
    }

    /// A member whose value is already rendered JSON, such as a nested
    /// object's [`Report::to_json`].
    pub fn raw(&mut self, key: &str, json: String) -> &mut Self {
        self.0.push((key.to_owned(), json));
        self
    }

    /// The object, compact, members in insertion order.
    pub fn to_json(&self) -> String {
        let members: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| format!("{}:{value}", json_string(key)))
            .collect();
        format!("{{{}}}", members.join(","))
    }
}

/// The number under `key` in a flat JSON object. No-dependency scan:
/// the file is ours, one `"key": number` pair per threshold.
fn parse_floor(text: &str, key: &str) -> Option<f64> {
    let quoted = json_string(key);
    let rest = &text[text.find(&quoted)? + quoted.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// What a bin's body works with: its options, its report, its gates.
#[derive(Debug, Default)]
pub struct Bench {
    /// `--quick` was given: run the shortest form that still gates.
    pub quick: bool,
    /// The bin's `BENCH_*.json` object.
    pub report: Report,
    gates: Report,
    verdicts: Vec<String>,
    failed: u32,
}

impl Bench {
    /// Gate: `measured` must be at least the `key` threshold of
    /// `floors.json`. Returns the threshold; `Err` if there is none.
    pub fn at_least(&mut self, key: &str, measured: f64) -> Result<f64, String> {
        self.gate(key, measured, true)
    }

    /// Gate: `measured` must be at most the `key` threshold of
    /// `floors.json`. Returns the threshold; `Err` if there is none.
    pub fn at_most(&mut self, key: &str, measured: f64) -> Result<f64, String> {
        self.gate(key, measured, false)
    }

    fn gate(&mut self, key: &str, measured: f64, at_least: bool) -> Result<f64, String> {
        let threshold = parse_floor(FLOORS, key)
            .ok_or_else(|| format!("no threshold `{key}` in crates/bench/floors.json"))?;
        let (bound, holds) = if at_least {
            (">=", measured >= threshold)
        } else {
            ("<=", measured <= threshold)
        };
        // A NaN compares false both ways, so finiteness is checked too:
        // a broken measurement must never pass.
        let pass = measured.is_finite() && holds;
        let verdict = if pass { "ok" } else { "FAILED" };
        let line = format!("gate {key}: measured {measured:.3} {bound} {threshold} {verdict}");
        self.verdicts.push(line);
        let mut gate = Report::default();
        gate.float("measured", measured, 3)
            .text("bound", bound)
            .float("threshold", threshold, 3)
            .raw("pass", pass.to_string());
        self.gates.raw(key, gate.to_json());
        self.failed += u32::from(!pass);
        Ok(threshold)
    }
}

/// Entry point of every measuring bin: `NAME [OUT.json] [--quick]`.
/// Runs `body`, prints the report's short members as the summary,
/// writes the report to `OUT.json` (default `default_out`), and exits
/// non-zero if `body` failed an audit or a gate tripped.
pub fn main(name: &str, default_out: &str, body: impl FnOnce(&mut Bench) -> Result<(), String>) {
    if let Err(e) = run(name, default_out, body) {
        eprintln!("{name}: {e}");
        std::process::exit(1);
    }
}

fn run(
    name: &str,
    default_out: &str,
    body: impl FnOnce(&mut Bench) -> Result<(), String>,
) -> Result<(), String> {
    let mut bench = Bench::default();
    let mut out_path = default_out.to_owned();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => bench.quick = true,
            option if option.starts_with("--") => return Err(format!("unknown option {option}")),
            path => out_path = path.to_owned(),
        }
    }
    println!("{name} (seed {}):", crate::REPORT_SEED);
    body(&mut bench)?;
    for (key, value) in bench.report.0.iter().filter(|(_, v)| v.len() <= 160) {
        println!("  {key:<26} {value}");
    }
    for verdict in &bench.verdicts {
        println!("  {verdict}");
    }
    bench.report.raw("gates", bench.gates.to_json());
    std::fs::write(&out_path, bench.report.to_json() + "\n")
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    println!("  wrote {out_path}");
    if bench.failed > 0 {
        return Err(format!("{} gate(s) failed", bench.failed));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_alternates_after_a_warm_up_and_audits_every_round() {
        let order = std::cell::RefCell::new(String::new());
        let mut tick = 0u128;
        let mut a = || {
            order.borrow_mut().push('a');
            tick += 10;
            Ok((tick, tick == 40))
        };
        let mut b = || {
            order.borrow_mut().push('b');
            Ok((5, false))
        };
        let [(a_ns, _), (b_ns, _)] = interleaved(2, [&mut a, &mut b]).expect("deterministic");
        assert_eq!(*order.borrow(), "ababab");
        // The warm-up's sample (10) is discarded.
        assert_eq!((fastest(&a_ns), a_ns, b_ns), (20, vec![20, 30], vec![5, 5]));
        let err = best_of(1, &mut a).expect_err("a's artefact flips after its fourth call");
        assert!(err.contains("not deterministic"), "{err}");
    }

    #[test]
    fn overhead_is_the_median_of_the_paired_rounds() {
        // A round slow for both and a lucky baseline: +10 %, +10 %, +100 %.
        assert_eq!(overhead_pct(&[100, 300, 50], &[110, 330, 100]), 10.0);
        assert!(overhead_pct(&[], &[]).is_nan() && overhead_pct(&[0], &[5]).is_nan());
        assert_eq!(overhead_ns(&[100, 300, 50], &[110, 330, 100]), 30.0);
    }

    #[test]
    fn report_renders_the_golden_object() {
        let mut arm = Report::default();
        arm.int("samples", 480u32).float("mean_us", 40040.0, 1);
        let mut report = Report::default();
        report
            .text("work\"load", "a\tb")
            .float("broken", f64::NAN, 3)
            .timing("direct_ns", &[50, 10, 40, 20])
            .raw("off", arm.to_json())
            .array("rungs", [arm.clone(), arm].into_iter());
        assert_eq!(
            report.to_json(),
            "{\"work\\\"load\":\"a\\tb\",\"broken\":null,\"direct_ns\":10,\
             \"direct_ns_median\":40,\"direct_ns_max\":50,\"direct_ns_rounds\":4,\
             \"off\":{\"samples\":480,\"mean_us\":40040.0},\"rungs\":\
             [{\"samples\":480,\"mean_us\":40040.0},{\"samples\":480,\"mean_us\":40040.0}]}"
        );
    }

    #[test]
    fn floors_parser_reads_flat_numbers() {
        let text = "{\n  \"comment\": \"x\",\n  \"tiny\": 1e-3,\n  \"big\":250000\n}";
        assert_eq!(parse_floor(text, "tiny"), Some(0.001));
        assert_eq!(parse_floor(text, "big"), Some(250_000.0));
        assert_eq!(parse_floor(text, "missing"), None);
        assert_eq!(parse_floor(text, "comment"), None);
    }

    #[test]
    fn gates_pass_fail_and_refuse_non_finite_measurements() {
        let mut bench = Bench::default();
        assert_eq!(bench.at_most("telemetry_overhead_pct", 1.9), Ok(2.0));
        assert_eq!(bench.at_least("raster_improvement_ratio", 2.8), Ok(1.5));
        assert_eq!(bench.failed, 0);
        assert_eq!(bench.at_most("telemetry_overhead_pct", 2.1), Ok(2.0));
        assert_eq!(bench.at_least("raster_improvement_ratio", 1.4), Ok(1.5));
        assert_eq!(bench.failed, 2);
        for broken in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(bench.at_most("fabric_ns_per_delivery", broken).is_ok());
            assert!(bench.at_least("campus_events_per_sec", broken).is_ok());
        }
        assert_eq!(bench.failed, 8);
        assert!(bench.at_least("no_such_gate", 1.0).is_err());
        assert!(bench.gates.to_json().starts_with(
            "{\"telemetry_overhead_pct\":{\"measured\":1.900,\"bound\":\"<=\",\
             \"threshold\":2.000,\"pass\":true},"
        ));
    }

    /// A typo in a gate key fails here, not in a CI bench job.
    #[test]
    fn every_gate_a_bin_calls_has_a_threshold_in_floors_json() {
        let mut bins = String::new();
        for bin in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin")).expect("bins")
        {
            bins += &std::fs::read_to_string(bin.expect("entry").path()).expect("source");
        }
        let (least, most) = (bins.split(".at_least(\""), bins.split(".at_most(\""));
        let calls = least.skip(1).chain(most.skip(1));
        let keys: Vec<&str> = calls.filter_map(|rest| rest.split('"').next()).collect();
        assert_eq!(keys.len(), 4, "the four gates: {keys:?}");
        for key in keys {
            assert!(
                parse_floor(FLOORS, key).is_some(),
                "{key}: not in floors.json"
            );
        }
    }
}

//! Command-line arguments.

use crate::names::{RUN_SECONDS, WORKLOADS};

/// What to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Run one workload and print its result line (the driver's form).
    One(String),
    /// Run every workload, each in a child process of its own.
    All,
    /// Quick audits on two seeds plus the seeded known-bad runs.
    Check,
    /// The full set twice, with both medians and their difference.
    Repeat,
    /// Print `BENCHMARK.json`.
    EmitContract,
}

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// What to do.
    pub action: Action,
    /// Input seed (default 42).
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer run (`--trace 1`) or end-to-end run (`--trace 0`).
    pub trace: bool,
}

/// Parses `args` (program name already removed).
///
/// # Errors
///
/// Unknown flags, missing values, unparsable numbers and unknown
/// workload names are reported as a message for the user.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        action: Action::All,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload {name}; one of {}",
                        known.join(", ")
                    ));
                }
                out.action = Action::One(name);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                out.seconds = s;
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--check" => out.action = Action::Check,
            "--repeat" => out.action = Action::Repeat,
            "--emit-contract" => out.action = Action::EmitContract,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

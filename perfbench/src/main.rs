//! The repository benchmark: end-to-end and per-layer metrics of the
//! disjoint-path routing service and the packet-level simulator.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_cold|serve_churn|sim_hhc4>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output holds every
//! end-to-end metric; with `--trace 1` every per-layer metric, and the
//! run's spans go to `out/<workload>.tsv` in the package directory. The line
//! before it lists the run's facts (seed, sample counts,
//! `available_parallelism`, input properties). The exit code is 0 only
//! when every output check passed.

mod gen;
mod probe;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_cold|serve_churn|sim_hhc4> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where a traced run writes its spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {val:?}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let trace_file = Path::new(TRACE_DIR).join(format!("{}.tsv", a.workload));
    let kind = match a.workload.as_str() {
        "serve_hot" => Some(serve::Kind::Hot),
        "serve_cold" => Some(serve::Kind::Cold),
        "serve_churn" => Some(serve::Kind::Churn),
        "sim_hhc4" => None,
        w => {
            eprintln!("unknown workload {w:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut o = match (kind, a.trace) {
        (Some(k), false) => serve::run(k, a.seed, a.seconds),
        (Some(k), true) => serve::run_traced(k, a.seed, a.seconds, &trace_file),
        (None, false) => sim::run(a.seed, a.seconds),
        (None, true) => sim::run_traced(a.seed, a.seconds, &trace_file),
    };
    if let Some(m) = o.metrics.iter().find(|m| !m.value.is_finite()) {
        let what = format!("metric {} is not a finite number", m.name);
        o.first_error.get_or_insert(what);
    }
    o.correct = o.failed == 0 && o.first_error.is_none();
    if let Some(e) = &o.first_error {
        eprintln!("check failed ({} failures): {e}", o.failed);
    }
    println!("facts {}", o.facts_json());
    println!("{}", o.result_json());
    if o.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

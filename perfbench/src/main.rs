//! `perfbench --workload <jbb|barrier|overload|tmir> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints each metric by name with its unit, then, as the last line of
//! standard output, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. Failed checks go to standard error and make `correct` false.

use perfbench::bench::{execute, Config, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <jbb|barrier|overload|tmir> --seed <n> --seconds <1..3600> --trace <0|1>";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::Jbb,
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                cfg.workload =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=3600).contains(s))
                    .ok_or_else(|| format!("bad seconds `{value}`"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(cfg)
}

/// Formats a metric value as JSON: every digit Rust's shortest round-trip
/// form gives; non-finite values (already reported as problems) as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = execute(cfg);
    println!(
        "perfbench {} seed {} ({}):",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace {
            "traced, per-layer metrics"
        } else {
            "untraced, end-to-end metrics"
        }
    );
    for (name, value, unit) in &out.metrics {
        println!("  {name:<40} {value:>18.6} {unit}");
    }
    for note in &out.notes {
        println!("  ({note})");
    }
    println!("  attempted {} ops, {} failed", out.attempted, out.failed);
    for w in &out.warnings {
        eprintln!("warning: {w}");
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

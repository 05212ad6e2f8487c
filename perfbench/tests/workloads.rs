//! Each workload's oracles pass on a small instance, and the metric lists
//! agree with `BENCHMARK.json` at the repository root.

use perfbench::barrier::Barrier;
use perfbench::bench::{E2E, LAYERS};
use perfbench::jbb::Jbb;
use perfbench::overload::Overload;
use perfbench::sim::{simulate, SimWorld};
use perfbench::tmir::Tmir;
use std::sync::Arc;

fn run_clean<W: SimWorld>(world: W) {
    let run = simulate(&Arc::new(world), true);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    assert!(run.recs.iter().all(|r| r.ok));
    let tally = run.tally.expect("traced run");
    assert_eq!(
        tally.total_cycles(),
        run.report.proc_busy.iter().sum::<u64>()
    );
}

#[test]
fn jbb_oracles_pass() {
    run_clean(Jbb::build(7, 300));
}

#[test]
fn barrier_oracles_pass() {
    run_clean(Barrier::build(7, 300));
}

#[test]
fn overload_oracles_pass() {
    run_clean(Overload::build(7, 100));
}

#[test]
fn tmir_matches_the_interpreter() {
    let s = Tmir::build(7, 40).run(false);
    assert!(s.failures.is_empty(), "{:?}", s.failures);
    assert_eq!(s.completed, 40);
}

#[test]
fn same_seed_same_inputs() {
    let a = Tmir::build(11, 20).run(false);
    let b = Tmir::build(11, 20).run(false);
    assert_eq!(a.facts, b.facts);
}

/// The `(name, unit)` pairs of one top-level array in the manifest, in
/// order; `unit` is empty for entries without one.
fn entries(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("array end")];
    let field = |obj: &str, f: &str| {
        obj.split(&format!("\"{f}\""))
            .nth(1)
            .and_then(|s| s.split('"').nth(1))
            .unwrap_or("")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn manifest_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(entries(&manifest, "end_to_end"), pairs(&E2E));
    assert_eq!(entries(&manifest, "per_layer"), pairs(&LAYERS));
    let workloads: Vec<String> = entries(&manifest, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let known: Vec<String> = perfbench::bench::Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, known);
}

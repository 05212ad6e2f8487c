//! Run a TMIR program through the full compiler pipeline.
//!
//! ```text
//! cargo run --example tmir_run -- [weak|strong|jit|nait] [path/to/program.tmir]
//! ```
//!
//! With no file argument, runs an embedded demo (the Tsp rendition used for
//! the Figure 13 static counts). The program is compiled to bytecode and
//! executed on the bytecode VM; the pipeline argument picks how much of the
//! paper's machinery is applied:
//!
//! * `weak`   — no isolation barriers (weak atomicity);
//! * `strong` — every non-transactional access barriered;
//! * `jit`    — strong + the §6 bytecode passes (finals, escape, aggregation);
//! * `nait`   — jit + the §5 whole-program NAIT removal (default).

use tmir::bytecode::{optimize, PassOptions};
use tmir::sites::BarrierTable;
use tmir::vm::{BcVmConfig, BytecodeVm};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pipeline = args.first().map(String::as_str).unwrap_or("nait");
    let source = match args.get(1) {
        Some(path) => std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {path}: {e}")),
        None => workloads::tmir_sources::TSP.to_string(),
    };

    let program = match tmir::parse::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let checked = match tmir::types::check(program) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let table = match pipeline {
        "weak" => BarrierTable::weak(),
        _ => BarrierTable::strong(&checked.program),
    };
    let (reads, writes) = table.counts();
    eprintln!("barriered sites: {reads} reads, {writes} writes");
    let mut cp = tmir::compile(&checked, &table);
    if matches!(pipeline, "jit" | "nait") {
        let report = optimize(&mut cp, PassOptions::all());
        eprintln!(
            "jit: {} immutable + {} escape elided, {} sites into {} aggregated regions",
            report.immutable_elided,
            report.escape_elided,
            report.aggregated_sites,
            report.regions
        );
    }
    if pipeline == "nait" {
        let (_, removal) = tmir_analysis::analyze_and_remove(&checked.program);
        let n = removal.apply_nait_bytecode(&mut cp);
        eprintln!("nait: elided {n} barrier opcodes statically");
    }

    let vm = BytecodeVm::new(cp, BcVmConfig::default());
    match vm.run() {
        Ok(result) => {
            for v in result.output {
                println!("{v}");
            }
            let b = vm.barrier_stats();
            eprintln!(
                "stats: {} commits, {} aborts; barriers: {} executed, {} elided, \
                 {} aggregated in {} regions",
                result.stats.commits,
                result.stats.aborts,
                b.executed,
                b.elided,
                b.aggregated,
                b.regions
            );
        }
        Err(trap) => {
            eprintln!("{trap}");
            std::process::exit(1);
        }
    }
}

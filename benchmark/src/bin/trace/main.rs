//! The traced run: `trace --workload W --seed N --seconds S --trace 1`.
//!
//! Runs a short untraced slice of the workload (the reference for
//! `trace.overhead_share`), then the same requests again with a span
//! around every call into a layer's public function. The program under
//! test is not instrumented; all spans are recorded here, kept in
//! memory, and written to `benchmark/out/trace.json` when the run ends.
//! The result line carries every per-layer metric; a layer the workload
//! bypasses reports 0 calls and 0 time.
//!
//! This bin and `layers.rs` are the only files that name layer
//! internals (`CandidateStream`, `PlanGeometry`, `PlanCache`,
//! `parse_request`, ...), so a change to those can break this build but
//! not the end-to-end one.

mod layers;

use flashfuser_benchmark::json::Json;
use flashfuser_benchmark::{spec, Outcome, RunArgs};
use std::process::ExitCode;

/// Where the span log goes, relative to the repository root (`run.sh`
/// changes into it).
const TRACE_PATH: &str = "benchmark/out/trace.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match RunArgs::parse(&args) {
        Ok(args) if args.trace => args,
        Ok(_) => {
            eprintln!("trace: --trace 0 is the `run` bin's job; call benchmark/run.sh");
            return ExitCode::from(2);
        }
        Err(message) => {
            eprintln!("trace: {message}");
            return ExitCode::from(2);
        }
    };

    let mut probe = layers::Probe::new();
    let checks = match args.workload.as_str() {
        "cold_chain" => layers::cold_chain(&mut probe, &args),
        "serve_hit" => layers::serve(&mut probe, &args, layers::Served::Chains),
        "serve_graph" => layers::serve(&mut probe, &args, layers::Served::Graphs),
        "serve_mixed" => layers::serve_mixed(&mut probe, &args),
        "exec_zoo" => layers::exec_zoo(&mut probe, &args),
        other => unreachable!("RunArgs::parse admitted {other}"),
    };
    probe.set("trace.spans", probe.tracer.spans().len() as f64);

    let log = Json::obj([
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Int(args.seed)),
        ("spans", probe.tracer.to_json()),
    ]);
    if let Err(e) = std::fs::create_dir_all("benchmark/out")
        .and_then(|()| std::fs::write(TRACE_PATH, log.compact()))
    {
        eprintln!("trace: cannot write {TRACE_PATH}: {e}");
        return ExitCode::FAILURE;
    }

    let outcome = Outcome {
        metrics: spec::PER_LAYER
            .iter()
            .map(|m| (m.name, probe.get(m.name)))
            .collect(),
        checks,
        detail: Json::Null,
    };
    if let Some(what) = &outcome.checks.first_failure {
        println!("first failure: {what}");
    }
    for m in spec::PER_LAYER {
        println!(
            "{:<40} {:>18.4} {:<6} {} is better",
            m.name,
            probe.get(m.name),
            m.unit,
            m.better.as_str()
        );
    }
    println!("spans written to {TRACE_PATH}");
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}

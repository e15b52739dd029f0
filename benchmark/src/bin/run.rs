//! The end-to-end bin.
//!
//! * `run --workload W --seed N --seconds S --trace 0` — one untraced
//!   run of one workload (what the driver calls, through `run.sh`);
//! * `run --all [--seed N] [--runs R] [--seconds S] [--out FILE]` —
//!   every workload in its own child process, `R` untraced runs with
//!   seeds `N..N+R` and one traced run each, gathered into a record with
//!   provenance; exits non-zero if any operation failed;
//! * `run --compare A.json B.json` — B against A by each metric's
//!   bound; exits non-zero on a regression;
//! * `run --spec` — prints `BENCHMARK.json` from the tables in `spec`.

use flashfuser_benchmark::json::{self, Json};
use flashfuser_benchmark::record::{self, RunResult, Verdict, WorkloadRuns};
use flashfuser_benchmark::{host, run_named, spec, RunArgs};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Some("--compare") => compare(&args[1..]),
        Some("--all") => all(&args[1..]),
        _ => one(&args),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("benchmark: {message}");
        ExitCode::from(2)
    })
}

/// One untraced run: a human-readable report, then the result line.
fn one(args: &[String]) -> Result<ExitCode, String> {
    let args = RunArgs::parse(args)?;
    if args.trace {
        return Err("--trace 1 is the `trace` bin's job; call benchmark/run.sh".into());
    }
    let outcome = run_named(&args);
    println!("{}", outcome.detail.pretty().trim_end());
    for &(name, value) in &outcome.metrics {
        let m = spec::end_to_end(name).expect("every printed metric is in the spec");
        println!(
            "{name:<26} {value:>16.4} {:<5} {} is better, bound {:.1}%",
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}

fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("--compare takes two record files: A.json B.json".into());
    };
    let read = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = record::compare(&read(a)?, &read(b)?);
    if rows.is_empty() {
        return Err("the two records share no (metric, workload) pair".into());
    }
    print!("{}", record::render(&rows));
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "A = {a}, B = {b}: {} ok, {} unresolved, {} regressed",
        count(Verdict::Ok),
        count(Verdict::Unresolved),
        count(Verdict::Regressed)
    );
    Ok(if count(Verdict::Regressed) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Runs one child to completion, echoes its report indented, and parses
/// its result line.
fn child(
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<RunResult, String> {
    let output = Command::new(bin)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}): {}",
            trace as u8, output.status
        ));
    }
    RunResult::from_line(seed, last).map_err(|e| format!("{workload}: {e}"))
}

fn all(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut runs, mut seconds) = (spec::DEFAULT_SEED, 3u64, spec::RUN_SECONDS);
    let mut out = PathBuf::from("benchmark/out/record.json");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--seed" => seed = number()?,
            "--runs" => runs = number()?.max(1),
            "--seconds" => seconds = number()?.clamp(1, 60),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let run_bin = std::env::current_exe().map_err(|e| e.to_string())?;
    let trace_bin = run_bin.with_file_name("trace");
    if !trace_bin.exists() {
        return Err(format!(
            "{} is not built; call benchmark/run.sh --all",
            trace_bin.display()
        ));
    }

    let mut workloads = Vec::new();
    for w in spec::WORKLOADS {
        let mut entry = WorkloadRuns {
            name: w.name.to_string(),
            runs: Vec::new(),
            traced: None,
        };
        for r in 0..runs {
            eprintln!(
                "[{}] untraced run {} of {runs}, seed {}",
                w.name,
                r + 1,
                seed + r
            );
            entry
                .runs
                .push(child(&run_bin, w.name, seed + r, seconds, false)?);
        }
        eprintln!("[{}] traced run, seed {seed}", w.name);
        entry.traced = Some(child(&trace_bin, w.name, seed, seconds, true)?);
        workloads.push(entry);
    }

    let mut provenance = host::provenance();
    if let Json::Obj(pairs) = &mut provenance {
        pairs.push(("seed".into(), Json::Int(seed)));
        pairs.push(("runs_per_workload".into(), Json::Int(runs)));
        pairs.push(("run_seconds".into(), Json::Int(seconds)));
        pairs.push((
            "unix_time".into(),
            Json::Int(
                std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map_or(0, |d| d.as_secs()),
            ),
        ));
    }
    let record = record::build(provenance, &workloads);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, record.pretty()).map_err(|e| format!("{}: {e}", out.display()))?;

    // Every metric by name, with unit, direction, bound and sample count.
    let mut failed = 0;
    for w in &workloads {
        let attempted: u64 = w.runs.iter().map(|r| r.attempted).sum();
        let bad: u64 = w.runs.iter().chain(&w.traced).map(|r| r.failed).sum();
        failed += bad;
        println!("\n== {} == attempted {attempted}, failed {bad}", w.name);
        for m in spec::END_TO_END {
            let values: Vec<f64> = w
                .runs
                .iter()
                .filter_map(|r| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v))
                .collect();
            println!(
                "  {:<26} {:>16.4} {:<5} {:<6} bound {:>5.1}%  n={} spread {:.1}%",
                m.name,
                flashfuser_benchmark::stats::median(&values),
                m.unit,
                m.better.as_str(),
                m.bound * 100.0,
                values.len(),
                flashfuser_benchmark::stats::spread_share(&values) * 100.0
            );
        }
        for (name, value) in w.traced.iter().flat_map(|t| &t.metrics) {
            let m = spec::PER_LAYER.iter().find(|m| m.name == name);
            println!(
                "  {:<40} {:>16.4} {:<5} {}",
                name,
                value,
                m.map_or("", |m| m.unit),
                m.map_or("", |m| m.better.as_str())
            );
        }
    }
    println!("\nrecord written to {}", out.display());
    Ok(if failed > 0 {
        eprintln!("benchmark: {failed} operations failed or were incorrect");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

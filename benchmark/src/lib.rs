//! The repository's benchmark: five workloads, ten end-to-end metrics,
//! per-layer numbers from a separately traced run. See `README.md`.
//!
//! The library holds everything both bins share and is bound by the
//! API firewall described in [`workload`]; only the `trace` bin reaches
//! past it into the layers.

pub mod gen;
pub mod host;
pub mod json;
pub mod pace;
pub mod record;
pub mod span;
pub mod spec;
pub mod stats;
pub mod wire;
pub mod workload;

use json::Json;
use std::collections::BTreeMap;
use std::time::Instant;
use workload::{Checks, Round, Sample, Workload};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// The arguments of one measured run, as the driver passes them.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunArgs {
    /// Parses `--workload W [--seed N] [--seconds S] [--trace 0|1]`.
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the offending argument.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut out = RunArgs {
            workload: String::new(),
            seed: spec::DEFAULT_SEED,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("{flag} {value}: not a valid value");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if spec::workload(&out.workload).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("--workload must be one of: {}", names.join(", ")));
        }
        Ok(out)
    }
}

/// What one run produced: the metrics by name, the correctness
/// accounting, and a free-form detail document for the human report.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Checks,
    pub detail: Json,
}

impl Outcome {
    /// The last line of standard output the driver reads: exactly the
    /// keys `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.checks.failed == 0)),
            ("attempted", Json::Int(self.checks.attempted.max(1))),
            ("failed", Json::Int(self.checks.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::str(spec::unit_of(name))),
                        ]),
                    )
                })),
            ),
        ])
        .compact()
    }
}

/// Per-round statistics of a timed phase.
#[derive(Debug, Clone, Copy)]
struct RoundStats {
    p50_us: f64,
    tail_us: f64,
    geomean_us: f64,
    ops_per_s: f64,
    cpu_ms_per_op: f64,
}

/// The median latency of each request kind that has samples.
fn kind_medians(samples: &[Sample]) -> Vec<f64> {
    let mut per_kind: BTreeMap<u16, Vec<f64>> = BTreeMap::new();
    for s in samples {
        per_kind.entry(s.kind).or_default().push(s.us);
    }
    per_kind.values().map(|v| stats::median(v)).collect()
}

fn round_stats(round: &Round, tail_q: f64) -> RoundStats {
    let mut all: Vec<f64> = round.samples.iter().map(|s| s.us).collect();
    stats::sort(&mut all);
    let medians = kind_medians(&round.samples);
    let n = all.len() as f64;
    RoundStats {
        // The median *kind*, not the median sample: a mix of 5 ms and
        // 100 ms requests has no stable pooled median.
        p50_us: stats::median(&medians),
        tail_us: stats::percentile(&all, stats::tail_quantile(tail_q, all.len())),
        geomean_us: stats::geomean(&medians),
        ops_per_s: n / round.wall_s,
        cpu_ms_per_op: round.cpu_s * 1e3 / n,
    }
}

/// Runs workload `W` end to end, untraced: [`SETUPS`] set-ups (the last
/// one kept), the timed phase, the checks; returns every end-to-end
/// metric.
pub fn run_end_to_end<W: Workload>(seed: u64, seconds: f64) -> Outcome {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut cold: Vec<Sample> = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let workload = W::set_up(seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            cold.extend_from_slice(workload.cold());
            workload.tear_down();
        } else {
            kept = Some(workload);
        }
    }
    let mut workload = kept.expect("SETUPS >= 1");
    let mut checks = Checks::default();
    let rounds = workload.measure(seconds, &mut checks);
    cold.extend_from_slice(workload.cold());
    let quality = workload.verify(&mut checks);
    let kinds = workload.kinds();
    let notes = workload.notes();
    let peak_rss_mb = host::peak_rss_mb();
    workload.tear_down();

    let per_round: Vec<RoundStats> = rounds
        .iter()
        .filter(|r| !r.samples.is_empty())
        .map(|r| round_stats(r, W::TAIL_Q))
        .collect();
    assert!(!per_round.is_empty(), "{}: no request completed", W::NAME);
    // Each metric reports its quieter quartile of rounds: disturbance
    // from outside the program only ever slows a round down, so the
    // better quarter is the program's own speed; a quartile, not the
    // extreme, so that no single lucky round sets a metric.
    let values = |f: fn(&RoundStats) -> f64| per_round.iter().map(f).collect::<Vec<_>>();
    let lowest = |f: fn(&RoundStats) -> f64| stats::quartiles(&values(f)).0;
    let highest = |f: fn(&RoundStats) -> f64| stats::quartiles(&values(f)).1;
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("peak_rss_mb", peak_rss_mb),
        ("op_p50_us", lowest(|r| r.p50_us)),
        ("op_tail_us", lowest(|r| r.tail_us)),
        ("op_geomean_us", lowest(|r| r.geomean_us)),
        ("ops_per_s", highest(|r| r.ops_per_s)),
        ("cpu_ms_per_op", lowest(|r| r.cpu_ms_per_op)),
        ("cold_p50_ms", stats::median(&kind_medians(&cold)) / 1e3),
        ("plan_speedup_geomean", stats::geomean(&quality.speedups)),
        (
            "plan_bytes_ratio_geomean",
            stats::geomean(&quality.bytes_ratios),
        ),
    ];

    // Per-kind rows over the whole timed phase, for the human report.
    let mut per_kind: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];
    for s in rounds.iter().flat_map(|r| &r.samples) {
        per_kind[s.kind as usize].push(s.us);
    }
    let samples: usize = per_kind.iter().map(Vec::len).sum();
    let detail = Json::obj([
        ("workload", Json::str(W::NAME)),
        ("seed", Json::Int(seed)),
        ("seconds", Json::Num(seconds)),
        (
            "samples",
            Json::obj([
                ("ops", Json::Int(samples as u64)),
                ("rounds", Json::Int(per_round.len() as u64)),
                ("setups", Json::Int(SETUPS as u64)),
                ("cold", Json::Int(cold.len() as u64)),
                ("plans", Json::Int(quality.speedups.len() as u64)),
                (
                    "tail_quantile",
                    Json::Num(stats::tail_quantile(
                        W::TAIL_Q,
                        samples / per_round.len().max(1),
                    )),
                ),
            ]),
        ),
        (
            // One value per round; the metrics above are their quieter
            // quartiles.
            "rounds",
            Json::obj([
                ("p50_us", Json::nums(&values(|r| r.p50_us))),
                ("tail_us", Json::nums(&values(|r| r.tail_us))),
                ("geomean_us", Json::nums(&values(|r| r.geomean_us))),
                ("ops_per_s", Json::nums(&values(|r| r.ops_per_s))),
                ("cpu_ms_per_op", Json::nums(&values(|r| r.cpu_ms_per_op))),
            ]),
        ),
        (
            // Per request kind over the whole timed phase: [n, median µs].
            "kinds",
            Json::obj(
                kinds
                    .iter()
                    .zip(&per_kind)
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(label, v)| {
                        (
                            label.as_str(),
                            Json::Arr(vec![Json::Int(v.len() as u64), Json::Num(stats::median(v))]),
                        )
                    }),
            ),
        ),
        (
            "notes",
            Json::obj(notes.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
        (
            "first_failure",
            checks
                .first_failure
                .as_deref()
                .map_or(Json::Null, Json::str),
        ),
    ]);
    Outcome {
        metrics,
        checks,
        detail,
    }
}

/// Dispatches on the workload's name.
pub fn run_named(args: &RunArgs) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "cold_chain" => run_end_to_end::<workload::ColdChain>(seed, seconds),
        "serve_hit" => run_end_to_end::<workload::ServeHit>(seed, seconds),
        "serve_graph" => run_end_to_end::<workload::ServeGraph>(seed, seconds),
        "serve_mixed" => run_end_to_end::<workload::ServeMixed>(seed, seconds),
        "exec_zoo" => run_end_to_end::<workload::ExecZoo>(seed, seconds),
        other => unreachable!("RunArgs::parse admitted {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Sample;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse_and_default() {
        let args = RunArgs::parse(&strings(&[
            "--workload",
            "serve_hit",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            args,
            RunArgs {
                workload: "serve_hit".into(),
                seed: 9,
                seconds: 2.5,
                trace: true
            }
        );
        let defaults = RunArgs::parse(&strings(&["--workload", "exec_zoo"])).unwrap();
        assert_eq!(defaults.seed, spec::DEFAULT_SEED);
        assert_eq!(defaults.seconds, spec::RUN_SECONDS as f64);
        assert!(!defaults.trace);
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "exec_zoo", "--trace", "2"],
            &["--workload", "exec_zoo", "--seconds", "0"],
            &["--workload", "exec_zoo", "--quick", "1"],
            &["--workload"],
        ] {
            assert!(RunArgs::parse(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn round_statistics_use_per_kind_medians() {
        let round = Round {
            samples: [
                (0, 10.0),
                (0, 30.0),
                (0, 20.0),
                (1, 500.0),
                (1, 300.0),
                (1, 400.0),
            ]
            .into_iter()
            .map(|(kind, us)| Sample { kind, us })
            .collect(),
            wall_s: 2.0,
            cpu_s: 3.0,
        };
        let s = round_stats(&round, 0.99);
        assert!((s.geomean_us - (20.0f64 * 400.0).sqrt()).abs() < 1e-9);
        // The median kind (20 and 400), not the median sample.
        assert_eq!(s.p50_us, 210.0);
        // Six samples support no tail beyond the median.
        assert_eq!(s.tail_us, 30.0);
        assert_eq!(s.ops_per_s, 3.0);
        assert_eq!(s.cpu_ms_per_op, 500.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            metrics: vec![("setup_s", 0.8127), ("op_p50_us", 1.2034)],
            checks: Checks {
                attempted: 1000,
                failed: 0,
                first_failure: None,
            },
            detail: Json::Null,
        };
        let line = outcome.result_line();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}, "op_p50_us": {"value": 1.2034, "unit": "us"}}}"#
        );
        assert!(!line.contains('\n'));
    }
}

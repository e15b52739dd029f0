//! Benchmark records (every run of every workload, with provenance) and
//! the comparison of two of them by each metric's own bound.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;

/// The parsed last line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order printed.
    pub metrics: Vec<(String, f64)>,
}

impl RunResult {
    /// Reads the result line a run printed last.
    ///
    /// # Errors
    ///
    /// Returns what is missing when the line is not a result.
    pub fn from_line(seed: u64, line: &str) -> Result<RunResult, String> {
        let doc = crate::json::parse(line)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("result lacks {key}"));
        Ok(RunResult {
            seed,
            correct: field("correct")?
                .as_bool()
                .ok_or("correct is not a boolean")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics: field("metrics")?
                .members()
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric {name} has no value"))
                })
                .collect::<Result<_, _>>()?,
        })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Int(self.seed)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.as_str(), Json::Num(*v))),
                ),
            ),
        ])
    }
}

/// Every run of one workload: the untraced ones and the traced one.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    pub name: String,
    pub runs: Vec<RunResult>,
    pub traced: Option<RunResult>,
}

fn summary(values: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(values);
    Json::obj([
        ("median", Json::Num(stats::median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Int(values.len() as u64)),
        ("values", Json::nums(values)),
    ])
}

/// Assembles the record document. `provenance` comes from
/// [`crate::host::provenance`] with the run parameters added.
pub fn build(provenance: Json, workloads: &[WorkloadRuns]) -> Json {
    Json::obj([
        ("schema", Json::Int(1)),
        ("provenance", provenance),
        ("end_to_end", spec::end_to_end_json()),
        ("per_layer", spec::per_layer_json()),
        (
            "workloads",
            Json::obj(workloads.iter().map(|w| {
                let names: Vec<&String> = w
                    .runs
                    .first()
                    .map(|r| r.metrics.iter().map(|(k, _)| k).collect())
                    .unwrap_or_default();
                let end_to_end = Json::obj(names.iter().map(|&name| {
                    let values: Vec<f64> = w
                        .runs
                        .iter()
                        .filter_map(|r| r.metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v))
                        .collect();
                    (name.as_str(), summary(&values))
                }));
                (
                    w.name.as_str(),
                    Json::obj([
                        (
                            "attempted",
                            Json::Int(w.runs.iter().map(|r| r.attempted).sum()),
                        ),
                        ("failed", Json::Int(w.runs.iter().map(|r| r.failed).sum())),
                        ("end_to_end", end_to_end),
                        (
                            "per_layer",
                            w.traced.as_ref().map_or(Json::Null, |t| {
                                Json::obj(
                                    t.metrics.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))),
                                )
                            }),
                        ),
                        (
                            "runs",
                            Json::Arr(w.runs.iter().map(RunResult::to_json).collect()),
                        ),
                    ]),
                )
            })),
        ),
    ])
}

/// How one (metric, workload) pair fared between two records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `--compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    /// B ÷ A (the base is A).
    pub ratio: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges B's runs of one metric against A's.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = match better {
        Better::Lower => (med_b - med_a) / med_a.abs(),
        Better::Higher => (med_a - med_b) / med_a.abs(),
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let spread = stats::spread_share(a).max(stats::spread_share(b));
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let clear_win = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if spread > bound && !clear_win {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn values_of(record: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let values: Vec<f64> = record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .items()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (!values.is_empty()).then_some(values)
}

/// Compares record B against record A: one row per (metric, workload)
/// both records hold, using the bounds A was recorded with. A workload
/// whose failures grew gets a `failed` row that always regresses.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    let Some(workloads) = a.get("workloads") else {
        return rows;
    };
    for (workload, entry) in workloads.members() {
        for m in a.get("end_to_end").map_or(&[][..], Json::items) {
            let (Some(name), Some(better), Some(bound)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better")
                    .and_then(Json::as_str)
                    .and_then(Better::parse),
                m.get("bound").and_then(Json::as_f64),
            ) else {
                continue;
            };
            let (Some(va), Some(vb)) = (values_of(a, workload, name), values_of(b, workload, name))
            else {
                continue;
            };
            let (med_a, med_b) = (stats::median(&va), stats::median(&vb));
            rows.push(Row {
                workload: workload.clone(),
                metric: name.to_string(),
                unit: m
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                a: med_a,
                b: med_b,
                ratio: med_b / med_a,
                bound,
                verdict: judge(&va, &vb, better, bound),
            });
        }
        let failed = |entry: Option<&Json>| {
            entry
                .and_then(|e| e.get("failed"))
                .and_then(Json::as_u64)
                .unwrap_or(0) as f64
        };
        let (fa, fb) = (
            failed(Some(entry)),
            failed(b.get("workloads").and_then(|w| w.get(workload))),
        );
        if fb > fa {
            rows.push(Row {
                workload: workload.clone(),
                metric: "failed".into(),
                unit: "count".into(),
                a: fa,
                b: fb,
                ratio: f64::INFINITY,
                bound: 0.0,
                verdict: Verdict::Regressed,
            });
        }
    }
    rows
}

/// The comparison as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<26} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:<26} {:>14.4} {:>14.4} {:>9.4} {:>6.1}%  {}\n",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            r.ratio,
            r.bound * 100.0,
            r.verdict.as_str()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, p50: f64, per_s: f64, failed: u64) -> RunResult {
        RunResult {
            seed,
            correct: failed == 0,
            attempted: 100,
            failed,
            metrics: vec![("op_p50_us".into(), p50), ("ops_per_s".into(), per_s)],
        }
    }

    fn record(runs: Vec<RunResult>) -> Json {
        build(
            Json::obj([("seed", Json::Int(1))]),
            &[WorkloadRuns {
                name: "serve_hit".into(),
                runs,
                traced: None,
            }],
        )
    }

    #[test]
    fn result_lines_round_trip() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#;
        let r = RunResult::from_line(3, line).unwrap();
        assert_eq!((r.seed, r.attempted, r.failed, r.correct), (3, 12, 0, true));
        assert_eq!(r.metrics, vec![("setup_s".to_string(), 0.5)]);
        assert!(RunResult::from_line(3, "{}").is_err());
        assert!(RunResult::from_line(3, "not json").is_err());
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let steady = [100.0, 101.0, 99.0];
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(
            judge(&steady, &[105.0, 104.0, 106.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Higher is better: the same +20 % is an improvement.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = [80.0, 100.0, 125.0, 90.0, 110.0];
        assert_eq!(
            judge(
                &noisy,
                &[85.0, 102.0, 120.0, 95.0, 108.0],
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        // Every run of B below every run of A: resolved in B's favour.
        assert_eq!(
            judge(&noisy, &[50.0, 70.0, 60.0, 79.0, 55.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn compare_rows_carry_the_ratio_with_its_base() {
        let a = record(vec![run(1, 100.0, 1000.0, 0), run(2, 102.0, 990.0, 0)]);
        let b = record(vec![run(1, 130.0, 1005.0, 0), run(2, 128.0, 1001.0, 1)]);
        let rows = compare(&a, &b);
        assert_eq!(rows.len(), 3);
        assert_eq!(
            (rows[0].metric.as_str(), rows[0].verdict),
            ("op_p50_us", Verdict::Regressed)
        );
        assert!((rows[0].ratio - 129.0 / 101.0).abs() < 1e-12);
        assert_eq!(
            (rows[1].metric.as_str(), rows[1].verdict),
            ("ops_per_s", Verdict::Ok)
        );
        assert_eq!(
            (rows[2].metric.as_str(), rows[2].verdict),
            ("failed", Verdict::Regressed)
        );
        let text = render(&rows);
        assert!(text.contains("B/A") && text.contains("regressed"));
        // A record compared with itself is all ok.
        assert!(compare(&a, &a).iter().all(|r| r.verdict == Verdict::Ok));
        // Records survive their own writer and reader.
        assert_eq!(crate::json::parse(&a.pretty()).unwrap(), a);
    }
}

//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`run --spec`) and a
//! unit test keeps the committed file equal to them.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 20260928;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    /// Why it exists: the layers it stresses and the ones it bypasses.
    pub why: &'static str,
}

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A metric of a single layer, from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "cold_chain",
        why: "fresh Compiler per request over 16 chains on 3 machines: enumerate, bound and analyze do the work; cache and serve are bypassed",
    },
    WorkloadSpec {
        name: "serve_hit",
        why: "one keep-alive client POSTs 14 cached chains to the service on one CPU: reactor, queue, conn and http do the work; search is bypassed",
    },
    WorkloadSpec {
        name: "serve_graph",
        why: "same client POSTs 6 whole-model graphs, all segments cached: lowering, matching, partition DP and cache hits do the work; transport is the small part",
    },
    WorkloadSpec {
        name: "serve_mixed",
        why: "one hit client beside one novel chain every 100 ms: shows what a cache miss (search, put, locks, cores) costs the other client",
    },
    WorkloadSpec {
        name: "exec_zoo",
        why: "blocked numeric execution of 8 compiled zoo layers against the naive oracle: only tensor and sim run; compiler and serve are bypassed",
    },
];

use Better::{Higher, Lower};

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every timing bound is the contract's maximum: the baseline host
/// drifts by 10 – 20 % between sessions (README, "Steadiness"), and a
/// bound below the host's own drift would fail unchanged code.
const TIMING_BOUND: f64 = 0.25;

/// The plan sets are fixed, so their quality repeats to the last bit.
const EXACT_BOUND: f64 = 0.001;

pub const END_TO_END: [EndToEnd; 10] = [
    metric("setup_s", "s", Lower, TIMING_BOUND),
    metric("peak_rss_mb", "MiB", Lower, TIMING_BOUND),
    metric("op_p50_us", "us", Lower, TIMING_BOUND),
    metric("op_tail_us", "us", Lower, TIMING_BOUND),
    metric("op_geomean_us", "us", Lower, TIMING_BOUND),
    metric("ops_per_s", "1/s", Higher, TIMING_BOUND),
    metric("cpu_ms_per_op", "ms", Lower, TIMING_BOUND),
    metric("cold_p50_ms", "ms", Lower, TIMING_BOUND),
    metric("plan_speedup_geomean", "x", Higher, EXACT_BOUND),
    metric("plan_bytes_ratio_geomean", "x", Lower, EXACT_BOUND),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 74] = [
    // cold_chain: should move op_geomean_us / op_tail_us there, and
    // cold_p50_ms on serve_mixed.
    layer("core.prune.candidates", "count", Lower),
    layer("core.prune.enumerate_ns_per_cand", "ns", Lower),
    layer("core.cost.geometry_ok_share", "share", Higher),
    layer("core.cost.bound_ns_per_cand", "ns", Lower),
    layer("core.analyzer.analyze_us_per_call", "us", Lower),
    layer("core.analyzer.feasible_share", "share", Higher),
    layer("core.search.considered", "count", Lower),
    layer("core.search.analyzed_ok", "count", Lower),
    layer("core.search.prefiltered", "count", Higher),
    layer("core.search.useful_share", "share", Higher),
    layer("core.search.rank_ms_t1", "ms", Lower),
    layer("core.search.rank_ms", "ms", Lower),
    layer("core.search.parallel_speedup", "x", Higher),
    layer("core.search.mcand_per_s", "M/s", Higher),
    layer("core.search.model_residual_share", "share", Lower),
    layer("sim.profiler.profile_us_per_plan", "us", Lower),
    layer("sim.profiler.calls", "count", Lower),
    layer("graph.fingerprint_us", "us", Lower),
    layer("core.codec.encode_us", "us", Lower),
    layer("core.codec.decode_us", "us", Lower),
    layer("core.codec.record_bytes", "bytes", Lower),
    layer("facade.compile_ms", "ms", Lower),
    layer("facade.self_share", "share", Lower),
    layer("facade.feasible_distinct", "count", Lower),
    // serve_hit: should move op_p50_us / ops_per_s there.
    layer("serve.server.rtt_p50_us", "us", Lower),
    layer("serve.server.self_us", "us", Lower),
    layer("serve.server.inside_p50_us", "us", Lower),
    layer("serve.server.queue_wait_p50_us", "us", Lower),
    layer("serve.server.queue_wait_p99_us", "us", Lower),
    layer("serve.server.accepted", "count", Lower),
    layer("serve.server.reused", "count", Higher),
    layer("serve.server.rejected_busy", "count", Lower),
    layer("serve.server.dropped", "count", Lower),
    layer("serve.http.parse_us", "us", Lower),
    layer("serve.http.encode_us", "us", Lower),
    // serve_graph: should move op_p50_us / ops_per_s there.
    layer("service.handle_us", "us", Lower),
    layer("core.json.parse_us", "us", Lower),
    layer("workloads.lower_us", "us", Lower),
    layer("graph.infer_shapes_us", "us", Lower),
    layer("graph.match_chains_us", "us", Lower),
    layer("graph.matched_chains", "count", Higher),
    layer("core.segment.partition_us", "us", Lower),
    layer("core.segment.fused_segments", "count", Higher),
    layer("facade.warm_graph_us", "us", Lower),
    layer("facade.warm_chain_us", "us", Lower),
    layer("cache.get_us", "us", Lower),
    layer("cache.put_us", "us", Lower),
    layer("cache.lookups_per_request", "count", Lower),
    // serve_mixed: should move op_tail_us / cold_p50_ms there.
    layer("cache.mem_hits", "count", Higher),
    layer("cache.misses", "count", Lower),
    layer("cache.evictions", "count", Lower),
    layer("cache.hit_share", "share", Higher),
    layer("facade.searches", "count", Lower),
    layer("facade.coalesced", "count", Higher),
    layer("facade.profile_calls", "count", Lower),
    layer("client.paced_late_share", "share", Lower),
    layer("client.paced_lateness_p50_us", "us", Lower),
    // exec_zoo: should move op_geomean_us there only.
    layer("tensor.kernel.blocked_gflops_512", "GF/s", Higher),
    layer("tensor.kernel.naive_gflops_512", "GF/s", Higher),
    layer("tensor.kernel.blocked_gflops_skinny", "GF/s", Higher),
    layer("sim.exec.fused_ms", "ms", Lower),
    layer("sim.exec.fused_share", "share", Lower),
    layer("sim.graph_exec.ms", "ms", Lower),
    layer("sim.graph_exec.naive_ms", "ms", Lower),
    layer("sim.interp.ms", "ms", Lower),
    layer("sim.exec.gflops", "GF/s", Higher),
    layer("sim.exec.global_bytes", "bytes", Lower),
    layer("sim.exec.dsm_bytes", "bytes", Lower),
    layer("validate.max_err", "abs", Lower),
    layer("validate.traffic_mismatches", "count", Lower),
    // Every traced run.
    layer("trace.overhead_share", "share", Lower),
    layer("trace.untraced_op_us", "us", Lower),
    layer("trace.traced_op_us", "us", Lower),
    layer("trace.spans", "count", Lower),
];

/// The workload called `name`.
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The unit of any metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The end-to-end table as `BENCHMARK.json` and every record carry it.
pub fn end_to_end_json() -> Json {
    Json::Arr(
        END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect(),
    )
}

/// The per-layer table, likewise.
pub fn per_layer_json() -> Json {
    Json::Arr(
        PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ])
            })
            .collect(),
    )
}

/// The `BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        ("end_to_end", end_to_end_json()),
        ("per_layer", per_layer_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        // 4 + 22 x workloads runs must fit the driver's 3420 s.
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        // `assert!`, not `assert_eq!`: a mismatch must not print both
        // documents.
        assert!(
            committed == benchmark_json().pretty(),
            "regenerate with: bash benchmark/run.sh --spec > BENCHMARK.json"
        );
    }
}

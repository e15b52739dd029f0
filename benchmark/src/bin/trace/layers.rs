//! Spans around every layer's public entry points, one workload at a
//! time. Each function replays the workload's requests through the
//! layers it exercises and turns the spans into the per-layer metrics
//! of `spec::PER_LAYER`.
//!
//! Counts are taken with `SearchConfig::with_threads(1)` where the
//! thread count would change them, so they repeat exactly.

use flashfuser::cache::{PlanCache, PlanKey, DEFAULT_CAPACITY};
use flashfuser::core::codec::{decode_record, encode_record, PlanRecord};
use flashfuser::core::json::{parse_with_limits, ParseLimits};
use flashfuser::core::segment::partition_graph;
use flashfuser::core::{
    CandidateStream, CostModel, DataflowAnalyzer, LoopSchedule, MachineDescriptor, PlanGeometry,
    PlanProfiler, SearchEngine,
};
use flashfuser::graph::{match_chains, ChainSpec, Dim};
use flashfuser::serve::http::{encode_response, parse_request, DEFAULT_MAX_BODY_BYTES};
use flashfuser::serve::{Handler, ServeStats};
use flashfuser::service::CompileService;
use flashfuser::sim::{
    execute_fused_with, execute_graph_with, interpret_graph, SimProfiler, TrafficCounters,
    UnfusedKernelPricer,
};
use flashfuser::tensor::gemm::{gemm_flops, matmul_with};
use flashfuser::tensor::rng::seeded_matrix;
use flashfuser::tensor::{KernelKind, NumericConfig};
use flashfuser::workloads::find_model;
use flashfuser::{
    default_config_for, validate_graph_with, Compiler, DEFAULT_TOLERANCE, UNFUSED_EFFICIENCY,
};
use flashfuser_benchmark::gen::{self, ChainRequest};
use flashfuser_benchmark::json::Json;
use flashfuser_benchmark::span::{SpanId, Tracer};
use flashfuser_benchmark::wire::Conn;
use flashfuser_benchmark::workload::{
    cold_compile, Checks, ColdChain, ExecZoo, Round, ServeGraph, ServeHit, ServeMixed, Service,
    Workload,
};
use flashfuser_benchmark::{spec, stats, RunArgs};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Share of `--seconds` spent on the untraced reference slice.
const UNTRACED_SHARE: f64 = 0.3;

/// Served requests traced per run: enough for stable medians, few
/// enough that the span log stays a few megabytes.
const MAX_TRACED_REQUESTS: usize = 4096;

/// Stream positions probed for the analyzer sample.
const ANALYZER_PROBES: u64 = 1 << 16;

/// The span log plus the metrics derived from it.
pub struct Probe {
    pub tracer: Tracer,
    metrics: BTreeMap<&'static str, f64>,
    requests: u64,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            tracer: Tracer::new(),
            metrics: BTreeMap::new(),
            requests: 0,
        }
    }

    /// Sets a per-layer metric; the name must be in the spec.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.metrics.insert(name, value);
    }

    /// A metric's value; 0 for a layer this workload bypassed.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// [`Tracer::time`] under a parent span.
    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.tracer.time(name, Some(parent), request, f)
    }

    /// Median length (µs) of the spans called `name`; 0 when none.
    fn median_us(&self, name: &str) -> f64 {
        let durations = self.tracer.durations_us(name);
        if durations.is_empty() {
            0.0
        } else {
            stats::median(&durations)
        }
    }

    /// Sets `metric` to the median length of the spans called `span`.
    fn set_median(&mut self, metric: &'static str, span: &str) {
        let value = self.median_us(span);
        self.set(metric, value);
    }

    /// `trace.*`: traced against untraced time per operation.
    fn set_overhead(&mut self, untraced_us: f64, traced_us: f64) {
        self.set("trace.untraced_op_us", untraced_us);
        self.set("trace.traced_op_us", traced_us);
        self.set("trace.overhead_share", traced_us / untraced_us - 1.0);
    }
}

fn mean_op_us(rounds: &[Round]) -> f64 {
    let samples: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.us))
        .collect();
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `(untraced budget, deadline of the traced part)`.
fn budget(args: &RunArgs) -> (f64, Instant) {
    let untraced = args.seconds * UNTRACED_SHARE;
    (
        untraced,
        Instant::now() + Duration::from_secs_f64(args.seconds),
    )
}

// ---------------------------------------------------------------------
// cold_chain: fingerprint → cache → enumerate → bound → analyze → rank →
// profile → encode
// ---------------------------------------------------------------------

/// What one traced cold request measured (times in µs).
#[derive(Debug, Clone, Default)]
struct ColdTrace {
    facade: f64,
    /// fingerprint + cache.get + rank + profile + cache.put.
    layers: f64,
    rank: f64,
    rank_t1: f64,
    profile: f64,
    profile_calls: f64,
    enumerate: f64,
    bound_loop: f64,
    analyze: f64,
    analyze_calls: f64,
    analyze_ok: f64,
    candidates: f64,
    geometry_ok: f64,
    eligible: f64,
    considered: f64,
    analyzed_ok: f64,
    prefiltered: f64,
    record_bytes: f64,
}

fn cold_request(
    p: &mut Probe,
    request: &ChainRequest,
    all: &[LoopSchedule],
    checks: &mut Checks,
) -> (ColdTrace, u64) {
    let (chain, machine) = (&request.chain, &request.machine);
    let id = p.next_request();
    let root = p.tracer.open("cold_chain.request", None, id);
    let mut t = ColdTrace::default();

    // The request as the user issues it: one opaque call.
    let (compiled, facade_us) = p.timed("facade.compile", root, id, || cold_compile(request));
    t.facade = facade_us;

    // The same work again through the layers' own entry points.
    let replay = p.tracer.open("facade.replay", Some(root), id);
    let config = default_config_for(machine);
    let engine = SearchEngine::new(machine.clone());
    let cache = PlanCache::in_memory(DEFAULT_CAPACITY);
    let (key, fingerprint_us) = p.timed("graph.fingerprint", replay, id, || {
        PlanKey::derive(chain, machine, &config)
    });
    let (miss, get_us) = p.timed("cache.get", replay, id, || cache.get(&key));
    let (result, rank_us) = p.timed("core.search.rank", replay, id, || {
        engine
            .search(chain, &config)
            .expect("the facade found a plan")
    });
    let mut profiler = SimProfiler::new(machine.clone());
    let (outcomes, profile_us) = p.timed("sim.profiler.profile", replay, id, || {
        result
            .top_k()
            .iter()
            .map(|ranked| profiler.profile(ranked.analysis.plan()))
            .collect::<Vec<_>>()
    });
    let best = (0..outcomes.len())
        .min_by(|&a, &b| outcomes[a].seconds.total_cmp(&outcomes[b].seconds))
        .expect("top-K is never empty");
    let record = Arc::new(PlanRecord {
        plan: result.top_k()[best].analysis.plan().clone(),
        seconds: outcomes[best].seconds,
        global_bytes: outcomes[best].global_bytes,
        dsm_bytes: outcomes[best].dsm_bytes,
        feasible: result.stats().feasible,
    });
    let ((), put_us) = p.timed("cache.put", replay, id, || {
        cache.put(key, Arc::clone(&record))
    });
    p.tracer.close(replay);
    checks.check(
        miss.is_none()
            && record.plan == compiled.plan
            && record.seconds.to_bits() == compiled.measured_seconds.to_bits()
            && record.global_bytes == compiled.global_bytes,
        || format!("{}: the replayed layers chose another plan", request.label),
    );
    t.layers = fingerprint_us + get_us + rank_us + profile_us + put_us;
    t.rank = rank_us;
    t.profile = profile_us;
    t.profile_calls = outcomes.len() as f64;

    let (text, _) = p.timed("core.codec.encode", root, id, || encode_record(&record));
    let (decoded, _) = p.timed("core.codec.decode", root, id, || decode_record(&text));
    checks.check(decoded.as_ref() == Ok(&*record), || {
        format!("{}: record does not survive the codec", request.label)
    });
    t.record_bytes = text.len() as f64;

    // One thread: the counts below repeat exactly.
    let single = config.clone().with_threads(1);
    let (result_t1, rank_t1_us) = p.timed("core.search.rank_t1", root, id, || {
        engine
            .search(chain, &single)
            .expect("one thread finds the same plan")
    });
    let stats_t1 = result_t1.stats();
    t.rank_t1 = rank_t1_us;
    t.considered = stats_t1.considered as f64;
    t.analyzed_ok = stats_t1.feasible as f64;
    t.prefiltered = stats_t1.prefiltered as f64;

    let (candidates, enumerate_us) = p.timed("core.prune.enumerate", root, id, || {
        let stream = CandidateStream::build(chain, &config.prune, all);
        let mut n = 0u64;
        for candidate in stream.iter() {
            black_box(&candidate);
            n += 1;
        }
        n
    });
    t.candidates = candidates as f64;
    t.enumerate = enumerate_us;

    // Rule 3's temporal face, as the search applies it before pricing.
    let rule3 = |s: &LoopSchedule| s.is_spatial(Dim::K) || s.innermost_temporal() == Some(Dim::K);
    let cost = CostModel::new(machine.clone());
    let ((geometry_ok, eligible), bound_us) = p.timed("core.cost.bound", root, id, || {
        let stream = CandidateStream::build(chain, &config.prune, all);
        let (mut ok, mut eligible) = (0u64, 0u64);
        for c in stream.iter() {
            let Ok(geometry) = PlanGeometry::derive(chain.dims(), c.schedule, c.cluster, c.tile)
            else {
                continue;
            };
            ok += 1;
            if rule3(c.schedule) {
                eligible += 1;
                black_box(cost.lower_bound_for(chain, &geometry, c.cluster, c.tile));
            }
        }
        (ok, eligible)
    });
    t.geometry_ok = geometry_ok as f64;
    t.eligible = eligible as f64;
    t.bound_loop = bound_us;

    // An evenly strided sample of the candidates the analyzer would see.
    let stream = CandidateStream::build(chain, &config.prune, all);
    let stride = (stream.len() / ANALYZER_PROBES).max(1);
    let sample: Vec<_> = (0..stream.len())
        .step_by(stride as usize)
        .filter_map(|seq| stream.get(seq))
        .filter(|c| rule3(c.schedule))
        .filter_map(|c| {
            PlanGeometry::derive(chain.dims(), c.schedule, c.cluster, c.tile)
                .ok()
                .map(|geometry| (c, geometry))
        })
        .collect();
    let analyzer = DataflowAnalyzer::new(machine.clone())
        .with_lowest_spill(config.prune.lowest_spill)
        .with_inter_cluster_reduce(config.prune.allow_inter_cluster_reduce);
    let (analyze_ok, analyze_us) = p.timed("core.analyzer.analyze", root, id, || {
        sample
            .iter()
            .filter(|(c, geometry)| {
                analyzer
                    .analyze_with_geometry(chain, c.schedule, c.cluster, c.tile, *geometry)
                    .is_ok()
            })
            .count()
    });
    t.analyze = analyze_us;
    t.analyze_calls = sample.len() as f64;
    t.analyze_ok = analyze_ok as f64;

    p.tracer.close(root);
    (t, compiled.feasible_candidates)
}

pub fn cold_chain(p: &mut Probe, args: &RunArgs) -> Checks {
    let mut checks = Checks::default();
    let (untraced_s, deadline) = budget(args);
    let mut w = ColdChain::set_up(args.seed);
    let untraced_us = mean_op_us(&w.measure(untraced_s, &mut checks));

    let all = LoopSchedule::enumerate_all();
    let mut passes: Vec<Vec<ColdTrace>> = Vec::new();
    loop {
        let mut pass = Vec::with_capacity(w.requests.len());
        for (i, request) in w.requests.iter().enumerate() {
            let (trace, feasible) = cold_request(p, request, &all, &mut checks);
            w.feasible[i].insert(feasible);
            pass.push(trace);
        }
        passes.push(pass);
        if Instant::now() >= deadline {
            break;
        }
    }

    // Times: per request the median over passes, summed over the 16
    // requests (so "per pass"). Counts: the first pass — they repeat.
    let per_pass = |field: fn(&ColdTrace) -> f64| -> f64 {
        (0..w.requests.len())
            .map(|i| {
                stats::median(
                    &passes
                        .iter()
                        .map(|pass| field(&pass[i]))
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    };
    let count = |field: fn(&ColdTrace) -> f64| -> f64 { passes[0].iter().map(field).sum() };
    for pass in &passes[1..] {
        for (a, b) in pass.iter().zip(&passes[0]) {
            checks.check(
                (a.considered, a.analyzed_ok, a.prefiltered, a.candidates)
                    == (b.considered, b.analyzed_ok, b.prefiltered, b.candidates),
                || "single-threaded counts differ between passes".to_string(),
            );
        }
    }

    let candidates = count(|t| t.candidates);
    let considered = count(|t| t.considered);
    let enumerate_us = per_pass(|t| t.enumerate);
    let bound_loop_us = per_pass(|t| t.bound_loop);
    let analyze_us_per_call = per_pass(|t| t.analyze) / count(|t| t.analyze_calls).max(1.0);
    let rank_t1_us = per_pass(|t| t.rank_t1);
    let rank_us = per_pass(|t| t.rank);
    let facade_us = per_pass(|t| t.facade);
    p.set("core.prune.candidates", candidates);
    p.set(
        "core.prune.enumerate_ns_per_cand",
        enumerate_us * 1e3 / candidates,
    );
    p.set(
        "core.cost.geometry_ok_share",
        count(|t| t.geometry_ok) / candidates,
    );
    // The bound loop walks the stream too; the walk alone is subtracted.
    p.set(
        "core.cost.bound_ns_per_cand",
        (bound_loop_us - enumerate_us).max(0.0) * 1e3 / candidates,
    );
    p.set("core.analyzer.analyze_us_per_call", analyze_us_per_call);
    p.set(
        "core.analyzer.feasible_share",
        count(|t| t.analyze_ok) / count(|t| t.analyze_calls).max(1.0),
    );
    p.set("core.search.considered", considered);
    p.set("core.search.analyzed_ok", count(|t| t.analyzed_ok));
    p.set("core.search.prefiltered", count(|t| t.prefiltered));
    p.set(
        "core.search.useful_share",
        count(|t| t.analyzed_ok) / considered,
    );
    p.set("core.search.rank_ms_t1", rank_t1_us / 1e3);
    p.set("core.search.rank_ms", rank_us / 1e3);
    p.set("core.search.parallel_speedup", rank_t1_us / rank_us);
    p.set("core.search.mcand_per_s", considered / rank_us);
    // What one thread should take if the search were only its parts:
    // walk + geometry + bound for every candidate, one analysis for
    // every eligible candidate the prefilter let through.
    let analyses = count(|t| t.eligible) - count(|t| t.prefiltered);
    let modelled_us = bound_loop_us + analyses * analyze_us_per_call;
    p.set(
        "core.search.model_residual_share",
        (rank_t1_us - modelled_us).abs() / rank_t1_us,
    );
    p.set(
        "sim.profiler.profile_us_per_plan",
        per_pass(|t| t.profile) / count(|t| t.profile_calls),
    );
    p.set("sim.profiler.calls", count(|t| t.profile_calls));
    p.set_median("graph.fingerprint_us", "graph.fingerprint");
    p.set_median("cache.get_us", "cache.get");
    p.set_median("cache.put_us", "cache.put");
    p.set_median("core.codec.encode_us", "core.codec.encode");
    p.set_median("core.codec.decode_us", "core.codec.decode");
    p.set(
        "core.codec.record_bytes",
        count(|t| t.record_bytes) / w.requests.len() as f64,
    );
    p.set("facade.compile_ms", facade_us / 1e3);
    p.set(
        "facade.self_share",
        (facade_us - per_pass(|t| t.layers)) / facade_us,
    );
    p.set(
        "facade.feasible_distinct",
        w.feasible.iter().map(|s| s.len()).max().unwrap_or(0) as f64,
    );
    p.set_overhead(untraced_us, mean(&p.tracer.durations_us("facade.compile")));
    checks
}

// ---------------------------------------------------------------------
// serve_hit / serve_graph: accept → parse → queue → handler → encode →
// write, and under the handler: json → lower → match → partition → cache
// ---------------------------------------------------------------------

/// What the service's bodies ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    Chains,
    Graphs,
}

/// Sets every metric that `GET /stats` carries. Histograms and counts
/// are cumulative since the service started, set-up included.
fn set_server_stats(p: &mut Probe, doc: &Json) {
    let hist = |section: &str, key: &str| Service::stat(doc, section, key) as f64;
    p.set("serve.server.inside_p50_us", hist("latency_us", "p50"));
    p.set(
        "serve.server.queue_wait_p50_us",
        hist("queue_wait_us", "p50"),
    );
    p.set(
        "serve.server.queue_wait_p99_us",
        hist("queue_wait_us", "p99"),
    );
    p.set("serve.server.accepted", hist("admission", "accepted"));
    p.set("serve.server.reused", hist("admission", "reused"));
    p.set(
        "serve.server.rejected_busy",
        hist("admission", "rejected_busy"),
    );
    p.set("serve.server.dropped", hist("outcomes", "dropped"));
}

/// Cache and compiler counters between two `/stats` documents.
fn set_cache_deltas(p: &mut Probe, before: &Json, after: &Json) {
    let delta = |section: &str, key: &str| {
        (Service::stat(after, section, key) - Service::stat(before, section, key)) as f64
    };
    let hits = delta("cache", "mem_hits") + delta("cache", "disk_hits");
    let misses = delta("cache", "misses");
    p.set("cache.mem_hits", delta("cache", "mem_hits"));
    p.set("cache.misses", misses);
    p.set("cache.evictions", delta("cache", "evictions"));
    p.set("cache.hit_share", hits / (hits + misses).max(1.0));
    p.set("facade.searches", delta("compiler", "searches"));
    p.set("facade.coalesced", delta("compiler", "coalesced"));
    p.set("facade.profile_calls", delta("compiler", "profile_calls"));
    let requests = delta("endpoints", "compile") + delta("endpoints", "graph");
    p.set(
        "cache.lookups_per_request",
        (hits + misses) / requests.max(1.0),
    );
}

/// Fingerprint, put and get on a cache of the trace's own.
fn cache_layers(
    p: &mut Probe,
    parent: SpanId,
    id: u64,
    cache: &PlanCache,
    chain: &ChainSpec,
    record: &Arc<PlanRecord>,
    machine: &MachineDescriptor,
) {
    let config = default_config_for(machine);
    let (key, _) = p.timed("graph.fingerprint", parent, id, || {
        PlanKey::derive(chain, machine, &config)
    });
    p.timed("cache.put", parent, id, || {
        cache.put(key, Arc::clone(record))
    });
    let (hit, _) = p.timed("cache.get", parent, id, || cache.get(&key));
    assert!(hit.is_some(), "a key just put is a hit");
}

fn serve_layers(
    p: &mut Probe,
    service: &Service,
    served: Served,
    seed: u64,
    deadline: Instant,
    checks: &mut Checks,
) {
    let machine = MachineDescriptor::h100_sxm();
    let handler = CompileService::new(Arc::clone(&service.compiler), Arc::new(ServeStats::new()));
    let cache = PlanCache::in_memory(DEFAULT_CAPACITY);
    let pricer = UnfusedKernelPricer::new(machine.clone(), UNFUSED_EFFICIENCY);
    // Chain bodies: the record each one was answered with.
    let records: Vec<Option<Arc<PlanRecord>>> = service
        .expected
        .iter()
        .map(|reply| {
            decode_record(&String::from_utf8_lossy(reply))
                .ok()
                .map(Arc::new)
        })
        .collect();
    // Graph bodies: (matched chains, fused segments), filled when seen.
    let mut shapes: Vec<Option<(usize, usize)>> = vec![None; service.bodies.len()];

    let mut conn = Conn::open(service.addr).expect("connect the traced client");
    let mut reply = Vec::new();
    // Its own order, distinct from every untraced connection's.
    let order = gen::request_order(seed, usize::MAX, service.bodies.len(), 64);
    let mut sent = 0;
    while Instant::now() < deadline && sent < MAX_TRACED_REQUESTS {
        let kind = order[sent % order.len()];
        sent += 1;
        let body = &service.bodies[kind];
        let id = p.next_request();
        let root = p.tracer.open("serve.request", None, id);
        let (status, _) = p.timed("serve.server.rtt", root, id, || {
            conn.round_trip(&body.request, &mut reply)
        });
        checks.check(
            matches!(status, Ok(200)) && reply == service.expected[kind],
            || {
                format!(
                    "{}: {status:?} or another reply on the traced connection",
                    body.label
                )
            },
        );

        // The same request through the layers, in this thread.
        let (parsed, _) = p.timed("serve.http.parse", root, id, || {
            parse_request(&body.request, DEFAULT_MAX_BODY_BYTES)
        });
        let Ok(Some((request, _))) = parsed else {
            checks.check(false, || format!("{}: request does not parse", body.label));
            p.tracer.close(root);
            continue;
        };
        let (response, _) = p.timed("service.handle", root, id, || handler.handle(&request));
        checks.check(
            response.status == 200 && response.body == service.expected[kind],
            || format!("{}: the handler alone answers differently", body.label),
        );
        p.timed("serve.http.encode", root, id, || {
            black_box(encode_response(&response, true))
        });
        let (document, _) = p.timed("core.json.parse", root, id, || {
            parse_with_limits(&body.json, ParseLimits::untrusted())
        });
        checks.check(document.is_ok(), || {
            format!("{}: body is not JSON", body.label)
        });

        match served {
            Served::Chains => {
                let record = records[kind].as_ref().expect("chain replies are records");
                let chain = &record.plan.chain;
                let (warm, _) = p.timed("facade.warm_chain", root, id, || {
                    service.compiler.compile_record_for(chain)
                });
                checks.check(warm.as_ref() == Ok(&**record), || {
                    format!(
                        "{}: a warm compile differs from the served record",
                        body.label
                    )
                });
                cache_layers(p, root, id, &cache, chain, record, &machine);
            }
            Served::Graphs => {
                let (model, layers) = gen::GRAPH_MODELS[kind];
                let model = find_model(model).expect("the zoo has every benchmark model");
                let (graph, _) = p.timed("workloads.lower", root, id, || {
                    model.graph(gen::GRAPH_M, layers)
                });
                let (shapes_ok, _) = p.timed("graph.infer_shapes", root, id, || {
                    graph.infer_shapes().is_ok()
                });
                let (matches, _) = p.timed("graph.match_chains", root, id, || match_chains(&graph));
                let (partition, _) = p.timed("core.segment.partition", root, id, || {
                    partition_graph(&graph, &machine, &pricer)
                });
                let (plan, _) = p.timed("facade.warm_graph", root, id, || {
                    service.compiler.compile_graph(&graph)
                });
                if let (true, Ok(matches), Ok(partition), Ok(plan)) =
                    (shapes_ok, matches, partition, plan)
                {
                    shapes[kind] = Some((matches.len(), partition.fused_count()));
                    if let Some(segment) = plan.fused_segments().next() {
                        let record = service
                            .compiler
                            .compile_record_for(&segment.chain)
                            .map(Arc::new)
                            .expect("a cached segment compiles");
                        cache_layers(p, root, id, &cache, &segment.chain, &record, &machine);
                    }
                } else {
                    checks.check(false, || format!("{}: a graph layer failed", body.label));
                }
            }
        }
        p.tracer.close(root);
    }

    let rtt = p.median_us("serve.server.rtt");
    p.set("serve.server.rtt_p50_us", rtt);
    p.set_median("serve.http.parse_us", "serve.http.parse");
    p.set_median("serve.http.encode_us", "serve.http.encode");
    p.set_median("service.handle_us", "service.handle");
    // By construction: rtt = server self time + handler + parse + encode.
    let inside =
        p.get("service.handle_us") + p.get("serve.http.parse_us") + p.get("serve.http.encode_us");
    p.set("serve.server.self_us", rtt - inside);
    p.set_median("core.json.parse_us", "core.json.parse");
    p.set_median("graph.fingerprint_us", "graph.fingerprint");
    p.set_median("cache.get_us", "cache.get");
    p.set_median("cache.put_us", "cache.put");
    p.set_median("facade.warm_chain_us", "facade.warm_chain");
    p.set_median("workloads.lower_us", "workloads.lower");
    p.set_median("graph.infer_shapes_us", "graph.infer_shapes");
    p.set_median("graph.match_chains_us", "graph.match_chains");
    p.set_median("core.segment.partition_us", "core.segment.partition");
    p.set_median("facade.warm_graph_us", "facade.warm_graph");
    // Over the bodies seen (all of them, after one cycle of the order).
    let seen: Vec<(usize, usize)> = shapes.into_iter().flatten().collect();
    p.set(
        "graph.matched_chains",
        seen.iter().map(|s| s.0).sum::<usize>() as f64,
    );
    p.set(
        "core.segment.fused_segments",
        seen.iter().map(|s| s.1).sum::<usize>() as f64,
    );
}

/// The traced run of a workload whose requests are all cached.
fn serve_cached<W: Workload>(
    p: &mut Probe,
    args: &RunArgs,
    served: Served,
    service_of: fn(&W) -> &Service,
) -> Checks {
    let mut checks = Checks::default();
    let (untraced_s, deadline) = budget(args);
    let mut w = W::set_up(args.seed);
    // `/stats` on both sides of the untraced slice: the cache counters
    // of the workload's own client, before the traced connection's
    // in-process calls add lookups of their own.
    let before = service_of(&w).stats();
    let untraced_us = mean_op_us(&w.measure(untraced_s, &mut checks));
    let after = service_of(&w).stats();
    set_cache_deltas(p, &before, &after);
    serve_layers(p, service_of(&w), served, args.seed, deadline, &mut checks);
    set_server_stats(p, &service_of(&w).stats());
    w.tear_down();
    p.set_overhead(
        untraced_us,
        mean(&p.tracer.durations_us("serve.server.rtt")),
    );
    checks
}

pub fn serve(p: &mut Probe, args: &RunArgs, served: Served) -> Checks {
    match served {
        Served::Chains => serve_cached::<ServeHit>(p, args, served, |w| &w.service),
        Served::Graphs => serve_cached::<ServeGraph>(p, args, served, |w| &w.service),
    }
}

// ---------------------------------------------------------------------
// serve_mixed: what the cache and the compiler counted while hits and
// misses shared the service
// ---------------------------------------------------------------------

pub fn serve_mixed(p: &mut Probe, args: &RunArgs) -> Checks {
    let mut checks = Checks::default();
    let (untraced_s, _) = budget(args);
    let mut w = ServeMixed::set_up(args.seed);
    let untraced_us = mean_op_us(&w.measure(untraced_s, &mut checks));

    // The clients are the library's own; the spans here bracket the
    // phase and the two `/stats` reads that bound the counters.
    let id = p.next_request();
    let root = p.tracer.open("serve_mixed.phase", None, id);
    let (before, _) = p.timed("serve.stats", root, id, || w.service.stats());
    let (rounds, _) = p.timed("serve_mixed.measure", root, id, || {
        w.measure(args.seconds - untraced_s, &mut checks)
    });
    let (after, _) = p.timed("serve.stats", root, id, || w.service.stats());
    p.tracer.close(root);

    set_cache_deltas(p, &before, &after);
    set_server_stats(p, &after);
    let (late_share, lateness_p50_us) = w.miss.lateness();
    p.set("client.paced_late_share", late_share);
    p.set("client.paced_lateness_p50_us", lateness_p50_us);
    p.set_overhead(untraced_us, mean_op_us(&rounds));
    w.tear_down();
    checks
}

// ---------------------------------------------------------------------
// exec_zoo: pack → micro-tile → epilogue under sim's executors
// ---------------------------------------------------------------------

/// Best-of-three GFLOP/s of one `m × n × k` GEMM on `kind`.
fn gemm_gflops(kind: KernelKind, m: usize, n: usize, k: usize) -> f64 {
    let a = seeded_matrix(m, k, 1);
    let b = seeded_matrix(k, n, 2);
    let kernel = kind.kernel();
    let best = (0..4)
        .map(|_| {
            let t0 = Instant::now();
            black_box(matmul_with(kernel, &a, &b).expect("shapes compose"));
            t0.elapsed().as_secs_f64()
        })
        .skip(1) // the first run warms the caches
        .fold(f64::INFINITY, f64::min);
    gemm_flops(m as u64, n as u64, k as u64) as f64 / best / 1e9
}

/// What one traced zoo case measured (times in µs).
#[derive(Debug, Clone, Default)]
struct ZooTrace {
    exec: f64,
    naive: f64,
    interp: f64,
    fused: f64,
    fused_flops: f64,
    global_bytes: f64,
    dsm_bytes: f64,
}

pub fn exec_zoo(p: &mut Probe, args: &RunArgs) -> Checks {
    let mut checks = Checks::default();
    let (untraced_s, deadline) = budget(args);
    let mut w = ExecZoo::set_up(args.seed);
    let untraced_us = mean_op_us(&w.measure(untraced_s, &mut checks));

    p.set(
        "tensor.kernel.blocked_gflops_512",
        gemm_gflops(KernelKind::Blocked, 512, 512, 512),
    );
    p.set(
        "tensor.kernel.naive_gflops_512",
        gemm_gflops(KernelKind::Naive, 512, 512, 512),
    );
    // The shape the zoo's FFN GEMMs actually have: few rows, wide.
    p.set(
        "tensor.kernel.blocked_gflops_skinny",
        gemm_gflops(KernelKind::Blocked, 128, 2048, 512),
    );

    let compiler = Compiler::new(MachineDescriptor::h100_sxm());
    let mut passes: Vec<Vec<ZooTrace>> = Vec::new();
    let (mut max_err, mut mismatches) = (0.0f32, 0usize);
    loop {
        let first_pass = passes.is_empty();
        let mut pass = Vec::with_capacity(w.cases.len());
        for case in &w.cases {
            let id = p.next_request();
            let root = p.tracer.open("exec_zoo.case", None, id);
            let mut t = ZooTrace::default();
            let segments = case.segments();
            let (execution, exec_us) = p.timed("sim.graph_exec", root, id, || {
                execute_graph_with(
                    &case.graph,
                    &segments,
                    &case.inputs,
                    NumericConfig::blocked(),
                )
            });
            t.exec = exec_us;
            match &execution {
                Ok(execution) => {
                    // Computed from the executor's counters, not measured.
                    let counters = execution.total_counters();
                    t.global_bytes = counters.global_bytes() as f64;
                    t.dsm_bytes = counters.dsm_bytes() as f64;
                }
                Err(e) => checks.check(false, || format!("{}: {e}", case.name)),
            }
            let (_, naive_us) = p.timed("sim.graph_exec.naive", root, id, || {
                black_box(execute_graph_with(
                    &case.graph,
                    &segments,
                    &case.inputs,
                    NumericConfig::naive(),
                ))
            });
            t.naive = naive_us;
            let (_, interp_us) = p.timed("sim.interp", root, id, || {
                black_box(interpret_graph(&case.graph, &case.inputs))
            });
            t.interp = interp_us;
            for segment in case.plan.fused_segments() {
                let inputs = segment.chain.make_inputs(args.seed);
                let mut counters = TrafficCounters::new();
                let (_, fused_us) = p.timed("sim.exec.fused", root, id, || {
                    black_box(execute_fused_with(
                        &segment.compiled.plan,
                        &inputs,
                        &mut counters,
                        NumericConfig::blocked(),
                    ))
                });
                t.fused += fused_us;
                t.fused_flops += segment.chain.total_flops() as f64;
            }
            if first_pass {
                let (validation, _) = p.timed("validate.graph", root, id, || {
                    validate_graph_with(
                        &compiler,
                        &case.graph,
                        args.seed,
                        DEFAULT_TOLERANCE,
                        NumericConfig::blocked(),
                    )
                });
                match validation {
                    Ok(v) => {
                        max_err = v
                            .segments
                            .iter()
                            .filter(|s| s.fused)
                            .map(|s| s.max_err)
                            .fold(max_err.max(v.max_err), f32::max);
                        mismatches += v.segments.iter().filter(|s| !s.traffic_ok).count();
                        checks.check(v.passed(), || {
                            format!("{}: validate_graph found a divergence", case.name)
                        });
                    }
                    Err(e) => checks.check(false, || format!("{}: {e}", case.name)),
                }
            }
            p.tracer.close(root);
            pass.push(t);
        }
        passes.push(pass);
        if Instant::now() >= deadline {
            break;
        }
    }

    // Per case the median over passes, summed over the eight cases.
    let per_pass = |field: fn(&ZooTrace) -> f64| -> f64 {
        (0..w.cases.len())
            .map(|i| {
                stats::median(
                    &passes
                        .iter()
                        .map(|pass| field(&pass[i]))
                        .collect::<Vec<_>>(),
                )
            })
            .sum()
    };
    let exec_us = per_pass(|t| t.exec);
    let fused_us = per_pass(|t| t.fused);
    p.set("sim.graph_exec.ms", exec_us / 1e3);
    p.set("sim.graph_exec.naive_ms", per_pass(|t| t.naive) / 1e3);
    p.set("sim.interp.ms", per_pass(|t| t.interp) / 1e3);
    p.set("sim.exec.fused_ms", fused_us / 1e3);
    p.set("sim.exec.fused_share", fused_us / exec_us);
    p.set(
        "sim.exec.gflops",
        per_pass(|t| t.fused_flops) / fused_us / 1e3,
    );
    p.set("sim.exec.global_bytes", per_pass(|t| t.global_bytes));
    p.set("sim.exec.dsm_bytes", per_pass(|t| t.dsm_bytes));
    p.set("validate.max_err", f64::from(max_err));
    p.set("validate.traffic_mismatches", mismatches as f64);
    p.set_overhead(untraced_us, mean(&p.tracer.durations_us("sim.graph_exec")));
    checks
}

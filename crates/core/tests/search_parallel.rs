//! Determinism and admissibility properties of the parallel search
//! engine:
//!
//! 1. **Thread-count invariance** — `search`, `search_with_profiler` and
//!    `brute_force` return the same winner and identically-ordered top-K
//!    for any thread count, because ties in analytical cost are broken
//!    by the candidate stream's total order; the persisted `eligible`
//!    count does not move either.
//! 2. **Bound admissibility** — skipping on the lower bound (a plane's,
//!    or a whole group's floor) never drops a candidate that could have
//!    entered the top-K: the engine's top-K equals that of an in-test
//!    scan that analyzes and prices *every* candidate — on the small
//!    chains, and on the benchmark's sixteen cold-compile requests at
//!    threads {1, 2, 3, 8} — and the bound never exceeds the evaluated
//!    cost of any feasible candidate.
//! 3. **One bound per plane** — the engine prices the bound once per
//!    `(schedule, cluster, blk_m, blk_n)` plane and skips the plane on
//!    it, which is sound only while the bound ignores `blk_k` and
//!    `blk_l`: it must be bit-equal across every plane.
//! 4. **Score, don't build** — what the scan computes per plane and per
//!    candidate (geometry off the axes, shared mandatory traffic,
//!    `score`, `estimate`) is `analyze` + `evaluate` one candidate at a
//!    time, to the bit, and a plane it drops whole holds nothing
//!    `analyze` accepts.

use flashfuser_core::profiler::FakeProfiler;
use flashfuser_core::prune::{Candidate, CandidateStream, PruneConfig};
use flashfuser_core::{
    decode_machine, CostModel, DataflowAnalyzer, LoopSchedule, MachineDescriptor, MemLevel,
    PlanGeometry, SearchConfig, SearchEngine,
};
use flashfuser_graph::ChainSpec;
use flashfuser_tensor::Activation;
use flashfuser_workloads::{conv_chains, gated_ffn_chains, gemm_chains, Workload};
use oracle::{assert_oracle_top_k, exhaustive_top_k};

mod oracle;

/// Small chains with distinct shapes (standard + gated + skinny) that
/// brute-force quickly but still enumerate thousands of candidates.
fn small_chains() -> Vec<ChainSpec> {
    vec![
        ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu),
        ChainSpec::gated_ffn(64, 256, 128, 128, Activation::Silu),
        ChainSpec::standard_ffn(32, 1024, 64, 512, Activation::Gelu),
        ChainSpec::standard_ffn(128, 512, 32, 256, Activation::Relu),
    ]
}

fn engine() -> SearchEngine {
    SearchEngine::new(MachineDescriptor::h100_sxm())
}

fn assert_same_top_k(a: &flashfuser_core::SearchResult, b: &flashfuser_core::SearchResult) {
    assert_eq!(a.best_index(), b.best_index());
    assert_eq!(a.top_k().len(), b.top_k().len());
    for (x, y) in a.top_k().iter().zip(b.top_k()) {
        assert_eq!(
            x.est_seconds, y.est_seconds,
            "estimates must be bit-identical"
        );
        assert_eq!(x.analysis, y.analysis, "plans must be identical");
        assert_eq!(x.measured, y.measured, "measurements must be identical");
    }
}

#[test]
fn search_is_thread_count_invariant() {
    for chain in small_chains() {
        let baseline = engine()
            .search(&chain, &SearchConfig::default().with_threads(1))
            .unwrap();
        for threads in [2, 3, 4, 8] {
            let parallel = engine()
                .search(&chain, &SearchConfig::default().with_threads(threads))
                .unwrap();
            assert_same_top_k(&baseline, &parallel);
            assert_eq!(baseline.stats().eligible, parallel.stats().eligible);
        }
    }
}

#[test]
fn profiled_search_is_thread_count_invariant() {
    for chain in small_chains() {
        let mut p1 = FakeProfiler::default();
        let baseline = engine()
            .search_with_profiler(&chain, &SearchConfig::default().with_threads(1), &mut p1)
            .unwrap();
        for threads in [2, 4] {
            let mut p = FakeProfiler::default();
            let parallel = engine()
                .search_with_profiler(
                    &chain,
                    &SearchConfig::default().with_threads(threads),
                    &mut p,
                )
                .unwrap();
            assert_same_top_k(&baseline, &parallel);
            assert_eq!(p.calls, p1.calls, "one profile call per finalist");
        }
    }
}

#[test]
fn brute_force_is_thread_count_invariant() {
    // Keep this one to the two cheapest chains: brute force profiles
    // every feasible candidate.
    for chain in &small_chains()[..2] {
        let mut p1 = FakeProfiler::default();
        let (seq_best, seq_profiled) = engine()
            .brute_force(chain, &SearchConfig::default().with_threads(1), &mut p1)
            .unwrap();
        for threads in [2, 4] {
            let mut p = FakeProfiler::default();
            let (par_best, par_profiled) = engine()
                .brute_force(
                    chain,
                    &SearchConfig::default().with_threads(threads),
                    &mut p,
                )
                .unwrap();
            assert_eq!(seq_profiled, par_profiled, "same feasible set profiled");
            assert_eq!(p.calls as u64, par_profiled);
            assert_eq!(seq_best.analysis, par_best.analysis, "same winning plan");
            assert_eq!(seq_best.measured, par_best.measured);
        }
    }
}

#[test]
fn prefilter_never_prunes_the_cost_model_optimum() {
    // The engine's whole top-K must equal the exhaustive oracle's.
    let machine = MachineDescriptor::h100_sxm();
    for chain in small_chains() {
        let config = SearchConfig::default();
        let oracle = exhaustive_top_k(&machine, &chain, &config);
        assert_eq!(oracle.len(), config.top_k, "{}", chain.dims());
        for threads in [1, 4] {
            let guided = engine()
                .search(&chain, &config.clone().with_threads(threads))
                .unwrap();
            let at = format!("{}, {threads} thread(s)", chain.dims());
            assert_oracle_top_k(&guided, &oracle, &at);
            assert!(
                guided.stats().prefiltered > 0,
                "{}: the bound never fired — nothing was tested",
                chain.dims()
            );
        }
    }
}

/// The sixteen cold-compile requests of the benchmark's `cold_chain`
/// workload: Tab. VII G1–G10, gated S3, conv C5 and two attention
/// windows on H100, plus G4 on the tensix-like descriptor and on A100 —
/// each with the facade's default config for its machine.
fn cold_requests() -> Vec<(String, ChainSpec, MachineDescriptor, SearchConfig)> {
    let pick = |table: Vec<Workload>, id: &str| {
        table
            .into_iter()
            .find(|w| w.id == id)
            .unwrap_or_else(|| panic!("workload table lost {id}"))
            .chain
    };
    let mut chains: Vec<(String, ChainSpec)> = gemm_chains()
        .into_iter()
        .map(|w| (w.id.to_string(), w.chain))
        .collect();
    chains.push(("S3".into(), pick(gated_ffn_chains(), "S3")));
    chains.push(("C5".into(), pick(conv_chains(), "C5")));
    for (label, m, k) in [("A512", 512, 64), ("A2048", 2048, 128)] {
        let chain = ChainSpec::attention(m, m, k, k, true).named(label);
        chains.push((label.into(), chain));
    }
    let g4 = chains[3].1.clone();
    let tensix = decode_machine(include_str!("../../../machines/tensix_like.json"))
        .expect("machines/tensix_like.json decodes");
    let mut requests: Vec<_> = chains
        .into_iter()
        .map(|(label, chain)| (label, chain, MachineDescriptor::h100_sxm()))
        .collect();
    requests.push(("G4@tensix".into(), g4.clone(), tensix));
    requests.push(("G4@a100".into(), g4, MachineDescriptor::a100_sxm()));
    requests
        .into_iter()
        .map(|(label, chain, machine)| {
            let mut config = SearchConfig::default();
            config.prune.max_cluster = machine.max_cluster();
            if machine.max_cluster() <= 1 {
                config.prune.lowest_spill = MemLevel::Smem;
            }
            (label, chain, machine, config)
        })
        .collect()
}

#[test]
fn best_first_search_is_the_exhaustive_top_k_on_every_cold_request_and_thread_count() {
    let requests = cold_requests();
    assert_eq!(requests.len(), 16);
    for (label, chain, machine, config) in &requests {
        let oracle = exhaustive_top_k(machine, chain, config);
        assert_eq!(oracle.len(), config.top_k, "{label}");
        let engine = SearchEngine::new(machine.clone());
        for threads in [1, 2, 3, 8] {
            let got = engine
                .search(chain, &config.clone().with_threads(threads))
                .unwrap();
            assert_oracle_top_k(&got, &oracle, &format!("{label}, {threads} thread(s)"));
            let stats = got.stats();
            assert!(
                stats.prefiltered + stats.feasible <= stats.eligible
                    && stats.groups_skipped < stats.groups,
                "{label}, {threads} thread(s): {stats:?}"
            );
        }
    }
}

#[test]
fn lower_bound_is_admissible_for_every_feasible_candidate() {
    let all = LoopSchedule::enumerate_all();
    let analyzer = DataflowAnalyzer::new(MachineDescriptor::h100_sxm());
    let cost_model = CostModel::new(MachineDescriptor::h100_sxm());
    for chain in small_chains() {
        let stream = CandidateStream::build(&chain, &SearchConfig::default().prune, &all);
        let mut checked = 0u64;
        for cand in &stream {
            let Ok(analysis) = analyzer.analyze(&chain, cand.schedule, cand.cluster, cand.tile)
            else {
                continue;
            };
            // A candidate that analyzes has derived its geometry and
            // passed Rule 3, which is all `lower_bound_for` asks.
            let lb = cost_model.lower_bound_for(
                &chain,
                &analysis.plan().geometry,
                cand.cluster,
                cand.tile,
            );
            let est = cost_model.evaluate(&analysis).est_s;
            assert!(
                lb <= est,
                "{}: inadmissible bound {lb} > est {est} for {}",
                chain.dims(),
                analysis.plan()
            );
            checked += 1;
        }
        assert!(
            checked > 100,
            "too few feasible candidates ({checked}) to be meaningful"
        );
    }
}

#[test]
fn lower_bound_is_bit_equal_across_every_plane() {
    // A future edit to `mandatory_traffic` that lets `blk_k` or `blk_l`
    // into the bound must fail here, not silently make the plane skip
    // inadmissible.
    let all = LoopSchedule::enumerate_all();
    let tensix = decode_machine(include_str!("../../../machines/tensix_like.json"))
        .expect("machines/tensix_like.json decodes");
    for machine in [MachineDescriptor::h100_sxm(), tensix] {
        let cost_model = CostModel::new(machine.clone());
        let prune = PruneConfig {
            max_cluster: machine.max_cluster(),
            ..PruneConfig::default()
        };
        for chain in small_chains() {
            let bound = |c: Candidate<'_>| {
                let geometry = PlanGeometry::derive(chain.dims(), c.schedule, c.cluster, c.tile)
                    .expect("streamed candidates derive a geometry");
                cost_model
                    .lower_bound_for(&chain, &geometry, c.cluster, c.tile)
                    .to_bits()
            };
            let stream = CandidateStream::build(&chain, &prune, &all);
            let mut compared = 0u64;
            for plane in stream.planes(0, stream.len()) {
                let mut candidates = plane.candidates();
                let first = bound(candidates.next().expect("planes are never empty"));
                for c in candidates {
                    assert_eq!(
                        bound(c),
                        first,
                        "{} on {}: the bound moved inside the plane of {} {} {}",
                        chain.dims(),
                        machine.name,
                        c.schedule,
                        c.cluster,
                        c.tile
                    );
                    compared += 1;
                }
            }
            assert!(
                compared > 1000,
                "{}: only {compared} in-plane comparisons",
                chain.dims()
            );
        }
    }
}

#[test]
fn plane_then_score_then_estimate_is_analyze_then_evaluate_for_every_candidate() {
    let all = LoopSchedule::enumerate_all();
    let tensix = decode_machine(include_str!("../../../machines/tensix_like.json"))
        .expect("machines/tensix_like.json decodes");
    // The attention chain exercises the one plane-level rejection the FFN
    // chains cannot reach.
    let chains: Vec<ChainSpec> = small_chains()
        .into_iter()
        .chain([ChainSpec::attention(128, 256, 64, 64, true)])
        .collect();
    for machine in [MachineDescriptor::h100_sxm(), tensix] {
        let cost_model = CostModel::new(machine.clone());
        let prune = PruneConfig {
            max_cluster: machine.max_cluster(),
            ..PruneConfig::default()
        };
        // FlashFuser's configuration and the SMEM-only baselines' (no
        // inter-cluster reduce: a rejection that precedes every other).
        for (lowest, reduce) in [(MemLevel::Dsm, true), (MemLevel::Smem, false)] {
            let analyzer = DataflowAnalyzer::new(machine.clone())
                .with_lowest_spill(lowest)
                .with_inter_cluster_reduce(reduce);
            let (mut feasible, mut dropped_planes) = (0u64, 0u64);
            for chain in &chains {
                let at = format!("{} on {}, spill to {lowest}", chain.dims(), machine.name);
                let stream = CandidateStream::build(chain, &prune, &all);
                for plane in stream.planes(0, stream.len()) {
                    let (first, geometry) = plane.first();
                    let traffic =
                        geometry.mandatory_traffic(chain, plane.cluster, first, machine.l2_bytes());
                    let blocks = geometry.blocks_total(plane.cluster);
                    let pricing = cost_model.plane_pricing(
                        chain.total_flops(),
                        blocks,
                        plane.cluster.blocks(),
                    );
                    let terms = analyzer.plane(
                        chain,
                        plane.schedule,
                        plane.cluster,
                        first,
                        &geometry,
                        traffic,
                    );
                    let mut accepted = 0u64;
                    for (c, geometry) in plane.candidates().with_geometry() {
                        assert_eq!(
                            Ok(geometry),
                            PlanGeometry::derive(chain.dims(), c.schedule, c.cluster, c.tile),
                            "{at}: geometry off the axes, {} {} {}",
                            c.schedule,
                            c.cluster,
                            c.tile
                        );
                        assert_eq!(
                            geometry.mandatory_traffic(
                                chain,
                                c.cluster,
                                c.tile,
                                machine.l2_bytes()
                            ),
                            traffic,
                            "{at}: the mandatory traffic moved inside the plane of {} {} {}",
                            c.schedule,
                            c.cluster,
                            c.tile
                        );
                        let whole = analyzer.analyze(chain, c.schedule, c.cluster, c.tile);
                        let scored = terms.score(c.tile, geometry);
                        assert_eq!(
                            whole.as_deref(),
                            scored.as_ref(),
                            "{at}: {} {} {}",
                            c.schedule,
                            c.cluster,
                            c.tile
                        );
                        if let (Ok(analysis), Ok(scored)) = (whole, scored) {
                            assert_eq!(
                                cost_model.estimate(&pricing, &scored).to_bits(),
                                cost_model.evaluate(&analysis).est_s.to_bits(),
                                "{at}: estimate vs evaluate for {}",
                                analysis.plan()
                            );
                            accepted += 1;
                        }
                    }
                    if terms.infeasible() {
                        assert_eq!(
                            accepted, 0,
                            "{at}: a plane of {} {} the scan would drop holds feasible candidates",
                            plane.schedule, plane.cluster
                        );
                        dropped_planes += 1;
                    }
                    feasible += accepted;
                }
            }
            assert!(
                feasible > 1000 && dropped_planes > 100,
                "{} spill to {lowest}: {feasible} feasible candidates, {dropped_planes} planes \
                 dropped whole — too few to mean anything",
                machine.name
            );
        }
    }
}

#[test]
fn candidate_stream_iteration_matches_random_access() {
    let all = LoopSchedule::enumerate_all();
    let chain = ChainSpec::standard_ffn(64, 64, 64, 64, Activation::Relu);
    let stream = CandidateStream::build(&chain, &SearchConfig::default().prune, &all);
    // seq really is the position in the total order.
    for (i, cand) in stream.iter().enumerate() {
        assert_eq!(cand.seq, i as u64);
    }
    // Random access agrees with iteration.
    let mid = stream.len() / 2;
    let direct = stream.get(mid).unwrap();
    let via_iter = stream.iter().nth(mid as usize).unwrap();
    assert_eq!(direct.schedule, via_iter.schedule);
    assert_eq!(direct.cluster, via_iter.cluster);
    assert_eq!(direct.tile, via_iter.tile);
    assert!(stream.get(stream.len()).is_none());
}

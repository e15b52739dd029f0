//! Differential oracle for the geometry-factored [`CandidateStream`].
//!
//! The stream's *definition* is kept here as the reference: the Rules
//! 1–4 cross product `schedules_after_rule4 x ClusterShape::enumerate x
//! hardware_aware_tiles⁴`, in nested-loop order, filtered one candidate
//! at a time by `PlanGeometry::derive(..).is_ok()`. Over a seeded chain
//! population on every machine family the stream must be that list —
//! same members, same order, dense `seq` — however it is addressed:
//! `iter`, `get`, adjacent `range` pieces, adjacent `planes` pieces.

use flashfuser_core::analyzer::StripKind;
use flashfuser_core::comm::ClusterShape;
use flashfuser_core::profiler::FakeProfiler;
use flashfuser_core::prune::{schedules_after_rule4, Candidate, CandidateStream, PruneConfig};
use flashfuser_core::{
    decode_machine, hardware_aware_tiles, AnalysisError, BlockTile, CostModel, DataflowAnalysis,
    DataflowAnalyzer, LoopSchedule, MachineDescriptor, MemLevel, PlanGeometry, SearchConfig,
    SearchEngine, SearchError,
};
use flashfuser_graph::{ChainSpec, Dim, StableHasher};
use flashfuser_tensor::rng::SplitMix64;
use flashfuser_tensor::Activation;
use oracle::{assert_oracle_top_k, exhaustive_top_k};

mod oracle;

/// What identifies a candidate: the schedule (by address — stream and
/// reference borrow the same `enumerate_all` list), cluster and tile.
type Key = (*const LoopSchedule, ClusterShape, BlockTile);

fn key(c: &Candidate<'_>) -> Key {
    (c.schedule as *const _, c.cluster, c.tile)
}

/// The old definition of the stream, one `derive` per candidate.
fn reference(chain: &ChainSpec, config: &PruneConfig, all: &[LoopSchedule]) -> Vec<Key> {
    let dims = chain.dims();
    let tiles = Dim::ALL.map(|d| hardware_aware_tiles(dims.size(d)));
    let clusters = ClusterShape::enumerate(config.max_cluster);
    let mut out = Vec::new();
    for schedule in schedules_after_rule4(all) {
        for &cluster in &clusters {
            for &m in &tiles[0] {
                for &n in &tiles[1] {
                    for &k in &tiles[2] {
                        for &l in &tiles[3] {
                            let tile = BlockTile::new(m, n, k, l);
                            if PlanGeometry::derive(dims, schedule, cluster, tile).is_ok() {
                                out.push((schedule as *const _, cluster, tile));
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Extents the population draws from: powers of two and non-powers-of-two
/// with few 16-granule divisors.
const EXTENTS: [usize; 13] = [
    16, 32, 48, 64, 96, 128, 160, 256, 416, 512, 1024, 2048, 11008,
];

/// Extents no tile fits: one below the MMA granule, two with no
/// 16-granule divisor.
const UNFITTABLE: [usize; 3] = [8, 100, 1000];

/// Ceiling on `Π_d |tiles_d|`, so the per-candidate reference stays cheap
/// in a debug build (x ~1.1 k schedule-cluster pairs on H100).
const MAX_TILE_PRODUCT: usize = 400;

fn population() -> Vec<ChainSpec> {
    let mut chains = vec![
        ChainSpec::standard_ffn(416, 512, 64, 128, Activation::Relu),
        ChainSpec::gated_ffn(16, 11008, 64, 32, Activation::Silu),
        ChainSpec::attention(128, 256, 64, 64, true),
        ChainSpec::standard_ffn(8, 64, 64, 64, Activation::Relu),
        ChainSpec::standard_ffn(64, 100, 64, 64, Activation::Gelu),
        ChainSpec::gated_ffn(128, 1024, 416, 1000, Activation::Silu),
    ];
    let mut rng = SplitMix64::new(0x57EA);
    while chains.len() < 80 {
        let mut dims = [(); 4].map(|()| *rng.pick(&EXTENTS));
        let product: usize = dims
            .iter()
            .map(|&s| hardware_aware_tiles(s).len())
            .product();
        if product > MAX_TILE_PRODUCT {
            continue;
        }
        if chains.len() % 8 == 0 {
            dims[rng.next_index(4)] = *rng.pick(&UNFITTABLE);
        }
        let [m, n, k, l] = dims;
        chains.push(match chains.len() % 3 {
            0 => ChainSpec::standard_ffn(m, n, k, l, Activation::Relu),
            1 => ChainSpec::gated_ffn(m, n, k, l, Activation::Silu),
            _ => ChainSpec::attention(m, n, k, l, rng.next_bool(0.5)),
        });
    }
    chains
}

fn machines() -> Vec<MachineDescriptor> {
    vec![
        MachineDescriptor::h100_sxm(),
        MachineDescriptor::a100_sxm(),
        decode_machine(include_str!("../../../machines/tensix_like.json"))
            .expect("machines/tensix_like.json decodes"),
    ]
}

fn prune_for(machine: &MachineDescriptor) -> PruneConfig {
    PruneConfig {
        max_cluster: machine.max_cluster(),
        ..PruneConfig::default()
    }
}

#[test]
fn factored_stream_equals_the_filtered_cross_product_however_it_is_addressed() {
    let all = LoopSchedule::enumerate_all();
    let mut rng = SplitMix64::new(0xC07);
    let (mut empty, mut populated) = (0, 0);
    for machine in machines() {
        let config = prune_for(&machine);
        for chain in population() {
            let at = format!("{} on {}", chain.dims(), machine.name);
            let want = reference(&chain, &config, &all);
            let stream = CandidateStream::build(&chain, &config, &all);
            assert_eq!(stream.len(), want.len() as u64, "{at}: len");
            assert_eq!(stream.is_empty(), want.is_empty(), "{at}: is_empty");
            if want.is_empty() {
                empty += 1;
            } else {
                populated += 1;
            }

            // Whole-stream iteration: same members, same order, dense seq.
            let got: Vec<Candidate<'_>> = stream.iter().collect();
            assert_eq!(got.len(), want.len(), "{at}: iter length");
            for (i, (c, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(c.seq, i as u64, "{at}: seq is not dense");
                assert_eq!(key(c), *w, "{at}: candidate {i}");
            }

            // Random access at strided positions, the last one, and past
            // the end.
            let stride = (want.len() / 97).max(1);
            for s in (0..want.len())
                .step_by(stride)
                .chain(want.len().checked_sub(1))
            {
                let c = stream
                    .get(s as u64)
                    .unwrap_or_else(|| panic!("{at}: get({s})"));
                assert_eq!((c.seq, key(&c)), (s as u64, want[s]), "{at}: get({s})");
            }
            assert!(stream.get(stream.len()).is_none(), "{at}: get(len)");

            // Adjacent pieces — candidate ranges and plane runs — at
            // random cuts concatenate to the whole stream.
            let mut cuts: Vec<u64> = (0..6)
                .map(|_| rng.next_index(want.len() + 1) as u64)
                .chain([0, stream.len() + 7])
                .collect();
            cuts.sort_unstable();
            let mut by_range = Vec::with_capacity(want.len());
            let mut by_plane = Vec::with_capacity(want.len());
            for w in cuts.windows(2) {
                by_range.extend(stream.range(w[0], w[1]).map(|c| (c.seq, key(&c))));
                for plane in stream.planes(w[0], w[1]) {
                    assert!(
                        (w[0]..w[1]).contains(&plane.seq),
                        "{at}: plane {} outside its window",
                        plane.seq
                    );
                    let before = by_plane.len();
                    for c in plane.candidates() {
                        assert_eq!(
                            (c.schedule as *const _, c.cluster, c.tile.m, c.tile.n),
                            (
                                plane.schedule as *const _,
                                plane.cluster,
                                plane.blk_m,
                                plane.blk_n
                            ),
                            "{at}: candidate {} strays from its plane",
                            c.seq
                        );
                        by_plane.push((c.seq, key(&c)));
                    }
                    assert_eq!((by_plane.len() - before) as u64, plane.len(), "{at}");
                    assert_eq!(by_plane[before].0, plane.seq, "{at}: plane.seq");
                }
            }
            let whole: Vec<(u64, Key)> = (0u64..).zip(want.iter().copied()).collect();
            assert!(by_range == whole, "{at}: range pieces, cuts {cuts:?}");
            assert!(by_plane == whole, "{at}: plane pieces, cuts {cuts:?}");
        }
    }
    assert!(
        empty >= 9 && populated >= 64 * 3,
        "{empty} empty, {populated} populated"
    );
}

#[test]
fn unfittable_dim_gives_an_empty_stream_and_no_feasible_plan() {
    let all = LoopSchedule::enumerate_all();
    for chain in [
        ChainSpec::standard_ffn(8, 64, 64, 64, Activation::Relu),
        ChainSpec::standard_ffn(64, 100, 64, 64, Activation::Relu),
        ChainSpec::gated_ffn(64, 64, 1000, 64, Activation::Silu),
    ] {
        for machine in machines() {
            let config = SearchConfig {
                prune: prune_for(&machine),
                ..SearchConfig::default()
            };
            let stream = CandidateStream::build(&chain, &config.prune, &all);
            assert!(stream.is_empty(), "{}", chain.dims());
            assert_eq!(stream.len(), 0, "{}", chain.dims());
            assert!(stream.iter().next().is_none());
            assert!(stream.planes(0, u64::MAX).next().is_none());
            assert!(stream.get(0).is_none());

            // Nothing streamed, so nothing reaches the analyzer or the
            // profiler on either search path.
            let engine = SearchEngine::new(machine.clone());
            assert_eq!(
                engine.search(&chain, &config).err(),
                Some(SearchError::NoFeasiblePlan)
            );
            let mut profiler = FakeProfiler::default();
            assert_eq!(
                engine.brute_force(&chain, &config, &mut profiler).err(),
                Some(SearchError::NoFeasiblePlan)
            );
            assert_eq!(profiler.calls, 0);
        }
    }
}

/// Folds one analysis outcome — everything the analyzer decides plus the
/// cost model's estimate, or the rejection and its payload — into `h`.
fn fold_outcome(
    h: &mut StableHasher,
    outcome: &Result<DataflowAnalysis, AnalysisError>,
    cost_model: &CostModel,
) {
    match outcome {
        Ok(a) => {
            h.write_u8(0);
            for level in MemLevel::ALL {
                h.write_u64(a.volume(level));
            }
            h.write_u8(match a.strip_kind() {
                StripKind::EStrip => 0,
                StripKind::CStrip => 1,
            });
            for v in [
                a.strip_footprint(),
                a.smem_working(),
                a.dsm_steps(),
                a.barriers(),
            ] {
                h.write_u64(v);
            }
            for (role, mapping) in a.plan().mapping.iter() {
                h.write_u8(*role as u8);
                h.write_usize(mapping.allocations().len());
                for &(level, bytes) in mapping.allocations() {
                    h.write_usize(level.index());
                    h.write_u64(bytes);
                }
            }
            h.write_f64_bits(cost_model.evaluate(a).est_s);
        }
        Err(AnalysisError::Plan(e)) => {
            h.write_u8(1);
            h.write_str(&e.to_string());
        }
        Err(AnalysisError::KNotInnermost) => h.write_u8(2),
        Err(AnalysisError::AccumulatorTooLarge {
            required,
            available,
        }) => {
            h.write_u8(3);
            h.write_u64(*required);
            h.write_u64(*available);
        }
        Err(AnalysisError::WorkingSetTooLarge {
            required,
            available,
        }) => {
            h.write_u8(4);
            h.write_u64(*required);
            h.write_u64(*available);
        }
        Err(AnalysisError::StripDoesNotFit { footprint, lowest }) => {
            h.write_u8(5);
            h.write_u64(*footprint);
            h.write_usize(lowest.index());
        }
        Err(AnalysisError::InterClusterReduceUnavailable) => h.write_u8(6),
        Err(AnalysisError::AttentionNeedsCStrip) => h.write_u8(7),
    }
}

/// `analyze` as it stood before it was split into `score` and
/// `materialise`, pinned: the digests below were computed at the parent
/// commit over every 97th streamed candidate of the population, the
/// sample rotating through three analyzer configurations so every
/// rejection the stream can meet is in it.
#[test]
fn analysis_outcomes_match_the_digests_pinned_before_the_score_materialise_split() {
    const PINNED: [(u64, u64, u64); 3] = [
        (5509667156356330075, 4413, 4030),
        (4348610715872942859, 509, 658),
        (14071557056295779720, 3347, 3834),
    ];
    let all = LoopSchedule::enumerate_all();
    let mut got = Vec::new();
    for machine in machines() {
        let config = prune_for(&machine);
        let cost_model = CostModel::new(machine.clone());
        let analyzers = [
            (MemLevel::Dsm, true),
            (MemLevel::Smem, false),
            (MemLevel::Global, true),
        ]
        .map(|(lowest, reduce)| {
            DataflowAnalyzer::new(machine.clone())
                .with_lowest_spill(lowest)
                .with_inter_cluster_reduce(reduce)
        });
        let mut h = StableHasher::new();
        let (mut accepted, mut rejected) = (0u64, 0u64);
        for chain in population() {
            let stream = CandidateStream::build(&chain, &config, &all);
            for (i, seq) in (0..stream.len()).step_by(97).enumerate() {
                let c = stream.get(seq).expect("seq < len");
                let outcome = analyzers[i % 3].analyze(&chain, c.schedule, c.cluster, c.tile);
                match outcome {
                    Ok(_) => accepted += 1,
                    Err(_) => rejected += 1,
                }
                fold_outcome(&mut h, &outcome, &cost_model);
            }
        }
        got.push((h.finish(), accepted, rejected));
    }
    assert_eq!(got, PINNED, "(digest, accepted, rejected) per machine");
}

/// The best-first search cuts a whole `(schedule, cluster)` group once
/// its floor is above the bar, so the floor must sit at or below the
/// bound of every plane in the group — the bound the scan would
/// otherwise have priced, taken here through `lower_bound_for`, the
/// per-candidate entry point. Both the default and the SMEM-only
/// pruning configs, on every machine family.
#[test]
fn every_group_floor_is_at_most_every_plane_bound_in_the_group() {
    let all = LoopSchedule::enumerate_all();
    let (mut groups, mut planes, mut tight) = (0u64, 0u64, 0u64);
    for machine in machines() {
        let cost_model = CostModel::new(machine.clone());
        for config in [prune_for(&machine), SearchConfig::smem_only().prune] {
            for chain in population() {
                let stream = CandidateStream::build(&chain, &config, &all);
                for group in stream.groups() {
                    let floor = cost_model.group_floor(&chain, &group);
                    let mut lowest = f64::INFINITY;
                    for plane in group.planes() {
                        let (tile, geometry) = plane.first();
                        let bound =
                            cost_model.lower_bound_for(&chain, &geometry, plane.cluster, tile);
                        assert!(
                            floor <= bound,
                            "{} on {}: floor {floor} above the bound {bound} of {} {} blk_m={} \
                             blk_n={}",
                            chain.dims(),
                            machine.name,
                            plane.schedule,
                            plane.cluster,
                            plane.blk_m,
                            plane.blk_n
                        );
                        lowest = lowest.min(bound);
                        planes += 1;
                    }
                    tight += u64::from(floor == lowest);
                    groups += 1;
                }
            }
        }
    }
    // The floor is worth having only where it is often exact.
    assert!(
        groups > 30_000 && planes > 300_000 && tight * 4 > groups,
        "{groups} groups, {planes} planes, {tight} floors equal to their group's lowest bound"
    );
}

/// Groups are visited best floor first, not in stream order, so the
/// scan's skips must respect `(estimate, seq)` ties: against a worker's
/// own full buffer a tie with the worst still enters when it sits
/// earlier in the stream, and against the shared bar only a strictly
/// higher bound loses. The population's small chains tie exactly often
/// (compute-bound planes share one estimate), which is where either
/// rule, loosened, would drop a finalist.
#[test]
fn best_first_top_k_is_the_exhaustive_top_k_over_the_population() {
    let mut searched = 0;
    for machine in machines() {
        let engine = SearchEngine::new(machine.clone());
        for prune in [prune_for(&machine), SearchConfig::smem_only().prune] {
            let config = SearchConfig {
                prune,
                ..SearchConfig::default()
            };
            for chain in population() {
                let oracle = exhaustive_top_k(&machine, &chain, &config);
                for threads in [1, 2] {
                    let at = format!(
                        "{} on {}, max_cluster {}, {threads} thread(s)",
                        chain.dims(),
                        machine.name,
                        config.prune.max_cluster
                    );
                    match engine.search(&chain, &config.clone().with_threads(threads)) {
                        Ok(got) => assert_oracle_top_k(&got, &oracle, &at),
                        Err(e) => assert!(oracle.is_empty(), "{at}: {e}"),
                    }
                }
                searched += usize::from(!oracle.is_empty());
            }
        }
    }
    assert!(searched > 300, "only {searched} searches found a plan");
}

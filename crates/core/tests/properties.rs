//! Property-based tests of the compiler core's invariants.
//!
//! Sampling is driven by the workspace's own deterministic
//! [`SplitMix64`] stream instead of an external property-testing crate,
//! so the suite builds offline; every case is reproducible bit-for-bit.

use flashfuser_core::comm::ClusterShape;
use flashfuser_core::{BlockTile, DataflowAnalyzer, LoopSchedule, MachineDescriptor, MemLevel};
use flashfuser_graph::{ChainSpec, Dim};
use flashfuser_tensor::rng::SplitMix64;
use flashfuser_tensor::Activation;

fn pow2_dim(rng: &mut SplitMix64, min_exp: u32, max_exp: u32) -> usize {
    1usize << (min_exp + rng.next_index((max_exp - min_exp + 1) as usize) as u32)
}

#[test]
fn analysis_volumes_are_consistent() {
    let all = LoopSchedule::enumerate_all();
    let mut rng = SplitMix64::new(0xF0);
    let mut accepted = 0u32;
    for _ in 0..512 {
        let m = pow2_dim(&mut rng, 4, 7);
        let n = pow2_dim(&mut rng, 4, 10);
        let k = pow2_dim(&mut rng, 4, 9);
        let l = pow2_dim(&mut rng, 4, 9);
        let schedule = rng.pick(&all).clone();
        let cls_n = *rng.pick(&[1usize, 2, 4]);
        let cls_k = *rng.pick(&[1usize, 2]);
        let blk = *rng.pick(&[16usize, 32, 64]);
        let Ok(cluster) = ClusterShape::new(1, cls_n, cls_k, cls_n * cls_k) else {
            continue;
        };
        let chain = ChainSpec::standard_ffn(m, n, k, l, Activation::Relu);
        let tile = BlockTile::new(blk, blk, blk, blk);
        let analyzer = DataflowAnalyzer::new(MachineDescriptor::h100_sxm());
        let Ok(a) = analyzer.analyze(&chain, &schedule, cluster, tile) else {
            continue;
        };
        accepted += 1;
        // Global traffic can never be below the fused minimum (every
        // input must be read, the output written at least once).
        assert!(
            a.volume(MemLevel::Global) >= chain.fused_min_global_bytes(),
            "{}: global {} < min {}",
            a.plan(),
            a.volume(MemLevel::Global),
            chain.fused_min_global_bytes()
        );
        // The HBM-filtered view never exceeds the raw L2 view.
        assert!(a.volume(MemLevel::Global) <= a.volume(MemLevel::L2));
        // DSM traffic exists iff some primitive has a non-trivial group.
        let comm_possible =
            cluster.k() > 1 || cluster.cls_shuffle() > 1 || cluster.cls_reduce() > 1;
        if !comm_possible {
            assert_eq!(a.volume(MemLevel::Dsm), 0);
        }
        // Rule 3 honoured: temporal K is innermost in accepted plans.
        if !schedule.is_spatial(Dim::K) {
            assert_eq!(schedule.innermost_temporal(), Some(Dim::K));
        }
        // Geometry identity: coverage equals the problem size.
        for dim in Dim::ALL {
            let g = a.plan().geometry;
            assert_eq!(
                g.grid(dim) * cluster.size(dim) * g.trips(dim) * tile.by_index(dim.index()),
                chain.dims().size(dim)
            );
        }
    }
    assert!(
        accepted >= 16,
        "only {accepted} feasible samples — sampler drifted"
    );
}

#[test]
fn deeper_spill_never_rejects_what_shallow_accepts() {
    let mut rng = SplitMix64::new(0xF1);
    for _ in 0..64 {
        let n = pow2_dim(&mut rng, 4, 10);
        let k = pow2_dim(&mut rng, 4, 9);
        // Anything feasible with SMEM-only spill must stay feasible when
        // DSM (a superset of placement options) is allowed.
        let chain = ChainSpec::standard_ffn(128, n, k, k, Activation::Relu);
        let schedule = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        let cluster = ClusterShape::new(1, 2, 2, 2).unwrap();
        let tile = BlockTile::new(16, 16, 16, 16);
        let smem = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .with_lowest_spill(MemLevel::Smem)
            .analyze(&chain, &schedule, cluster, tile);
        let dsm = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(&chain, &schedule, cluster, tile);
        if smem.is_ok() {
            assert!(dsm.is_ok(), "n={n} k={k}");
        }
    }
}

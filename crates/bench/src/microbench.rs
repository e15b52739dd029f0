//! Device microbenchmarks (paper Figs. 4 and 13).
//!
//! Fig. 4 measures raw DSM bandwidth/latency against cluster size;
//! Fig. 13 measures the achieved bandwidth and utilisation of each
//! `dsm_comm` primitive (tiling a 32768x32768 tensor into 128x128 tiles
//! and looping the primitive 1000 times). Both are reproduced here on
//! the machine model: achieved time per invocation combines the NoC
//! transfer time, the hop-latency chain and — for `Reduce`/`Mul` — the
//! combine arithmetic, which is why `Shuffle` comes out fastest exactly
//! as in the paper.

use flashfuser_core::comm::volume::{all_exchange_volume, reduce_scatter_volume, shuffle_volume};
use flashfuser_core::comm::CommVolume;
use flashfuser_core::MachineDescriptor;

/// One row of the Fig. 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsmPoint {
    /// Cluster size.
    pub cluster_size: usize,
    /// Achievable DSM bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Remote-access latency, cycles.
    pub latency_cycles: f64,
}

/// The Fig. 4 sweep: DSM bandwidth and latency for cluster sizes
/// {2, 4, 8, 16}, plus the global-memory reference point.
pub fn dsm_curve(params: &MachineDescriptor) -> (Vec<DsmPoint>, DsmPoint) {
    let points = [2usize, 4, 8, 16]
        .iter()
        .map(|&c| DsmPoint {
            cluster_size: c,
            bandwidth: params.dsm_bw(c),
            latency_cycles: params.dsm_latency_cycles(c),
        })
        .collect();
    let global = DsmPoint {
        cluster_size: 0,
        bandwidth: params.hbm_bw(),
        latency_cycles: params.global_latency_cycles(),
    };
    (points, global)
}

/// Which primitive a Fig. 13 measurement exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveKind {
    /// `dsm_shuffle` — pure data movement.
    Shuffle,
    /// `dsm_reduce_scatter` — movement + adds.
    Reduce,
    /// `dsm_all_exchange` with Mul — movement + multiplies.
    Mul,
}

impl PrimitiveKind {
    /// Display name used in the Fig. 13 legend.
    pub fn name(self) -> &'static str {
        match self {
            PrimitiveKind::Shuffle => "Shuffle",
            PrimitiveKind::Reduce => "Reduce",
            PrimitiveKind::Mul => "Mul",
        }
    }
}

/// One Fig. 13 measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveBandwidth {
    /// Achieved bandwidth, bytes/s (payload over wall time).
    pub achieved: f64,
    /// Achieved / peak DSM bandwidth at this cluster size.
    pub utilization: f64,
}

/// Reproduces one Fig. 13 point: transfers 128x128 f16 tiles of a
/// 32768x32768 tensor through `kind` within clusters of `cluster_size`,
/// looped `iters` times (excluding global read/store, as in the paper).
pub fn primitive_bandwidth(
    params: &MachineDescriptor,
    kind: PrimitiveKind,
    cluster_size: usize,
    iters: u64,
) -> PrimitiveBandwidth {
    assert!(cluster_size >= 2, "DSM needs at least a 2-block cluster");
    let tile_bytes: u64 = 128 * 128 * 2;
    let vol: CommVolume = match kind {
        PrimitiveKind::Shuffle => shuffle_volume(cluster_size, tile_bytes),
        PrimitiveKind::Reduce => reduce_scatter_volume(cluster_size, tile_bytes),
        PrimitiveKind::Mul => all_exchange_volume(cluster_size, tile_bytes),
    };
    let peak = params.dsm_bw(cluster_size);
    let cycle = params.cycle_s();
    // Per-invocation wall time. The benchmark keeps every SM busy with
    // independent tile groups, so hop latency and barriers overlap
    // across the ~66 concurrent groups and only a small un-overlapped
    // fraction (2 %) reaches the critical path. The combine arithmetic of Reduce/Mul
    // does not overlap with the NoC transfer of the same tile — it adds
    // roughly half a transfer time on the SMEM path, which is what makes
    // Shuffle the fastest primitive in the paper's Fig. 13.
    let transfer_s = vol.dsm_bytes as f64 / peak;
    let latency_s = 0.02
        * vol.steps as f64
        * (params.dsm_latency_cycles(cluster_size) + params.barrier_cycles())
        * cycle;
    let compute_s = match kind {
        PrimitiveKind::Shuffle => 0.0,
        PrimitiveKind::Reduce | PrimitiveKind::Mul => 0.5 * transfer_s,
    };
    let per_invocation = transfer_s + latency_s + compute_s;
    let total_s = per_invocation * iters as f64;
    let payload = vol.dsm_bytes * iters;
    let achieved = payload as f64 / total_s;
    PrimitiveBandwidth {
        achieved,
        utilization: achieved / peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_bandwidth_falls_latency_grows() {
        let (points, global) = dsm_curve(&MachineDescriptor::h100_sxm());
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[0].bandwidth > w[1].bandwidth);
            assert!(w[0].latency_cycles < w[1].latency_cycles);
        }
        // All but the largest cluster beat global bandwidth; all beat
        // global latency (Fig. 4).
        for p in &points[..3] {
            assert!(p.bandwidth > global.bandwidth);
        }
        assert!(points[3].bandwidth <= global.bandwidth * 1.05);
        for p in &points {
            assert!(p.latency_cycles < global.latency_cycles);
        }
    }

    #[test]
    fn fig13_shuffle_beats_reduce_and_mul() {
        let p = MachineDescriptor::h100_sxm();
        for cls in [2, 4, 8, 16] {
            let shuffle = primitive_bandwidth(&p, PrimitiveKind::Shuffle, cls, 1000);
            let reduce = primitive_bandwidth(&p, PrimitiveKind::Reduce, cls, 1000);
            let mul = primitive_bandwidth(&p, PrimitiveKind::Mul, cls, 1000);
            assert!(shuffle.achieved > reduce.achieved, "cls {cls}");
            assert!(shuffle.achieved > mul.achieved, "cls {cls}");
        }
    }

    #[test]
    fn fig13_bandwidth_falls_but_utilization_stable() {
        let p = MachineDescriptor::h100_sxm();
        let at = |cls| primitive_bandwidth(&p, PrimitiveKind::Shuffle, cls, 1000);
        let b2 = at(2);
        let b16 = at(16);
        assert!(b2.achieved > b16.achieved, "absolute bandwidth falls");
        // Utilisation stays within a modest band (paper: "remains
        // stable").
        assert!((b2.utilization - b16.utilization).abs() < 0.25);
        for cls in [2, 4, 8, 16] {
            let u = at(cls).utilization;
            assert!((0.5..=1.0).contains(&u), "cls {cls}: {u}");
        }
    }

    #[test]
    #[should_panic(expected = "at least a 2-block cluster")]
    fn cluster_of_one_panics() {
        primitive_bandwidth(
            &MachineDescriptor::h100_sxm(),
            PrimitiveKind::Shuffle,
            1,
            10,
        );
    }
}

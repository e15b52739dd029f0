//! Interconnect-topology portability (paper §VI, last paragraph).
//!
//! "FlashFuser's core abstraction, `dsm_comm`, is a topology-agnostic
//! collective communication concept. … For architectures with crossbar
//! interconnects (Graphcore IPU, H100) our approach is directly
//! applicable. For mesh architectures (Cerebras WSE), a potential
//! mapping distributes shuffle groups to neighboring cores."
//!
//! This module makes that claim checkable: it computes the hop cost of
//! each primitive under a crossbar and under a 1-D mesh with the
//! neighbor placement the paper proposes. The ring-based `dsm_shuffle`
//! is topology-agnostic (every transfer is nearest-neighbour), while a
//! naive all-to-all `dsm_all_exchange` pays average hop distance
//! `~g/3` on a mesh — quantifying why the paper maps shuffle groups,
//! not exchanges, onto mesh neighbourhoods.

use flashfuser_tensor::BinaryOp;

/// An on-chip cluster communication primitive (paper §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsmPrimitive {
    /// `dsm_all_exchange`: the `cls_k` blocks that hold partial sums of
    /// one intermediate tile exchange and combine them with `op`
    /// (`Add` for K-split partial sums, `Mul` for gated branches), leaving
    /// every participant with the complete tile.
    AllExchange(BinaryOp),
    /// `dsm_shuffle`: the `cls_shuffle` blocks of one shuffle group rotate
    /// their complete intermediate tiles in a ring so each block sees the
    /// whole row of C during GEMM1.
    Shuffle,
    /// `dsm_reduce_scatter`: the `cls_reduce` shuffle groups accumulate
    /// partial output tiles; each block writes back only its scatter
    /// slice (no redundancy).
    ReduceScatter,
}

impl DsmPrimitive {
    /// Short mnemonic used in reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            DsmPrimitive::AllExchange(BinaryOp::Add) => "all_exchange.add",
            DsmPrimitive::AllExchange(BinaryOp::Mul) => "all_exchange.mul",
            DsmPrimitive::AllExchange(BinaryOp::Max) => "all_exchange.max",
            DsmPrimitive::Shuffle => "shuffle",
            DsmPrimitive::ReduceScatter => "reduce_scatter",
        }
    }
}

/// The inter-core interconnect shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// Full crossbar: every core pair is one hop (H100 cluster NoC,
    /// Graphcore IPU exchange).
    Crossbar,
    /// 1-D mesh/line with ring groups placed on contiguous cores
    /// (Cerebras-style; hop cost = core distance).
    Mesh,
}

impl Topology {
    /// Hop distance between ranks `a` and `b` of a `g`-rank group.
    fn hop_distance(self, a: usize, b: usize, g: usize) -> usize {
        if a == b {
            return 0;
        }
        match self {
            Topology::Crossbar => 1,
            // Contiguous placement with wrap-around links at the group
            // boundary (the WSE fabric routes both ways).
            Topology::Mesh => {
                let d = a.abs_diff(b);
                d.min(g - d)
            }
        }
    }

    /// Total hop-weighted transfers of one primitive invocation over a
    /// `g`-rank group (unit payload per transfer). The timing impact is
    /// `hops x per-hop latency` relative to the crossbar baseline.
    fn primitive_hops(self, primitive: DsmPrimitive, g: usize) -> usize {
        if g <= 1 {
            return 0;
        }
        match primitive {
            // Ring: g transfers per round, each to the next neighbour,
            // g-1 rounds — distance 1 per transfer on both topologies.
            DsmPrimitive::Shuffle => g * (g - 1),
            // All-exchange reads every peer directly: sum of pairwise
            // distances.
            DsmPrimitive::AllExchange(_) => (0..g)
                .map(|a| (0..g).map(|b| self.hop_distance(a, b, g)).sum::<usize>())
                .sum(),
            // Reduce-scatter as a ring reduction: nearest-neighbour.
            DsmPrimitive::ReduceScatter => g * (g - 1),
        }
    }

    /// Slowdown factor of `primitive` on this topology relative to the
    /// crossbar (1.0 = no penalty).
    pub fn penalty_vs_crossbar(self, primitive: DsmPrimitive, g: usize) -> f64 {
        let crossbar = Topology::Crossbar.primitive_hops(primitive, g);
        if crossbar == 0 {
            return 1.0;
        }
        self.primitive_hops(primitive, g) as f64 / crossbar as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_is_always_one_hop() {
        for g in [2, 4, 8, 16] {
            for a in 0..g {
                for b in 0..g {
                    let d = Topology::Crossbar.hop_distance(a, b, g);
                    assert_eq!(d, usize::from(a != b));
                }
            }
        }
    }

    #[test]
    fn mesh_distance_wraps() {
        let t = Topology::Mesh;
        assert_eq!(t.hop_distance(0, 1, 8), 1);
        assert_eq!(t.hop_distance(0, 7, 8), 1); // wrap link
        assert_eq!(t.hop_distance(0, 4, 8), 4); // farthest
    }

    #[test]
    fn shuffle_is_topology_agnostic() {
        // The paper's mesh mapping: ring shuffles cost the same on a
        // mesh as on a crossbar.
        for g in [2, 4, 8, 16] {
            assert_eq!(
                Topology::Mesh.penalty_vs_crossbar(DsmPrimitive::Shuffle, g),
                1.0,
                "g={g}"
            );
            assert_eq!(
                Topology::Mesh.penalty_vs_crossbar(DsmPrimitive::ReduceScatter, g),
                1.0
            );
        }
    }

    #[test]
    fn all_exchange_degrades_on_mesh() {
        // Direct all-to-all pays growing hop distance on a mesh — the
        // reason the mesh mapping favours shuffle-group placement.
        let p8 = Topology::Mesh.penalty_vs_crossbar(DsmPrimitive::AllExchange(BinaryOp::Add), 8);
        let p16 = Topology::Mesh.penalty_vs_crossbar(DsmPrimitive::AllExchange(BinaryOp::Add), 16);
        assert!(p8 > 1.5, "{p8}");
        assert!(p16 > p8, "penalty grows with group size");
        // g = 2 is degenerate: neighbours either way.
        assert_eq!(
            Topology::Mesh.penalty_vs_crossbar(DsmPrimitive::AllExchange(BinaryOp::Add), 2),
            1.0
        );
    }

    #[test]
    fn trivial_groups_cost_nothing() {
        assert_eq!(Topology::Mesh.primitive_hops(DsmPrimitive::Shuffle, 1), 0);
    }

    #[test]
    fn mnemonics_unique() {
        let all = [
            DsmPrimitive::AllExchange(BinaryOp::Add),
            DsmPrimitive::AllExchange(BinaryOp::Mul),
            DsmPrimitive::Shuffle,
            DsmPrimitive::ReduceScatter,
        ];
        let mut names: Vec<_> = all.iter().map(|p| p.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}

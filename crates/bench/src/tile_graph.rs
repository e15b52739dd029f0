//! Tile-graph expansion (paper Figure 8).
//!
//! Given a chain and a cluster partition `(cls_m, cls_n, cls_k, cls_l)`,
//! this module expands the per-tile dataflow of one cluster: which
//! tile values each phase produces, and which step — a local matmul or
//! epilogue, or a `dsm_comm` primitive — feeds each of them. The figure
//! is reported as its numbers: node counts per value class and edge
//! counts per step kind (the `fig8` ledger rows), which tests check
//! against the closed-form group sizes of the cluster geometry.

use flashfuser_graph::ChainKind;
use flashfuser_tensor::BinaryOp;

/// Value classes appearing in Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileClass {
    /// Input tile of A.
    InputA,
    /// Input tile of B (up or gate branch).
    InputB,
    /// Partial intermediate `C_i_j(p)` before the exchange.
    PartialC,
    /// Complete intermediate `C_i_j` after `dsm_all_exchange`.
    CompleteC,
    /// Input tile of D.
    InputD,
    /// Partial output `E_i_q(j)` before the reduce.
    PartialE,
    /// Complete output `E_i_q`.
    CompleteE,
}

impl TileClass {
    /// Every class, in the figure's phase order.
    pub const ALL: [TileClass; 7] = [
        TileClass::InputA,
        TileClass::InputB,
        TileClass::PartialC,
        TileClass::CompleteC,
        TileClass::InputD,
        TileClass::PartialE,
        TileClass::CompleteE,
    ];
}

/// The dataflow step an edge represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileEdgeKind {
    /// Local tensor-core matmul inside one block.
    Matmul,
    /// `dsm_all_exchange` carrying `op` (Add for partial sums, Mul for
    /// gated branches).
    AllExchange(BinaryOp),
    /// `dsm_shuffle`: a complete C tile travels to a peer block in the
    /// same shuffle group.
    Shuffle,
    /// `dsm_reduce_scatter` accumulating partial E tiles.
    ReduceScatter,
    /// Local epilogue (activation) — stays inside the block.
    Epilogue,
}

/// The expanded tile graph of one cluster: every node by class, every
/// edge by kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TileGraph {
    nodes: Vec<TileClass>,
    edges: Vec<TileEdgeKind>,
}

impl TileGraph {
    /// Expands one cluster of a chain under partition
    /// `(cls_m, cls_n, cls_k, cls_l)`.
    ///
    /// # Panics
    ///
    /// Panics if any partition count is zero.
    pub fn expand(kind: ChainKind, cls_m: usize, cls_n: usize, cls_k: usize, cls_l: usize) -> Self {
        assert!(
            cls_m > 0 && cls_n > 0 && cls_k > 0 && cls_l > 0,
            "cluster partition counts must be positive"
        );
        // Gated chains have two B branches feeding the same partial tile,
        // and exchange them even with cls_k == 1.
        let branches = if kind.is_gated() { 2 } else { 1 };
        let exchange = if cls_k > 1 || branches == 2 {
            TileEdgeKind::AllExchange(kind.exchange_op())
        } else {
            TileEdgeKind::Epilogue
        };
        // A complete C tile reaches each peer in its shuffle group through
        // dsm_shuffle (self-use is local), and the cls_n partial E tiles
        // of one output tile meet in dsm_reduce_scatter.
        let (shuffle, reduce) = if cls_n > 1 {
            (TileEdgeKind::Shuffle, TileEdgeKind::ReduceScatter)
        } else {
            (TileEdgeKind::Matmul, TileEdgeKind::Epilogue)
        };
        let mut g = TileGraph::default();
        // GEMM0: partial C_i_j(p) = A_i_p x B_p_j (per B branch).
        g.add(TileClass::InputA, cls_m * cls_k, &[]);
        g.add(TileClass::InputB, branches * cls_k * cls_n, &[]);
        let gemm0 = [(TileEdgeKind::Matmul, 1 + branches)];
        g.add(TileClass::PartialC, cls_m * cls_n * cls_k, &gemm0);
        // Exchange: complete C_i_j combines its cls_k partials.
        g.add(TileClass::CompleteC, cls_m * cls_n, &[(exchange, cls_k)]);
        // GEMM1: partial E_i_q(j) = C_i_j x D_j_q.
        g.add(TileClass::InputD, cls_n * cls_l, &[]);
        let gemm1 = [(shuffle, 1), (TileEdgeKind::Matmul, 1)];
        g.add(TileClass::PartialE, cls_m * cls_l * cls_n, &gemm1);
        // Store: complete E_i_q reduces its cls_n partials.
        g.add(TileClass::CompleteE, cls_m * cls_l, &[(reduce, cls_n)]);
        g
    }

    /// Adds `count` nodes of `class`, each with `n` incoming edges of
    /// every `(kind, n)` in `inputs`.
    fn add(&mut self, class: TileClass, count: usize, inputs: &[(TileEdgeKind, usize)]) {
        for _ in 0..count {
            self.nodes.push(class);
            for &(kind, n) in inputs {
                self.edges.extend(std::iter::repeat_n(kind, n));
            }
        }
    }

    /// Number of edges of a given kind.
    pub fn count_edges(&self, pred: impl Fn(TileEdgeKind) -> bool) -> usize {
        self.edges.iter().filter(|&&e| pred(e)).count()
    }

    /// Number of nodes of a given class.
    pub fn count_nodes(&self, class: TileClass) -> usize {
        self.nodes.iter().filter(|&&n| n == class).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    fn std_kind() -> ChainKind {
        ChainKind::StandardFfn {
            activation: Activation::Relu,
        }
    }

    fn gated_kind() -> ChainKind {
        ChainKind::GatedFfn {
            activation: Activation::Silu,
        }
    }

    #[test]
    fn node_counts_follow_partition() {
        // cls = (2, 4, 2, 4) — the paper's Fig. 7(a) geometry.
        let g = TileGraph::expand(std_kind(), 2, 4, 2, 4);
        assert_eq!(g.count_nodes(TileClass::PartialC), 2 * 4 * 2);
        assert_eq!(g.count_nodes(TileClass::CompleteC), 2 * 4);
        assert_eq!(g.count_nodes(TileClass::PartialE), 2 * 4 * 4);
        assert_eq!(g.count_nodes(TileClass::CompleteE), 2 * 4);
    }

    #[test]
    fn exchange_edges_present_only_with_k_partitioning() {
        let with_k = TileGraph::expand(std_kind(), 1, 2, 2, 2);
        assert!(with_k.count_edges(|k| matches!(k, TileEdgeKind::AllExchange(_))) > 0);
        let without_k = TileGraph::expand(std_kind(), 1, 2, 1, 2);
        assert_eq!(
            without_k.count_edges(|k| matches!(k, TileEdgeKind::AllExchange(_))),
            0
        );
    }

    #[test]
    fn gated_exchange_is_mul() {
        let g = TileGraph::expand(gated_kind(), 1, 2, 1, 2);
        // Gated chains exchange even with cls_k == 1 (two branches).
        assert!(g.count_edges(|k| k == TileEdgeKind::AllExchange(BinaryOp::Mul)) > 0);
        assert_eq!(
            g.count_edges(|k| k == TileEdgeKind::AllExchange(BinaryOp::Add)),
            0
        );
    }

    #[test]
    fn shuffle_and_reduce_counts() {
        let g = TileGraph::expand(std_kind(), 1, 4, 1, 2);
        // Each partial E consumes one C tile (cls_n per (i,q)); all are
        // shuffles when cls_n > 1.
        assert_eq!(g.count_edges(|k| k == TileEdgeKind::Shuffle), 4 * 2);
        assert_eq!(g.count_edges(|k| k == TileEdgeKind::ReduceScatter), 4 * 2);
    }

    #[test]
    fn gated_has_twice_the_b_inputs() {
        let std = TileGraph::expand(std_kind(), 1, 2, 2, 2);
        let gated = TileGraph::expand(gated_kind(), 1, 2, 2, 2);
        assert_eq!(
            gated.count_nodes(TileClass::InputB),
            2 * std.count_nodes(TileClass::InputB)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_partition_panics() {
        TileGraph::expand(std_kind(), 0, 1, 1, 1);
    }
}

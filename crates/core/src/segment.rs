//! Whole-graph segmentation (the segment search entry point).
//!
//! The search engine fuses one typed chain at a time; this module
//! decides *which* parts of an arbitrary [`OpGraph`] become those
//! chains. [`partition_graph`] runs a dynamic program over topological
//! cut points:
//!
//! 1. [`flashfuser_graph::match_chains`] proposes every fusible
//!    two-GEMM window (candidates may overlap);
//! 2. each candidate window is scored with the admissible
//!    [`CostModel::chain_lower_bound`] — the best any fused plan could
//!    possibly do;
//! 3. everything else is priced as stand-alone unfused kernels through
//!    the [`UnfusedPricer`] hook (implemented by `flashfuser-sim`'s
//!    unfused kernel model; `core` never depends on `sim`);
//! 4. the DP walks the compute nodes in topological order and picks,
//!    at every cut point, the cheaper of "emit this node unfused" and
//!    "close a fused window here", which resolves overlapping
//!    candidates globally rather than greedily.
//!
//! The DP's objective is a *score*, not a promise: the bound is
//! optimistic by design, so a chosen segment's real (searched,
//! profiled) plan can still lose to the unfused baseline — the caller
//! (`flashfuser::Compiler::compile_graph`) applies the paper's
//! per-segment fallback (§IV-C3) after compiling each segment.
//!
//! A candidate window enters the DP only when its compute nodes are
//! *contiguous* in the graph's topological node order. Builders in this
//! repo always produce such graphs; an interleaved window would need a
//! reordering pass and is conservatively left unfused.

use crate::cost::CostModel;
use crate::machine::MachineDescriptor;
use flashfuser_graph::op::{NodeId, OpGraph, OpKind};
use flashfuser_graph::segment::{match_chains, GraphShapeError, OpCost};
use flashfuser_graph::ChainSpec;
use std::error::Error;
use std::fmt;

/// Prices work the fusion engine does *not* cover: stand-alone kernels
/// for remainder nodes, and whole chains run unfused (the baseline a
/// fused segment must beat).
///
/// `core` defines only the hook; `flashfuser-sim` provides the
/// implementation (`UnfusedKernelPricer`), keeping the compiler core
/// free of any dependency on the machine model.
pub trait UnfusedPricer {
    /// Seconds for one stand-alone kernel with the given FLOP/byte
    /// footprint (including launch overhead).
    fn op_seconds(&self, cost: OpCost) -> f64;

    /// Seconds for an entire chain run as separate unfused kernels.
    fn chain_seconds(&self, chain: &ChainSpec) -> f64;
}

/// One segment of a partitioned graph, in topological order.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A recovered chain the fusion engine should compile.
    Fused {
        /// The typed chain (unnamed).
        chain: ChainSpec,
        /// Compute nodes the fused kernel replaces.
        nodes: Vec<NodeId>,
        /// The DP's score: [`CostModel::chain_lower_bound`].
        est_seconds: f64,
        /// The unfused alternative ([`UnfusedPricer::chain_seconds`]) —
        /// the fallback bar the compiled plan must beat.
        unfused_seconds: f64,
    },
    /// A run of nodes left as stand-alone kernels.
    Unfused {
        /// The nodes, in topological order.
        nodes: Vec<NodeId>,
        /// Summed per-kernel seconds.
        est_seconds: f64,
        /// Summed global bytes.
        bytes: u64,
    },
}

impl Segment {
    /// The segment's score in the DP objective.
    pub fn est_seconds(&self) -> f64 {
        match self {
            Segment::Fused { est_seconds, .. } | Segment::Unfused { est_seconds, .. } => {
                *est_seconds
            }
        }
    }

    /// The compute nodes this segment covers.
    pub fn nodes(&self) -> &[NodeId] {
        match self {
            Segment::Fused { nodes, .. } | Segment::Unfused { nodes, .. } => nodes,
        }
    }
}

/// The partitioner's output: segments in topological order plus the
/// DP objective and the all-unfused baseline for comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPartition {
    /// Segments in topological order, covering every compute node once.
    pub segments: Vec<Segment>,
    /// The DP objective: summed segment scores.
    pub est_seconds: f64,
    /// The one-kernel-per-operator baseline for the whole graph.
    pub unfused_seconds: f64,
}

impl GraphPartition {
    /// The fused segments, in order.
    pub fn fused(&self) -> impl Iterator<Item = &Segment> {
        self.segments
            .iter()
            .filter(|s| matches!(s, Segment::Fused { .. }))
    }

    /// Number of fused segments.
    pub fn fused_count(&self) -> usize {
        self.fused().count()
    }
}

/// Why a graph cannot be partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionError {
    /// Shape inference failed — the graph is ill-formed.
    Shape(GraphShapeError),
    /// The graph has no compute nodes (only inputs/output markers).
    NoComputeNodes,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::Shape(e) => write!(f, "ill-shaped graph: {e}"),
            PartitionError::NoComputeNodes => write!(f, "graph has no compute nodes"),
        }
    }
}

impl Error for PartitionError {}

impl From<GraphShapeError> for PartitionError {
    fn from(e: GraphShapeError) -> Self {
        PartitionError::Shape(e)
    }
}

/// The DP back-pointer at one cut point.
#[derive(Clone, Copy)]
enum Step {
    /// The node at the previous position was emitted unfused.
    Op,
    /// A fused window (index into the contiguous-match list) closed
    /// here.
    Fuse(usize),
}

/// Partitions `graph` into fused chains and unfused remainders.
///
/// See the module docs for the objective. The result covers every
/// compute node exactly once; `Input` and `Output` nodes belong to no
/// segment (inputs are charged to their consumers, output markers are
/// free).
///
/// # Errors
///
/// Returns [`PartitionError::Shape`] for ill-formed graphs and
/// [`PartitionError::NoComputeNodes`] when there is nothing to
/// partition.
pub fn partition_graph(
    graph: &OpGraph,
    params: &MachineDescriptor,
    pricer: &dyn UnfusedPricer,
) -> Result<GraphPartition, PartitionError> {
    let shapes = graph.shapes()?;
    // Compute nodes in topological (insertion) order, with the inverse
    // position map.
    let compute: Vec<NodeId> = (0..graph.len())
        .filter(|&id| !matches!(graph.node(id).kind, OpKind::Input(..) | OpKind::Output))
        .collect();
    if compute.is_empty() {
        return Err(PartitionError::NoComputeNodes);
    }
    let mut pos_of = vec![usize::MAX; graph.len()];
    for (pos, &id) in compute.iter().enumerate() {
        pos_of[id] = pos;
    }

    let cost_model = CostModel::new(params.clone());
    let op_costs: Vec<OpCost> = compute
        .iter()
        .map(|&id| graph.op_cost(shapes, id))
        .collect();
    let op_seconds: Vec<f64> = op_costs.iter().map(|&c| pricer.op_seconds(c)).collect();

    // Candidate fused windows whose compute nodes are contiguous in the
    // topological order, scored once. `match_chains` reports them in
    // ascending order of their output GEMM, a window's last node, so
    // they come sorted by `end`, the position the DP closes them at.
    struct Window {
        chain: ChainSpec,
        nodes: Vec<NodeId>,
        start: usize,
        end: usize,
        score: f64,
        unfused: f64,
    }
    let mut windows: Vec<Window> = Vec::new();
    // Both prices are pure functions of the chain, and a model repeats
    // one chain per layer: each distinct chain is priced once.
    let mut priced: Vec<(ChainSpec, f64, f64)> = Vec::new();
    for m in match_chains(graph)? {
        let start = pos_of[m.nodes[0]];
        let contiguous = m
            .nodes
            .iter()
            .enumerate()
            .all(|(i, &id)| pos_of[id] == start + i);
        if !contiguous {
            continue; // interleaved with foreign nodes: leave unfused
        }
        let end = start + m.nodes.len() - 1;
        let (score, unfused) = match priced.iter().find(|(chain, ..)| *chain == m.chain) {
            Some(&(_, score, unfused)) => (score, unfused),
            None => {
                let score = cost_model.chain_lower_bound(&m.chain);
                let unfused = pricer.chain_seconds(&m.chain);
                priced.push((m.chain.clone(), score, unfused));
                (score, unfused)
            }
        };
        debug_assert!(windows.last().is_none_or(|w| w.end <= end));
        windows.push(Window {
            score,
            unfused,
            chain: m.chain,
            nodes: m.nodes,
            start,
            end,
        });
    }

    // DP over cut points: dp[i] = best score for the first i compute
    // nodes; ties prefer the unfused step (matches resolve only when
    // they strictly help).
    let n = compute.len();
    let mut dp = vec![f64::INFINITY; n + 1];
    let mut back = vec![Step::Op; n + 1];
    dp[0] = 0.0;
    let mut next = 0; // the first window not yet closed
    for i in 0..n {
        let step = dp[i] + op_seconds[i];
        if step < dp[i + 1] {
            dp[i + 1] = step;
            back[i + 1] = Step::Op;
        }
        while let Some(w) = windows.get(next).filter(|w| w.end == i) {
            let fused = dp[w.start] + w.score;
            if fused < dp[i + 1] {
                dp[i + 1] = fused;
                back[i + 1] = Step::Fuse(next);
            }
            next += 1;
        }
    }

    // Reconstruct, merging consecutive unfused steps into runs.
    let mut segments: Vec<Segment> = Vec::new();
    let mut unfused_run: Vec<usize> = Vec::new();
    let flush = |run: &mut Vec<usize>, segments: &mut Vec<Segment>| {
        if run.is_empty() {
            return;
        }
        run.reverse();
        segments.push(Segment::Unfused {
            nodes: run.iter().map(|&p| compute[p]).collect(),
            est_seconds: run.iter().map(|&p| op_seconds[p]).sum(),
            bytes: run.iter().map(|&p| op_costs[p].bytes).sum(),
        });
        run.clear();
    };
    let mut i = n;
    while i > 0 {
        match back[i] {
            Step::Op => {
                unfused_run.push(i - 1);
                i -= 1;
            }
            Step::Fuse(w_idx) => {
                flush(&mut unfused_run, &mut segments);
                // Each window closes at most one segment: move it out.
                let w = &mut windows[w_idx];
                segments.push(Segment::Fused {
                    chain: w.chain.clone(),
                    nodes: std::mem::take(&mut w.nodes),
                    est_seconds: w.score,
                    unfused_seconds: w.unfused,
                });
                i = w.start;
            }
        }
    }
    flush(&mut unfused_run, &mut segments);
    segments.reverse();

    Ok(GraphPartition {
        segments,
        est_seconds: dp[n],
        unfused_seconds: op_seconds.iter().sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::Activation;

    /// A deterministic pricer independent of the machine model: a flat
    /// roofline plus launch overhead.
    struct FlatPricer {
        /// Seconds charged per kernel launch.
        launch: f64,
    }

    impl UnfusedPricer for FlatPricer {
        fn op_seconds(&self, cost: OpCost) -> f64 {
            (cost.flops as f64 / 1e15).max(cost.bytes as f64 / 2e12) + self.launch
        }

        fn chain_seconds(&self, chain: &ChainSpec) -> f64 {
            let g = chain.to_op_graph();
            let shapes = g.infer_shapes().unwrap();
            (0..g.len())
                .map(|id| g.op_cost(&shapes, id))
                .filter(|c| c.bytes > 0)
                .map(|c| self.op_seconds(c))
                .sum()
        }
    }

    fn params() -> MachineDescriptor {
        MachineDescriptor::h100_sxm()
    }

    #[test]
    fn single_chain_becomes_one_fused_segment() {
        let chain = ChainSpec::standard_ffn(128, 8192, 2048, 2048, Activation::Relu);
        let pricer = FlatPricer { launch: 2e-6 };
        let p = partition_graph(&chain.to_op_graph(), &params(), &pricer).unwrap();
        assert_eq!(p.segments.len(), 1);
        match &p.segments[0] {
            Segment::Fused {
                chain: c,
                est_seconds,
                unfused_seconds,
                ..
            } => {
                assert_eq!(*c, chain);
                assert!(est_seconds < unfused_seconds);
            }
            other => panic!("expected fused segment, got {other:?}"),
        }
        assert!(p.est_seconds < p.unfused_seconds);
    }

    #[test]
    fn free_unfused_kernels_beat_fusing() {
        // With a pricer that makes stand-alone kernels free, the bound
        // can never win and nothing fuses.
        struct FreePricer;
        impl UnfusedPricer for FreePricer {
            fn op_seconds(&self, _cost: OpCost) -> f64 {
                0.0
            }
            fn chain_seconds(&self, _chain: &ChainSpec) -> f64 {
                0.0
            }
        }
        let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
        let p = partition_graph(&chain.to_op_graph(), &params(), &FreePricer).unwrap();
        assert_eq!(p.fused_count(), 0);
        assert_eq!(p.segments.len(), 1);
        assert_eq!(p.est_seconds, 0.0);
    }

    #[test]
    fn overlapping_ladder_resolves_to_one_window() {
        // Three GEMMs in a row offer two overlapping two-GEMM windows;
        // the DP must pick exactly one (plus the leftover GEMM) and the
        // result must cover every compute node once.
        let mut g = OpGraph::new();
        let a = g.add_input("A", 128, 2048);
        let b = g.add_input("B", 2048, 8192);
        let d1 = g.add_input("D1", 8192, 2048);
        let d2 = g.add_input("D2", 2048, 2048);
        let c = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let act1 = g.add_node(OpKind::Activation(Activation::Relu), vec![c], "act1");
        let e1 = g.add_node(OpKind::Matmul, vec![act1, d1], "E1");
        let act2 = g.add_node(OpKind::Activation(Activation::Relu), vec![e1], "act2");
        let e2 = g.add_node(OpKind::Matmul, vec![act2, d2], "E2");
        g.add_node(OpKind::Output, vec![e2], "out");

        let pricer = FlatPricer { launch: 2e-6 };
        let p = partition_graph(&g, &params(), &pricer).unwrap();
        assert_eq!(p.fused_count(), 1);
        let covered: usize = p.segments.iter().map(|s| s.nodes().len()).sum();
        assert_eq!(covered, 5);
        // Segments tile the compute nodes in order with no overlap.
        let mut seen: Vec<NodeId> = p.segments.iter().flat_map(|s| s.nodes().to_vec()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![c, act1, e1, act2, e2]);
    }

    #[test]
    fn chain_lower_bound_is_admissible_for_searched_plans() {
        // The partitioner's score must never exceed what the search
        // engine's analytical model assigns to any plan it returns.
        let chain = ChainSpec::standard_ffn(128, 512, 416, 256, Activation::Relu);
        let engine = crate::SearchEngine::new(params());
        let result = engine
            .search(&chain, &crate::SearchConfig::default())
            .unwrap();
        let bound = CostModel::new(params()).chain_lower_bound(&chain);
        for plan in result.top_k() {
            assert!(
                bound <= plan.est_seconds + 1e-18,
                "bound {bound} exceeds est {}",
                plan.est_seconds
            );
        }
    }

    #[test]
    fn empty_and_compute_free_graphs_error() {
        let g = OpGraph::new();
        let pricer = FlatPricer { launch: 0.0 };
        assert_eq!(
            partition_graph(&g, &params(), &pricer),
            Err(PartitionError::NoComputeNodes)
        );
        let mut g = OpGraph::new();
        let a = g.add_input("A", 4, 4);
        g.add_node(OpKind::Output, vec![a], "out");
        assert_eq!(
            partition_graph(&g, &params(), &pricer),
            Err(PartitionError::NoComputeNodes)
        );
    }

    #[test]
    fn ill_shaped_graph_reports_shape_error() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 4, 8);
        let b = g.add_input("B", 9, 16);
        g.add_node(OpKind::Matmul, vec![a, b], "bad");
        let pricer = FlatPricer { launch: 0.0 };
        assert!(matches!(
            partition_graph(&g, &params(), &pricer),
            Err(PartitionError::Shape(_))
        ));
    }
}

//! Fusible-chain pattern matching over an arbitrary [`OpGraph`].
//!
//! The fusion engine consumes typed [`ChainSpec`]s, but real frameworks
//! hand the compiler a whole-model operator DAG. This module recovers
//! the typed chains from that DAG:
//!
//! * [`OpGraph::infer_shapes`] — forward shape inference, done node by
//!   node as the graph is built (each node's inputs precede it), so
//!   reading the shapes back ([`OpGraph::shapes`]) costs no pass over
//!   the graph;
//! * [`recover_chain_io`] — the one walk over the three chain shapes
//!   (standard FFN `act(A x B) x D`, gated FFN
//!   `(act(A x B_gate) ⊙ (A x B_up)) x D`, attention
//!   `softmax(Q x K^T) x V`), returning every role of the chain;
//! * [`match_chains`] — that walk at every node plus the fusibility
//!   checks, with the typed chain read off the roles' shapes;
//! * [`OpGraph::op_cost`] — FLOP/byte pricing of a single node run as a
//!   stand-alone (unfused) kernel, for everything the matcher leaves
//!   behind;
//! * [`OpGraph::append_chain`] — the one builder of the three shapes:
//!   splices a chain's operator expansion onto an existing node, so
//!   model graphs (layer after layer) and [`ChainSpec::to_op_graph`]
//!   compose from the same canonical pieces the matcher recovers. It
//!   checks its input against the already-inferred shape, so stacking
//!   `L` layers costs `O(L)`, not a shape pass per layer.
//!
//! The matcher is deliberately conservative: FFN weights must be
//! dedicated graph inputs and every interior node must have exactly one
//! consumer — if an intermediate escapes the chain it has to be
//! materialised anyway, and the fused plan's traffic accounting would
//! be wrong. Attention windows relax only the *operand* requirement:
//! Q, K^T and V are usually computed projections (the K transpose stays
//! outside the window), so they may be any node, while the interior
//! (scores GEMM, softmax, output GEMM) keeps the single-consumer rule.

use crate::chain::ChainSpec;
use crate::op::{NodeId, OpGraph, OpKind, OpNode};
use flashfuser_tensor::BinaryOp;
use std::error::Error;
use std::fmt;

/// `(rows, cols)` of one node's output tensor.
pub type Shape = (usize, usize);

/// Why shape inference rejected a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphShapeError {
    /// A matmul whose operand inner dimensions disagree.
    MatmulMismatch {
        /// The offending node.
        node: NodeId,
        /// Left operand shape.
        left: Shape,
        /// Right operand shape.
        right: Shape,
    },
    /// A binary element-wise node whose operand shapes differ.
    ElementwiseMismatch {
        /// The offending node.
        node: NodeId,
        /// Left operand shape.
        left: Shape,
        /// Right operand shape.
        right: Shape,
    },
}

impl fmt::Display for GraphShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphShapeError::MatmulMismatch { node, left, right } => write!(
                f,
                "node %{node}: matmul operands {}x{} and {}x{} do not chain",
                left.0, left.1, right.0, right.1
            ),
            GraphShapeError::ElementwiseMismatch { node, left, right } => write!(
                f,
                "node %{node}: element-wise operands {}x{} and {}x{} differ",
                left.0, left.1, right.0, right.1
            ),
        }
    }
}

impl Error for GraphShapeError {}

/// FLOP and global-byte pricing of one node run as a stand-alone
/// kernel (f16 operands, every input loaded and the output stored).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Floating-point operations.
    pub flops: u64,
    /// Global-memory bytes moved.
    pub bytes: u64,
}

/// The output shape of `node`, about to be pushed as `id`, read off its
/// inputs' `shapes`, and the mismatch when its operands disagree. A
/// mismatched node still gets a shape (a matmul's outer dimensions, an
/// element-wise node's left operand), so the graph can keep growing and
/// report its first error.
pub(crate) fn infer_node(
    shapes: &[Shape],
    id: NodeId,
    node: &OpNode,
) -> (Shape, Option<GraphShapeError>) {
    let operand = |i: usize| shapes[node.inputs[i]];
    match node.kind {
        OpKind::Input(rows, cols) => ((rows, cols), None),
        OpKind::Matmul => {
            let (left, right) = (operand(0), operand(1));
            let error = (left.1 != right.0).then_some(GraphShapeError::MatmulMismatch {
                node: id,
                left,
                right,
            });
            ((left.0, right.1), error)
        }
        OpKind::Elementwise(_) => {
            let (left, right) = (operand(0), operand(1));
            let error = (left != right).then_some(GraphShapeError::ElementwiseMismatch {
                node: id,
                left,
                right,
            });
            (left, error)
        }
        OpKind::Transpose => {
            let (r, c) = operand(0);
            ((c, r), None)
        }
        OpKind::Activation(_) | OpKind::Softmax { .. } | OpKind::Output => (operand(0), None),
    }
}

impl OpGraph {
    /// Forward shape inference: the output shape of every node, indexed
    /// by [`NodeId`] — a copy of [`OpGraph::shapes`], which the graph
    /// infers node by node as it is built.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphShapeError`] in node order, when a
    /// matmul's inner dimensions or an element-wise node's operand
    /// shapes disagree.
    pub fn infer_shapes(&self) -> Result<Vec<Shape>, GraphShapeError> {
        self.shapes().map(<[Shape]>::to_vec)
    }

    /// Prices node `id` as a stand-alone unfused kernel: matmuls move
    /// both operands plus the result and pay `2mkn` FLOPs; element-wise
    /// nodes stream operands and result at one FLOP per element;
    /// transposes are pure data movement; inputs and output markers are
    /// free (an input's bytes are charged to its consumer).
    ///
    /// `shapes` must be this graph's [`OpGraph::shapes`].
    pub fn op_cost(&self, shapes: &[Shape], id: NodeId) -> OpCost {
        const F16: u64 = 2;
        let node = self.node(id);
        let elems = |s: Shape| (s.0 * s.1) as u64;
        match node.kind {
            OpKind::Input(..) | OpKind::Output => OpCost::default(),
            OpKind::Matmul => {
                let a = shapes[node.inputs[0]];
                let b = shapes[node.inputs[1]];
                OpCost {
                    flops: 2 * (a.0 * a.1 * b.1) as u64,
                    bytes: F16 * (elems(a) + elems(b) + elems(shapes[id])),
                }
            }
            OpKind::Activation(_) => OpCost {
                flops: elems(shapes[id]),
                bytes: 2 * F16 * elems(shapes[id]),
            },
            OpKind::Elementwise(_) => OpCost {
                flops: elems(shapes[id]),
                bytes: 3 * F16 * elems(shapes[id]),
            },
            // A stand-alone softmax kernel is three rowwise passes (max,
            // exp+sum, normalize) over the materialised scores plus the
            // probability write: 4 element-wise FLOPs and 4 tensor-sized
            // transfers per element.
            OpKind::Softmax { .. } => OpCost {
                flops: 4 * elems(shapes[id]),
                bytes: 4 * F16 * elems(shapes[id]),
            },
            OpKind::Transpose => OpCost {
                flops: 0,
                bytes: 2 * F16 * elems(shapes[id]),
            },
        }
    }

    /// Splices the operator expansion of `chain` onto `input` (the
    /// chain's activation tensor `A`) and returns the id of the chain's
    /// output node `E`. Weights become fresh `Input` nodes labelled
    /// `{prefix}.B` / `{prefix}.B_gate` / `{prefix}.D`.
    ///
    /// This is the multi-segment builder: stacking layers is
    /// `append_chain` per layer plus whatever element-wise glue the
    /// model needs, and the result round-trips through [`match_chains`].
    /// `input`'s shape is read from [`OpGraph::shapes`], which the graph
    /// keeps as it grows, so a layer costs the same whatever precedes it.
    ///
    /// # Panics
    ///
    /// Panics if `input`'s inferred shape is not `[M, K]` for the
    /// chain's dims (or if the graph built so far is ill-shaped).
    pub fn append_chain(&mut self, chain: &ChainSpec, input: NodeId, prefix: &str) -> NodeId {
        let d = chain.dims();
        let have = self.shapes().expect("graph upstream is well-shaped")[input];
        assert_eq!(
            have,
            (d.m, d.k),
            "append_chain: input node %{input} is {}x{}, chain expects A[{}x{}]",
            have.0,
            have.1,
            d.m,
            d.k
        );
        let label = |part: &str| {
            if prefix.is_empty() {
                part.to_owned()
            } else {
                [prefix, ".", part].concat()
            }
        };
        let activation = chain.kind().activation();
        if chain.kind().is_attention() {
            let b = self.add_input(label("B"), d.k, d.n);
            let dw = self.add_input(label("D"), d.n, d.l);
            let c = self.add_node(OpKind::Matmul, vec![input, b], label("scores"));
            let sm = self.add_node(
                OpKind::Softmax {
                    scale_k: chain.softmax_scale_k(),
                },
                vec![c],
                label("probs"),
            );
            return self.add_node(OpKind::Matmul, vec![sm, dw], label("E"));
        }
        if chain.kind().is_gated() {
            let b_up = self.add_input(label("B_up"), d.k, d.n);
            let b_gate = self.add_input(label("B_gate"), d.k, d.n);
            let dw = self.add_input(label("D"), d.n, d.l);
            let up = self.add_node(OpKind::Matmul, vec![input, b_up], label("up"));
            let gate = self.add_node(OpKind::Matmul, vec![input, b_gate], label("gate"));
            let act = self.add_node(OpKind::Activation(activation), vec![gate], label("act"));
            let mul = self.add_node(
                OpKind::Elementwise(BinaryOp::Mul),
                vec![act, up],
                label("mul"),
            );
            self.add_node(OpKind::Matmul, vec![mul, dw], label("E"))
        } else {
            let b = self.add_input(label("B"), d.k, d.n);
            let dw = self.add_input(label("D"), d.n, d.l);
            let c = self.add_node(OpKind::Matmul, vec![input, b], label("C"));
            let act = self.add_node(OpKind::Activation(activation), vec![c], label("act"));
            self.add_node(OpKind::Matmul, vec![act, dw], label("E"))
        }
    }
}

/// The roles of a two-GEMM chain embedded in a larger graph: its
/// boundary (everything an executor needs to wire a fused kernel into
/// the surrounding dataflow — read the activation and weight values,
/// store the result at the output GEMM's node) and its interior (the
/// compute nodes the fused kernel replaces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainIo {
    /// The node feeding the chain (`A`; Q for attention).
    pub input: NodeId,
    /// The up-projection weight (`B` / `B_up`; K^T for attention).
    pub b_up: NodeId,
    /// The gate weight (`B_gate`), present only for gated chains.
    pub b_gate: Option<NodeId>,
    /// The down-projection weight (`D`; V for attention).
    pub d: NodeId,
    /// GEMM0, `A x B` (the up GEMM of a gated chain, the scores GEMM of
    /// attention).
    pub gemm0: NodeId,
    /// The gate GEMM `A x B_gate`, present only for gated chains.
    pub gate: Option<NodeId>,
    /// The activation between the GEMMs, or the softmax of attention.
    pub act: NodeId,
    /// The branch combine `act ⊙ up`, present only for gated chains.
    pub mul: Option<NodeId>,
    /// The output GEMM (`E`).
    pub output: NodeId,
}

impl ChainIo {
    /// The compute nodes a fused kernel replaces (GEMMs, activation or
    /// softmax, branch combine), in ascending id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = [
            Some(self.gemm0),
            self.gate,
            Some(self.act),
            self.mul,
            Some(self.output),
        ]
        .into_iter()
        .flatten()
        .collect();
        nodes.sort_unstable();
        nodes
    }
}

/// Structurally recovers the roles of the chain closed by output GEMM
/// `e` — the one walk over the three chain shapes (`act(A x B) x D`,
/// `softmax(A x B) x D`, and `(act(A x B_gate) ⊙ (A x B_up)) x D` with
/// the combine's operands in either order). It applies no fusibility
/// check (consumer counts, dedicated weights, softmax scale): that is
/// [`match_chains`]' job, while callers such as the executors hand it a
/// node already known to close a fused segment. Returns `None` when the
/// subgraph under `e` has none of the three shapes.
pub fn recover_chain_io(g: &OpGraph, e: NodeId) -> Option<ChainIo> {
    let is_matmul = |id: NodeId| g.node(id).kind == OpKind::Matmul;
    let is_act = |id: NodeId| matches!(g.node(id).kind, OpKind::Activation(_));
    if !is_matmul(e) {
        return None;
    }
    let (c, d) = (g.node(e).inputs[0], g.node(e).inputs[1]);
    let (act, gemm0, gate, mul) = match g.node(c).kind {
        OpKind::Activation(_) | OpKind::Softmax { .. } => (c, g.node(c).inputs[0], None, None),
        OpKind::Elementwise(BinaryOp::Mul) => {
            // One operand is the activated gate branch, the other the up GEMM.
            let (x, y) = (g.node(c).inputs[0], g.node(c).inputs[1]);
            let (act, up) = if is_act(x) { (x, y) } else { (y, x) };
            if !is_act(act) || !is_matmul(g.node(act).inputs[0]) {
                return None;
            }
            (act, up, Some(g.node(act).inputs[0]), Some(c))
        }
        _ => return None,
    };
    if !is_matmul(gemm0) {
        return None;
    }
    let input = g.node(gemm0).inputs[0];
    if gate.is_some_and(|gate| g.node(gate).inputs[0] != input) {
        return None;
    }
    Some(ChainIo {
        input,
        b_up: g.node(gemm0).inputs[1],
        b_gate: gate.map(|gate| g.node(gate).inputs[1]),
        d,
        gemm0,
        gate,
        act,
        mul,
        output: e,
    })
}

/// One fusible chain recovered from a larger graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMatch {
    /// The recovered chain (unnamed; names are metadata).
    pub chain: ChainSpec,
    /// Compute nodes the fused kernel replaces, in ascending id order
    /// (`io.nodes()`).
    pub nodes: Vec<NodeId>,
    /// The chain's roles in the graph.
    pub io: ChainIo,
}

/// Finds every fusible two-GEMM chain in `g`, in ascending order of the
/// output GEMM's node id. Matches may overlap (a three-GEMM ladder
/// yields two candidates); the partitioner's DP resolves overlaps.
///
/// A node closes a match when [`recover_chain_io`] finds a chain shape
/// under it and the fusibility checks hold: every interior node but the
/// output has exactly one consumer; an attention softmax is unscaled or
/// scaled by exactly `K`; FFN weights (`B`, `B_gate`, `D`) are dedicated
/// `Input`s, and the two gated weights have the same shape. The
/// [`ChainSpec`] is read off the roles' inferred shapes and node kinds.
///
/// # Errors
///
/// Returns [`GraphShapeError`] when the graph itself is ill-shaped.
pub fn match_chains(g: &OpGraph) -> Result<Vec<ChainMatch>, GraphShapeError> {
    let shapes = g.shapes()?;
    let mut consumers = vec![0usize; g.len()];
    for node in g.nodes() {
        for &i in &node.inputs {
            consumers[i] += 1;
        }
    }
    // A weight is a dedicated `Input`, consumed by the chain alone.
    let is_weight = |id: NodeId| matches!(g.node(id).kind, OpKind::Input(..)) && consumers[id] == 1;
    let mut matches = Vec::new();
    for e in 0..g.len() {
        let Some(io) = recover_chain_io(g, e) else {
            continue;
        };
        let nodes = io.nodes();
        if nodes.iter().any(|&id| id != e && consumers[id] != 1) {
            continue;
        }
        let (m, k) = shapes[io.input];
        let (n, l) = (shapes[io.b_up].1, shapes[io.d].1);
        let chain = match (g.node(io.act).kind, io.b_gate) {
            (OpKind::Softmax { scale_k }, _) if scale_k == 0 || scale_k == k => {
                ChainSpec::attention(m, n, k, l, scale_k != 0)
            }
            (OpKind::Activation(act), None) if is_weight(io.b_up) && is_weight(io.d) => {
                ChainSpec::standard_ffn(m, n, k, l, act)
            }
            (OpKind::Activation(act), Some(b_gate))
                if is_weight(io.b_up)
                    && is_weight(b_gate)
                    && is_weight(io.d)
                    && shapes[b_gate] == shapes[io.b_up] =>
            {
                ChainSpec::gated_ffn(m, n, k, l, act)
            }
            _ => continue,
        };
        matches.push(ChainMatch { chain, nodes, io });
    }
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::ChainDims;
    use flashfuser_tensor::Activation;

    fn round_trip(chain: &ChainSpec) -> Vec<ChainMatch> {
        match_chains(&chain.to_op_graph()).unwrap()
    }

    #[test]
    fn shapes_infer_through_every_kind() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 4, 8);
        let b = g.add_input("B", 8, 16);
        let mm = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let t = g.add_node(OpKind::Transpose, vec![mm], "Ct");
        let act = g.add_node(OpKind::Activation(Activation::Relu), vec![t], "act");
        g.add_node(OpKind::Output, vec![act], "out");
        let shapes = g.infer_shapes().unwrap();
        assert_eq!(shapes[mm], (4, 16));
        assert_eq!(shapes[t], (16, 4));
        assert_eq!(shapes[act], (16, 4));
    }

    #[test]
    fn shape_errors_name_the_node() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 4, 8);
        let b = g.add_input("B", 9, 16);
        let bad = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let err = g.infer_shapes().unwrap_err();
        assert_eq!(
            err,
            GraphShapeError::MatmulMismatch {
                node: bad,
                left: (4, 8),
                right: (9, 16)
            }
        );
        assert!(err.to_string().contains("%2"));
        // A graph keeps growing past a mismatch and still reports the
        // first one.
        let c = g.add_input("C", 7, 3);
        g.add_node(OpKind::Matmul, vec![bad, c], "worse");
        assert_eq!(g.infer_shapes().unwrap_err(), err);
        assert_eq!(g.shapes().unwrap_err(), err);

        let mut g = OpGraph::new();
        let a = g.add_input("A", 4, 8);
        let b = g.add_input("B", 4, 9);
        g.add_node(OpKind::Elementwise(BinaryOp::Add), vec![a, b], "bad");
        assert!(matches!(
            g.infer_shapes(),
            Err(GraphShapeError::ElementwiseMismatch { .. })
        ));
    }

    #[test]
    fn op_costs_match_chain_dims_accounting() {
        let chain = ChainSpec::standard_ffn(16, 48, 32, 24, Activation::Relu);
        let g = chain.to_op_graph();
        let shapes = g.infer_shapes().unwrap();
        let d = ChainDims::new(16, 48, 32, 24);
        // Node ids in to_op_graph order: A, B, D, C, act, E, out.
        assert_eq!(
            g.op_cost(&shapes, 3),
            OpCost {
                flops: d.gemm0_flops(),
                bytes: d.a_bytes_f16() + d.b_bytes_f16() + d.intermediate_bytes_f16(),
            }
        );
        assert_eq!(g.op_cost(&shapes, 4).bytes, 2 * d.intermediate_bytes_f16());
        assert_eq!(
            g.op_cost(&shapes, 5),
            OpCost {
                flops: d.gemm1_flops(),
                bytes: d.intermediate_bytes_f16() + d.d_bytes_f16() + d.e_bytes_f16(),
            }
        );
        assert_eq!(g.op_cost(&shapes, 0), OpCost::default());
        assert_eq!(g.op_cost(&shapes, 6), OpCost::default());
    }

    #[test]
    fn standard_chain_round_trips() {
        let chain = ChainSpec::standard_ffn(128, 512, 416, 256, Activation::Relu);
        let matches = round_trip(&chain);
        assert_eq!(matches.len(), 1);
        let m = &matches[0];
        assert_eq!(m.chain, chain);
        assert_eq!(m.chain.fingerprint(), chain.fingerprint());
        assert_eq!(m.nodes, vec![3, 4, 5]);
        assert_eq!(m.io.input, 0);
    }

    #[test]
    fn gated_chain_round_trips_in_either_mul_order() {
        let chain = ChainSpec::gated_ffn(128, 512, 256, 256, Activation::Silu);
        let matches = round_trip(&chain);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].chain, chain);

        // Same structure with the combine's operands swapped:
        // mul(up, act) instead of mul(act, up).
        let mut g = OpGraph::new();
        let a = g.add_input("A", 128, 256);
        let b_up = g.add_input("B_up", 256, 512);
        let b_gate = g.add_input("B_gate", 256, 512);
        let dw = g.add_input("D", 512, 256);
        let up = g.add_node(OpKind::Matmul, vec![a, b_up], "up");
        let gate = g.add_node(OpKind::Matmul, vec![a, b_gate], "gate");
        let act = g.add_node(OpKind::Activation(Activation::Silu), vec![gate], "act");
        let mul = g.add_node(OpKind::Elementwise(BinaryOp::Mul), vec![up, act], "mul");
        let e = g.add_node(OpKind::Matmul, vec![mul, dw], "E");
        g.add_node(OpKind::Output, vec![e], "out");
        let matches = match_chains(&g).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].chain, chain);
    }

    #[test]
    fn escaping_intermediate_blocks_the_match() {
        // The activation output also feeds a second consumer, so fusing
        // would not save its materialisation.
        let mut g = OpGraph::new();
        let a = g.add_input("A", 16, 32);
        let b = g.add_input("B", 32, 48);
        let dw = g.add_input("D", 48, 16);
        let c = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let act = g.add_node(OpKind::Activation(Activation::Relu), vec![c], "act");
        let e = g.add_node(OpKind::Matmul, vec![act, dw], "E");
        let esc = g.add_node(OpKind::Transpose, vec![act], "escape");
        g.add_node(OpKind::Output, vec![e], "out");
        g.add_node(OpKind::Output, vec![esc], "out2");
        assert!(match_chains(&g).unwrap().is_empty());
    }

    #[test]
    fn computed_weight_blocks_the_match() {
        // D is produced by another op, not a dedicated Input: no match.
        let mut g = OpGraph::new();
        let a = g.add_input("A", 16, 32);
        let b = g.add_input("B", 32, 48);
        let d_src = g.add_input("Dsrc", 16, 48);
        let c = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let act = g.add_node(OpKind::Activation(Activation::Relu), vec![c], "act");
        let dt = g.add_node(OpKind::Transpose, vec![d_src], "Dt");
        let e = g.add_node(OpKind::Matmul, vec![act, dt], "E");
        g.add_node(OpKind::Output, vec![e], "out");
        assert!(match_chains(&g).unwrap().is_empty());
    }

    #[test]
    fn append_chain_round_trips_two_layers() {
        let chain = ChainSpec::standard_ffn(8, 32, 16, 16, Activation::Gelu);
        let mut g = OpGraph::new();
        let x = g.add_input("x", 8, 16);
        let l1 = g.append_chain(&chain, x, "l1");
        let l2 = g.append_chain(&chain, l1, "l2");
        g.add_node(OpKind::Output, vec![l2], "out");
        let matches = match_chains(&g).unwrap();
        assert_eq!(matches.len(), 2);
        assert_eq!(matches[0].chain, chain);
        assert_eq!(matches[1].chain, chain);
        assert_eq!(matches[0].io.output, matches[1].io.input);
    }

    #[test]
    #[should_panic(expected = "append_chain")]
    fn append_chain_checks_the_input_shape() {
        let chain = ChainSpec::standard_ffn(8, 32, 16, 16, Activation::Gelu);
        let mut g = OpGraph::new();
        let x = g.add_input("x", 8, 99);
        g.append_chain(&chain, x, "l1");
    }

    #[test]
    fn overlapping_matches_both_reported() {
        // A three-GEMM ladder: (A x B) -> act -> x D1 -> act -> x D2.
        // Both two-GEMM windows are legal candidates.
        let mut g = OpGraph::new();
        let a = g.add_input("A", 16, 32);
        let b = g.add_input("B", 32, 48);
        let d1 = g.add_input("D1", 48, 64);
        let d2 = g.add_input("D2", 64, 16);
        let c = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let act1 = g.add_node(OpKind::Activation(Activation::Relu), vec![c], "act1");
        let e1 = g.add_node(OpKind::Matmul, vec![act1, d1], "E1");
        let act2 = g.add_node(OpKind::Activation(Activation::Relu), vec![e1], "act2");
        let e2 = g.add_node(OpKind::Matmul, vec![act2, d2], "E2");
        g.add_node(OpKind::Output, vec![e2], "out");
        let matches = match_chains(&g).unwrap();
        assert_eq!(matches.len(), 2);
        assert!(matches[0].nodes.contains(&c));
        assert!(matches[1].nodes.contains(&e2));
    }

    #[test]
    fn chain_io_recovered_for_both_families() {
        // Roles against to_op_graph's fixed node ids.
        let std_chain = ChainSpec::standard_ffn(16, 32, 32, 16, Activation::Relu);
        let g = std_chain.to_op_graph();
        // A, B, D, C, act, E.
        let io = recover_chain_io(&g, 5).unwrap();
        assert_eq!(
            io,
            ChainIo {
                input: 0,
                b_up: 1,
                b_gate: None,
                d: 2,
                gemm0: 3,
                gate: None,
                act: 4,
                mul: None,
                output: 5,
            }
        );
        assert_eq!(io.nodes(), vec![3, 4, 5]);
        assert_eq!(match_chains(&g).unwrap()[0].io, io);

        let gated = ChainSpec::gated_ffn(16, 32, 32, 16, Activation::Silu);
        let g = gated.to_op_graph();
        // A, B_up, B_gate, D, up, gate, act, mul, E.
        let io = recover_chain_io(&g, 8).unwrap();
        assert_eq!(
            io,
            ChainIo {
                input: 0,
                b_up: 1,
                b_gate: Some(2),
                d: 3,
                gemm0: 4,
                gate: Some(5),
                act: 6,
                mul: Some(7),
                output: 8,
            }
        );
        assert_eq!(io.nodes(), vec![4, 5, 6, 7, 8]);
        assert_eq!(match_chains(&g).unwrap()[0].io, io);

        // A bare GEMM is not a chain.
        let mut g = OpGraph::new();
        let a = g.add_input("A", 4, 4);
        let b = g.add_input("B", 4, 4);
        let mm = g.add_node(OpKind::Matmul, vec![a, b], "C");
        assert_eq!(recover_chain_io(&g, mm), None);
        assert_eq!(recover_chain_io(&g, a), None);
    }

    #[test]
    fn transpose_fingerprint_is_distinct() {
        let mut g1 = OpGraph::new();
        let a = g1.add_input("A", 4, 8);
        g1.add_node(OpKind::Transpose, vec![a], "t");
        let mut g2 = OpGraph::new();
        let a = g2.add_input("A", 4, 8);
        g2.add_node(OpKind::Activation(Activation::Identity), vec![a], "id");
        assert_ne!(g1.fingerprint(), g2.fingerprint());
    }
}

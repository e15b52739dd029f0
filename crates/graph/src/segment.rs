//! Fusible-chain pattern matching over an arbitrary [`OpGraph`].
//!
//! The fusion engine consumes typed [`ChainSpec`]s, but real frameworks
//! hand the compiler a whole-model operator DAG. This module recovers
//! the typed chains from that DAG:
//!
//! * [`OpGraph::infer_shapes`] — forward shape inference over the
//!   topological node order;
//! * [`match_chains`] — structural pattern matching of the three chain
//!   families (standard FFN `act(A x B) x D`, gated FFN
//!   `(act(A x B_gate) ⊙ (A x B_up)) x D`, attention
//!   `softmax(Q x K^T) x V`), each match verified against the canonical
//!   form via the content fingerprints of [`crate::fingerprint`];
//! * [`OpGraph::op_cost`] — FLOP/byte pricing of a single node run as a
//!   stand-alone (unfused) kernel, for everything the matcher leaves
//!   behind;
//! * [`OpGraph::append_chain`] — the multi-segment graph builder:
//!   splices a chain's operator expansion onto an existing node, so
//!   model graphs (layer after layer) compose from the same canonical
//!   pieces the matcher recovers.
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
use crate::op::{NodeId, OpGraph, OpKind};
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

impl OpGraph {
    /// Forward shape inference: the output shape of every node, indexed
    /// by [`NodeId`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphShapeError`] when a matmul's inner dimensions or
    /// an element-wise node's operand shapes disagree.
    pub fn infer_shapes(&self) -> Result<Vec<Shape>, GraphShapeError> {
        let mut shapes: Vec<Shape> = Vec::with_capacity(self.len());
        for (id, node) in self.nodes().iter().enumerate() {
            let shape = match node.kind {
                OpKind::Input(rows, cols) => (rows, cols),
                OpKind::Matmul => {
                    let left = shapes[node.inputs[0]];
                    let right = shapes[node.inputs[1]];
                    if left.1 != right.0 {
                        return Err(GraphShapeError::MatmulMismatch {
                            node: id,
                            left,
                            right,
                        });
                    }
                    (left.0, right.1)
                }
                OpKind::Elementwise(_) => {
                    let left = shapes[node.inputs[0]];
                    let right = shapes[node.inputs[1]];
                    if left != right {
                        return Err(GraphShapeError::ElementwiseMismatch {
                            node: id,
                            left,
                            right,
                        });
                    }
                    left
                }
                OpKind::Transpose => {
                    let (r, c) = shapes[node.inputs[0]];
                    (c, r)
                }
                OpKind::Activation(_) | OpKind::Softmax { .. } | OpKind::Output => {
                    shapes[node.inputs[0]]
                }
            };
            shapes.push(shape);
        }
        Ok(shapes)
    }

    /// Prices node `id` as a stand-alone unfused kernel: matmuls move
    /// both operands plus the result and pay `2mkn` FLOPs; element-wise
    /// nodes stream operands and result at one FLOP per element;
    /// transposes are pure data movement; inputs and output markers are
    /// free (an input's bytes are charged to its consumer).
    ///
    /// `shapes` must come from [`OpGraph::infer_shapes`] on this graph.
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
    ///
    /// # Panics
    ///
    /// Panics if `input`'s inferred shape is not `[M, K]` for the
    /// chain's dims (or if the graph upstream of `input` is ill-shaped).
    pub fn append_chain(&mut self, chain: &ChainSpec, input: NodeId, prefix: &str) -> NodeId {
        let d = chain.dims();
        let shapes = self.infer_shapes().expect("graph upstream is well-shaped");
        assert_eq!(
            shapes[input],
            (d.m, d.k),
            "append_chain: input node %{input} is {}x{}, chain expects A[{}x{}]",
            shapes[input].0,
            shapes[input].1,
            d.m,
            d.k
        );
        let label = |part: &str| {
            if prefix.is_empty() {
                part.to_string()
            } else {
                format!("{prefix}.{part}")
            }
        };
        let activation = chain.kind().activation();
        if chain.kind().is_attention() {
            let b = self.add_input(&label("B"), d.k, d.n);
            let dw = self.add_input(&label("D"), d.n, d.l);
            let c = self.add_node(OpKind::Matmul, vec![input, b], &label("scores"));
            let sm = self.add_node(
                OpKind::Softmax {
                    scale_k: chain.softmax_scale_k(),
                },
                vec![c],
                &label("probs"),
            );
            return self.add_node(OpKind::Matmul, vec![sm, dw], &label("E"));
        }
        if chain.kind().is_gated() {
            let b_up = self.add_input(&label("B_up"), d.k, d.n);
            let b_gate = self.add_input(&label("B_gate"), d.k, d.n);
            let dw = self.add_input(&label("D"), d.n, d.l);
            let up = self.add_node(OpKind::Matmul, vec![input, b_up], &label("up"));
            let gate = self.add_node(OpKind::Matmul, vec![input, b_gate], &label("gate"));
            let act = self.add_node(OpKind::Activation(activation), vec![gate], &label("act"));
            let mul = self.add_node(
                OpKind::Elementwise(BinaryOp::Mul),
                vec![act, up],
                &label("mul"),
            );
            self.add_node(OpKind::Matmul, vec![mul, dw], &label("E"))
        } else {
            let b = self.add_input(&label("B"), d.k, d.n);
            let dw = self.add_input(&label("D"), d.n, d.l);
            let c = self.add_node(OpKind::Matmul, vec![input, b], &label("C"));
            let act = self.add_node(OpKind::Activation(activation), vec![c], &label("act"));
            self.add_node(OpKind::Matmul, vec![act, dw], &label("E"))
        }
    }
}

/// The boundary nodes of a two-GEMM chain embedded in a larger graph:
/// everything an executor needs to wire a fused kernel into the
/// surrounding dataflow (read the activation and weight values, store
/// the result at the output GEMM's node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainIo {
    /// The node feeding the chain (`A`).
    pub input: NodeId,
    /// The up-projection weight (`B` / `B_up`).
    pub b_up: NodeId,
    /// The gate weight (`B_gate`), present only for gated chains.
    pub b_gate: Option<NodeId>,
    /// The down-projection weight (`D`).
    pub d: NodeId,
    /// The output GEMM (`E`).
    pub output: NodeId,
}

/// Structurally recovers the chain I/O roles from its output GEMM `e`:
/// walks the producer edges exactly the way [`match_chains`] does, but
/// without the fusibility checks (consumer counts, dedicated weights)
/// — callers hand it a node that is *already known* to close a chain
/// (e.g. the last node of a fused segment) and just need the roles
/// back. Returns `None` when the subgraph under `e` is not shaped like
/// either chain family.
pub fn recover_chain_io(g: &OpGraph, e: NodeId) -> Option<ChainIo> {
    let node = g.node(e);
    if node.kind != OpKind::Matmul {
        return None;
    }
    let (c, d) = (node.inputs[0], node.inputs[1]);
    match g.node(c).kind {
        OpKind::Activation(_) => {
            let m0 = g.node(c).inputs[0];
            if g.node(m0).kind != OpKind::Matmul {
                return None;
            }
            Some(ChainIo {
                input: g.node(m0).inputs[0],
                b_up: g.node(m0).inputs[1],
                b_gate: None,
                d,
                output: e,
            })
        }
        OpKind::Softmax { .. } => {
            let m0 = g.node(c).inputs[0];
            if g.node(m0).kind != OpKind::Matmul {
                return None;
            }
            Some(ChainIo {
                input: g.node(m0).inputs[0],
                b_up: g.node(m0).inputs[1],
                b_gate: None,
                d,
                output: e,
            })
        }
        OpKind::Elementwise(BinaryOp::Mul) => {
            let (x, y) = (g.node(c).inputs[0], g.node(c).inputs[1]);
            let (act_node, up) = if matches!(g.node(x).kind, OpKind::Activation(_)) {
                (x, y)
            } else {
                (y, x)
            };
            if !matches!(g.node(act_node).kind, OpKind::Activation(_))
                || g.node(up).kind != OpKind::Matmul
            {
                return None;
            }
            let gate = g.node(act_node).inputs[0];
            if g.node(gate).kind != OpKind::Matmul || g.node(up).inputs[0] != g.node(gate).inputs[0]
            {
                return None;
            }
            Some(ChainIo {
                input: g.node(up).inputs[0],
                b_up: g.node(up).inputs[1],
                b_gate: Some(g.node(gate).inputs[1]),
                d,
                output: e,
            })
        }
        _ => None,
    }
}

/// One fusible chain recovered from a larger graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainMatch {
    /// The recovered chain (unnamed; names are metadata).
    pub chain: ChainSpec,
    /// Compute nodes the fused kernel replaces (GEMMs, activation,
    /// branch combine), in ascending id order.
    pub nodes: Vec<NodeId>,
    /// The weight `Input` nodes the chain consumes (`B`, `B_gate`, `D`).
    pub weights: Vec<NodeId>,
    /// The node feeding the chain (`A`) — not owned by the match.
    pub input: NodeId,
    /// The node producing the chain's result (`E` — the second GEMM).
    pub output: NodeId,
}

/// Per-node consumer counts (duplicate edges counted twice).
fn consumer_counts(g: &OpGraph) -> Vec<usize> {
    let mut counts = vec![0usize; g.len()];
    for node in g.nodes() {
        for &i in &node.inputs {
            counts[i] += 1;
        }
    }
    counts
}

/// `true` when `id` is a weight: a dedicated `Input` consumed exactly
/// once (by the chain itself).
fn is_dedicated_input(g: &OpGraph, counts: &[usize], id: NodeId) -> bool {
    matches!(g.node(id).kind, OpKind::Input(..)) && counts[id] == 1
}

/// Finds every fusible two-GEMM chain in `g`, in ascending order of the
/// output GEMM's node id. Matches may overlap (a three-GEMM ladder
/// yields two candidates); the partitioner's DP resolves overlaps.
///
/// Each match is cross-checked against the canonical chain form: the
/// matched subgraph, re-extracted as a stand-alone graph, must have
/// the same content fingerprint as `ChainSpec::to_op_graph()` of the
/// recovered chain. A match that fails the check would mean the matcher
/// and the builder disagree on the family's shape, so it is dropped
/// (debug builds assert instead).
///
/// # Errors
///
/// Returns [`GraphShapeError`] when the graph itself is ill-shaped.
pub fn match_chains(g: &OpGraph) -> Result<Vec<ChainMatch>, GraphShapeError> {
    let shapes = g.infer_shapes()?;
    let counts = consumer_counts(g);
    let mut matches = Vec::new();
    for (id, node) in g.nodes().iter().enumerate() {
        if node.kind != OpKind::Matmul {
            continue;
        }
        // `id` is the candidate GEMM1: E = C x D. Attention windows
        // accept *any* producer for D (the value tensor V is usually a
        // computed projection, not a dedicated weight); the FFN
        // families keep the dedicated-weight requirement.
        let (c, d) = (node.inputs[0], node.inputs[1]);
        let m = match_attention(g, &shapes, &counts, id, c, d).or_else(|| {
            if !is_dedicated_input(g, &counts, d) {
                return None;
            }
            match_standard(g, &shapes, &counts, id, c, d)
                .or_else(|| match_gated(g, &shapes, &counts, id, c, d))
        });
        if let Some(m) = m {
            let canonical = m.chain.to_op_graph().fingerprint();
            let extracted = extract_with_shapes(g, &shapes, &m).fingerprint();
            debug_assert_eq!(
                canonical, extracted,
                "matcher and ChainSpec::to_op_graph disagree on {:?}",
                m.chain
            );
            if canonical == extracted {
                matches.push(m);
            }
        }
    }
    Ok(matches)
}

/// Matches `E = softmax(A x B) x D` — an attention window — ending at
/// GEMM1 `e` with value tensor `d`.
///
/// Unlike the FFN families, the three *operands* (`A` = Q, `B` = K^T,
/// `D` = V) may be arbitrary computed nodes: in a lowered attention
/// layer they are the Q/K/V projection GEMMs and the K transpose, which
/// all stay *outside* the window. Only the interior (scores GEMM,
/// softmax, output GEMM) must be single-consumer. The softmax's
/// `scale_k` must be `0` (plain) or exactly the contraction dim `K`
/// (scaled dot-product); anything else is not the canonical chain form.
fn match_attention(
    g: &OpGraph,
    shapes: &[Shape],
    counts: &[usize],
    e: NodeId,
    c: NodeId,
    d: NodeId,
) -> Option<ChainMatch> {
    let OpKind::Softmax { scale_k } = g.node(c).kind else {
        return None;
    };
    if counts[c] != 1 {
        return None;
    }
    let m0 = g.node(c).inputs[0];
    if g.node(m0).kind != OpKind::Matmul || counts[m0] != 1 {
        return None;
    }
    let (a, b) = (g.node(m0).inputs[0], g.node(m0).inputs[1]);
    let (mm, kk) = shapes[a];
    let nn = shapes[b].1;
    let ll = shapes[d].1;
    if scale_k != 0 && scale_k != kk {
        return None;
    }
    let weights = [b, d]
        .into_iter()
        .filter(|&w| matches!(g.node(w).kind, OpKind::Input(..)))
        .collect();
    Some(ChainMatch {
        chain: ChainSpec::attention(mm, nn, kk, ll, scale_k != 0),
        nodes: vec![m0, c, e],
        weights,
        input: a,
        output: e,
    })
}

/// Matches `E = act(A x B) x D` ending at GEMM1 `e` with weight `d`.
fn match_standard(
    g: &OpGraph,
    shapes: &[Shape],
    counts: &[usize],
    e: NodeId,
    c: NodeId,
    d: NodeId,
) -> Option<ChainMatch> {
    let OpKind::Activation(activation) = g.node(c).kind else {
        return None;
    };
    if counts[c] != 1 {
        return None;
    }
    let m0 = g.node(c).inputs[0];
    if g.node(m0).kind != OpKind::Matmul || counts[m0] != 1 {
        return None;
    }
    let (a, b) = (g.node(m0).inputs[0], g.node(m0).inputs[1]);
    if !is_dedicated_input(g, counts, b) {
        return None;
    }
    let (mm, kk) = shapes[a];
    let nn = shapes[b].1;
    let ll = shapes[d].1;
    Some(ChainMatch {
        chain: ChainSpec::standard_ffn(mm, nn, kk, ll, activation),
        nodes: vec![m0, c, e],
        weights: vec![b, d],
        input: a,
        output: e,
    })
}

/// Matches `E = (act(A x B_gate) ⊙ (A x B_up)) x D` ending at GEMM1
/// `e` with weight `d`. The element-wise combine must be `Mul`; its
/// operand order may be either `(act, up)` or `(up, act)` — the
/// recovered chain is canonical either way.
fn match_gated(
    g: &OpGraph,
    shapes: &[Shape],
    counts: &[usize],
    e: NodeId,
    c: NodeId,
    d: NodeId,
) -> Option<ChainMatch> {
    if g.node(c).kind != OpKind::Elementwise(BinaryOp::Mul) || counts[c] != 1 {
        return None;
    }
    let (x, y) = (g.node(c).inputs[0], g.node(c).inputs[1]);
    // One operand is the activated gate branch, the other the up GEMM.
    let (act_node, up) = if matches!(g.node(x).kind, OpKind::Activation(_)) {
        (x, y)
    } else {
        (y, x)
    };
    let OpKind::Activation(activation) = g.node(act_node).kind else {
        return None;
    };
    if g.node(up).kind != OpKind::Matmul || counts[act_node] != 1 || counts[up] != 1 {
        return None;
    }
    let gate = g.node(act_node).inputs[0];
    if g.node(gate).kind != OpKind::Matmul || counts[gate] != 1 {
        return None;
    }
    let (a_up, b_up) = (g.node(up).inputs[0], g.node(up).inputs[1]);
    let (a_gate, b_gate) = (g.node(gate).inputs[0], g.node(gate).inputs[1]);
    if a_up != a_gate {
        return None;
    }
    if !is_dedicated_input(g, counts, b_up) || !is_dedicated_input(g, counts, b_gate) {
        return None;
    }
    if shapes[b_up] != shapes[b_gate] {
        return None;
    }
    let (mm, kk) = shapes[a_up];
    let nn = shapes[b_up].1;
    let ll = shapes[d].1;
    let mut nodes = vec![up, gate, act_node, c, e];
    nodes.sort_unstable();
    Some(ChainMatch {
        chain: ChainSpec::gated_ffn(mm, nn, kk, ll, activation),
        nodes,
        weights: vec![b_up, b_gate, d],
        input: a_up,
        output: e,
    })
}

/// Rebuilds the matched region as a stand-alone canonical [`OpGraph`]:
/// the chain input `A` and the weights become fresh `Input` nodes, the
/// interior nodes are re-emitted in canonical order (gated combine
/// normalised to `(act, up)`), and an `Output` marker closes the graph
/// — exactly the shape [`ChainSpec::to_op_graph`] produces, so the two
/// can be compared by fingerprint. Takes the host graph's shape vector
/// already computed, so `match_chains` validates every match without
/// re-inferring it per match.
fn extract_with_shapes(g: &OpGraph, shapes: &[Shape], m: &ChainMatch) -> OpGraph {
    let mut out = OpGraph::new();
    let (ar, ac) = shapes[m.input];
    let a = out.add_input("A", ar, ac);
    let e = if m.chain.kind().is_attention() {
        let e_node = m.output;
        let sm = g.node(e_node).inputs[0];
        let m0 = g.node(sm).inputs[0];
        let b_shape = shapes[g.node(m0).inputs[1]];
        let d_shape = shapes[g.node(e_node).inputs[1]];
        let b = out.add_input("B", b_shape.0, b_shape.1);
        let dw = out.add_input("D", d_shape.0, d_shape.1);
        let c2 = out.add_node(OpKind::Matmul, vec![a, b], "scores");
        let sm2 = out.add_node(g.node(sm).kind, vec![c2], "probs");
        out.add_node(OpKind::Matmul, vec![sm2, dw], "E")
    } else if m.chain.kind().is_gated() {
        // m.nodes is [up, gate, act, mul, e] sorted by id; recover the
        // roles structurally rather than by position.
        let e_node = m.output;
        let mul = g.node(e_node).inputs[0];
        let (x, y) = (g.node(mul).inputs[0], g.node(mul).inputs[1]);
        let (act_node, up) = if matches!(g.node(x).kind, OpKind::Activation(_)) {
            (x, y)
        } else {
            (y, x)
        };
        let gate = g.node(act_node).inputs[0];
        let b_up_shape = shapes[g.node(up).inputs[1]];
        let d_shape = shapes[g.node(e_node).inputs[1]];
        let b_up = out.add_input("B_up", b_up_shape.0, b_up_shape.1);
        let b_gate = out.add_input("B_gate", b_up_shape.0, b_up_shape.1);
        let dw = out.add_input("D", d_shape.0, d_shape.1);
        let up2 = out.add_node(OpKind::Matmul, vec![a, b_up], "up");
        let gate2 = out.add_node(g.node(gate).kind, vec![a, b_gate], "gate");
        let act2 = out.add_node(g.node(act_node).kind, vec![gate2], "act");
        let mul2 = out.add_node(g.node(mul).kind, vec![act2, up2], "mul");
        out.add_node(OpKind::Matmul, vec![mul2, dw], "E")
    } else {
        let e_node = m.output;
        let act_node = g.node(e_node).inputs[0];
        let m0 = g.node(act_node).inputs[0];
        let b_shape = shapes[g.node(m0).inputs[1]];
        let d_shape = shapes[g.node(e_node).inputs[1]];
        let b = out.add_input("B", b_shape.0, b_shape.1);
        let dw = out.add_input("D", d_shape.0, d_shape.1);
        let c2 = out.add_node(OpKind::Matmul, vec![a, b], "C");
        let act2 = out.add_node(g.node(act_node).kind, vec![c2], "act");
        out.add_node(OpKind::Matmul, vec![act2, dw], "E")
    };
    out.add_node(OpKind::Output, vec![e], "out");
    out
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
        assert_eq!(m.input, 0);
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
        assert_eq!(matches[0].output, matches[1].input);
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
        let std_chain = ChainSpec::standard_ffn(16, 32, 32, 16, Activation::Relu);
        let g = std_chain.to_op_graph();
        let m = &match_chains(&g).unwrap()[0];
        let io = recover_chain_io(&g, m.output).unwrap();
        assert_eq!(io.input, m.input);
        assert_eq!(io.b_up, m.weights[0]);
        assert_eq!(io.b_gate, None);
        assert_eq!(io.d, *m.weights.last().unwrap());
        assert_eq!(io.output, m.output);

        let gated = ChainSpec::gated_ffn(16, 32, 32, 16, Activation::Silu);
        let g = gated.to_op_graph();
        let m = &match_chains(&g).unwrap()[0];
        let io = recover_chain_io(&g, m.output).unwrap();
        assert_eq!(io.input, m.input);
        assert_eq!(io.b_gate, Some(m.weights[1]));
        assert_eq!(io.d, m.weights[2]);

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

//! Per-op reference interpreter over an arbitrary [`OpGraph`].
//!
//! [`execute_fused_with`](crate::execute_fused_with) runs one *fused chain*; this
//! module is the other half of the differential oracle: it evaluates
//! **any** shape-inferred operator DAG node by node with real `f32`
//! arithmetic — GEMMs through the naive reference loop
//! ([`NaiveKernel`]), element-wise operators and activations
//! through their scalar definitions, transposes as data movement, and
//! rowwise softmax through the shared
//! [`rowwise_softmax`](flashfuser_tensor::rowwise_softmax) helper (the
//! same definition every execution path uses). Whatever the whole-graph compiler and the stitched
//! executor ([`crate::graph_exec`]) produce must agree with this
//! interpreter within tolerance; no fusion decision can change the
//! mathematics.
//!
//! Every failure mode is a typed [`InterpError`] — the interpreter is
//! fuzzer-facing and must never panic on a malformed graph.

use flashfuser_graph::op::{NodeId, OpGraph, OpKind};
use flashfuser_tensor::rng::{derive_seed, seeded_matrix};
use flashfuser_tensor::{Matrix, MicroKernel, NaiveKernel, ShapeError};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Per-node values indexed by id: bound inputs borrowed from the
/// caller, computed values owned.
pub(crate) type Values<'a> = Vec<Option<Cow<'a, Matrix>>>;

/// Why the interpreter rejected a graph.
#[derive(Debug)]
pub enum InterpError {
    /// An `Input` node has no bound tensor.
    MissingInput(NodeId),
    /// Two tensors are bound to the same `Input` node.
    DuplicateInput(NodeId),
    /// A tensor is bound to an id that is not an `Input` node.
    NotAnInput(NodeId),
    /// A bound input tensor disagrees with the node's declared shape.
    InputShape {
        /// The offending input node.
        node: NodeId,
        /// Shape of the bound tensor.
        got: (usize, usize),
        /// Shape the node declares.
        want: (usize, usize),
    },
    /// An operator's operand shapes do not compose (e.g. a matmul whose
    /// inner dimensions disagree).
    Shape {
        /// The offending node.
        node: NodeId,
        /// The underlying tensor-level error.
        source: ShapeError,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::MissingInput(node) => write!(f, "node %{node}: no input tensor bound"),
            InterpError::DuplicateInput(node) => write!(f, "node %{node}: input bound twice"),
            InterpError::NotAnInput(node) => write!(f, "node %{node}: bound, but not an input"),
            InterpError::InputShape { node, got, want } => write!(
                f,
                "node %{node}: bound tensor is {}x{}, node declares {}x{}",
                got.0, got.1, want.0, want.1
            ),
            InterpError::Shape { node, source } => write!(f, "node %{node}: {source}"),
        }
    }
}

impl Error for InterpError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InterpError::Shape { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Deterministic `[-1, 1)` tensors for every `Input` node of `g`,
/// derived from `seed` and the node id (labels may repeat; ids cannot).
/// The same `(graph, seed)` pair always binds the same data — a fuzzing
/// divergence is reproducible from the seed alone.
pub fn seeded_graph_inputs(g: &OpGraph, seed: u64) -> Vec<(NodeId, Matrix)> {
    g.nodes()
        .iter()
        .enumerate()
        .filter_map(|(id, node)| match node.kind {
            OpKind::Input(rows, cols) => {
                let sub = derive_seed(seed, &format!("%{id}"));
                Some((id, seeded_matrix(rows, cols, sub)))
            }
            _ => None,
        })
        .collect()
}

/// Borrows `inputs` as the values of `g`'s `Input` nodes by the binding
/// rule [`interpret_graph`] documents — shared with
/// [`crate::execute_graph_with`], so one binding list cannot mean two graphs.
pub(crate) fn bind_inputs<'a>(
    g: &OpGraph,
    inputs: &'a [(NodeId, Matrix)],
) -> Result<Values<'a>, InterpError> {
    let mut values: Values<'a> = vec![None; g.len()];
    for (node, m) in inputs {
        let (node, got) = (*node, m.shape());
        let Some(&OpKind::Input(rows, cols)) = g.nodes().get(node).map(|n| &n.kind) else {
            return Err(InterpError::NotAnInput(node));
        };
        if values[node].replace(Cow::Borrowed(m)).is_some() {
            return Err(InterpError::DuplicateInput(node));
        }
        let want = (rows, cols);
        if got != want {
            return Err(InterpError::InputShape { node, got, want });
        }
    }
    let is_input = |id: NodeId| matches!(g.node(id).kind, OpKind::Input(..));
    match (0..g.len()).find(|&id| is_input(id) && values[id].is_none()) {
        Some(id) => Err(InterpError::MissingInput(id)),
        None => Ok(values),
    }
}

/// Evaluates every node of `g` on the bound `inputs` — exactly one
/// tensor of the declared shape per `Input` node, none for any other
/// node — returning one matrix per node in id order (`Output` markers
/// forward their operand's value). Every GEMM runs the naive oracle
/// kernel.
///
/// # Errors
///
/// Returns [`InterpError`] when the bindings break that rule or operand
/// shapes do not compose.
pub fn interpret_graph(
    g: &OpGraph,
    inputs: &[(NodeId, Matrix)],
) -> Result<Vec<Matrix>, InterpError> {
    let mut values = bind_inputs(g, inputs)?;
    for id in 0..g.len() {
        if values[id].is_none() {
            let value = eval_compute(g, &values, id, &NaiveKernel)
                .map_err(|source| InterpError::Shape { node: id, source })?;
            values[id] = Some(Cow::Owned(value));
        }
    }
    Ok(values
        .into_iter()
        .map(|v| v.expect("every node evaluated").into_owned())
        .collect())
}

/// Evaluates one non-`Input` node of `g` against already-materialised
/// predecessor `values` (indexed by node id), routing GEMMs through
/// `kernel`. Shared between the whole-graph interpreter above and the
/// unfused segments of [`crate::graph_exec`], so both paths define
/// identical per-op semantics.
///
/// # Errors
///
/// Returns [`ShapeError`] when operand shapes do not compose.
///
/// # Panics
///
/// Panics if `id` is an `Input` node (inputs are bound, not computed)
/// or an operand value is absent — both callers materialise operands
/// before evaluating.
pub(crate) fn eval_compute(
    g: &OpGraph,
    values: &[Option<Cow<'_, Matrix>>],
    id: NodeId,
    kernel: &dyn MicroKernel,
) -> Result<Matrix, ShapeError> {
    let node = g.node(id);
    let arg = |i: usize| {
        values[node.inputs[i]]
            .as_deref()
            .expect("operand materialised before evaluation")
    };
    match node.kind {
        OpKind::Input(..) => unreachable!("input nodes are bound, not computed"),
        OpKind::Matmul => flashfuser_tensor::gemm::matmul_with(kernel, arg(0), arg(1)),
        OpKind::Activation(act) => Ok(act.apply_matrix(arg(0))),
        OpKind::Softmax { scale_k } => Ok(flashfuser_tensor::rowwise_softmax(
            arg(0),
            flashfuser_tensor::softmax_scale(scale_k),
        )),
        OpKind::Elementwise(op) => op.apply_matrix(arg(0), arg(1)),
        OpKind::Transpose => Ok(arg(0).transpose()),
        OpKind::Output => Ok(arg(0).clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_graph::ChainSpec;
    use flashfuser_tensor::{Activation, BinaryOp};

    #[test]
    fn chain_graphs_match_the_reference_pipeline() {
        // The interpreter over a chain's op-graph must equal the chain's
        // own closed-form reference, bit for bit (same operations in the
        // same order, just routed through the DAG).
        for chain in [
            ChainSpec::standard_ffn(8, 24, 16, 12, Activation::Gelu),
            ChainSpec::gated_ffn(8, 24, 16, 12, Activation::Silu),
            ChainSpec::attention(8, 24, 16, 12, false),
            ChainSpec::attention(8, 24, 16, 12, true),
        ] {
            let g = chain.to_op_graph();
            // Bind the canonical chain inputs to the graph's input nodes
            // (to_op_graph order: A first, then weights).
            let chain_inputs = chain.make_inputs(7);
            let mut bound: Vec<(NodeId, Matrix)> = vec![(0, chain_inputs.a.clone())];
            if chain.kind().is_gated() {
                bound.push((1, chain_inputs.b.clone()));
                bound.push((2, chain_inputs.b_gate.clone().unwrap()));
                bound.push((3, chain_inputs.d.clone()));
            } else {
                bound.push((1, chain_inputs.b.clone()));
                bound.push((2, chain_inputs.d.clone()));
            }
            let values = interpret_graph(&g, &bound).unwrap();
            let expected = chain.reference_output(&chain_inputs).unwrap();
            assert_eq!(*values.last().unwrap(), expected);
        }
    }

    #[test]
    fn every_op_kind_evaluates() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 3, 4);
        let b = g.add_input("B", 4, 3);
        let mm = g.add_node(OpKind::Matmul, vec![a, b], "mm");
        let t = g.add_node(OpKind::Transpose, vec![mm], "t");
        let act = g.add_node(OpKind::Activation(Activation::Relu), vec![t], "act");
        let mix = g.add_node(OpKind::Elementwise(BinaryOp::Max), vec![act, t], "mix");
        let out = g.add_node(OpKind::Output, vec![mix], "out");
        let inputs = seeded_graph_inputs(&g, 3);
        let values = interpret_graph(&g, &inputs).unwrap();
        assert_eq!(values[mm].shape(), (3, 3));
        assert_eq!(values[t].shape(), (3, 3));
        assert_eq!(values[t], values[mm].transpose());
        assert_eq!(values[act], Activation::Relu.apply_matrix(&values[t]));
        assert_eq!(values[out], values[mix]);
    }

    #[test]
    fn seeded_inputs_are_deterministic_and_distinct() {
        let mut g = OpGraph::new();
        // Two inputs with the same label and shape still get distinct
        // data (the node id separates the derived seeds).
        let a = g.add_input("w", 4, 4);
        let b = g.add_input("w", 4, 4);
        let i1 = seeded_graph_inputs(&g, 9);
        let i2 = seeded_graph_inputs(&g, 9);
        assert_eq!(i1, i2);
        assert_eq!(i1.len(), 2);
        assert_ne!(i1[0].1, i1[1].1, "same label must not mean same data");
        assert_ne!(
            seeded_graph_inputs(&g, 9)[0].1,
            seeded_graph_inputs(&g, 10)[0].1
        );
        let _ = (a, b);
    }

    #[test]
    fn missing_and_misshapen_inputs_are_typed_errors() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 2, 2);
        g.add_node(OpKind::Activation(Activation::Relu), vec![a], "act");
        assert!(matches!(
            interpret_graph(&g, &[]),
            Err(InterpError::MissingInput(0))
        ));
        let wrong = vec![(a, Matrix::zeros(3, 3))];
        assert!(matches!(
            interpret_graph(&g, &wrong),
            Err(InterpError::InputShape { node: 0, .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_a_typed_error_not_a_panic() {
        // A graph that passes arity checks but not shape inference: the
        // interpreter must reject it with the offending node id.
        let mut g = OpGraph::new();
        let a = g.add_input("A", 2, 3);
        let b = g.add_input("B", 4, 2);
        let bad = g.add_node(OpKind::Matmul, vec![a, b], "bad");
        let inputs = seeded_graph_inputs(&g, 1);
        match interpret_graph(&g, &inputs) {
            Err(InterpError::Shape { node, .. }) => assert_eq!(node, bad),
            other => panic!("expected shape error, got {other:?}"),
        }
    }
}

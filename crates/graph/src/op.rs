//! A small operator DAG.
//!
//! The fusion engine itself consumes the typed [`crate::ChainSpec`], but
//! the DAG form is what frameworks exchange: whole-graph compilation
//! partitions it into fusible chains ([`crate::segment`]), and tests
//! assert structural properties of the three chain families in Fig. 1
//! on it.

use flashfuser_tensor::{Activation, BinaryOp};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node inside an [`OpGraph`].
pub type NodeId = usize;

/// The kind of an operator node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A graph input tensor (activation or weight) with shape
    /// `(rows, cols)`.
    Input(usize, usize),
    /// Matrix multiplication of the two predecessor nodes.
    Matmul,
    /// Unary element-wise activation.
    Activation(Activation),
    /// Binary element-wise combiner of the two predecessor nodes.
    Elementwise(BinaryOp),
    /// Rowwise softmax (max-shift, exp, normalize) of the predecessor
    /// node. `scale_k > 0` multiplies by `1/sqrt(scale_k)` first —
    /// scaled dot-product attention; `scale_k == 0` is plain softmax.
    /// The reduction between attention's two GEMMs; fusible as the
    /// middle of an attention chain window.
    Softmax {
        /// Head dimension deriving the scale (`0` = unscaled).
        scale_k: usize,
    },
    /// Matrix transpose of the predecessor node (`[r,c]` → `[c,r]`).
    /// Used when lowering attention score GEMMs (`Q x K^T`); pure data
    /// movement that stays *outside* the fused attention window — the
    /// matcher recovers `Q×K^T → softmax → A×V` with the transposed K
    /// as an ordinary operand.
    Transpose,
    /// Graph output marker.
    Output,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Input(r, c) => write!(f, "input[{r}x{c}]"),
            OpKind::Matmul => write!(f, "matmul"),
            OpKind::Activation(a) => write!(f, "{a}"),
            OpKind::Elementwise(op) => write!(f, "{op}"),
            OpKind::Softmax { scale_k: 0 } => write!(f, "softmax"),
            OpKind::Softmax { scale_k } => write!(f, "softmax/{scale_k}"),
            OpKind::Transpose => write!(f, "transpose"),
            OpKind::Output => write!(f, "output"),
        }
    }
}

/// A node: an operator plus the ids of its input nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpNode {
    /// Operator kind.
    pub kind: OpKind,
    /// Predecessor node ids, in argument order.
    pub inputs: Vec<NodeId>,
    /// Human-readable label (e.g. `"B0"` for the gate weight).
    pub label: String,
}

/// A directed acyclic operator graph.
///
/// Nodes are appended in topological order by construction: a node may only
/// reference already-inserted nodes, which makes cycles unrepresentable.
///
/// # Example
///
/// ```
/// use flashfuser_graph::{OpGraph, OpKind};
/// use flashfuser_tensor::Activation;
///
/// let mut g = OpGraph::new();
/// let a = g.add_input("A", 128, 64);
/// let b = g.add_input("B", 64, 256);
/// let mm = g.add_node(OpKind::Matmul, vec![a, b], "C");
/// let act = g.add_node(OpKind::Activation(Activation::Relu), vec![mm], "relu");
/// g.add_node(OpKind::Output, vec![act], "out");
/// assert_eq!(g.matmul_count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpGraph {
    nodes: Vec<OpNode>,
}

impl OpGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an input tensor node and returns its id.
    pub fn add_input(&mut self, label: &str, rows: usize, cols: usize) -> NodeId {
        self.push(OpNode {
            kind: OpKind::Input(rows, cols),
            inputs: vec![],
            label: label.to_string(),
        })
    }

    /// Adds an operator node with the given inputs and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any input id is out of range (forward references would
    /// create cycles) or if the arity is wrong for the kind.
    pub fn add_node(&mut self, kind: OpKind, inputs: Vec<NodeId>, label: &str) -> NodeId {
        for &i in &inputs {
            assert!(i < self.nodes.len(), "input id {i} not yet defined");
        }
        let arity_ok = match kind {
            OpKind::Input(..) => inputs.is_empty(),
            OpKind::Matmul | OpKind::Elementwise(_) => inputs.len() == 2,
            OpKind::Activation(_) | OpKind::Softmax { .. } | OpKind::Transpose | OpKind::Output => {
                inputs.len() == 1
            }
        };
        assert!(arity_ok, "wrong arity for {kind}: {} inputs", inputs.len());
        self.push(OpNode {
            kind,
            inputs,
            label: label.to_string(),
        })
    }

    fn push(&mut self, node: OpNode) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Borrow a node by id.
    pub fn node(&self, id: NodeId) -> &OpNode {
        &self.nodes[id]
    }

    /// All nodes in insertion (topological) order.
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of matmul nodes — the quantity fusion scope is measured in.
    pub fn matmul_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.kind == OpKind::Matmul)
            .count()
    }

    /// Ids of nodes with no consumers (graph outputs, if `Output` markers
    /// were not used).
    pub fn sinks(&self) -> Vec<NodeId> {
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                consumed[i] = true;
            }
        }
        (0..self.nodes.len()).filter(|&i| !consumed[i]).collect()
    }

    /// Consumers of each node, as an adjacency map.
    pub fn consumers(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut map: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        for (id, n) in self.nodes.iter().enumerate() {
            for &i in &n.inputs {
                map.entry(i).or_default().push(id);
            }
        }
        map
    }

    /// Longest chain of consecutive matmuls (each feeding the next,
    /// possibly through element-wise nodes). This is the "operator chain
    /// length" existing compilers cap at 1–2 (§III).
    pub fn matmul_chain_len(&self) -> usize {
        // depth[id] = number of matmuls on the longest path ending at id.
        let mut depth = vec![0usize; self.nodes.len()];
        for (id, n) in self.nodes.iter().enumerate() {
            let input_max = n.inputs.iter().map(|&i| depth[i]).max().unwrap_or(0);
            depth[id] = input_max + usize::from(n.kind == OpKind::Matmul);
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

impl fmt::Display for OpGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, n) in self.nodes.iter().enumerate() {
            write!(f, "%{id} = {} \"{}\"", n.kind, n.label)?;
            if !n.inputs.is_empty() {
                write!(f, "(")?;
                for (i, inp) in n.inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "%{inp}")?;
                }
                write!(f, ")")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ffn_graph() -> OpGraph {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 128, 64);
        let b = g.add_input("B", 64, 256);
        let d = g.add_input("D", 256, 64);
        let c = g.add_node(OpKind::Matmul, vec![a, b], "C");
        let act = g.add_node(OpKind::Activation(Activation::Relu), vec![c], "relu");
        let e = g.add_node(OpKind::Matmul, vec![act, d], "E");
        g.add_node(OpKind::Output, vec![e], "out");
        g
    }

    #[test]
    fn ffn_structure() {
        let g = ffn_graph();
        assert_eq!(g.len(), 7);
        assert_eq!(g.matmul_count(), 2);
        assert_eq!(g.matmul_chain_len(), 2);
        assert_eq!(g.sinks(), vec![6]);
    }

    #[test]
    fn consumers_map() {
        let g = ffn_graph();
        let cons = g.consumers();
        // Node 3 (C) is consumed by node 4 (relu).
        assert_eq!(cons[&3], vec![4]);
        assert!(!cons.contains_key(&6));
    }

    #[test]
    fn gated_ffn_has_parallel_branches() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 128, 64);
        let b0 = g.add_input("B0", 64, 256);
        let b1 = g.add_input("B1", 64, 256);
        let d = g.add_input("D", 256, 64);
        let up = g.add_node(OpKind::Matmul, vec![a, b0], "up");
        let gate = g.add_node(OpKind::Matmul, vec![a, b1], "gate");
        let silu = g.add_node(OpKind::Activation(Activation::Silu), vec![gate], "silu");
        let mul = g.add_node(OpKind::Elementwise(BinaryOp::Mul), vec![silu, up], "mul");
        let e = g.add_node(OpKind::Matmul, vec![mul, d], "E");
        g.add_node(OpKind::Output, vec![e], "out");
        assert_eq!(g.matmul_count(), 3);
        // The two up-projection matmuls are parallel, so the *chain* length
        // is still 2.
        assert_eq!(g.matmul_chain_len(), 2);
    }

    #[test]
    #[should_panic(expected = "not yet defined")]
    fn forward_reference_panics() {
        let mut g = OpGraph::new();
        g.add_node(OpKind::Activation(Activation::Relu), vec![5], "bad");
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn wrong_arity_panics() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 1, 1);
        g.add_node(OpKind::Matmul, vec![a], "bad");
    }

    #[test]
    fn display_lists_all_nodes() {
        let g = ffn_graph();
        let s = g.to_string();
        assert_eq!(s.lines().count(), g.len());
        assert!(s.contains("matmul"));
        assert!(s.contains("relu"));
    }
}

//! Canonical content fingerprints for operator graphs and chains.
//!
//! A fusion decision is a pure function of `(graph, machine, search
//! config)` — the paper's search never consults anything else — so
//! compilation results are safely memoizable once the graph has a
//! *canonical* identity. [`OpGraph::fingerprint`] provides it: a stable
//! 64-bit content hash over operator kinds, tensor dimensions, the data
//! type and the edge structure, **invariant to node insertion order**
//! and to human-readable labels.
//!
//! The hash must be stable across processes and builds (it keys an
//! on-disk plan cache), so it is built on a hand-rolled FNV-1a
//! [`StableHasher`] rather than `std::hash` (whose output is explicitly
//! not portable).
//!
//! # Insertion-order invariance
//!
//! Each node receives a structural hash computed bottom-up:
//! `h(node) = H(kind, h(input_0), h(input_1), ...)` — input *order* is
//! preserved because operator arguments are ordered (A×B ≠ B×A), but
//! the node's position in the insertion sequence never enters the hash.
//! The graph fingerprint folds the sorted multiset of node hashes, so
//! any two graphs with the same shape get the same fingerprint no
//! matter how they were built.

use crate::chain::ChainSpec;
use crate::op::{OpGraph, OpKind};

/// Element type tag folded into every fingerprint. All paper workloads
/// are FP16; widening the IR to more dtypes must extend this tag so old
/// cache entries are not misread.
const DTYPE_F16: u64 = 0xF16;

/// Version of the fingerprint scheme. Bump on any change to the hashing
/// rules to invalidate previously persisted cache entries.
const FINGERPRINT_VERSION: u64 = 1;

/// A stable 64-bit FNV-1a hasher.
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the output is
/// specified and will never change between builds, which makes it safe
/// to persist (content-addressed cache files, `BENCH_*.json` records).
///
/// # Example
///
/// ```
/// use flashfuser_graph::fingerprint::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// h.write_str("fuse");
/// let a = h.finish();
/// let mut h2 = StableHasher::new();
/// h2.write_u64(42);
/// h2.write_str("fuse");
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Creates a hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.state ^= u64::from(b);
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Folds a `u64` (little-endian), length-prefix-free: callers must
    /// ensure field ordering is unambiguous.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` as `u64`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` by its exact bit pattern.
    pub fn write_f64_bits(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a string with a length prefix (so `"ab" + "c"` and
    /// `"a" + "bc"` differ).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// Stable per-variant tag of an [`OpKind`] (never reorder — persisted).
fn kind_tag(kind: &OpKind) -> u64 {
    match kind {
        OpKind::Input(..) => 1,
        OpKind::Matmul => 2,
        OpKind::Activation(_) => 3,
        OpKind::Elementwise(_) => 4,
        OpKind::Output => 5,
        OpKind::Transpose => 6,
        OpKind::Softmax { .. } => 7,
    }
}

/// Stable payload of an [`OpKind`]: dims for inputs, a stable name for
/// parameterised element-wise ops, zero otherwise.
fn kind_payload(kind: &OpKind) -> u64 {
    let mut h = StableHasher::new();
    match kind {
        OpKind::Input(rows, cols) => {
            h.write_usize(*rows);
            h.write_usize(*cols);
        }
        // `Display` names are stable and exhaustive for these enums;
        // hashing the name avoids depending on discriminant order.
        OpKind::Activation(a) => h.write_str(&a.to_string()),
        OpKind::Elementwise(op) => h.write_str(&op.to_string()),
        OpKind::Softmax { scale_k } => h.write_usize(*scale_k),
        OpKind::Matmul | OpKind::Transpose | OpKind::Output => {}
    }
    h.finish()
}

impl OpGraph {
    /// The canonical content fingerprint of this graph: stable across
    /// processes, invariant to node insertion order and labels.
    ///
    /// # Example
    ///
    /// ```
    /// use flashfuser_graph::{OpGraph, OpKind};
    ///
    /// // Same structure, different insertion order of the two inputs.
    /// let mut g1 = OpGraph::new();
    /// let a = g1.add_input("A", 4, 8);
    /// let b = g1.add_input("B", 8, 16);
    /// g1.add_node(OpKind::Matmul, vec![a, b], "C");
    ///
    /// let mut g2 = OpGraph::new();
    /// let b = g2.add_input("weights", 8, 16); // labels don't matter
    /// let a = g2.add_input("acts", 4, 8);
    /// g2.add_node(OpKind::Matmul, vec![a, b], "out");
    ///
    /// assert_eq!(g1.fingerprint(), g2.fingerprint());
    /// ```
    pub fn fingerprint(&self) -> u64 {
        // Bottom-up structural hash per node. Nodes are stored in
        // topological order, so every input hash is already computed.
        let mut node_hash = Vec::with_capacity(self.len());
        for node in self.nodes() {
            let mut h = StableHasher::new();
            h.write_u64(kind_tag(&node.kind));
            h.write_u64(kind_payload(&node.kind));
            h.write_usize(node.inputs.len());
            for &i in &node.inputs {
                h.write_u64(node_hash[i]);
            }
            node_hash.push(h.finish());
        }
        // Fold the *sorted* multiset of node hashes: identical shapes
        // hash identically regardless of how the graph was assembled.
        node_hash.sort_unstable();
        let mut h = StableHasher::new();
        h.write_u64(FINGERPRINT_VERSION);
        h.write_u64(DTYPE_F16);
        h.write_usize(node_hash.len());
        for v in node_hash {
            h.write_u64(v);
        }
        h.finish()
    }
}

impl ChainSpec {
    /// Content fingerprint of the chain: the fingerprint of its expanded
    /// operator DAG. The workload *name* is metadata and does not enter
    /// the hash — two chains with the same dims and family share a
    /// fingerprint (and therefore a cached fusion plan).
    pub fn fingerprint(&self) -> u64 {
        self.to_op_graph().fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_tensor::{Activation, BinaryOp};

    #[test]
    fn stable_hasher_reference_values() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        // Known vector: FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = StableHasher::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn insertion_order_invariance_gated() {
        // The gated FFN assembled in two different orders: branches
        // first vs weights first.
        let mut g1 = OpGraph::new();
        let a = g1.add_input("A", 128, 64);
        let b0 = g1.add_input("B0", 64, 256);
        let b1 = g1.add_input("B1", 64, 256);
        let d = g1.add_input("D", 256, 64);
        let up = g1.add_node(OpKind::Matmul, vec![a, b0], "up");
        let gate = g1.add_node(OpKind::Matmul, vec![a, b1], "gate");
        let act = g1.add_node(OpKind::Activation(Activation::Silu), vec![gate], "act");
        let mul = g1.add_node(OpKind::Elementwise(BinaryOp::Mul), vec![act, up], "mul");
        let e = g1.add_node(OpKind::Matmul, vec![mul, d], "E");
        g1.add_node(OpKind::Output, vec![e], "out");

        let mut g2 = OpGraph::new();
        let d = g2.add_input("D", 256, 64);
        let b1 = g2.add_input("B1", 64, 256);
        let a = g2.add_input("A", 128, 64);
        let b0 = g2.add_input("B0", 64, 256);
        let gate = g2.add_node(OpKind::Matmul, vec![a, b1], "gate");
        let act = g2.add_node(OpKind::Activation(Activation::Silu), vec![gate], "act");
        let up = g2.add_node(OpKind::Matmul, vec![a, b0], "up");
        let mul = g2.add_node(OpKind::Elementwise(BinaryOp::Mul), vec![act, up], "mul");
        let e = g2.add_node(OpKind::Matmul, vec![mul, d], "E");
        g2.add_node(OpKind::Output, vec![e], "out");

        assert_eq!(g1.fingerprint(), g2.fingerprint());
    }

    #[test]
    fn structure_changes_change_the_fingerprint() {
        let base = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
        let dims = ChainSpec::standard_ffn(128, 512, 256, 128, Activation::Relu);
        let act = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Gelu);
        let gated = ChainSpec::gated_ffn(128, 512, 256, 256, Activation::Relu);
        assert_ne!(base.fingerprint(), dims.fingerprint());
        assert_ne!(base.fingerprint(), act.fingerprint());
        assert_ne!(base.fingerprint(), gated.fingerprint());
    }

    #[test]
    fn argument_order_matters() {
        // A x B vs B x A: same multiset of nodes, different edges.
        let mut g1 = OpGraph::new();
        let a = g1.add_input("A", 8, 8);
        let b = g1.add_input("B", 8, 8);
        g1.add_node(OpKind::Matmul, vec![a, b], "C");
        let mut g2 = OpGraph::new();
        let a = g2.add_input("A", 8, 8);
        let b = g2.add_input("B", 8, 8);
        g2.add_node(OpKind::Matmul, vec![b, a], "C");
        // Equal-shape inputs make the *node* hashes equal, but a larger
        // graph distinguishes them through consumers; with distinct
        // shapes the argument order is visible immediately.
        let mut g3 = OpGraph::new();
        let a = g3.add_input("A", 4, 8);
        let b = g3.add_input("B", 8, 16);
        g3.add_node(OpKind::Matmul, vec![a, b], "C");
        let mut g4 = OpGraph::new();
        let a = g4.add_input("A", 4, 8);
        let b = g4.add_input("B", 8, 16);
        g4.add_node(OpKind::Matmul, vec![b, a], "C");
        assert_eq!(g1.fingerprint(), g2.fingerprint()); // symmetric shapes
        assert_ne!(g3.fingerprint(), g4.fingerprint());
    }

    #[test]
    fn names_do_not_enter_chain_fingerprints() {
        let a = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named("G3");
        let b = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu).named("other");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let c = ChainSpec::gated_ffn(128, 8192, 3072, 3072, Activation::Silu);
        assert_eq!(c.fingerprint(), c.fingerprint());
    }
}

//! Seeded random operator-DAG generation for differential fuzzing.
//!
//! The whole-graph compiler is only falsifiable if it is fed graphs
//! nobody hand-wrote. [`rand_graph`] grows a shape-valid [`OpGraph`]
//! from a [`SplitMix64`] stream: every graph embeds a mix of
//!
//! * standard / gated FFN chains ([`crate::OpGraph::append_chain`]) —
//!   the windows the partitioner should recover and fuse;
//! * attention motifs (`scores -> softmax -> ctx`, optionally through a
//!   transposed-K input) when [`RandGraphConfig::attention_prob`] is
//!   raised above its bit-stable default of zero;
//! * element-wise glue, transposes and bare GEMMs — remainder work the
//!   partitioner must price unfused;
//! * residual-style binary nodes that reuse an *earlier* node, creating
//!   the multi-consumer intermediates that legally block fusion;
//! * degenerate extents (1, 3, 24, ...) that divide by no legal tile,
//!   forcing the `NoFeasiblePlan` → unfused fallback path.
//!
//! Generation is deterministic per `(seed, config)`: any divergence a
//! fuzzing run finds is reproducible from its printed seed alone.
//! Dimensions stay small (≤ [`DEFAULT_MAX_DIM`]) by default so the
//! differential oracle can afford real `f32` execution of every
//! generated graph; [`RandGraphConfig::max_dim`] raises the cap for
//! blocked-kernel sweeps where big GEMMs are the point.

use crate::chain::ChainSpec;
use crate::op::{NodeId, OpGraph, OpKind};
use flashfuser_tensor::rng::SplitMix64;
use flashfuser_tensor::{Activation, BinaryOp};

/// The MMA granule: fusible extents are multiples of this, drawn up to
/// [`RandGraphConfig::max_dim`].
const DIM_GRANULE: usize = 16;

/// The default [`RandGraphConfig::max_dim`]: small enough that the
/// differential oracle can afford real `f32` execution of every
/// generated graph with the naive reference kernel.
pub const DEFAULT_MAX_DIM: usize = 64;

/// Awkward extents no legal block tile divides — chains built from
/// these exercise the `NoFeasiblePlan` → unfused fallback.
const DEGENERATE_DIMS: [usize; 4] = [1, 3, 8, 24];

/// Knobs of the random-graph generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandGraphConfig {
    /// Approximate number of compute nodes to emit (a trailing chain
    /// may overshoot by a few nodes).
    pub ops: usize,
    /// Probability that one growth step embeds a whole fusible chain
    /// rather than a single glue operator.
    pub chain_prob: f64,
    /// Probability that a freshly drawn extent is degenerate (not a
    /// multiple of the MMA granule). `0.0` keeps every chain fusible.
    pub degenerate_prob: f64,
    /// Largest extent the generator draws: fusible extents are uniform
    /// multiples of the 16-wide MMA granule in `[16, max_dim]`. Raising
    /// this (e.g. to 512) produces GEMMs big enough to exercise the
    /// packed blocked kernel's cache blocking; the default
    /// ([`DEFAULT_MAX_DIM`]) keeps naive-kernel fuzzing affordable.
    pub max_dim: usize,
    /// Probability that one growth step embeds an attention motif
    /// (`Q x K^T -> softmax -> A x V`, randomly scaled, half the time
    /// through a `Transpose` of a fresh K input). The default is `0.0`
    /// and *must* stay so for stream stability: a zero probability
    /// consumes no extra RNG draws, keeping default-config graphs
    /// bit-identical across generator versions.
    pub attention_prob: f64,
}

impl RandGraphConfig {
    /// The fuzzing defaults: ~12 compute nodes, chain-heavy, with a
    /// modest stream of degenerate extents.
    pub fn new() -> Self {
        Self {
            ops: 12,
            chain_prob: 0.55,
            degenerate_prob: 0.2,
            max_dim: DEFAULT_MAX_DIM,
            attention_prob: 0.0,
        }
    }

    /// This configuration with a different attention-motif probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn with_attention_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.attention_prob = p;
        self
    }

    /// This configuration with a different target op count.
    pub fn with_ops(mut self, ops: usize) -> Self {
        self.ops = ops;
        self
    }

    /// This configuration with a different largest extent (rounded down
    /// to a multiple of the 16-wide MMA granule).
    ///
    /// # Panics
    ///
    /// Panics if `max_dim < 16`.
    pub fn with_max_dim(mut self, max_dim: usize) -> Self {
        assert!(max_dim >= DIM_GRANULE, "max_dim must be at least 16");
        self.max_dim = max_dim;
        self
    }
}

impl Default for RandGraphConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Grows a random, always shape-valid operator DAG from `seed`.
///
/// The result has at least one compute node, ends in `Output` markers
/// on every sink, and passes [`crate::OpGraph::infer_shapes`] by
/// construction.
///
/// # Panics
///
/// Panics if `config.ops` is zero.
pub fn rand_graph(seed: u64, config: &RandGraphConfig) -> OpGraph {
    assert!(config.ops > 0, "a random graph needs at least one op");
    let mut rng = SplitMix64::new(seed);
    let mut g = OpGraph::new();

    // Uniform multiples of the granule in [16, max_dim]. At the default
    // max_dim this draws from {16, 32, 48, 64} with the same stream
    // consumption as earlier generator versions, so default-config
    // graphs are stable across releases.
    let buckets = (config.max_dim / DIM_GRANULE).max(1);
    let dim = |rng: &mut SplitMix64| -> usize {
        if rng.next_bool(config.degenerate_prob) {
            *rng.pick(&DEGENERATE_DIMS)
        } else {
            DIM_GRANULE * (rng.next_index(buckets) + 1)
        }
    };

    // The spine: the node new work grows from. Each step reads shapes
    // off the graph (inferred as nodes are added) so it stays valid.
    let m0 = dim(&mut rng);
    let k0 = dim(&mut rng);
    let mut spine = g.add_input("x", m0, k0);
    let valid = "generator only emits valid graphs";

    let mut compute = 0usize;
    let mut step = 0usize;
    while compute < config.ops {
        step += 1;
        let (rows, cols) = g.shapes().expect(valid)[spine];
        // Guarded *before* any draw so a zero probability consumes no
        // stream and default-config graphs stay bit-stable.
        if config.attention_prob > 0.0 && rng.next_bool(config.attention_prob) {
            // Attention motif: scores = spine x K^T, rowwise softmax,
            // ctx = probs x V. Half the time K arrives untransposed and
            // goes through a Transpose node — the transposed-K path the
            // matcher must keep *outside* the fused window.
            let n = dim(&mut rng);
            let l = dim(&mut rng);
            let scaled = rng.next_bool(0.5);
            let kt = if rng.next_bool(0.5) {
                let kin = g.add_input(format!("K{step}"), n, cols);
                g.add_node(OpKind::Transpose, vec![kin], format!("kT{step}"))
            } else {
                g.add_input(format!("Kt{step}"), cols, n)
            };
            let v = g.add_input(format!("V{step}"), n, l);
            let scores = g.add_node(OpKind::Matmul, vec![spine, kt], format!("scores{step}"));
            let scale_k = if scaled { cols } else { 0 };
            let probs = g.add_node(
                OpKind::Softmax { scale_k },
                vec![scores],
                format!("softmax{step}"),
            );
            spine = g.add_node(OpKind::Matmul, vec![probs, v], format!("ctx{step}"));
            compute += 3;
            continue;
        }
        if rng.next_bool(config.chain_prob) {
            // Embed a whole fusible chain on the spine.
            let n = dim(&mut rng);
            let l = dim(&mut rng);
            let act = *rng.pick(&Activation::all());
            let chain = if rng.next_bool(0.4) {
                ChainSpec::gated_ffn(rows, n, cols, l, act)
            } else {
                ChainSpec::standard_ffn(rows, n, cols, l, act)
            };
            spine = g.append_chain(&chain, spine, &format!("s{step}"));
            compute += if chain.kind().is_gated() { 5 } else { 3 };
            continue;
        }
        // One glue operator.
        match rng.next_index(4) {
            0 => {
                // Unary activation on the spine.
                let act = *rng.pick(&Activation::all());
                spine = g.add_node(OpKind::Activation(act), vec![spine], format!("act{step}"));
            }
            1 => {
                // Transpose (pure data movement; swaps the spine shape).
                spine = g.add_node(OpKind::Transpose, vec![spine], format!("t{step}"));
            }
            2 => {
                // Residual-style combine with an earlier same-shape node
                // (multi-consumer when one exists; self-combine — a
                // duplicate edge — otherwise).
                let shapes = g.shapes().expect(valid);
                let peers: Vec<NodeId> = (0..g.len())
                    .filter(|&id| shapes[id] == (rows, cols))
                    .collect();
                let peer = *rng.pick(&peers);
                let op = *rng.pick(&[BinaryOp::Add, BinaryOp::Mul, BinaryOp::Max]);
                spine = g.add_node(
                    OpKind::Elementwise(op),
                    vec![spine, peer],
                    format!("mix{step}"),
                );
            }
            _ => {
                // Bare GEMM against a fresh weight input: a matmul the
                // matcher must leave unfused unless an activation + a
                // second GEMM later complete a window around it.
                let n = dim(&mut rng);
                let w = g.add_input(format!("w{step}"), cols, n);
                spine = g.add_node(OpKind::Matmul, vec![spine, w], format!("mm{step}"));
            }
        }
        compute += 1;
    }

    for sink in g.sinks() {
        g.add_node(OpKind::Output, vec![sink], "out");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::match_chains;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = RandGraphConfig::new();
        for seed in 0..8 {
            assert_eq!(rand_graph(seed, &cfg), rand_graph(seed, &cfg));
        }
        assert_ne!(rand_graph(1, &cfg), rand_graph(2, &cfg));
    }

    #[test]
    fn every_generated_graph_is_shape_valid() {
        let cfg = RandGraphConfig::new();
        for seed in 0..64 {
            let g = rand_graph(seed, &cfg);
            let shapes = g
                .infer_shapes()
                .unwrap_or_else(|e| panic!("seed {seed}: generated graph is ill-shaped: {e}"));
            assert_eq!(shapes.len(), g.len());
            assert!(
                g.len() >= cfg.ops,
                "seed {seed}: only {} nodes for {} ops requested",
                g.len(),
                cfg.ops
            );
            // Every sink is an Output marker.
            for sink in g.sinks() {
                assert_eq!(g.node(sink).kind, OpKind::Output, "seed {seed}");
            }
            // Matching never errors on a valid graph.
            match_chains(&g).unwrap();
        }
    }

    #[test]
    fn population_is_diverse() {
        let cfg = RandGraphConfig::new().with_ops(16);
        let (mut with_match, mut with_gated, mut with_transpose, mut with_degenerate) =
            (0, 0, 0, 0);
        for seed in 0..64 {
            let g = rand_graph(seed, &cfg);
            let matches = match_chains(&g).unwrap();
            with_match += usize::from(!matches.is_empty());
            with_gated += usize::from(matches.iter().any(|m| m.chain.kind().is_gated()));
            with_transpose += usize::from(g.nodes().iter().any(|n| n.kind == OpKind::Transpose));
            let shapes = g.infer_shapes().unwrap();
            with_degenerate += usize::from(
                shapes
                    .iter()
                    .any(|&(r, c)| DEGENERATE_DIMS.contains(&r) || DEGENERATE_DIMS.contains(&c)),
            );
        }
        assert!(with_match >= 32, "fusible chains too rare: {with_match}/64");
        assert!(with_gated >= 8, "gated chains too rare: {with_gated}/64");
        assert!(
            with_transpose >= 16,
            "transposes too rare: {with_transpose}/64"
        );
        assert!(
            with_degenerate >= 16,
            "degenerate extents too rare: {with_degenerate}/64"
        );
    }

    #[test]
    fn dims_stay_small_enough_to_execute() {
        let cfg = RandGraphConfig::new().with_ops(24);
        for seed in 0..32 {
            let g = rand_graph(seed, &cfg);
            for &(r, c) in &g.infer_shapes().unwrap() {
                assert!(r <= 64 && c <= 64, "seed {seed}: oversize tensor {r}x{c}");
            }
        }
    }

    #[test]
    fn max_dim_scales_the_fusible_extents() {
        let cfg = RandGraphConfig::new().with_max_dim(512);
        let mut above_default = 0;
        for seed in 0..32 {
            let g = rand_graph(seed, &cfg);
            for &(r, c) in &g.infer_shapes().unwrap() {
                assert!(r <= 512 && c <= 512, "seed {seed}: oversize tensor {r}x{c}");
                above_default += usize::from(r > DEFAULT_MAX_DIM || c > DEFAULT_MAX_DIM);
            }
        }
        assert!(above_default > 0, "512-cap draws never exceeded 64");
        // The default cap is bit-stable: same stream consumption as the
        // original four-bucket table.
        assert_eq!(
            rand_graph(7, &RandGraphConfig::new()),
            rand_graph(7, &RandGraphConfig::new().with_max_dim(64)),
        );
    }

    #[test]
    fn attention_motifs_appear_and_defaults_stay_stable() {
        let cfg = RandGraphConfig::new()
            .with_ops(16)
            .with_attention_prob(0.35);
        let mut with_attention = 0;
        for seed in 0..64 {
            let g = rand_graph(seed, &cfg);
            g.infer_shapes().unwrap();
            let matches = match_chains(&g).unwrap();
            with_attention += usize::from(matches.iter().any(|m| m.chain.kind().is_attention()));
        }
        assert!(
            with_attention >= 16,
            "attention windows too rare: {with_attention}/64"
        );
        // A zero probability consumes no extra stream draws: default
        // graphs are bit-identical to pre-knob generator output.
        assert_eq!(
            rand_graph(7, &RandGraphConfig::new()),
            rand_graph(7, &RandGraphConfig::new().with_attention_prob(0.0)),
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_attention_prob_panics() {
        let _ = RandGraphConfig::new().with_attention_prob(1.5);
    }

    #[test]
    #[should_panic(expected = "at least 16")]
    fn tiny_max_dim_panics() {
        let _ = RandGraphConfig::new().with_max_dim(8);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn zero_ops_panics() {
        rand_graph(0, &RandGraphConfig::new().with_ops(0));
    }
}

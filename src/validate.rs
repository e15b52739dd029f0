//! Differential validation of compiled whole-graph plans.
//!
//! [`validate_graph_with`] is the end-to-end equivalence oracle: compile a
//! graph, execute the stitched plan (fused segments tile-by-tile,
//! unfused remainders op-by-op), execute the same graph through the
//! per-op reference interpreter, and compare — numerically at every
//! graph output, and traffic-wise per fused segment against the
//! dataflow analyzer. FusionStitching and Blockbuster validate fusion
//! decisions the same way; here it turns every partitioner / search /
//! executor change into a numerically falsifiable one.
//!
//! # Tolerance policy
//!
//! Both executions run `f32`, but a fused plan accumulates tiles in a
//! different order than the reference GEMM, so results differ by
//! rounding, not by bits — and in a deep graph that rounding is
//! *inherited*: a segment's inputs already differ slightly from the
//! reference's intermediates, and stacked GEMM chains grow value
//! magnitudes multiplicatively, so per-element relative error at the
//! graph output can reach `1e-2` through cancellation alone. Two
//! measurements keep the oracle sharp despite that:
//!
//! * **per fused segment, local error** — the stitched output against
//!   the chain reference evaluated on the *same stitched inputs*. This
//!   isolates the fused kernel's own rounding from everything
//!   upstream. Unfused segments share the reference interpreter's code
//!   path, so they have no independent implementation to diverge —
//!   their numeric check is vacuous and only their traffic is gated.
//! * **end-to-end** — the same comparison at every graph output
//!   against the full reference interpretation.
//!
//! Both are measured *normwise*: `max|got - ref| / max(1, max|ref|)`.
//! Scaling by the tensor's magnitude (not per element) keeps benign
//! cancellation from inflating the error — with `[-1, 1)` inputs and
//! the ≤ 64 extents the fuzzer generates, observed errors stay under
//! `1e-5` even for 50-op graphs, so [`DEFAULT_TOLERANCE`] (`1e-3`)
//! has orders of magnitude of headroom while a misrouted or dropped
//! tile still perturbs the result at `O(1)` and fails hard. Where the
//! reference itself overflows `f32` (very deep stacks of gated chains
//! square magnitudes every layer), the comparison abstains — no
//! finite oracle exists there — but a stitched non-finite against a
//! finite reference still fails.
//!
//! # Traffic reconciliation
//!
//! Per fused segment, the executed global-load bytes must equal the
//! plan geometry's mandatory raw (L2-view) traffic **exactly** — the
//! executor and [`flashfuser_core::PlanGeometry::mandatory_traffic`]
//! implement the same multicast model. Executed DSM bytes must equal the analyzer's DSM
//! volume when the plan's reused strip lives in registers/SMEM, and may
//! only be *under* it when the strip spills (the analyzer adds spill
//! re-touch bytes the functional executor does not move).

use crate::{Compiled, CompiledSegment, Compiler, GraphCompileError, GraphPlan};
use flashfuser_core::{DataflowAnalyzer, MemLevel};
use flashfuser_graph::op::{NodeId, OpGraph, OpKind};
use flashfuser_sim::graph_exec::{execute_graph_with, ExecSegment, GraphExecError};
use flashfuser_sim::interp::{interpret_graph, seeded_graph_inputs, InterpError};
use flashfuser_tensor::{KernelKind, Matrix, NumericConfig};
use std::error::Error;
use std::fmt;

/// Default mixed absolute/relative tolerance of [`validate_graph_with`]
/// (see the module docs for the derivation).
pub const DEFAULT_TOLERANCE: f32 = 1e-3;

/// The differential verdict for one stitched segment.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentCheck {
    /// Segment index in plan order.
    pub index: usize,
    /// `true` for fused segments.
    pub fused: bool,
    /// The covered graph nodes.
    pub nodes: Vec<NodeId>,
    /// The node whose stitched value was compared.
    pub output: NodeId,
    /// Fused segments: the *local* normwise error of the fused kernel
    /// against the chain reference on identical stitched inputs (gated
    /// by the tolerance). Unfused segments: the normwise inherited
    /// deviation from the whole-graph reference (informational —
    /// unfused execution shares the interpreter's code, so it has
    /// nothing of its own to diverge).
    pub max_err: f32,
    /// Global-memory bytes the execution moved.
    pub executed_global: u64,
    /// The exact prediction for `executed_global`: the geometry's raw
    /// mandatory traffic for fused segments, the partitioner's summed
    /// op bytes for unfused ones.
    pub predicted_global: u64,
    /// DSM bytes the execution moved (0 for unfused segments).
    pub executed_dsm: u64,
    /// The analyzer's DSM volume (0 for unfused segments). An upper
    /// bound when the strip spills to DSM, exact otherwise.
    pub predicted_dsm: u64,
    /// `true` when the DSM comparison must be exact (no strip spill).
    pub dsm_exact: bool,
    /// `true` when this segment's traffic reconciled.
    pub traffic_ok: bool,
}

impl SegmentCheck {
    /// `true` when the segment passed: traffic reconciled, and (for
    /// fused segments) the local kernel error is within `tolerance`.
    pub fn passed(&self, tolerance: f32) -> bool {
        self.traffic_ok && (!self.fused || self.max_err <= tolerance)
    }
}

/// The result of [`validate_graph_with`]: the compiled plan plus the
/// per-segment and whole-graph differential verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphValidation {
    /// The seed the input tensors were derived from.
    pub seed: u64,
    /// The tolerance the verdict used.
    pub tolerance: f32,
    /// The numeric backend the stitched execution ran under (the
    /// reference interpretation is always the naive oracle).
    pub kernel: KernelKind,
    /// Per-segment checks, in plan order.
    pub segments: Vec<SegmentCheck>,
    /// Largest *normwise* error across the graph's `Output` nodes (or
    /// sinks, for graphs without markers): `max|got - ref|` scaled by
    /// the output's own magnitude.
    pub max_err: f32,
    /// The compiled plan that was validated.
    pub plan: GraphPlan,
}

impl GraphValidation {
    /// `true` when every output agreed within tolerance and every
    /// segment's traffic reconciled.
    pub fn passed(&self) -> bool {
        self.max_err <= self.tolerance && self.segments.iter().all(|s| s.passed(self.tolerance))
    }

    /// Number of fused segments in the validated plan.
    pub fn fused_count(&self) -> usize {
        self.segments.iter().filter(|s| s.fused).count()
    }

    /// The failing segments (numeric or traffic), if any.
    pub fn failures(&self) -> impl Iterator<Item = &SegmentCheck> {
        self.segments.iter().filter(|s| !s.passed(self.tolerance))
    }
}

/// Why [`validate_graph_with`] could not produce a verdict (an actual
/// divergence is a *failed* [`GraphValidation`], not an error).
#[derive(Debug)]
pub enum ValidateError {
    /// The graph did not compile.
    Compile(GraphCompileError),
    /// The stitched execution failed structurally.
    Exec(GraphExecError),
    /// The reference interpreter rejected the graph.
    Interp(InterpError),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::Compile(e) => write!(f, "compile: {e}"),
            ValidateError::Exec(e) => write!(f, "stitched execution: {e}"),
            ValidateError::Interp(e) => write!(f, "reference interpreter: {e}"),
        }
    }
}

impl Error for ValidateError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ValidateError::Compile(e) => Some(e),
            ValidateError::Exec(e) => Some(e),
            ValidateError::Interp(e) => Some(e),
        }
    }
}

impl From<GraphCompileError> for ValidateError {
    fn from(e: GraphCompileError) -> Self {
        ValidateError::Compile(e)
    }
}

impl From<GraphExecError> for ValidateError {
    fn from(e: GraphExecError) -> Self {
        ValidateError::Exec(e)
    }
}

impl From<InterpError> for ValidateError {
    fn from(e: InterpError) -> Self {
        ValidateError::Interp(e)
    }
}

/// Largest element difference scaled by the reference's own magnitude
/// (`max|a-b| / max(1, max|ref|)`) — per-element cancellation does not
/// inflate it, a misrouted tile still registers at `O(1)`.
///
/// When the *reference itself* leaves the finite `f32` range (deep
/// stacks of gated chains square value magnitudes every layer and can
/// overflow), no verdict is possible and the comparison abstains with
/// `0.0`. A non-finite element on the stitched side against a finite
/// reference still fails at `INFINITY`.
fn normwise_err(got: &Matrix, reference: &Matrix) -> f32 {
    if got.shape() != reference.shape() {
        return f32::INFINITY;
    }
    if reference.as_slice().iter().any(|x| !x.is_finite()) {
        return 0.0;
    }
    let scale = reference
        .as_slice()
        .iter()
        .fold(1.0f32, |s, &x| s.max(x.abs()));
    got.as_slice()
        .iter()
        .zip(reference.as_slice())
        .map(|(x, y)| {
            if x.is_finite() {
                (x - y).abs()
            } else {
                f32::INFINITY
            }
        })
        .fold(0.0, f32::max)
        / scale
}

/// Compiles `graph` with `compiler`, executes the stitched plan under
/// `numeric` and the per-op reference on identical seeded inputs, and
/// reconciles both the numerics and the per-segment traffic.
/// Deterministic per `(graph, seed, numeric)` — any failure reproduces
/// from the seed alone.
///
/// The reference interpretation always runs the naive oracle
/// ([`NumericConfig::default`]), so under [`NumericConfig::blocked`]
/// this additionally falsifies the packed kernel against the oracle on
/// every graph in the fuzz corpus — at the same tolerance, since the
/// blocked kernel's reassociation noise (≤ 1e-4 normwise per GEMM) sits
/// well inside [`DEFAULT_TOLERANCE`]'s headroom.
///
/// # Errors
///
/// Returns [`ValidateError`] when no verdict is possible (the graph
/// does not compile, or either execution fails structurally). A
/// numeric or traffic divergence is reported in the returned
/// [`GraphValidation`], not as an error.
pub fn validate_graph_with(
    compiler: &Compiler,
    graph: &OpGraph,
    seed: u64,
    tolerance: f32,
    numeric: NumericConfig,
) -> Result<GraphValidation, ValidateError> {
    let plan = compiler.compile_graph(graph)?;
    let inputs = seeded_graph_inputs(graph, seed);
    let reference = interpret_graph(graph, &inputs)?;

    // Execute the stitched plan. Fused segments run their compiled
    // plan even when the timing fallback chose the unfused bar
    // (`fell_back` changes the clock, not the mathematics — the kernel
    // must be correct either way).
    let segments: Vec<ExecSegment<'_>> = plan
        .segments
        .iter()
        .map(|s| match s {
            CompiledSegment::Fused(f) => ExecSegment::Fused {
                plan: &f.compiled.plan,
                nodes: &f.nodes,
            },
            CompiledSegment::Unfused(u) => ExecSegment::Unfused { nodes: &u.nodes },
        })
        .collect();
    let execution = execute_graph_with(graph, &segments, &inputs, numeric)?;

    let mut checks = Vec::with_capacity(plan.segments.len());
    for (index, (segment, trace)) in plan.segments.iter().zip(&execution.traces).enumerate() {
        let output = trace.output;
        let executed_global = trace.counters.global_bytes();
        let executed_dsm = trace.counters.dsm_bytes();
        let check = match segment {
            CompiledSegment::Fused(f) => {
                let max_err = local_fused_err(graph, &execution, &f.chain, output);
                let (predicted_global, predicted_dsm, dsm_exact) =
                    fused_predictions(compiler, &f.compiled);
                let traffic_ok = executed_global == predicted_global
                    && if dsm_exact {
                        executed_dsm == predicted_dsm
                    } else {
                        executed_dsm <= predicted_dsm
                    };
                SegmentCheck {
                    index,
                    fused: true,
                    nodes: f.nodes.clone(),
                    output,
                    max_err,
                    executed_global,
                    predicted_global,
                    executed_dsm,
                    predicted_dsm,
                    dsm_exact,
                    traffic_ok,
                }
            }
            CompiledSegment::Unfused(u) => SegmentCheck {
                index,
                fused: false,
                nodes: u.nodes.clone(),
                output,
                max_err: execution
                    .value(output)
                    .map_or(f32::INFINITY, |got| normwise_err(got, &reference[output])),
                executed_global,
                predicted_global: u.bytes,
                executed_dsm,
                predicted_dsm: 0,
                dsm_exact: true,
                traffic_ok: executed_global == u.bytes && executed_dsm == 0,
            },
        };
        checks.push(check);
    }

    // Whole-graph verdict at the Output markers (sinks otherwise).
    let outputs: Vec<NodeId> = {
        let marked: Vec<NodeId> = (0..graph.len())
            .filter(|&id| graph.node(id).kind == OpKind::Output)
            .collect();
        if marked.is_empty() {
            graph.sinks()
        } else {
            marked
        }
    };
    let mut max_err = 0.0f32;
    for id in outputs {
        let err = execution
            .value(id)
            .map_or(f32::INFINITY, |got| normwise_err(got, &reference[id]));
        max_err = max_err.max(err);
    }

    Ok(GraphValidation {
        seed,
        tolerance,
        kernel: numeric.kernel,
        segments: checks,
        max_err,
        plan,
    })
}

/// The fused kernel's *local* error: its stitched output against the
/// chain reference evaluated on the same stitched input values —
/// upstream (inherited) error cancels out of the comparison, leaving
/// only what the fused dataflow itself introduced.
fn local_fused_err(
    graph: &OpGraph,
    execution: &flashfuser_sim::GraphExecution,
    chain: &flashfuser_graph::ChainSpec,
    output: NodeId,
) -> f32 {
    let Some(io) = flashfuser_graph::recover_chain_io(graph, output) else {
        return f32::INFINITY;
    };
    let take = |node: NodeId| execution.value(node).cloned();
    let (Some(a), Some(b), Some(d), Some(got)) = (
        take(io.input),
        take(io.b_up),
        take(io.d),
        execution.value(output),
    ) else {
        return f32::INFINITY;
    };
    let b_gate = match io.b_gate.map(take) {
        Some(None) => return f32::INFINITY,
        Some(Some(g)) => Some(g),
        None => None,
    };
    let inputs = flashfuser_graph::chain::ChainInputs { a, b, b_gate, d };
    match chain.reference_output(&inputs) {
        Ok(reference) => normwise_err(got, &reference),
        Err(_) => f32::INFINITY,
    }
}

/// The exact global-load prediction and the analyzer DSM volume for a
/// fused segment's plan (see the module docs for which comparisons are
/// exact).
fn fused_predictions(compiler: &Compiler, compiled: &Compiled) -> (u64, u64, bool) {
    let plan = &compiled.plan;
    let params = compiler.params();
    let raw = plan
        .geometry
        .mandatory_traffic(&plan.chain, plan.cluster, plan.tile, params.l2_bytes())
        .l2_raw_bytes;
    let config = compiler.config();
    let analysis = DataflowAnalyzer::new(params.clone())
        .with_lowest_spill(config.prune.lowest_spill)
        .with_inter_cluster_reduce(config.prune.allow_inter_cluster_reduce)
        .analyze(&plan.chain, &plan.schedule, plan.cluster, plan.tile)
        .expect("compiled plans re-analyze");
    let dsm_exact = plan
        .deepest_reused_level()
        .is_none_or(|level| level < MemLevel::Dsm);
    (raw, analysis.volume(MemLevel::Dsm), dsm_exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_core::MachineDescriptor;
    use flashfuser_graph::ChainSpec;
    use flashfuser_tensor::Activation;

    #[test]
    fn normwise_err_is_sensitive_to_corruption() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f32 * 100.0);
        assert_eq!(normwise_err(&a, &a), 0.0);
        // Zeroing one element — a dropped tile in miniature — registers
        // at O(1) relative to the matrix magnitude.
        let mut b = a.clone();
        b.set(2, 3, 0.0);
        assert!(normwise_err(&b, &a) > 0.5);
        // A shape mismatch is an immediate failure.
        assert_eq!(normwise_err(&Matrix::zeros(2, 2), &a), f32::INFINITY);
        // A non-finite reference abstains; a non-finite result against a
        // finite reference fails.
        let inf = a.map(|_| f32::INFINITY);
        assert_eq!(normwise_err(&a, &inf), 0.0);
        assert_eq!(normwise_err(&inf, &a), f32::INFINITY);
    }

    #[test]
    fn validate_graph_reports_per_segment_and_passes_on_a_layer() {
        let compiler = Compiler::new(MachineDescriptor::h100_sxm());
        let chain = ChainSpec::standard_ffn(16, 64, 32, 32, Activation::Gelu);
        let mut g = OpGraph::new();
        let x = g.add_input("x", 16, 32);
        let l1 = g.append_chain(&chain, x, "l1");
        let t = g.add_node(OpKind::Transpose, vec![l1], "t");
        g.add_node(OpKind::Output, vec![t], "out");
        let v = validate_graph_with(
            &compiler,
            &g,
            1,
            DEFAULT_TOLERANCE,
            NumericConfig::default(),
        )
        .unwrap();
        assert!(v.passed(), "{:?}", v.failures().collect::<Vec<_>>());
        assert_eq!(v.segments.len(), 2);
        assert_eq!(v.fused_count(), 1);
        assert!(v.segments[0].fused && !v.segments[1].fused);
        assert!(v.segments[0].traffic_ok && v.segments[1].traffic_ok);
        assert!(v.segments[0].max_err <= DEFAULT_TOLERANCE);
    }

    #[test]
    fn validate_graph_passes_under_the_blocked_backend() {
        // The packed kernel must survive the same differential oracle at
        // the same tolerance — the reference side stays naive.
        let compiler = Compiler::new(MachineDescriptor::h100_sxm());
        let chain = ChainSpec::standard_ffn(16, 64, 32, 32, Activation::Gelu);
        let mut g = OpGraph::new();
        let x = g.add_input("x", 16, 32);
        let l1 = g.append_chain(&chain, x, "l1");
        let l2 = g.append_chain(&chain, l1, "l2");
        g.add_node(OpKind::Output, vec![l2], "out");
        let v = validate_graph_with(
            &compiler,
            &g,
            3,
            DEFAULT_TOLERANCE,
            NumericConfig::blocked(),
        )
        .unwrap();
        assert!(v.passed(), "{:?}", v.failures().collect::<Vec<_>>());
        assert_eq!(v.kernel, KernelKind::Blocked);
        assert_eq!(
            validate_graph_with(
                &compiler,
                &g,
                3,
                DEFAULT_TOLERANCE,
                NumericConfig::default()
            )
            .unwrap()
            .kernel,
            KernelKind::Naive
        );
    }

    #[test]
    fn validate_graph_passes_on_an_attention_window() {
        // A bare attention motif: the partitioner must recover and fuse
        // it, and the fused kernel must agree with the per-op oracle
        // with its traffic reconciled exactly.
        let compiler = Compiler::new(MachineDescriptor::h100_sxm());
        let mut g = OpGraph::new();
        let q = g.add_input("q", 32, 32);
        let kt = g.add_input("kT", 32, 48);
        let v = g.add_input("v", 48, 32);
        let scores = g.add_node(OpKind::Matmul, vec![q, kt], "scores");
        let probs = g.add_node(OpKind::Softmax { scale_k: 32 }, vec![scores], "softmax");
        let ctx = g.add_node(OpKind::Matmul, vec![probs, v], "ctx");
        g.add_node(OpKind::Output, vec![ctx], "out");
        let val = validate_graph_with(
            &compiler,
            &g,
            5,
            DEFAULT_TOLERANCE,
            NumericConfig::default(),
        )
        .unwrap();
        assert!(val.passed(), "{:?}", val.failures().collect::<Vec<_>>());
        assert_eq!(val.fused_count(), 1);
        assert!(val
            .plan
            .fused_segments()
            .any(|s| s.chain.kind().is_attention()));
    }

    #[test]
    fn validate_graph_surfaces_compile_errors() {
        let compiler = Compiler::new(MachineDescriptor::h100_sxm());
        let g = OpGraph::new();
        assert!(matches!(
            validate_graph_with(
                &compiler,
                &g,
                0,
                DEFAULT_TOLERANCE,
                NumericConfig::default()
            ),
            Err(ValidateError::Compile(_))
        ));
    }
}

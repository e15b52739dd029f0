//! Stitched execution of a partitioned graph plan.
//!
//! The whole-graph compiler emits segments — fused chains plus unfused
//! remainders — but until now only single chains could *run*.
//! [`execute_graph`] closes that gap: fused segments go through the
//! tile-level [`crate::execute_fused`] interpreter,
//! unfused segments through the per-op reference semantics of
//! [`crate::interp`], and intermediate values are stitched across
//! segment boundaries exactly where the compiled plan materialises them
//! in global memory. Per-segment [`TrafficCounters`] come back with the
//! values, so executed traffic can be reconciled against the dataflow
//! analyzer's predictions segment by segment.
//!
//! The caller describes the plan as [`ExecSegment`]s (node lists plus,
//! for fused segments, the [`FusedPlan`]); the facade crate's
//! `validate_graph` derives these from a compiled `GraphPlan`. The
//! executor re-derives each fused segment's chain I/O roles
//! structurally ([`recover_chain_io`]) — it trusts the partitioner's
//! *node sets* but verifies their *shape*, surfacing a typed error
//! instead of panicking on anything inconsistent.

use crate::counters::TrafficCounters;
use crate::exec::{execute_fused_with, ExecError};
use crate::interp::eval_compute;
use flashfuser_core::{FusedPlan, MemLevel};
use flashfuser_graph::chain::ChainInputs;
use flashfuser_graph::op::{NodeId, OpGraph, OpKind};
use flashfuser_graph::segment::recover_chain_io;
use flashfuser_graph::GraphShapeError;
use flashfuser_tensor::{Matrix, NumericConfig};
use std::error::Error;
use std::fmt;

/// One segment of a compiled graph plan, as the executor consumes it.
#[derive(Debug, Clone, Copy)]
pub enum ExecSegment<'a> {
    /// A fused chain: run through [`crate::execute_fused`].
    Fused {
        /// The compiled plan for the segment's chain.
        plan: &'a FusedPlan,
        /// The compute nodes the fused kernel replaces (topo order;
        /// the last one is the output GEMM).
        nodes: &'a [NodeId],
    },
    /// Stand-alone kernels: run through the per-op reference semantics.
    Unfused {
        /// The covered compute nodes, in topo order.
        nodes: &'a [NodeId],
    },
}

/// Executed traffic and boundary info of one segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentTrace {
    /// `true` for fused segments.
    pub fused: bool,
    /// The covered nodes.
    pub nodes: Vec<NodeId>,
    /// The node whose value the segment materialises for downstream
    /// consumers (the last covered node).
    pub output: NodeId,
    /// Traffic this segment's execution generated.
    pub counters: TrafficCounters,
}

/// The result of [`execute_graph`].
#[derive(Debug, Clone, PartialEq)]
pub struct GraphExecution {
    /// Per-node values, indexed by id. Interior nodes of fused segments
    /// stay `None` — the fused kernel never materialises them, which is
    /// the point of fusing.
    pub values: Vec<Option<Matrix>>,
    /// Per-segment execution traces, in plan order.
    pub traces: Vec<SegmentTrace>,
}

impl GraphExecution {
    /// The value stitched at `node`, if the plan materialised one.
    pub fn value(&self, node: NodeId) -> Option<&Matrix> {
        self.values.get(node).and_then(|v| v.as_ref())
    }

    /// All segment counters merged.
    pub fn total_counters(&self) -> TrafficCounters {
        let mut total = TrafficCounters::new();
        for trace in &self.traces {
            total.merge(&trace.counters);
        }
        total
    }
}

/// Why a stitched execution failed.
#[derive(Debug)]
pub enum GraphExecError {
    /// The graph itself is ill-shaped.
    Shape(GraphShapeError),
    /// A segment references a node whose value was never materialised
    /// (the segment list does not cover the graph, or a fused segment
    /// hides a value something else needs).
    MissingValue {
        /// The unmaterialised node.
        node: NodeId,
        /// Index of the segment (or `usize::MAX` for the final Output
        /// marker pass) that needed it.
        segment: usize,
    },
    /// A fused segment's nodes do not close a two-GEMM chain.
    NotAChain {
        /// Index of the offending segment.
        segment: usize,
    },
    /// An empty segment.
    EmptySegment {
        /// Index of the offending segment.
        segment: usize,
    },
    /// The fused kernel itself failed (shape mismatch, degenerate plan
    /// geometry, missing gate weight).
    Exec {
        /// Index of the offending segment.
        segment: usize,
        /// The underlying execution error.
        source: ExecError,
    },
}

impl fmt::Display for GraphExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphExecError::Shape(e) => write!(f, "{e}"),
            GraphExecError::MissingValue { node, segment } => {
                write!(f, "segment {segment}: node %{node} has no stitched value")
            }
            GraphExecError::NotAChain { segment } => {
                write!(f, "segment {segment}: fused nodes do not close a chain")
            }
            GraphExecError::EmptySegment { segment } => {
                write!(f, "segment {segment} covers no nodes")
            }
            GraphExecError::Exec { segment, source } => {
                write!(f, "segment {segment}: {source}")
            }
        }
    }
}

impl Error for GraphExecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphExecError::Exec { source, .. } => Some(source),
            GraphExecError::Shape(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphShapeError> for GraphExecError {
    fn from(e: GraphShapeError) -> Self {
        GraphExecError::Shape(e)
    }
}

/// Executes a partitioned plan over `g`: fused segments tile-by-tile,
/// unfused segments op-by-op, stitching intermediates across segment
/// boundaries. `inputs` binds a tensor to every `Input` node (see
/// [`crate::interp::seeded_graph_inputs`]); `Output` markers forward
/// their operand's value after all segments ran.
///
/// Unfused traffic is charged at the same per-op rate the partitioner
/// prices ([`OpGraph::op_cost`] bytes to global memory, one kernel
/// launch per op), so unfused segment counters reconcile against the
/// plan's accounting the same way fused ones reconcile against the
/// analyzer.
///
/// # Errors
///
/// Returns [`GraphExecError`] when the graph, the segment list, or a
/// fused plan is inconsistent — never panics on malformed input.
pub fn execute_graph(
    g: &OpGraph,
    segments: &[ExecSegment<'_>],
    inputs: &[(NodeId, Matrix)],
) -> Result<GraphExecution, GraphExecError> {
    execute_graph_with(g, segments, inputs, NumericConfig::naive())
}

/// [`execute_graph`] with an explicit numeric backend: fused segments
/// run their per-tile accumulations and unfused segments their per-op
/// GEMMs through the selected
/// [`flashfuser_tensor::MicroKernel`]. Traffic accounting
/// is backend-independent.
///
/// # Errors
///
/// Returns [`GraphExecError`] under exactly the same conditions as
/// [`execute_graph`].
pub fn execute_graph_with(
    g: &OpGraph,
    segments: &[ExecSegment<'_>],
    inputs: &[(NodeId, Matrix)],
    numeric: NumericConfig,
) -> Result<GraphExecution, GraphExecError> {
    let shapes = g.infer_shapes()?;
    let mut values: Vec<Option<Matrix>> = vec![None; g.len()];
    for (id, m) in inputs {
        if *id < values.len() && matches!(g.node(*id).kind, OpKind::Input(..)) {
            values[*id] = Some(m.clone());
        }
    }

    let mut traces = Vec::with_capacity(segments.len());
    for (idx, segment) in segments.iter().enumerate() {
        let trace = match segment {
            ExecSegment::Fused { plan, nodes } => {
                run_fused(g, plan, nodes, idx, &mut values, numeric)?
            }
            ExecSegment::Unfused { nodes } => {
                run_unfused(g, &shapes, nodes, idx, &mut values, numeric)?
            }
        };
        traces.push(trace);
    }

    // Output markers forward whatever their operand stitched.
    for (id, node) in g.nodes().iter().enumerate() {
        if node.kind == OpKind::Output {
            let src = node.inputs[0];
            values[id] = Some(values[src].clone().ok_or(GraphExecError::MissingValue {
                node: src,
                segment: usize::MAX,
            })?);
        }
    }

    Ok(GraphExecution { values, traces })
}

/// Runs one fused segment: recovers the chain I/O roles, gathers the
/// stitched operand values, executes the plan and materialises the
/// result at the output GEMM's node.
fn run_fused(
    g: &OpGraph,
    plan: &FusedPlan,
    nodes: &[NodeId],
    idx: usize,
    values: &mut [Option<Matrix>],
    numeric: NumericConfig,
) -> Result<SegmentTrace, GraphExecError> {
    let &output = nodes
        .last()
        .ok_or(GraphExecError::EmptySegment { segment: idx })?;
    let io = recover_chain_io(g, output).ok_or(GraphExecError::NotAChain { segment: idx })?;
    let take = |node: NodeId| -> Result<Matrix, GraphExecError> {
        values[node]
            .clone()
            .ok_or(GraphExecError::MissingValue { node, segment: idx })
    };
    let chain_inputs = ChainInputs {
        a: take(io.input)?,
        b: take(io.b_up)?,
        b_gate: io.b_gate.map(take).transpose()?,
        d: take(io.d)?,
    };
    let mut counters = TrafficCounters::new();
    let result =
        execute_fused_with(plan, &chain_inputs, &mut counters, numeric).map_err(|source| {
            GraphExecError::Exec {
                segment: idx,
                source,
            }
        })?;
    values[output] = Some(result);
    Ok(SegmentTrace {
        fused: true,
        nodes: nodes.to_vec(),
        output,
        counters,
    })
}

/// Runs one unfused segment op by op with the reference semantics,
/// charging each op's stand-alone kernel traffic.
fn run_unfused(
    g: &OpGraph,
    shapes: &[(usize, usize)],
    nodes: &[NodeId],
    idx: usize,
    values: &mut [Option<Matrix>],
    numeric: NumericConfig,
) -> Result<SegmentTrace, GraphExecError> {
    let &output = nodes
        .last()
        .ok_or(GraphExecError::EmptySegment { segment: idx })?;
    let mut counters = TrafficCounters::new();
    for &id in nodes {
        for &input in &g.node(id).inputs {
            if values[input].is_none() {
                return Err(GraphExecError::MissingValue {
                    node: input,
                    segment: idx,
                });
            }
        }
        let value = eval_compute(g, values, id, numeric.micro_kernel()).map_err(|source| {
            GraphExecError::Exec {
                segment: idx,
                source: ExecError::Shape(source),
            }
        })?;
        values[id] = Some(value);
        counters.kernel_launches += 1;
        counters.add(MemLevel::Global, g.op_cost(shapes, id).bytes);
    }
    Ok(SegmentTrace {
        fused: false,
        nodes: nodes.to_vec(),
        output,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{interpret_graph, seeded_graph_inputs};
    use flashfuser_core::comm::ClusterShape;
    use flashfuser_core::{BlockTile, DataflowAnalyzer, LoopSchedule, MachineDescriptor};
    use flashfuser_graph::{match_chains, ChainSpec, Dim};
    use flashfuser_tensor::Activation;

    fn compile_chain(chain: &ChainSpec) -> FusedPlan {
        let schedule = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(
                chain,
                &schedule,
                ClusterShape::new(1, 2, 2, 2).unwrap(),
                BlockTile::new(16, 16, 16, 16),
            )
            .expect("test geometry is feasible")
            .plan()
            .clone()
    }

    #[test]
    fn stitched_two_layer_graph_matches_the_interpreter() {
        // Two stacked FFN chains with an unfused residual-style Add
        // between them (a binary op can close no chain window):
        // fused -> unfused -> fused, stitched across boundaries.
        let chain = ChainSpec::standard_ffn(16, 64, 32, 32, Activation::Relu);
        let mut g = OpGraph::new();
        let x = g.add_input("x", 16, 32);
        let l1 = g.append_chain(&chain, x, "l1");
        let glue = g.add_node(
            OpKind::Elementwise(flashfuser_tensor::BinaryOp::Add),
            vec![l1, l1],
            "glue",
        );
        let l2 = g.append_chain(&chain, glue, "l2");
        g.add_node(OpKind::Output, vec![l2], "out");

        let matches = match_chains(&g).unwrap();
        assert_eq!(matches.len(), 2);
        let plan = compile_chain(&chain);
        let segments = [
            ExecSegment::Fused {
                plan: &plan,
                nodes: &matches[0].nodes,
            },
            ExecSegment::Unfused { nodes: &[glue] },
            ExecSegment::Fused {
                plan: &plan,
                nodes: &matches[1].nodes,
            },
        ];
        let inputs = seeded_graph_inputs(&g, 11);
        let exec = execute_graph(&g, &segments, &inputs).unwrap();
        let reference = interpret_graph(&g, &inputs).unwrap();

        // The final output agrees with the op-by-op reference.
        let sink = g.len() - 1;
        let got = exec.value(sink).unwrap();
        assert!(
            got.approx_eq(&reference[sink], 1e-3).unwrap(),
            "stitched execution diverged: max err {}",
            got.max_abs_diff(&reference[sink]).unwrap()
        );
        // Fused interiors are never materialised; boundaries are.
        assert!(exec.value(matches[0].nodes[0]).is_none());
        assert!(exec.value(l1).is_some());
        assert_eq!(exec.traces.len(), 3);
        assert!(exec.traces[0].fused && !exec.traces[1].fused);
        assert_eq!(exec.traces[1].counters.kernel_launches, 1);
        assert_eq!(exec.total_counters().kernel_launches, 3);
    }

    #[test]
    fn fused_traffic_reconciles_with_the_analyzer_per_segment() {
        let chain = ChainSpec::standard_ffn(16, 64, 32, 32, Activation::Relu);
        let g = chain.to_op_graph();
        let m = &match_chains(&g).unwrap()[0];
        let schedule = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        let analysis = DataflowAnalyzer::new(MachineDescriptor::h100_sxm())
            .analyze(
                &chain,
                &schedule,
                ClusterShape::new(1, 2, 2, 2).unwrap(),
                BlockTile::new(16, 16, 16, 16),
            )
            .unwrap();
        let segments = [ExecSegment::Fused {
            plan: analysis.plan(),
            nodes: &m.nodes,
        }];
        let inputs = seeded_graph_inputs(&g, 5);
        let exec = execute_graph(&g, &segments, &inputs).unwrap();
        let c = &exec.traces[0].counters;
        assert_eq!(c.global_bytes(), analysis.volume(MemLevel::L2));
        assert_eq!(c.dsm_bytes(), analysis.volume(MemLevel::Dsm));
    }

    #[test]
    fn unfused_traffic_matches_op_cost_pricing() {
        let mut g = OpGraph::new();
        let a = g.add_input("A", 8, 16);
        let b = g.add_input("B", 16, 8);
        let mm = g.add_node(OpKind::Matmul, vec![a, b], "mm");
        let act = g.add_node(OpKind::Activation(Activation::Relu), vec![mm], "act");
        g.add_node(OpKind::Output, vec![act], "out");
        let shapes = g.infer_shapes().unwrap();
        let segments = [ExecSegment::Unfused { nodes: &[mm, act] }];
        let inputs = seeded_graph_inputs(&g, 2);
        let exec = execute_graph(&g, &segments, &inputs).unwrap();
        let expected: u64 = [mm, act]
            .iter()
            .map(|&id| g.op_cost(&shapes, id).bytes)
            .sum();
        assert_eq!(exec.traces[0].counters.global_bytes(), expected);
        assert_eq!(exec.traces[0].counters.kernel_launches, 2);
    }

    #[test]
    fn inconsistent_segments_are_typed_errors() {
        let chain = ChainSpec::standard_ffn(16, 64, 32, 32, Activation::Relu);
        let g = chain.to_op_graph();
        let m = &match_chains(&g).unwrap()[0];
        let plan = compile_chain(&chain);
        let inputs = seeded_graph_inputs(&g, 1);

        // A fused segment whose node list does not close a chain.
        let bad = [ExecSegment::Fused {
            plan: &plan,
            nodes: &m.nodes[..1],
        }];
        assert!(matches!(
            execute_graph(&g, &bad, &inputs),
            Err(GraphExecError::NotAChain { segment: 0 })
        ));

        // A segment consuming a value nothing materialised.
        let orphan = [ExecSegment::Unfused {
            nodes: &m.nodes[2..],
        }];
        assert!(matches!(
            execute_graph(&g, &orphan, &inputs),
            Err(GraphExecError::MissingValue { .. })
        ));

        // Empty segment.
        let empty = [ExecSegment::Unfused { nodes: &[] }];
        assert!(matches!(
            execute_graph(&g, &empty, &inputs),
            Err(GraphExecError::EmptySegment { segment: 0 })
        ));

        // No segments at all: the Output marker has nothing to forward.
        assert!(matches!(
            execute_graph(&g, &[], &inputs),
            Err(GraphExecError::MissingValue { .. })
        ));
    }
}

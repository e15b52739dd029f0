//! An H100-class GPU machine model: the "hardware" of this reproduction.
//!
//! The paper evaluates FlashFuser on a physical H100. This crate replaces
//! that silicon with two cooperating models over the same
//! [`flashfuser_core::MachineDescriptor`]:
//!
//! * a **functional interpreter** ([`exec`]) that executes a
//!   [`flashfuser_core::FusedPlan`] tile-by-tile with real `f32`
//!   arithmetic — cluster geometry, `dsm_all_exchange` / `dsm_shuffle` /
//!   `dsm_reduce_scatter` ring schedules, scatter ownership and
//!   inter-cluster atomic reduction included — and counts every byte
//!   moved per memory tier. Its output must match the chain's reference
//!   result, which is what the correctness test-suite enforces.
//! * an **analytical timing model** ([`timing`]) that converts the
//!   dataflow analysis of a plan into "measured" seconds, adding the
//!   second-order effects the paper's cost model ignores (wave
//!   quantisation, imperfect overlap, NoC latency chains, barrier costs
//!   and a deterministic per-plan perturbation standing in for silicon
//!   variance). The gap between this and the cost model is what makes
//!   top-K profiling (Fig. 12) meaningful.
//!
//! [`unfused`] executes the no-fusion baselines (one kernel per
//! operator with global-memory round trips).
//!
//! On top of the single-chain machinery, [`interp`] evaluates *any*
//! shape-inferred operator DAG op by op (the differential-fuzzing
//! oracle), and [`graph_exec`] runs a partitioned whole-graph plan —
//! fused segments through [`exec`], unfused remainders through the
//! interpreter — stitching intermediates across segment boundaries
//! with per-segment traffic counters.

pub mod counters;
pub mod exec;
pub mod graph_exec;
pub mod interp;
pub mod timing;
pub mod unfused;

pub use counters::TrafficCounters;
pub use exec::{execute_fused, execute_fused_with, ExecError};
pub use flashfuser_tensor::{KernelKind, NumericConfig};
pub use graph_exec::{
    execute_graph, execute_graph_with, ExecSegment, GraphExecError, GraphExecution, SegmentTrace,
};
pub use interp::{interpret_graph, interpret_graph_with, seeded_graph_inputs, InterpError};
pub use timing::{KernelMeasurement, SimProfiler, TimingModel};
pub use unfused::{
    execute_unfused, execute_unfused_with, unfused_op_time, unfused_time, UnfusedKernelPricer,
    UnfusedReport,
};

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
//! * a **profiler** ([`timing`]) that converts the dataflow analysis of
//!   a plan into "measured" seconds. The layers split the terms between
//!   them: the core's cost model owns wave quantisation, occupancy, the
//!   per-tier bandwidths and the amortized DSM-hop/barrier latency
//!   chain; a measurement is that estimate plus the three terms the
//!   paper's model leaves out — the overlap leak of non-bottleneck
//!   stages, the fixed off-chip and launch latency, and a deterministic
//!   per-plan perturbation standing in for silicon variance. The gap
//!   between the two is what makes top-K profiling (Fig. 12)
//!   meaningful.
//!
//! [`unfused`] prices the no-fusion baselines (one kernel per operator
//! with global-memory round trips); they are never executed.
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
pub use exec::{execute_fused_with, ExecError};
pub use flashfuser_tensor::{KernelKind, NumericConfig};
pub use graph_exec::{
    execute_graph_with, ExecSegment, GraphExecError, GraphExecution, SegmentTrace,
};
pub use interp::{interpret_graph, seeded_graph_inputs, InterpError};
pub use timing::{time_analysis, SimProfiler};
pub use unfused::{kernel_seconds, unfused_time, UnfusedKernelPricer, UnfusedReport};

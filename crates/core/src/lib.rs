//! FlashFuser's compiler core (paper §IV): the dataflow analyzer, the
//! minimax cost model, the pruning rules and the fusion search engine.
//!
//! The pipeline mirrors Algorithm 2 of the paper:
//!
//! 1. [`schedule`] enumerates the 41 spatial/temporal loop partitions
//!    (Table IV) and [`tiling`] the hardware-aware tile sizes.
//! 2. [`prune`] applies Rules 1–5 (§IV-C2), collapsing the raw space of
//!    ~10^13 candidates by more than 99.99 % (Table III).
//! 3. [`analyzer`] runs Algorithm 1 on each surviving candidate: it maps
//!    the reused intermediate across the register/SMEM/DSM hierarchy
//!    (greedy spill) and charges data-movement volume to every tier,
//!    including the `dsm_comm` traffic of [`comm`] — as plain
//!    integers ([`CostTerms`], `score`); a [`FusedPlan`] is built only
//!    for finalists (`materialise`).
//! 4. [`cost`] turns volumes into the minimax bottleneck objective
//!    (Eq. 1–3) and [`search`] keeps the top-K candidates, which are then
//!    "profiled on hardware" through the [`PlanProfiler`] abstraction
//!    (implemented by the `flashfuser-sim` machine model).
//!
//! One level above the per-chain pipeline, [`segment`] partitions an
//! arbitrary operator DAG into fusible chains and unfused remainders
//! (a DP over topological cut points scored by
//! [`CostModel::chain_lower_bound`]) — the entry point whole-graph
//! compilation builds on.
//!
//! # Example
//!
//! ```
//! use flashfuser_core::{MachineDescriptor, SearchEngine, SearchConfig};
//! use flashfuser_graph::ChainSpec;
//! use flashfuser_tensor::Activation;
//!
//! let chain = ChainSpec::standard_ffn(128, 512, 256, 256, Activation::Relu);
//! let engine = SearchEngine::new(MachineDescriptor::h100_sxm());
//! let result = engine.search(&chain, &SearchConfig::default()).unwrap();
//! assert!(result.best().est_seconds > 0.0);
//! ```

pub mod analyzer;
pub mod codec;
pub mod comm;
pub mod cost;
pub mod json;
pub mod machine;
pub mod mapping;
pub mod plan;
pub mod profiler;
pub mod prune;
pub mod schedule;
pub mod search;
pub mod segment;
pub mod space;
pub mod tiling;

pub use analyzer::{AnalysisError, CostTerms, DataflowAnalysis, DataflowAnalyzer};
pub use codec::{
    decode_machine, decode_machine_value, decode_record, encode_machine, encode_record, CodecError,
    PlanRecord,
};
pub use cost::{CostBreakdown, CostModel, PlanePricing};
pub use machine::{ComputeParams, MachineDescriptor, MachineError, MemLevel, MemTier};
pub use mapping::{Placement, ResourceMapping, TensorMapping, TensorRole};
pub use plan::{FusedPlan, PlanError, PlanGeometry};
pub use profiler::{PlanProfiler, ProfileOutcome};
pub use prune::{Candidate, CandidateIter, CandidateStream, PruneConfig, PruneStats};
pub use schedule::LoopSchedule;
pub use search::{
    available_threads, RankedPlan, SearchConfig, SearchEngine, SearchError, SearchResult,
    SearchStats,
};
pub use segment::{partition_graph, GraphPartition, PartitionError, Segment, UnfusedPricer};
pub use tiling::{hardware_aware_tiles, BlockTile};

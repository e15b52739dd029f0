//! The `dsm_comm` layer the analyzer prices (paper §IV-A): cluster
//! geometry and the byte volumes of the cluster-level exchanges.
//!
//! Distributed Shared Memory (DSM) lets thread blocks inside one cluster
//! read each other's shared memory. A fused GEMM chain moves data across
//! the cluster with three on-chip primitives — `dsm_all_exchange`
//! (combine K-partitioned partial sums or gated branches),
//! `dsm_shuffle` (ring-rotate complete intermediate tiles within a
//! shuffle group) and `dsm_reduce_scatter` (accumulate partial output
//! tiles across shuffle groups) — whose closed-form volumes live in
//! [`volume`]. Which blocks form a group follows from the
//! [`ClusterShape`]. The functional execution of the primitives over
//! simulated SMEM lives in `flashfuser-sim`.
//!
//! # Example
//!
//! ```
//! use flashfuser_core::comm::ClusterShape;
//!
//! // The paper's Fig. 7(a) geometry.
//! let cls = ClusterShape::new(2, 4, 2, 4).unwrap();
//! assert_eq!(cls.blocks(), 16);
//! assert_eq!(cls.cls_shuffle(), 2);
//! assert_eq!(cls.cls_reduce(), 2);
//! ```

pub mod geometry;
pub mod volume;

pub use geometry::{ClusterShape, GeometryError};
pub use volume::CommVolume;

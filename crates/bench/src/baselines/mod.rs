//! Baseline systems, re-implemented as scheduling policies over the
//! simulator.
//!
//! The paper compares FlashFuser against libraries (PyTorch/cuBLAS,
//! TensorRT), compilers (Relay, TASO, BOLT, Chimera, MCFuser), research
//! systems (Mirage, PipeThreader) and the SGLang serving stack. None of
//! those run here; each is modelled by its *documented capability
//! envelope* on the same machine model:
//!
//! | policy | capability envelope |
//! |---|---|
//! | PyTorch | one kernel per op, cuBLAS-class GEMMs (eff 0.90) |
//! | TensorRT | one kernel per op, best-in-class selection (eff 0.95) |
//! | Relay | one kernel per op, generated GEMMs (eff 0.62) |
//! | TASO | graph substitution (merges gated branches), no GEMM-chain fusion (eff 0.80) |
//! | BOLT | reg/SMEM fusion, fixed CUTLASS loop order + tile menu |
//! | Chimera | SMEM-only analytical fusion; *fails* when the intermediate exceeds 227 KB (Fig. 5) |
//! | MCFuser | as Chimera with a better unfused fallback |
//! | Mirage | SMEM-fusion superoptimizer, strong fallback |
//! | PipeThreader | no fusion, but overlaps dependent kernels |
//! | FlashFuser | the full DSM search of `flashfuser-core` |
//!
//! The per-policy `efficiency` constants are calibrated once against the
//! relative baseline gaps the paper reports (§VI-B) and recorded in
//! DESIGN.md; everything structural (who can fuse what, where
//! intermediates live, when fusion fails) is derived, not fitted.

pub mod ablation;
pub mod policies;

pub use ablation::{run_ablation, AblationVariant};
pub use policies::{
    Baseline, BaselineResult, BoltPolicy, ChimeraPolicy, FlashFuserPolicy, McFuserPolicy,
    MiragePolicy, PipeThreaderPolicy, PyTorchPolicy, RelayPolicy, TasoPolicy, TensorRtPolicy,
};

use flashfuser_core::MachineDescriptor;

/// The full Fig. 10 comparison suite, in the paper's plotting order.
pub fn suite(params: &MachineDescriptor) -> Vec<Box<dyn Baseline>> {
    vec![
        Box::new(BoltPolicy::new(params.clone())),
        Box::new(FlashFuserPolicy::new(params.clone())),
        Box::new(RelayPolicy::new(params.clone())),
        Box::new(TasoPolicy::new(params.clone())),
        Box::new(TensorRtPolicy::new(params.clone())),
        Box::new(PyTorchPolicy::new(params.clone())),
        Box::new(ChimeraPolicy::new(params.clone())),
        Box::new(McFuserPolicy::new(params.clone())),
    ]
}

//! The profiling abstraction between the search front-end and the
//! "hardware" back-end.
//!
//! Algorithm 2 ends with `ProfileBestFromList`: the top-K candidates are
//! measured on the device and the fastest wins. In this reproduction the
//! device is the `flashfuser-sim` machine model; the search engine only
//! sees this trait, mirroring the paper's front-end / back-end split and
//! keeping the compiler core independent of the simulator.

use crate::plan::FusedPlan;
use std::fmt;

/// A measured execution of one plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileOutcome {
    /// Measured kernel time in seconds.
    pub seconds: f64,
    /// Measured global-memory traffic in bytes.
    pub global_bytes: u64,
    /// Measured DSM traffic in bytes.
    pub dsm_bytes: u64,
}

impl fmt::Display for ProfileOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} us, {} B global, {} B dsm",
            self.seconds * 1e6,
            self.global_bytes,
            self.dsm_bytes
        )
    }
}

/// Measures fused plans "on hardware".
///
/// Implemented by the simulator's timing model; tests use table-driven
/// fakes.
///
/// # Concurrency
///
/// The search engine profiles candidates from worker threads when it
/// can. A profiler opts in by implementing [`PlanProfiler::fork`]: it
/// hands each worker an *independent* profiler whose measurements must
/// be a pure function of the plan (true for the simulator — and for real
/// hardware backends that serialise device access internally). The
/// engine counts the `profile` calls it makes on each fork and reports
/// them back through [`PlanProfiler::join`] so aggregate accounting
/// (e.g. `SimProfiler::profiled`) stays exact. The default `fork`
/// returns `None`, which keeps profiling on the calling thread —
/// stateful profilers need not do anything.
pub trait PlanProfiler {
    /// Executes (or models) `plan` and reports its measured cost.
    fn profile(&mut self, plan: &FusedPlan) -> ProfileOutcome;

    /// Creates an independent profiler for a worker thread, or `None`
    /// (the default) when the implementation must profile sequentially.
    fn fork(&self) -> Option<Box<dyn PlanProfiler + Send>> {
        None
    }

    /// Folds a finished worker's accounting — the number of plans the
    /// engine profiled on one fork — back into `self`. Default: no-op.
    fn join(&mut self, _profiled: u64) {}
}

/// A profiler for unit tests: applies a fixed function of the plan's
/// block count, so rankings are deterministic without a simulator.
#[derive(Debug, Default)]
pub struct FakeProfiler {
    /// Number of `profile` calls made (to assert top-K width). Forked
    /// workers report their calls back via [`PlanProfiler::join`], so
    /// the count stays exact under parallel profiling.
    pub calls: usize,
}

impl FakeProfiler {
    /// The fixed measurement function, shared by forks.
    fn outcome(plan: &FusedPlan) -> ProfileOutcome {
        // Favour plans with more parallelism, with a mild penalty for
        // very wide clusters — enough structure to make rankings
        // non-trivial in tests.
        let blocks = plan.blocks_total() as f64;
        let width_penalty = 1.0 + plan.cluster.blocks() as f64 / 32.0;
        ProfileOutcome {
            seconds: width_penalty / blocks,
            global_bytes: 0,
            dsm_bytes: 0,
        }
    }
}

impl PlanProfiler for FakeProfiler {
    fn profile(&mut self, plan: &FusedPlan) -> ProfileOutcome {
        self.calls += 1;
        Self::outcome(plan)
    }

    fn fork(&self) -> Option<Box<dyn PlanProfiler + Send>> {
        Some(Box::new(FakeProfiler::default()))
    }

    fn join(&mut self, profiled: u64) {
        self.calls += profiled as usize;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_microseconds() {
        let o = ProfileOutcome {
            seconds: 12.5e-6,
            global_bytes: 10,
            dsm_bytes: 20,
        };
        assert!(o.to_string().contains("12.500 us"));
    }
}

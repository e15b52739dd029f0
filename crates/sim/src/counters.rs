//! Per-tier traffic counters — the simulator's Nsight Compute.
//!
//! Figure 11 of the paper compares global-memory traffic between
//! FlashFuser and PyTorch using profiler counters; [`TrafficCounters`]
//! is the equivalent instrument here. The functional interpreter
//! increments these as it moves tiles; tests reconcile them against the
//! dataflow analyzer's predicted volumes.

use flashfuser_core::MemLevel;
use std::collections::BTreeMap;
use std::fmt;

/// Byte and event counters accumulated during a simulated execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    bytes: BTreeMap<MemLevel, u64>,
    /// `dsm_comm` primitive invocations by mnemonic.
    primitives: BTreeMap<&'static str, u64>,
    /// Barrier phases executed.
    pub barriers: u64,
    /// Kernel launches (1 for a fused chain, 2–5 for unfused baselines).
    pub kernel_launches: u64,
}

impl TrafficCounters {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `bytes` of traffic at `level`.
    pub fn add(&mut self, level: MemLevel, bytes: u64) {
        *self.bytes.entry(level).or_insert(0) += bytes;
    }

    /// Records one invocation of a `dsm_comm` primitive.
    pub fn record_primitive(&mut self, mnemonic: &'static str) {
        *self.primitives.entry(mnemonic).or_insert(0) += 1;
    }

    /// Total bytes recorded at `level`.
    fn bytes(&self, level: MemLevel) -> u64 {
        self.bytes.get(&level).copied().unwrap_or(0)
    }

    /// Global-memory bytes (the Fig. 11 metric).
    pub fn global_bytes(&self) -> u64 {
        self.bytes(MemLevel::Global)
    }

    /// DSM (SM-to-SM) bytes.
    pub fn dsm_bytes(&self) -> u64 {
        self.bytes(MemLevel::Dsm)
    }

    /// Invocation count of a primitive by mnemonic.
    pub fn primitive_count(&self, mnemonic: &str) -> u64 {
        self.primitives.get(mnemonic).copied().unwrap_or(0)
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &TrafficCounters) {
        for (level, b) in &other.bytes {
            self.add(*level, *b);
        }
        for (name, n) in &other.primitives {
            *self.primitives.entry(name).or_insert(0) += n;
        }
        self.barriers += other.barriers;
        self.kernel_launches += other.kernel_launches;
    }
}

impl fmt::Display for TrafficCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "traffic:")?;
        for (level, b) in &self.bytes {
            write!(f, " {level}={b}B")?;
        }
        write!(
            f,
            " barriers={} launches={}",
            self.barriers, self.kernel_launches
        )?;
        for (name, n) in &self.primitives {
            write!(f, " {name}x{n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut c = TrafficCounters::new();
        c.add(MemLevel::Global, 100);
        c.add(MemLevel::Global, 50);
        c.add(MemLevel::Dsm, 7);
        assert_eq!(c.global_bytes(), 150);
        assert_eq!(c.dsm_bytes(), 7);
        assert_eq!(c.bytes(MemLevel::Smem), 0);
    }

    #[test]
    fn primitives_counted_by_name() {
        let mut c = TrafficCounters::new();
        c.record_primitive("shuffle");
        c.record_primitive("shuffle");
        c.record_primitive("reduce_scatter");
        assert_eq!(c.primitive_count("shuffle"), 2);
        assert_eq!(c.primitive_count("reduce_scatter"), 1);
        assert_eq!(c.primitive_count("nonexistent"), 0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = TrafficCounters::new();
        a.add(MemLevel::Global, 10);
        a.barriers = 2;
        a.kernel_launches = 1;
        let mut b = TrafficCounters::new();
        b.add(MemLevel::Global, 5);
        b.add(MemLevel::Smem, 3);
        b.record_primitive("shuffle");
        b.barriers = 1;
        b.kernel_launches = 2;
        a.merge(&b);
        assert_eq!(a.global_bytes(), 15);
        assert_eq!(a.bytes(MemLevel::Smem), 3);
        assert_eq!(a.barriers, 3);
        assert_eq!(a.kernel_launches, 3);
        assert_eq!(a.primitive_count("shuffle"), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let c = TrafficCounters::new();
        assert!(c.to_string().contains("traffic"));
    }
}

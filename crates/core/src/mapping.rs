//! Resource mapping (paper §IV-B3, Algorithm 1's greedy placement).
//!
//! A reused tensor "is not necessarily placed in a single memory level;
//! it can be distributed across multiple levels": the greedy pass places
//! as much as fits in the fastest tier and spills the remainder down the
//! [`MemLevel::SPILL_ORDER`].

use crate::machine::MemLevel;
use std::collections::BTreeMap;
use std::fmt;

/// The role a tensor plays in the fused two-GEMM chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TensorRole {
    /// Activation input `A[M,K]` (streamed).
    A,
    /// Up-projection weight `B[K,N]` (streamed).
    B,
    /// Gate weight `B_gate[K,N]` (gated chains only, streamed).
    BGate,
    /// Down-projection weight `D[N,L]` (streamed).
    D,
    /// The reused intermediate strip of `C` (held across L iterations).
    CStrip,
    /// The reused partial-output strip of `E` (held across N iterations).
    EStrip,
    /// Final output `E[M,L]` (streamed to global).
    E,
}

impl TensorRole {
    /// `true` for the reused tensors Algorithm 1 places across the
    /// hierarchy (inputs/outputs stream through fixed staging buffers
    /// instead).
    pub fn is_reused(self) -> bool {
        matches!(self, TensorRole::CStrip | TensorRole::EStrip)
    }
}

impl fmt::Display for TensorRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TensorRole::A => "A",
            TensorRole::B => "B",
            TensorRole::BGate => "B_gate",
            TensorRole::D => "D",
            TensorRole::CStrip => "C_strip",
            TensorRole::EStrip => "E_strip",
            TensorRole::E => "E",
        };
        f.write_str(s)
    }
}

/// A greedy placement before it becomes a [`TensorMapping`]: at most
/// one `(level, bytes)` pair per spill tier, fastest first, held inline
/// so the search can score a candidate without touching the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    allocations: [(MemLevel, u64); MemLevel::SPILL_ORDER.len()],
    len: usize,
}

impl Placement {
    /// Greedily places `footprint` bytes across `SPILL_ORDER`, drawing
    /// from `budget` — the free bytes of each spill tier, in that order.
    /// Tiers past `lowest` are not used.
    ///
    /// Returns `None` if the footprint cannot be fully placed at or above
    /// `lowest` — the condition pruning Rule 5 rejects.
    pub fn greedy(
        footprint: u64,
        budget: [u64; MemLevel::SPILL_ORDER.len()],
        lowest: MemLevel,
    ) -> Option<Placement> {
        let mut left = footprint;
        let mut placement = Placement {
            allocations: [(MemLevel::Reg, 0); MemLevel::SPILL_ORDER.len()],
            len: 0,
        };
        for (level, cap) in MemLevel::SPILL_ORDER.into_iter().zip(budget) {
            if left == 0 || level > lowest {
                break;
            }
            let take = left.min(cap);
            if take > 0 {
                left -= take;
                placement.allocations[placement.len] = (level, take);
                placement.len += 1;
            }
        }
        (left == 0).then_some(placement)
    }

    /// `(level, bytes)` pairs, fastest first.
    pub fn allocations(&self) -> &[(MemLevel, u64)] {
        &self.allocations[..self.len]
    }
}

/// Placement of one tensor across the hierarchy: bytes allocated per
/// spill tier, fastest first.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TensorMapping {
    allocations: Vec<(MemLevel, u64)>,
}

impl From<Placement> for TensorMapping {
    fn from(placement: Placement) -> Self {
        TensorMapping {
            allocations: placement.allocations().to_vec(),
        }
    }
}

impl TensorMapping {
    /// [`Placement::greedy`] against a shared budget: capacities are
    /// read from `remaining` and, when the footprint fits, debited in
    /// place so several tensors can share it. A footprint that does not
    /// fit leaves the budget untouched.
    pub fn greedy(
        footprint: u64,
        remaining: &mut BTreeMap<MemLevel, u64>,
        lowest: MemLevel,
    ) -> Option<TensorMapping> {
        let budget = MemLevel::SPILL_ORDER.map(|l| remaining.get(&l).copied().unwrap_or(0));
        let placement = Placement::greedy(footprint, budget, lowest)?;
        for (level, bytes) in placement.allocations() {
            *remaining.get_mut(level).expect("placed bytes came from it") -= bytes;
        }
        Some(placement.into())
    }

    /// A mapping that places everything in a single tier (used for the
    /// streaming tensors whose staging buffers always live in SMEM).
    pub fn single(level: MemLevel, bytes: u64) -> TensorMapping {
        TensorMapping {
            allocations: vec![(level, bytes)],
        }
    }

    /// Rebuilds a mapping from its exact `(level, bytes)` allocation
    /// list — the inverse of [`TensorMapping::allocations`], used when
    /// deserialising persisted plans. The list is taken verbatim, so a
    /// round trip through it is bit-identical.
    pub fn from_allocations(allocations: Vec<(MemLevel, u64)>) -> TensorMapping {
        TensorMapping { allocations }
    }

    /// Bytes allocated at `level`.
    pub fn bytes_at(&self, level: MemLevel) -> u64 {
        self.allocations
            .iter()
            .filter(|(l, _)| *l == level)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Total bytes across all tiers.
    pub fn total_bytes(&self) -> u64 {
        self.allocations.iter().map(|(_, b)| *b).sum()
    }

    /// The slowest tier holding any bytes, or `None` for an empty
    /// mapping.
    pub fn lowest_level(&self) -> Option<MemLevel> {
        self.allocations.iter().map(|(l, _)| *l).max()
    }

    /// `(level, bytes)` pairs, fastest first.
    pub fn allocations(&self) -> &[(MemLevel, u64)] {
        &self.allocations
    }
}

/// The complete placement decision of a plan: one [`TensorMapping`] per
/// tensor role (the paper's `mapping_plan`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ResourceMapping {
    map: BTreeMap<TensorRole, TensorMapping>,
}

impl ResourceMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts the mapping for `role`.
    pub fn insert(&mut self, role: TensorRole, mapping: TensorMapping) {
        self.map.insert(role, mapping);
    }

    /// The mapping of `role`, if placed.
    pub fn get(&self, role: TensorRole) -> Option<&TensorMapping> {
        self.map.get(&role)
    }

    /// Iterates `(role, mapping)` pairs in role order.
    pub fn iter(&self) -> impl Iterator<Item = (&TensorRole, &TensorMapping)> {
        self.map.iter()
    }

    /// Total bytes placed at `level` across all roles.
    pub fn bytes_at(&self, level: MemLevel) -> u64 {
        self.map.values().map(|m| m.bytes_at(level)).sum()
    }

    /// The slowest tier used by any reused tensor (`None` when nothing
    /// was reused — e.g. a fully streaming plan).
    pub fn deepest_reused_level(&self) -> Option<MemLevel> {
        self.map
            .iter()
            .filter(|(r, _)| r.is_reused())
            .filter_map(|(_, m)| m.lowest_level())
            .max()
    }
}

impl fmt::Display for ResourceMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (role, m) in &self.map {
            write!(f, "{role}:")?;
            for (level, bytes) in m.allocations() {
                write!(f, " {level}={bytes}B")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget(reg: u64, smem: u64, dsm: u64) -> BTreeMap<MemLevel, u64> {
        BTreeMap::from([
            (MemLevel::Reg, reg),
            (MemLevel::Smem, smem),
            (MemLevel::Dsm, dsm),
            (MemLevel::Global, u64::MAX),
        ])
    }

    #[test]
    fn fits_entirely_in_fastest_tier() {
        let mut b = budget(100, 100, 100);
        let m = TensorMapping::greedy(80, &mut b, MemLevel::Global).unwrap();
        assert_eq!(m.bytes_at(MemLevel::Reg), 80);
        assert_eq!(m.lowest_level(), Some(MemLevel::Reg));
        assert_eq!(b[&MemLevel::Reg], 20);
    }

    #[test]
    fn spills_across_tiers_in_order() {
        // The paper's progressive spill: reg -> smem -> dsm.
        let mut b = budget(100, 150, 1000);
        let m = TensorMapping::greedy(400, &mut b, MemLevel::Global).unwrap();
        assert_eq!(m.bytes_at(MemLevel::Reg), 100);
        assert_eq!(m.bytes_at(MemLevel::Smem), 150);
        assert_eq!(m.bytes_at(MemLevel::Dsm), 150);
        assert_eq!(m.total_bytes(), 400);
        assert_eq!(m.lowest_level(), Some(MemLevel::Dsm));
    }

    #[test]
    fn lowest_limit_enforced_and_rolled_back() {
        // Rule 5: a tensor that cannot fit at or above `lowest` fails,
        // leaving the budget untouched.
        let mut b = budget(10, 20, 30);
        let before = b.clone();
        assert!(TensorMapping::greedy(100, &mut b, MemLevel::Dsm).is_none());
        assert_eq!(b, before);
        // With Global allowed it succeeds.
        assert!(TensorMapping::greedy(100, &mut b, MemLevel::Global).is_some());
    }

    #[test]
    fn smem_only_lowest_reproduces_chimera_cliff() {
        // A Chimera-like configuration (lowest = Smem) fails once the
        // footprint exceeds reg + smem.
        let mut b = budget(0, 227 * 1024, 7 * 227 * 1024);
        assert!(TensorMapping::greedy(227 * 1024, &mut b.clone(), MemLevel::Smem).is_some());
        assert!(TensorMapping::greedy(227 * 1024 + 1, &mut b, MemLevel::Smem).is_none());
    }

    #[test]
    fn shared_budget_is_debited_across_tensors() {
        let mut b = budget(0, 100, 0);
        let first = TensorMapping::greedy(70, &mut b, MemLevel::Smem).unwrap();
        assert_eq!(first.bytes_at(MemLevel::Smem), 70);
        // Only 30 bytes left; a second 70-byte tensor must fail.
        assert!(TensorMapping::greedy(70, &mut b, MemLevel::Smem).is_none());
        assert!(TensorMapping::greedy(30, &mut b, MemLevel::Smem).is_some());
    }

    #[test]
    fn resource_mapping_aggregates() {
        let mut rm = ResourceMapping::new();
        rm.insert(TensorRole::A, TensorMapping::single(MemLevel::Smem, 64));
        rm.insert(TensorRole::CStrip, {
            let mut b = budget(16, 16, 1000);
            TensorMapping::greedy(200, &mut b, MemLevel::Global).unwrap()
        });
        assert_eq!(rm.bytes_at(MemLevel::Smem), 64 + 16);
        assert_eq!(rm.deepest_reused_level(), Some(MemLevel::Dsm));
        assert!(rm.get(TensorRole::EStrip).is_none());
        assert!(rm.to_string().contains("C_strip"));
    }

    #[test]
    fn zero_footprint_is_trivially_placed() {
        let mut b = budget(0, 0, 0);
        let m = TensorMapping::greedy(0, &mut b, MemLevel::Smem).unwrap();
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.lowest_level(), None);
    }
}

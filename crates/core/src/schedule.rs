//! Loop schedules (paper §IV-B1, Table IV).
//!
//! A [`LoopSchedule`] partitions the four chain dimensions into a
//! *spatial* set (computed by parallel units — clusters across the grid)
//! and an ordered *temporal* nest (iterated by each unit over time).
//! For four dimensions there are exactly
//! `C(4,1)·3! + C(4,2)·2! + C(4,3)·1! + C(4,4)·0! = 41` schedules.

use flashfuser_graph::Dim;
use std::fmt::{self, Write};
use std::sync::OnceLock;

/// One spatial/temporal loop partition.
///
/// # Example
///
/// ```
/// use flashfuser_core::LoopSchedule;
/// use flashfuser_graph::Dim;
///
/// let all = LoopSchedule::enumerate_all();
/// assert_eq!(all.len(), 41); // Table IV
/// let s = &all[0];
/// assert!(s.is_spatial(s.spatial()[0]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopSchedule {
    spatial: Vec<Dim>,
    /// Outermost -> innermost.
    temporal: Vec<Dim>,
    /// Bit `d.index()` set = `d` is spatial. Derived from `spatial` in
    /// [`LoopSchedule::new`]: the search asks `is_spatial` several times
    /// per plane.
    spatial_mask: u8,
}

impl LoopSchedule {
    /// Creates a schedule from a spatial set and a temporal order
    /// (outermost first).
    ///
    /// # Panics
    ///
    /// Panics unless `spatial ∪ temporal` is exactly `{M, N, K, L}` with
    /// no duplicates and `spatial` is non-empty (a fully-temporal
    /// schedule would leave the whole GPU but one unit idle; Table IV
    /// starts at one spatial dim).
    pub fn new(spatial: Vec<Dim>, temporal: Vec<Dim>) -> Self {
        assert!(!spatial.is_empty(), "at least one spatial dimension");
        let mut seen = [false; 4];
        for d in spatial.iter().chain(temporal.iter()) {
            assert!(!seen[d.index()], "dimension {d} appears twice");
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&b| b), "all four dimensions required");
        let spatial_mask = spatial.iter().fold(0, |mask, d| mask | 1 << d.index());
        Self {
            spatial,
            temporal,
            spatial_mask,
        }
    }

    /// The spatial dimensions (unordered set semantics).
    pub fn spatial(&self) -> &[Dim] {
        &self.spatial
    }

    /// The temporal nest, outermost first.
    pub fn temporal(&self) -> &[Dim] {
        &self.temporal
    }

    /// `true` if `dim` is spatial.
    pub fn is_spatial(&self, dim: Dim) -> bool {
        self.spatial_mask & 1 << dim.index() != 0
    }

    /// Nest depth of a temporal dim (0 = outermost), or `None` if spatial.
    pub fn temporal_position(&self, dim: Dim) -> Option<usize> {
        self.temporal.iter().position(|&d| d == dim)
    }

    /// The innermost temporal dimension, if any.
    pub fn innermost_temporal(&self) -> Option<Dim> {
        self.temporal.last().copied()
    }

    /// `true` when temporal dim `a` is nested strictly outside `b`.
    /// Returns `false` if either is spatial.
    pub fn is_outer(&self, a: Dim, b: Dim) -> bool {
        match (self.temporal_position(a), self.temporal_position(b)) {
            (Some(pa), Some(pb)) => pa < pb,
            _ => false,
        }
    }

    /// The 41 schedules of Table IV, enumerated once per process: the
    /// list is a function of nothing, and every search walks it.
    pub fn all() -> &'static [LoopSchedule] {
        static ALL: OnceLock<Vec<LoopSchedule>> = OnceLock::new();
        ALL.get_or_init(Self::enumerate_all)
    }

    /// Enumerates all 41 schedules of Table IV: every non-empty spatial
    /// subset of `{M,N,K,L}` combined with every permutation of the
    /// remaining dims as the temporal nest.
    pub fn enumerate_all() -> Vec<LoopSchedule> {
        let mut out = vec![];
        // Subsets by bitmask; bit i set = Dim with index i is spatial.
        for mask in 1u8..16 {
            let spatial: Vec<Dim> = Dim::ALL
                .into_iter()
                .filter(|d| mask & (1 << d.index()) != 0)
                .collect();
            let rest: Vec<Dim> = Dim::ALL
                .into_iter()
                .filter(|d| mask & (1 << d.index()) == 0)
                .collect();
            for perm in permutations(&rest) {
                out.push(LoopSchedule::new(spatial.clone(), perm));
            }
        }
        out
    }
}

/// Compact name in the paper's style: spatial dims in upper case
/// followed by the temporal nest in lower case, e.g. `"M|nlk"`.
impl fmt::Display for LoopSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.spatial {
            f.write_char(d.letter().to_ascii_uppercase())?;
        }
        f.write_char('|')?;
        for d in &self.temporal {
            f.write_char(d.letter())?;
        }
        Ok(())
    }
}

/// All permutations of `items` (n! results; n ≤ 4 here). The empty input
/// yields one empty permutation, matching Table IV's `S = MNKL, T = ∅`
/// row.
fn permutations(items: &[Dim]) -> Vec<Vec<Dim>> {
    if items.is_empty() {
        return vec![vec![]];
    }
    let mut out = vec![];
    for (i, &head) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            tail.insert(0, head);
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn table_iv_counts() {
        let all = LoopSchedule::enumerate_all();
        assert_eq!(all.len(), 41);
        let by_spatial = |n: usize| all.iter().filter(|s| s.spatial().len() == n).count();
        assert_eq!(by_spatial(1), 24); // C(4,1) x 3!
        assert_eq!(by_spatial(2), 12); // C(4,2) x 2!
        assert_eq!(by_spatial(3), 4); // C(4,3) x 1!
        assert_eq!(by_spatial(4), 1); // C(4,4) x 0!
    }

    #[test]
    fn schedules_are_distinct() {
        let all = LoopSchedule::enumerate_all();
        let names: HashSet<String> = all.iter().map(|s| s.to_string()).collect();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn positions_and_innermost() {
        let s = LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::L, Dim::K]);
        assert_eq!(s.temporal_position(Dim::N), Some(0));
        assert_eq!(s.temporal_position(Dim::K), Some(2));
        assert_eq!(s.temporal_position(Dim::M), None);
        assert_eq!(s.innermost_temporal(), Some(Dim::K));
        assert!(s.is_outer(Dim::N, Dim::K));
        assert!(!s.is_outer(Dim::K, Dim::N));
        assert!(!s.is_outer(Dim::M, Dim::K));
    }

    #[test]
    fn name_format() {
        let s = LoopSchedule::new(vec![Dim::M, Dim::N], vec![Dim::L, Dim::K]);
        assert_eq!(s.to_string(), "MN|lk");
    }

    #[test]
    fn fully_spatial_schedule_has_empty_nest() {
        let s = LoopSchedule::new(Dim::ALL.to_vec(), vec![]);
        assert_eq!(s.innermost_temporal(), None);
        assert_eq!(s.to_string(), "MNKL|");
    }

    #[test]
    #[should_panic(expected = "at least one spatial")]
    fn empty_spatial_panics() {
        LoopSchedule::new(vec![], Dim::ALL.to_vec());
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_dim_panics() {
        LoopSchedule::new(vec![Dim::M, Dim::M], vec![Dim::N, Dim::K]);
    }

    #[test]
    #[should_panic(expected = "all four")]
    fn missing_dim_panics() {
        LoopSchedule::new(vec![Dim::M], vec![Dim::N, Dim::K]);
    }
}

//! Cluster geometry (paper Fig. 7).
//!
//! A [`ClusterShape`] declares how many parallel blocks a cluster spans
//! along each chain dimension. From it the two derived quantities of
//! §IV-A follow:
//!
//! * `cls_shuffle = cls_l / cls_k` — blocks per shuffle group,
//! * `cls_reduce = (cls_n * cls_k) / cls_l` — shuffle groups per reduce.

use flashfuser_graph::Dim;
use std::error::Error;
use std::fmt;

/// Maximum thread blocks per cluster on Hopper (H100).
pub const H100_MAX_CLUSTER: usize = 16;

/// Cluster-dimension values the paper's search considers (§IV-C2).
pub const CLUSTER_DIM_CHOICES: [usize; 5] = [1, 2, 4, 8, 16];

/// Error explaining why a cluster shape is illegal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// A dimension is not one of [`CLUSTER_DIM_CHOICES`].
    BadDimValue {
        /// The offending dimension.
        dim: Dim,
        /// The value supplied.
        value: usize,
    },
    /// `cls_m * cls_n * cls_k` exceeds the hardware cluster limit.
    TooManyBlocks {
        /// Product of the block-forming dimensions.
        blocks: usize,
        /// Hardware limit.
        limit: usize,
    },
    /// `cls_l` is not divisible by `cls_k`, so shuffle groups would be
    /// fractional.
    ShuffleIndivisible {
        /// Supplied `cls_l`.
        cls_l: usize,
        /// Supplied `cls_k`.
        cls_k: usize,
    },
    /// `cls_n * cls_k` is not divisible by `cls_l`, so the reduce grouping
    /// would be fractional.
    ReduceIndivisible {
        /// `cls_n * cls_k`.
        nk: usize,
        /// Supplied `cls_l`.
        cls_l: usize,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::BadDimValue { dim, value } => {
                write!(f, "cluster dim {dim} = {value} not in {{1,2,4,8,16}}")
            }
            GeometryError::TooManyBlocks { blocks, limit } => {
                write!(
                    f,
                    "cluster needs {blocks} blocks, hardware limit is {limit}"
                )
            }
            GeometryError::ShuffleIndivisible { cls_l, cls_k } => {
                write!(f, "cls_l {cls_l} not divisible by cls_k {cls_k}")
            }
            GeometryError::ReduceIndivisible { nk, cls_l } => {
                write!(f, "cls_n*cls_k {nk} not divisible by cls_l {cls_l}")
            }
        }
    }
}

impl Error for GeometryError {}

/// A legal cluster partition `(cls_m, cls_n, cls_k, cls_l)`.
///
/// The physical cluster contains `cls_m * cls_n * cls_k` blocks; the same
/// blocks are re-grouped along L for the second GEMM via the shuffle /
/// reduce decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterShape {
    m: usize,
    n: usize,
    k: usize,
    l: usize,
}

impl ClusterShape {
    /// Validates and creates a cluster shape against the H100 limit.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] when a value is not a permitted power of
    /// two, the block count exceeds [`H100_MAX_CLUSTER`], or the shuffle /
    /// reduce groupings are fractional.
    pub fn new(m: usize, n: usize, k: usize, l: usize) -> Result<Self, GeometryError> {
        Self::with_limit(m, n, k, l, H100_MAX_CLUSTER)
    }

    /// Like [`ClusterShape::new`] with an explicit hardware block limit.
    fn with_limit(
        m: usize,
        n: usize,
        k: usize,
        l: usize,
        limit: usize,
    ) -> Result<Self, GeometryError> {
        for (dim, value) in [(Dim::M, m), (Dim::N, n), (Dim::K, k), (Dim::L, l)] {
            if !CLUSTER_DIM_CHOICES.contains(&value) {
                return Err(GeometryError::BadDimValue { dim, value });
            }
        }
        let blocks = m * n * k;
        if blocks > limit {
            return Err(GeometryError::TooManyBlocks { blocks, limit });
        }
        if !l.is_multiple_of(k) {
            return Err(GeometryError::ShuffleIndivisible { cls_l: l, cls_k: k });
        }
        if !(n * k).is_multiple_of(l) {
            return Err(GeometryError::ReduceIndivisible {
                nk: n * k,
                cls_l: l,
            });
        }
        Ok(Self { m, n, k, l })
    }

    /// The trivial single-block "cluster" (no DSM communication).
    pub fn single_block() -> Self {
        Self {
            m: 1,
            n: 1,
            k: 1,
            l: 1,
        }
    }

    /// Cluster extent along `dim`.
    pub fn size(&self, dim: Dim) -> usize {
        match dim {
            Dim::M => self.m,
            Dim::N => self.n,
            Dim::K => self.k,
            Dim::L => self.l,
        }
    }

    /// `cls_m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `cls_n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `cls_k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `cls_l`.
    pub fn l(&self) -> usize {
        self.l
    }

    /// Thread blocks in the physical cluster: `cls_m * cls_n * cls_k`.
    pub fn blocks(&self) -> usize {
        self.m * self.n * self.k
    }

    /// Blocks per shuffle group: `cls_l / cls_k` (§IV-A).
    pub fn cls_shuffle(&self) -> usize {
        self.l / self.k
    }

    /// Shuffle groups per reduce: `(cls_n * cls_k) / cls_l` (§IV-A).
    pub fn cls_reduce(&self) -> usize {
        (self.n * self.k) / self.l
    }

    /// Enumerates every legal shape under `limit` (used by the search
    /// engine; `Rule 2` of §IV-C2 is exactly this legality filter).
    pub fn enumerate(limit: usize) -> Vec<ClusterShape> {
        let mut out = vec![];
        for &m in &CLUSTER_DIM_CHOICES {
            for &n in &CLUSTER_DIM_CHOICES {
                for &k in &CLUSTER_DIM_CHOICES {
                    for &l in &CLUSTER_DIM_CHOICES {
                        if let Ok(s) = ClusterShape::with_limit(m, n, k, l, limit) {
                            out.push(s);
                        }
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for ClusterShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cls(m={},n={},k={},l={})",
            self.m, self.n, self.k, self.l
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_geometry() {
        // (2, 4, 2, 4): cls_shuffle = 4/2 = 2, cls_reduce = 2*4/4 = 2.
        let s = ClusterShape::new(2, 4, 2, 4).unwrap();
        assert_eq!(s.blocks(), 16);
        assert_eq!(s.cls_shuffle(), 2);
        assert_eq!(s.cls_reduce(), 2);
    }

    #[test]
    fn fig7b_geometry() {
        // (2, 4, 2, 8): cls_shuffle = 4, cls_reduce = 1 — no store reduce.
        let s = ClusterShape::new(2, 4, 2, 8).unwrap();
        assert_eq!(s.cls_shuffle(), 4);
        assert_eq!(s.cls_reduce(), 1);
    }

    #[test]
    fn shuffle_times_reduce_equals_n() {
        for s in ClusterShape::enumerate(H100_MAX_CLUSTER) {
            assert_eq!(
                s.cls_shuffle() * s.cls_reduce(),
                s.n(),
                "identity broken for {s}"
            );
        }
    }

    #[test]
    fn rejects_over_limit() {
        let err = ClusterShape::new(4, 4, 2, 4).unwrap_err();
        assert!(matches!(
            err,
            GeometryError::TooManyBlocks { blocks: 32, .. }
        ));
    }

    #[test]
    fn rejects_non_power_of_two() {
        let err = ClusterShape::new(3, 1, 1, 1).unwrap_err();
        assert!(matches!(err, GeometryError::BadDimValue { value: 3, .. }));
    }

    #[test]
    fn rejects_fractional_shuffle() {
        // l=2, k=4 -> cls_shuffle would be 1/2.
        let err = ClusterShape::new(1, 2, 4, 2).unwrap_err();
        assert!(matches!(err, GeometryError::ShuffleIndivisible { .. }));
    }

    #[test]
    fn rejects_fractional_reduce() {
        // n*k = 2, l = 4 -> cls_reduce would be 1/2.
        let err = ClusterShape::new(1, 2, 1, 4).unwrap_err();
        assert!(matches!(err, GeometryError::ReduceIndivisible { .. }));
    }

    #[test]
    fn single_block_has_no_dsm() {
        let s = ClusterShape::single_block();
        assert_eq!(s.blocks(), 1);
    }

    #[test]
    fn enumerate_respects_limit() {
        let all16 = ClusterShape::enumerate(16);
        assert!(all16.iter().all(|s| s.blocks() <= 16));
        let all8 = ClusterShape::enumerate(8);
        assert!(all8.iter().all(|s| s.blocks() <= 8));
        assert!(all8.len() < all16.len());
        // The identity shape is always present.
        assert!(all16.contains(&ClusterShape::single_block()));
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ClusterShape::new(4, 4, 4, 4).unwrap_err();
        assert!(e.to_string().contains("64"));
    }
}

//! Byte-volume and step-count models for the `dsm_comm` primitives.
//!
//! These closed forms are what the dataflow analyzer charges to the DSM
//! tier (§IV-B, "we calculate the DSM traffic ... based on the cluster
//! size and data footprint"). The models follow the DSMEM execution
//! style: remote tiles are *read directly from peer SMEM*, so an
//! exchange among `g` blocks costs `g * (g-1)` tile transfers over the
//! NoC and `g - 1` dependent steps.

/// Traffic produced by one primitive invocation (or one aggregated
/// phase): bytes over the SM-to-SM NoC, the number of *dependent*
/// (serialised) steps, which the timing model multiplies by the NoC hop
/// latency, and the tile messages behind them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommVolume {
    /// Bytes moved over the DSM (SM-to-SM) interconnect.
    pub dsm_bytes: u64,
    /// Serialised communication steps (latency-bound chain length).
    pub steps: u64,
    /// Individual tile messages (for per-message overhead accounting).
    pub messages: u64,
}

impl CommVolume {
    /// Component-wise sum.
    pub fn merge(self, other: CommVolume) -> CommVolume {
        CommVolume {
            dsm_bytes: self.dsm_bytes + other.dsm_bytes,
            steps: self.steps + other.steps,
            messages: self.messages + other.messages,
        }
    }

    /// Scales every field by `factor` (repeating an invocation `factor`
    /// times, e.g. once per temporal iteration).
    pub fn scaled(self, factor: u64) -> CommVolume {
        CommVolume {
            dsm_bytes: self.dsm_bytes * factor,
            steps: self.steps * factor,
            messages: self.messages * factor,
        }
    }
}

/// Volume of one `dsm_all_exchange` among `group` blocks, each holding a
/// partial tile of `tile_bytes`: every block reads the `group - 1` peer
/// partials and combines locally.
pub fn all_exchange_volume(group: usize, tile_bytes: u64) -> CommVolume {
    if group <= 1 {
        return CommVolume::default();
    }
    let g = group as u64;
    CommVolume {
        dsm_bytes: g * (g - 1) * tile_bytes,
        steps: g - 1,
        messages: g * (g - 1),
    }
}

/// Volume of one `dsm_shuffle` rotation among `group` blocks: a ring of
/// `group - 1` steps after which every block has seen every peer tile.
pub fn shuffle_volume(group: usize, tile_bytes: u64) -> CommVolume {
    if group <= 1 {
        return CommVolume::default();
    }
    let g = group as u64;
    CommVolume {
        dsm_bytes: g * (g - 1) * tile_bytes,
        steps: g - 1,
        messages: g * (g - 1),
    }
}

/// Volume of one `dsm_reduce_scatter` among `group` shuffle groups over a
/// partial-output tile of `tile_bytes`: each participant contributes its
/// `1/group` scatter slice to every peer slice owner — the classic
/// `(g-1)/g`-per-participant reduce-scatter, `(g-1) * tile_bytes` total.
pub fn reduce_scatter_volume(group: usize, tile_bytes: u64) -> CommVolume {
    if group <= 1 {
        return CommVolume::default();
    }
    let g = group as u64;
    CommVolume {
        dsm_bytes: (g - 1) * tile_bytes,
        steps: g - 1,
        messages: g * (g - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ClusterShape;

    #[test]
    fn singleton_groups_are_free() {
        assert_eq!(all_exchange_volume(1, 1024), CommVolume::default());
        assert_eq!(shuffle_volume(1, 1024), CommVolume::default());
        assert_eq!(reduce_scatter_volume(1, 1024), CommVolume::default());
    }

    #[test]
    fn all_exchange_quadratic_in_group() {
        let v2 = all_exchange_volume(2, 100);
        let v4 = all_exchange_volume(4, 100);
        assert_eq!(v2.dsm_bytes, 2 * 100);
        assert_eq!(v4.dsm_bytes, 4 * 3 * 100);
        assert_eq!(v4.steps, 3);
    }

    #[test]
    fn reduce_scatter_is_linear() {
        let v = reduce_scatter_volume(4, 1000);
        assert_eq!(v.dsm_bytes, 3000);
        assert_eq!(v.steps, 3);
        // Reduce-scatter moves ~g× less than an all-exchange of equal tile.
        assert!(v.dsm_bytes < all_exchange_volume(4, 1000).dsm_bytes);
    }

    #[test]
    fn fig7_tradeoff_shuffle_vs_reduce() {
        // Paper Fig. 7: growing cls_l enlarges shuffle groups (more
        // shuffle traffic) but shrinks the reduce (fewer scatter ops).
        let a = ClusterShape::new(2, 4, 2, 4).unwrap(); // shuffle=2, reduce=2
        let b = ClusterShape::new(2, 4, 2, 8).unwrap(); // shuffle=4, reduce=1
        let tile = 1 << 15;
        let shuf_a = shuffle_volume(a.cls_shuffle(), tile);
        let shuf_b = shuffle_volume(b.cls_shuffle(), tile);
        assert!(shuf_b.dsm_bytes > shuf_a.dsm_bytes);
        let red_a = reduce_scatter_volume(a.cls_reduce(), tile);
        let red_b = reduce_scatter_volume(b.cls_reduce(), tile);
        assert_eq!(red_b.dsm_bytes, 0);
        assert!(red_a.dsm_bytes > 0);
    }

    #[test]
    fn merge_and_scale() {
        let a = all_exchange_volume(2, 10);
        let b = shuffle_volume(2, 10);
        let m = a.merge(b);
        assert_eq!(m.dsm_bytes, a.dsm_bytes + b.dsm_bytes);
        assert_eq!(m.scaled(3).dsm_bytes, 3 * m.dsm_bytes);
        assert_eq!(m.scaled(3).steps, 3 * m.steps);
    }
}

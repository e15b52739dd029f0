//! Search-space accounting (paper §IV-C2, Table III).
//!
//! The *initial* space is the raw product of §IV-C2's estimate:
//! `41 schedules x 5^4 cluster configurations x Π_d (S_d / 16) raw tile
//! choices`. For GPT-6.7B (`M=256, N=16384, K=L=4096`) this is
//! `41 x 625 x 16 x 1024 x 256 x 256 ≈ 2.75 x 10^13`.

use crate::comm::geometry::CLUSTER_DIM_CHOICES;
use crate::tiling::{count_hardware_aware_tiles, raw_tile_choices};
use flashfuser_graph::ChainDims;

/// Number of loop schedules (Table IV).
pub const NUM_SCHEDULES: u64 = 41;

/// Number of raw cluster configurations (`5^4`, before Rule 2).
pub const NUM_RAW_CLUSTERS: u64 = (CLUSTER_DIM_CHOICES.len()
    * CLUSTER_DIM_CHOICES.len()
    * CLUSTER_DIM_CHOICES.len()
    * CLUSTER_DIM_CHOICES.len()) as u64;

/// The initial (un-pruned) candidate count for a problem size, as an
/// `f64` because it overflows nothing but is only ever reported, never
/// iterated.
pub fn initial_space_size(dims: ChainDims) -> f64 {
    let tiles: f64 = [dims.m, dims.n, dims.k, dims.l]
        .iter()
        .map(|&s| raw_tile_choices(s) as f64)
        .product();
    NUM_SCHEDULES as f64 * NUM_RAW_CLUSTERS as f64 * tiles
}

/// Candidate count after Rule 1 (divisible, hardware-aware tiles):
/// `41 x 5^4 x Π_d |divisors of S_d that are multiples of 16|`.
pub fn space_after_rule1(dims: ChainDims) -> u64 {
    let tiles: u64 = [dims.m, dims.n, dims.k, dims.l]
        .iter()
        .map(|&s| count_hardware_aware_tiles(s))
        .product();
    NUM_SCHEDULES * NUM_RAW_CLUSTERS * tiles
}

/// Number of divisible tile combinations alone (used by several counts).
pub fn tile_combinations(dims: ChainDims) -> u64 {
    [dims.m, dims.n, dims.k, dims.l]
        .iter()
        .map(|&s| count_hardware_aware_tiles(s))
        .product()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpt6_7b_initial_space_matches_paper() {
        // §IV-C2: 41 x 5^4 x (256/16) x (16384/16) x (4096/16) x (4096/16)
        // ≈ 2.75e13.
        let dims = ChainDims::new(256, 16384, 4096, 4096);
        let size = initial_space_size(dims);
        assert!((2.7e13..2.8e13).contains(&size), "got {size:e}");
    }

    #[test]
    fn gpt6_7b_rule1_space_matches_paper() {
        // Table III row "+ Rule 1": ≈ 1.14e8.
        let dims = ChainDims::new(256, 16384, 4096, 4096);
        let size = space_after_rule1(dims) as f64;
        assert!((1.1e8..1.2e8).contains(&size), "got {size:e}");
        // Exactly: 41 * 625 * 5 * 11 * 9 * 9.
        assert_eq!(space_after_rule1(dims), 41 * 625 * 5 * 11 * 9 * 9);
    }

    #[test]
    fn raw_cluster_count_is_625() {
        assert_eq!(NUM_RAW_CLUSTERS, 625);
    }

    #[test]
    fn rule1_never_exceeds_initial() {
        for (m, n, k, l) in [
            (128, 512, 32, 256),
            (128, 16384, 4096, 4096),
            (3136, 256, 64, 64),
        ] {
            let dims = ChainDims::new(m, n, k, l);
            assert!((space_after_rule1(dims) as f64) <= initial_space_size(dims));
        }
    }
}

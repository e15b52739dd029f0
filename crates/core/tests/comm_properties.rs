//! Property-based tests of the dsm_comm layer's invariants.
//!
//! Sampling is driven by the workspace's own deterministic
//! [`SplitMix64`] stream instead of an external property-testing crate,
//! so the suite builds offline; every case is reproducible bit-for-bit.

use flashfuser_core::comm::geometry::CLUSTER_DIM_CHOICES;
use flashfuser_core::comm::volume::{all_exchange_volume, reduce_scatter_volume, shuffle_volume};
use flashfuser_core::comm::ClusterShape;
use flashfuser_tensor::rng::SplitMix64;

#[test]
fn legal_shapes_satisfy_the_paper_identities() {
    // The domain is tiny (5^4 shapes) — cover it exhaustively.
    for m in CLUSTER_DIM_CHOICES {
        for n in CLUSTER_DIM_CHOICES {
            for k in CLUSTER_DIM_CHOICES {
                for l in CLUSTER_DIM_CHOICES {
                    if let Ok(s) = ClusterShape::new(m, n, k, l) {
                        // §IV-A derivations.
                        assert_eq!(s.cls_shuffle(), l / k);
                        assert_eq!(s.cls_reduce(), n * k / l);
                        assert_eq!(s.cls_shuffle() * s.cls_reduce(), n);
                        assert!(s.blocks() <= 16);
                        // Every block maps to exactly one output column and
                        // one reduce slot: cls_l x cls_reduce == blocks per
                        // m-row.
                        assert_eq!(s.l() * s.cls_reduce(), s.n() * s.k());
                    }
                }
            }
        }
    }
}

#[test]
fn volumes_scale_linearly_in_tile_bytes() {
    let mut rng = SplitMix64::new(0xC0);
    for _ in 0..256 {
        let g = 2 + rng.next_index(15);
        let bytes = 1 + rng.next_u64() % 1_000_000;
        for f in [all_exchange_volume, shuffle_volume, reduce_scatter_volume] {
            let v1 = f(g, bytes);
            let v2 = f(g, 2 * bytes);
            assert_eq!(2 * v1.dsm_bytes, v2.dsm_bytes, "g={g} bytes={bytes}");
            assert_eq!(v1.steps, v2.steps);
            assert_eq!(v1.messages, v2.messages);
        }
    }
}

#[test]
fn reduce_scatter_never_exceeds_all_exchange() {
    let mut rng = SplitMix64::new(0xC1);
    for _ in 0..256 {
        let g = 2 + rng.next_index(15);
        let bytes = 1 + rng.next_u64() % 1_000_000;
        assert!(
            reduce_scatter_volume(g, bytes).dsm_bytes <= all_exchange_volume(g, bytes).dsm_bytes,
            "g={g} bytes={bytes}"
        );
    }
}

//! Roofline analysis (Fig. 16(a)).
//!
//! For each large model and token count, the FFN's arithmetic intensity
//! (FLOP per global byte of the fused execution) is compared against the
//! machine balance; attainable performance is
//! `min(peak, intensity x peak-HBM-bandwidth)`. The paper uses this to
//! show that the large-model / large-batch regime is compute-bound and
//! therefore offers little fusion headroom.

use flashfuser_core::MachineDescriptor;
use flashfuser_workloads::ModelSpec;

/// One roofline point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Arithmetic intensity, FLOP/byte.
    pub intensity: f64,
    /// Attainable performance, TFLOP/s.
    pub attainable_tflops: f64,
    /// `true` when the point sits on the compute roof.
    pub compute_bound: bool,
}

/// Computes the roofline point of a model's FFN at `m` tokens.
pub fn roofline_point(model: &ModelSpec, m: usize, params: &MachineDescriptor) -> RooflinePoint {
    let chain = model.ffn_chain(m);
    let intensity = chain.fused_arithmetic_intensity();
    let bw_roof = intensity * params.hbm_peak_bw();
    let attainable = bw_roof.min(params.peak_flops());
    RooflinePoint {
        intensity,
        attainable_tflops: attainable / 1e12,
        compute_bound: bw_roof >= params.peak_flops(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashfuser_workloads::large_model_zoo;

    #[test]
    fn intensity_grows_with_tokens() {
        let p = MachineDescriptor::h100_sxm();
        let model = &large_model_zoo()[0];
        let points: Vec<_> = [256, 512, 1024, 4096]
            .iter()
            .map(|&m| roofline_point(model, m, &p))
            .collect();
        for w in points.windows(2) {
            assert!(w[1].intensity > w[0].intensity);
        }
    }

    #[test]
    fn large_batch_is_compute_bound() {
        // Fig. 16(a): the large-model serving points are mostly
        // compute-bound — crossing the ridge somewhere below m = 1k.
        let p = MachineDescriptor::h100_sxm();
        let model = &large_model_zoo()[0];
        assert!(!roofline_point(model, 128, &p).compute_bound);
        let big = roofline_point(model, 2048, &p);
        assert!(big.compute_bound, "{big:?}");
        assert!((big.attainable_tflops - p.peak_flops() / 1e12).abs() < 1e-9);
    }
}

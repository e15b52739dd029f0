//! The numeric oracle on every machine of the `ext_machine` sweep: each
//! mutated descriptor (cluster limit, DSM bandwidth, SMEM capacity) and
//! each whole target compiles a plan that executes correctly under the
//! blocked kernel and never loses to the unfused bar. The ledger records
//! what these machines compile to; this test checks that the plans are
//! right.

use flashfuser::prelude::*;
use flashfuser::DEFAULT_TOLERANCE;
use flashfuser_bench::machine_sweep;

#[test]
fn every_swept_machine_compiles_a_plan_the_oracle_accepts() {
    // Smaller than the ledger's 128x2048x512x512 probe so the oracle's
    // f32 GEMMs stay cheap in a debug build (~2 s for all 16 machines,
    // against ~23 s at 128x1024x256x256), yet every machine still takes
    // the fused path and the H100 spreads it over a multi-block cluster.
    let probe = ChainSpec::standard_ffn(32, 512, 128, 128, Activation::Relu);
    let graph = probe.to_op_graph();
    let sweep = machine_sweep();
    assert_eq!(sweep.len(), 16);
    for machine in sweep {
        let name = machine.name.clone();
        let compiler = Compiler::new(machine);
        if let Err(e) = compiler.compile(&probe) {
            panic!("{name}: no fused plan: {e}");
        }
        let v = validate_graph_with(
            &compiler,
            &graph,
            7,
            DEFAULT_TOLERANCE,
            NumericConfig::blocked(),
        )
        .unwrap_or_else(|e| panic!("{name}: validation errored: {e}"));
        assert!(v.passed(), "{name}: {:?}", v.failures().collect::<Vec<_>>());
        assert!(
            v.plan.speedup() >= 1.0,
            "{name}: speedup {}",
            v.plan.speedup()
        );
        if name == "h100/dsm_bw x1" {
            let fused = v.plan.fused_segments().next().expect("the probe fuses");
            let blocks = fused.compiled.plan.cluster.blocks();
            assert!(
                blocks > 1,
                "{name}: a {blocks}-block cluster exchanges nothing"
            );
            assert!(
                v.segments.iter().any(|s| s.executed_dsm > 0),
                "{name}: no DSM bytes moved"
            );
        }
    }
}

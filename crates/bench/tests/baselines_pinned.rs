//! Pins every baseline result and every profiled finalist bit for bit.
//! `REPRO.json` prints these values at two decimals, so a drift in the
//! last bits of a time would pass the ledger; these digests would not.

use flashfuser::core::{decode_machine, PlanProfiler};
use flashfuser::default_config_for;
use flashfuser::prelude::*;
use flashfuser::workloads::{all_workloads, conv_chains, gated_ffn_chains, gemm_chains};
use flashfuser_bench::baselines::{BaselineResult, System, SUITE};
use flashfuser_graph::StableHasher;

/// Every result the reproduction prices: the Fig. 10 suite on all 26
/// workloads, Fig. 14's two extra systems on the gated chains, Fig. 15's
/// four bars on the conv and GEMM chains, and the A100 extension.
fn results() -> Vec<(&'static str, &'static str, BaselineResult)> {
    let h100 = MachineDescriptor::h100_sxm();
    let mut out = vec![];
    for w in all_workloads() {
        for s in SUITE {
            let r = s.run(&w.chain, &h100);
            out.push((w.id, r.name, r));
        }
    }
    let extra = [
        ("Mirage", System::Mirage),
        ("PipeThreader", System::PipeThreader),
    ];
    for w in gated_ffn_chains() {
        for (label, s) in extra {
            out.push((w.id, label, s.run(&w.chain, &h100)));
        }
    }
    let bars = [
        ("No Fusion", System::PyTorch),
        ("DA", System::Da),
        ("DC+DA", System::DcDa),
        ("All", System::FlashFuser),
    ];
    for w in conv_chains().into_iter().chain(gemm_chains()) {
        for (label, s) in bars {
            out.push((w.id, label, s.run(&w.chain, &h100)));
        }
    }
    let a100 = MachineDescriptor::a100_sxm();
    let a100_systems = [
        ("a100 PyTorch", System::PyTorch),
        ("a100 FlashFuser", System::FlashFuser),
    ];
    for w in all_workloads() {
        if !["G5", "G8", "S3"].contains(&w.id) {
            continue;
        }
        for (label, s) in a100_systems {
            out.push((w.id, label, s.run(&w.chain, &a100)));
        }
    }
    out
}

#[test]
fn every_baseline_result_is_pinned() {
    let results = results();
    let mut h = StableHasher::new();
    for (id, label, r) in &results {
        h.write_str(id);
        h.write_str(label);
        h.write_f64_bits(r.seconds);
        h.write_u64(r.global_bytes);
        h.write_u8(u8::from(r.fused));
    }
    assert_eq!(results.len(), 302);
    assert_eq!(
        h.finish(),
        0x67f1_c266_0b4d_f29a,
        "got {:#018x}",
        h.finish()
    );
}

/// Fig. 12 reads every finalist, not only the winner: pins the cost
/// model's estimate and the profiler's measurement of each top-K plan
/// of every workload on the H100, the A100 and the Tensix-like mesh.
#[test]
fn every_finalist_profile_is_pinned() {
    let machines = [
        MachineDescriptor::h100_sxm(),
        MachineDescriptor::a100_sxm(),
        decode_machine(include_str!("../../../machines/tensix_like.json"))
            .expect("machines/tensix_like.json decodes"),
    ];
    let mut h = StableHasher::new();
    let mut finalists = 0;
    for machine in &machines {
        for w in all_workloads() {
            let Ok(result) =
                SearchEngine::new(machine.clone()).search(&w.chain, &default_config_for(machine))
            else {
                continue;
            };
            let mut profiler = SimProfiler::new(machine.clone());
            for ranked in result.top_k() {
                let measured = profiler.profile(ranked.analysis.plan());
                h.write_f64_bits(ranked.est_seconds);
                h.write_f64_bits(measured.seconds);
                h.write_u64(measured.global_bytes);
                h.write_u64(measured.dsm_bytes);
                finalists += 1;
            }
        }
    }
    assert_eq!(finalists, 858);
    assert_eq!(
        h.finish(),
        0x83a2_aee5_d419_7899,
        "got {:#018x}",
        h.finish()
    );
}

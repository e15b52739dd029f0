//! Machine-as-data regression (ISSUE 7 acceptance): a built-in
//! descriptor serialised to JSON and decoded back compiles to
//! **bit-identical** plans with **identical** [`PlanKey`] fingerprints
//! — on the paper's G1–G5 GEMM chains and the model-zoo FFN shapes,
//! for both registry machines. Compilation is a pure function of
//! `(graph, machine, config)`; the wire format must not perturb any of
//! its inputs.

use flashfuser::prelude::*;
use flashfuser_core::{decode_machine, encode_machine, MachineDescriptor};
use flashfuser_workloads::{gemm_chains, model_zoo};

fn round_tripped(machine: &MachineDescriptor) -> MachineDescriptor {
    decode_machine(&encode_machine(machine)).expect("canonical encoding decodes")
}

/// G1–G5 plus one FFN chain per zoo model, at a small token count so
/// the whole matrix stays fast.
fn probe_chains() -> Vec<ChainSpec> {
    let mut chains: Vec<ChainSpec> = gemm_chains()
        .into_iter()
        .filter(|w| ["G1", "G2", "G3", "G4", "G5"].contains(&w.id))
        .map(|w| w.chain)
        .collect();
    assert_eq!(chains.len(), 5, "G1..G5 present");
    for model in model_zoo() {
        chains.push(model.ffn_chain(64));
    }
    chains
}

#[test]
fn round_tripped_builtins_compile_bit_identical_plans_with_identical_keys() {
    for id in MachineDescriptor::builtin_ids() {
        let builtin = MachineDescriptor::builtin(id).unwrap();
        let wire = round_tripped(&builtin);
        assert_eq!(wire.fingerprint(), builtin.fingerprint(), "{id}");

        let native = Compiler::new(builtin.clone());
        let decoded = Compiler::new(wire.clone());
        for chain in probe_chains() {
            // Identical PlanKeys: the wire descriptor addresses the
            // same cache entries as the in-code builtin.
            assert_eq!(
                native.key_for(&chain),
                decoded.key_for(&chain),
                "{id}: {chain}: PlanKey must not move across the wire"
            );
            // A view's once-hashed machine and config halves are the
            // ones a fresh derivation computes.
            assert_eq!(
                native.key_for(&chain),
                PlanKey::derive(&chain, &builtin, native.config()),
                "{id}: {chain}"
            );
            // And the machine axis does partition the key space.
            assert_ne!(
                native.key_for(&chain),
                native
                    .for_machine(
                        &MachineDescriptor::h100_sxm()
                            .with_name("x")
                            .with_tier(flashfuser_core::MemLevel::Dsm, |t| t.bandwidth *= 0.5)
                            .unwrap()
                    )
                    .key_for(&chain),
                "{id}: {chain}: a different machine must produce a different key"
            );

            match (native.compile(&chain), decoded.compile(&chain)) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.plan, b.plan, "{id}: {chain}: plans must be bit-identical");
                    assert_eq!(
                        a.measured_seconds.to_bits(),
                        b.measured_seconds.to_bits(),
                        "{id}: {chain}: measured seconds must be bit-identical"
                    );
                    assert_eq!(a.global_bytes, b.global_bytes, "{id}: {chain}");
                    assert_eq!(
                        a.feasible_candidates, b.feasible_candidates,
                        "{id}: {chain}"
                    );
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{id}: {chain}: same failure"),
                (a, b) => panic!("{id}: {chain}: outcomes diverged: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn per_request_machine_path_matches_a_dedicated_compiler() {
    // A for_machine view of a shared H100 compiler must produce the
    // same plan as a compiler built natively for the target — the
    // per-request path is not allowed to drift.
    let shared = Compiler::new(MachineDescriptor::h100_sxm());
    let a100 = MachineDescriptor::a100_sxm();
    let dedicated = Compiler::new(a100.clone());
    let chain = ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu);

    let view = shared.for_machine(&a100);
    assert_eq!(view.key_for(&chain), dedicated.key_for(&chain));
    let via_shared = view.compile(&chain).unwrap();
    let via_dedicated = dedicated.compile(&chain).unwrap();
    assert_eq!(via_shared.plan, via_dedicated.plan);
    assert_eq!(
        via_shared.measured_seconds.to_bits(),
        via_dedicated.measured_seconds.to_bits()
    );

    // The shared compiler cached the A100 plan under its own key: a
    // repeat request is a hit, and the H100 entry is untouched.
    let searches_before = shared.searches_run();
    let again = shared.for_machine(&a100).compile(&chain).unwrap();
    assert_eq!(
        shared.searches_run(),
        searches_before,
        "repeat must hit the cache"
    );
    assert_eq!(again.plan, via_shared.plan);
    assert_ne!(
        shared.key_for(&chain),
        view.key_for(&chain),
        "H100 and A100 keys must differ"
    );
}

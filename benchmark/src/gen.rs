//! Seeded input generation. Everything the program under test receives
//! is made here from `--seed` with the repository's `SplitMix64`; the
//! program never sees the seed itself.

use crate::wire::request_bytes;
use flashfuser::core::codec::{decode_machine, encode_chain};
use flashfuser::core::MachineDescriptor;
use flashfuser::graph::{ChainSpec, ConvChainSpec};
use flashfuser::tensor::rng::{derive_seed, SplitMix64};
use flashfuser::tensor::Activation;
use flashfuser::workloads::{conv_chains, gated_ffn_chains, gemm_chains};

/// The committed non-NVIDIA descriptor, embedded at build time so a run
/// reads nothing outside its binary.
const TENSIX_JSON: &str = include_str!("../../machines/tensix_like.json");

/// Tokens per request in every graph workload.
pub const GRAPH_M: usize = 128;

/// Whole-model graphs `serve_graph` posts: (zoo name, layers).
pub const GRAPH_MODELS: [(&str, usize); 6] = [
    ("BERT", 12),
    ("GPT-2", 12),
    ("OPT-1.3B", 24),
    ("LLaMA-1B", 22),
    ("GPT-6.7B", 32),
    ("qwen2_5-14B", 48),
];

/// One cold-compile request: a chain and the machine it targets.
#[derive(Debug, Clone)]
pub struct ChainRequest {
    pub label: String,
    pub chain: ChainSpec,
    pub machine: MachineDescriptor,
    /// Small enough to execute numerically against the reference.
    pub executable: bool,
}

/// The chains every chain workload shares, all on the default H100:
/// Tab. VII G1–G10 (the paper's GEMM chains, 5 ms to 100 ms of search),
/// gated S3 (SwiGLU, the largest FFN), conv C5 (the 3×3 im2col
/// lowering) and two scaled attention windows (small and long).
fn h100_chains() -> Vec<(String, ChainSpec, bool)> {
    let mut out: Vec<(String, ChainSpec, bool)> = gemm_chains()
        .into_iter()
        .map(|w| {
            let small = matches!(w.id, "G1" | "G2" | "G3");
            (w.id.to_string(), w.chain, small)
        })
        .collect();
    let pick = |table: Vec<flashfuser::workloads::Workload>, id: &str| {
        table
            .into_iter()
            .find(|w| w.id == id)
            .unwrap_or_else(|| panic!("workload table lost {id}"))
            .chain
    };
    out.push(("S3".into(), pick(gated_ffn_chains(), "S3"), false));
    out.push(("C5".into(), pick(conv_chains(), "C5"), false));
    out.push((
        "A512".into(),
        ChainSpec::attention(512, 512, 64, 64, true).named("A512"),
        true,
    ));
    out.push((
        "A2048".into(),
        ChainSpec::attention(2048, 2048, 128, 128, true).named("A2048"),
        false,
    ));
    out
}

/// The 16 requests of `cold_chain`: the 14 H100 chains plus G4 on the
/// tensix-like descriptor (a non-NVIDIA tier list) and on A100 (no DSM
/// pool, so the search space collapses).
pub fn cold_requests() -> Vec<ChainRequest> {
    let h100 = MachineDescriptor::h100_sxm();
    let mut out: Vec<ChainRequest> = h100_chains()
        .into_iter()
        .map(|(label, chain, executable)| ChainRequest {
            label,
            chain,
            machine: h100.clone(),
            executable,
        })
        .collect();
    let g4 = out[3].chain.clone();
    let tensix = decode_machine(TENSIX_JSON).expect("machines/tensix_like.json decodes");
    for (label, machine) in [
        ("G4@tensix", tensix),
        ("G4@a100", MachineDescriptor::a100_sxm()),
    ] {
        out.push(ChainRequest {
            label: label.into(),
            chain: g4.clone(),
            machine,
            executable: false,
        });
    }
    out
}

/// One `POST /compile` body with its prebuilt request bytes.
#[derive(Debug, Clone)]
pub struct Body {
    pub label: String,
    pub json: String,
    pub request: Vec<u8>,
}

impl Body {
    fn new(label: impl Into<String>, json: String) -> Body {
        let request = request_bytes("POST", "/compile", json.as_bytes());
        Body {
            label: label.into(),
            json,
            request,
        }
    }
}

fn chain_body(label: &str, chain: &ChainSpec) -> Body {
    Body::new(label, format!("{{\"chain\": {}}}", encode_chain(chain)))
}

/// The 14 chain bodies of the serve workloads (C5 goes as a `conv`
/// spec, so the im2col lowering is on the served path).
pub fn chain_bodies() -> Vec<Body> {
    h100_chains()
        .into_iter()
        .map(|(label, chain, _)| {
            if label == "C5" {
                let c5 = ConvChainSpec::new(64, 56, 56, 64, 256, 3, 1);
                assert_eq!(c5.to_chain().dims(), chain.dims(), "C5 row moved");
                Body::new(
                    label,
                    "{\"conv\": {\"dims\": [64, 56, 56, 64, 256, 3, 1]}}".into(),
                )
            } else {
                chain_body(&label, &chain)
            }
        })
        .collect()
}

/// The whole-model graph bodies of `serve_graph`.
pub fn graph_bodies() -> Vec<Body> {
    GRAPH_MODELS
        .iter()
        .map(|&(model, layers)| {
            Body::new(
                model,
                format!(
                    "{{\"graph\": {{\"model\": \"{model}\", \"m\": {GRAPH_M}, \"layers\": {layers}}}}}"
                ),
            )
        })
        .collect()
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_index(i + 1));
    }
}

/// The 234 `(m, n, k, l)` standard-FFN shapes `serve_mixed` draws its
/// cache misses from. None of them is one of the hit bodies.
fn novel_shapes() -> Vec<(usize, usize, usize, usize)> {
    let mut shapes = Vec::with_capacity(234);
    for m in [128, 144] {
        for n in (256..=1024).step_by(64) {
            for k in [256, 384, 512] {
                for l in [256, 384, 512] {
                    shapes.push((m, n, k, l));
                }
            }
        }
    }
    shapes
}

/// One body per novel shape, shuffled by `seed`.
pub fn novel_catalogue(seed: u64) -> Vec<Body> {
    let mut shapes = novel_shapes();
    shuffle(
        &mut shapes,
        &mut SplitMix64::new(derive_seed(seed, "novel-catalogue")),
    );
    shapes
        .into_iter()
        .map(|(m, n, k, l)| {
            let label = format!("N{m}x{n}x{k}x{l}");
            let chain = ChainSpec::standard_ffn(m, n, k, l, Activation::Relu).named(&label);
            chain_body(&label, &chain)
        })
        .collect()
}

/// The order in which connection `conn` sends `kinds` distinct bodies:
/// `cycles` shuffled permutations back to back, so every body is sent
/// equally often and no two connections share an order.
pub fn request_order(seed: u64, conn: usize, kinds: usize, cycles: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(derive_seed(seed, &format!("conn-{conn}")));
    let mut order = Vec::with_capacity(kinds * cycles);
    let mut permutation: Vec<usize> = (0..kinds).collect();
    for _ in 0..cycles {
        shuffle(&mut permutation, &mut rng);
        order.extend_from_slice(&permutation);
    }
    order
}

/// The first `len` requests connection `conn` writes, as one byte
/// stream — what the determinism tests compare.
pub fn request_stream(seed: u64, conn: usize, bodies: &[Body], len: usize) -> Vec<u8> {
    request_order(seed, conn, bodies.len(), len.div_ceil(bodies.len()))
        .into_iter()
        .take(len)
        .flat_map(|i| bodies[i].request.iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    #[test]
    fn same_seed_gives_the_identical_request_byte_stream() {
        let bodies = chain_bodies();
        assert_eq!(bodies.len(), 14);
        let a = request_stream(7, 0, &bodies, 100);
        assert_eq!(a, request_stream(7, 0, &bodies, 100));
        assert_ne!(a, request_stream(7, 1, &bodies, 100), "connections differ");
        let novel: Vec<Vec<u8>> = novel_catalogue(7).into_iter().map(|b| b.request).collect();
        let again: Vec<Vec<u8>> = novel_catalogue(7).into_iter().map(|b| b.request).collect();
        assert_eq!(novel, again);
    }

    #[test]
    fn another_seed_reorders_the_same_multiset() {
        let a = request_order(1, 0, 14, 8);
        let b = request_order(2, 0, 14, 8);
        assert_ne!(a, b);
        assert_eq!(sorted(a.clone()), sorted(b));
        // Every body equally often.
        for kind in 0..14 {
            assert_eq!(a.iter().filter(|&&k| k == kind).count(), 8);
        }
        let one: Vec<String> = novel_catalogue(1).into_iter().map(|b| b.json).collect();
        let two: Vec<String> = novel_catalogue(2).into_iter().map(|b| b.json).collect();
        assert_eq!(one.len(), 234);
        assert_ne!(one, two);
        assert_eq!(sorted(one), sorted(two));
    }

    #[test]
    fn novel_shapes_never_collide_with_the_hit_bodies() {
        let hits: Vec<_> = h100_chains()
            .into_iter()
            .map(|(_, c, _)| {
                let d = c.dims();
                (d.m, d.n, d.k, d.l)
            })
            .collect();
        let shapes = novel_shapes();
        assert_eq!(shapes.len(), 234);
        assert!(shapes.iter().all(|s| !hits.contains(s)));
        assert_eq!(
            sorted(shapes.clone())
                .windows(2)
                .filter(|w| w[0] == w[1])
                .count(),
            0
        );
    }

    #[test]
    fn cold_requests_cover_three_machines() {
        let requests = cold_requests();
        assert_eq!(requests.len(), 16);
        assert_eq!(requests[3].label, "G4");
        let machines: std::collections::BTreeSet<u64> =
            requests.iter().map(|r| r.machine.fingerprint()).collect();
        assert_eq!(machines.len(), 3);
        assert_eq!(requests.iter().filter(|r| r.executable).count(), 4);
    }
}

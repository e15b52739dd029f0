//! Numeric-backend benchmark and `BENCH_interp.json` emitter.
//!
//! Two measurements, both naive-vs-blocked ([`KernelKind`]):
//!
//! * **raw GEMM throughput** — square `matmul_with` GFLOP/s at a ladder
//!   of dims, best-of-N timing windows so a noisy neighbour on the host
//!   cannot sink a run;
//! * **full-zoo validation wall-clock** — [`flashfuser::validate_graph_with`]
//!   over every model-zoo layer graph (scaled so the `f32` oracle can
//!   execute it), stitched execution under each backend. The reference
//!   interpretation inside `validate_graph` is always the naive oracle,
//!   so the zoo speedup is diluted by design — it is reported, not
//!   gated.
//!
//! The record is written to `BENCH_interp.json`
//! (`BENCH_interp.quick.json` under `FLASHFUSER_QUICK=1`, the
//! verify-gate mode, so a verify run never clobbers the committed
//! full-run baseline).
//!
//! Gates enforced here (the process exits non-zero on violation):
//!
//! * blocked beats naive at every dim ≥ 256;
//! * blocked is ≥ 5× naive at dim 1024 (a deliberately robust floor —
//!   the committed full run shows ~10×; 5× keeps a CI box with a noisy
//!   co-tenant from flaking);
//! * every zoo layer graph validates under **both** backends.

use flashfuser::graph::OpGraph;
use flashfuser::tensor::{KernelKind, NumericConfig};
use flashfuser::workloads::{large_model_zoo, model_zoo};
use flashfuser::{Compiler, CompilerOptions, DEFAULT_TOLERANCE};
use flashfuser_bench::{env_threads, geomean, h100, quick_mode};
use flashfuser_tensor::gemm::{gemm_flops, matmul_with};
use flashfuser_tensor::rng::seeded_matrix;
use std::time::Instant;

/// The dim every gate anchors on (the ISSUE 6 acceptance point).
const GATE_DIM: usize = 1024;

struct GemmRecord {
    dim: usize,
    naive_gflops: f64,
    blocked_gflops: f64,
    speedup: f64,
    blocked_faster: bool,
}

struct ZooRecord {
    model: &'static str,
    naive_s: f64,
    blocked_s: f64,
    speedup: f64,
    passed: bool,
}

/// Best-of-N square-GEMM throughput: one warm-up run, then timed runs
/// until `budget` seconds are spent (at least three), keeping the best.
fn gemm_gflops(dim: usize, kind: KernelKind, budget: f64) -> f64 {
    let a = seeded_matrix(dim, dim, 1);
    let b = seeded_matrix(dim, dim, 2);
    let kernel = kind.kernel();
    std::hint::black_box(matmul_with(kernel, &a, &b).expect("square matmul"));
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut reps = 0;
    while spent < budget || reps < 3 {
        let t0 = Instant::now();
        std::hint::black_box(matmul_with(kernel, &a, &b).expect("square matmul"));
        let dt = t0.elapsed().as_secs_f64();
        spent += dt;
        reps += 1;
        best = best.min(dt);
    }
    gemm_flops(dim as u64, dim as u64, dim as u64) as f64 / best / 1e9
}

/// Wall-clock of one full-zoo validation sweep under `kind`, asserting
/// every graph passes. Returns (seconds, all_passed).
fn zoo_sweep(
    compiler: &Compiler,
    graphs: &[(&'static str, OpGraph)],
    kind: KernelKind,
) -> Vec<(f64, bool)> {
    let numeric = NumericConfig { kernel: kind };
    graphs
        .iter()
        .map(|(name, graph)| {
            let t0 = Instant::now();
            let v =
                flashfuser::validate_graph_with(compiler, graph, 42, DEFAULT_TOLERANCE, numeric)
                    .unwrap_or_else(|e| panic!("{name}: validation errored under {kind}: {e}"));
            (t0.elapsed().as_secs_f64(), v.passed())
        })
        .collect()
}

fn json_gemm(r: &GemmRecord) -> String {
    format!(
        concat!(
            "    {{\"dim\": {}, \"naive_gflops\": {:.2}, \"blocked_gflops\": {:.2}, ",
            "\"speedup\": {:.2}, \"blocked_faster\": {}}}"
        ),
        r.dim, r.naive_gflops, r.blocked_gflops, r.speedup, r.blocked_faster,
    )
}

fn json_zoo(r: &ZooRecord) -> String {
    format!(
        concat!(
            "    {{\"model\": \"{}\", \"naive_s\": {:.4}, \"blocked_s\": {:.4}, ",
            "\"speedup\": {:.2}, \"passed\": {}}}"
        ),
        r.model, r.naive_s, r.blocked_s, r.speedup, r.passed,
    )
}

fn main() {
    let params = h100();
    let quick = quick_mode();
    let threads = env_threads();
    let dims: &[usize] = if quick {
        &[256, GATE_DIM]
    } else {
        &[64, 256, 512, GATE_DIM, 2048]
    };
    let budget = if quick { 0.5 } else { 1.5 };

    println!("== numeric backends: naive vs packed blocked GEMM ==");
    println!(
        "best-of window {budget:.1}s per cell {}",
        if quick { "(quick mode)" } else { "" }
    );
    println!(
        "{:<8}{:>16}{:>16}{:>10}",
        "dim", "naive GF/s", "blocked GF/s", "speedup"
    );
    let mut gemm_records = Vec::new();
    for &dim in dims {
        let naive = gemm_gflops(dim, KernelKind::Naive, budget);
        let blocked = gemm_gflops(dim, KernelKind::Blocked, budget);
        let r = GemmRecord {
            dim,
            naive_gflops: naive,
            blocked_gflops: blocked,
            speedup: blocked / naive,
            blocked_faster: blocked > naive,
        };
        println!(
            "{:<8}{:>16.2}{:>16.2}{:>9.1}x",
            r.dim, r.naive_gflops, r.blocked_gflops, r.speedup
        );
        gemm_records.push(r);
    }

    // Full-zoo validation: stitched execution under each backend, the
    // reference interpretation always naive. Scaled so the oracle can
    // afford real f32 execution while the GEMMs still clear the packed
    // kernel's naive-fallback cutoff.
    let (hidden, tokens) = if quick { (128, 64) } else { (256, 128) };
    let mut options = CompilerOptions::new();
    if threads > 0 {
        let mut config = flashfuser::default_config_for(&params);
        config.threads = threads;
        options.config = Some(config);
    }
    options.batch_workers = threads;
    let compiler = Compiler::with_options(params, options).expect("no cache dir to create");
    let zoo: Vec<_> = model_zoo()
        .into_iter()
        .chain(large_model_zoo())
        .take(if quick { 2 } else { usize::MAX })
        .map(|m| (m.name, m.scaled_to(hidden).layer_graph(tokens)))
        .collect();

    println!("\n== full-zoo validate_graph wall-clock (hidden {hidden}, {tokens} tokens) ==");
    println!(
        "{:<14}{:>12}{:>12}{:>10}{:>9}",
        "model", "naive s", "blocked s", "speedup", "passed"
    );
    let naive_times = zoo_sweep(&compiler, &zoo, KernelKind::Naive);
    let blocked_times = zoo_sweep(&compiler, &zoo, KernelKind::Blocked);
    let mut zoo_records = Vec::new();
    for (((name, _), &(ns, np)), &(bs, bp)) in zoo.iter().zip(&naive_times).zip(&blocked_times) {
        let r = ZooRecord {
            model: name,
            naive_s: ns,
            blocked_s: bs,
            speedup: ns / bs,
            passed: np && bp,
        };
        println!(
            "{:<14}{:>12.4}{:>12.4}{:>9.1}x{:>9}",
            r.model, r.naive_s, r.blocked_s, r.speedup, r.passed
        );
        zoo_records.push(r);
    }
    let zoo_geomean = geomean(zoo_records.iter().map(|r| r.speedup));

    let gate = gemm_records
        .iter()
        .find(|r| r.dim == GATE_DIM)
        .expect("the gate dim is always measured");
    let kernel_faster = gemm_records
        .iter()
        .filter(|r| r.dim >= 256)
        .all(|r| r.blocked_faster)
        && gate.speedup >= 5.0;

    let gemm_body: Vec<String> = gemm_records.iter().map(json_gemm).collect();
    let zoo_body: Vec<String> = zoo_records.iter().map(json_zoo).collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"interp\",\n  \"quick\": {},\n",
            "  \"kernel_faster\": {},\n  \"speedup_at_{}\": {:.2},\n",
            "  \"gemm\": [\n{}\n  ],\n",
            "  \"zoo_geomean_speedup\": {:.2},\n  \"zoo\": [\n{}\n  ]\n}}\n"
        ),
        quick,
        kernel_faster,
        GATE_DIM,
        gate.speedup,
        gemm_body.join(",\n"),
        zoo_geomean,
        zoo_body.join(",\n")
    );
    let path = if quick {
        "BENCH_interp.quick.json"
    } else {
        "BENCH_interp.json"
    };
    std::fs::write(path, &json).expect("writing the benchmark record");
    println!("\nwrote {path}");

    // The gates. The 5x floor at dim 1024 is deliberately below the
    // ~10x the committed full run shows: a best-of window already
    // absorbs most scheduler noise, and the margin absorbs the rest.
    for r in gemm_records.iter().filter(|r| r.dim >= 256) {
        assert!(
            r.blocked_faster,
            "dim {}: blocked ({:.1} GF/s) is not faster than naive ({:.1} GF/s)",
            r.dim, r.blocked_gflops, r.naive_gflops
        );
    }
    assert!(
        gate.speedup >= 5.0,
        "dim {GATE_DIM}: blocked speedup {:.1}x is below the 5x floor",
        gate.speedup
    );
    for r in &zoo_records {
        assert!(r.passed, "{}: zoo validation diverged", r.model);
    }
    println!(
        "interp gates: OK (blocked faster at dim >= 256, >= 5x at {GATE_DIM}, zoo green; \
         measured {:.1}x at {GATE_DIM}, zoo geomean {:.2}x)",
        gate.speedup, zoo_geomean
    );
}

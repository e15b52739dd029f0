//! Interconnect sensitivity sweep and `BENCH_machine.json` emitter —
//! also the `machine-smoke` step of `scripts/verify.sh`.
//!
//! The machine model is data now ([`MachineDescriptor`]): this bench
//! sweeps descriptor mutations along three axes plus a set of whole
//! targets, recompiles the probe workload at every point, and runs the
//! numeric oracle on each compiled plan:
//!
//! 1. **cluster size** — `max_cluster` from 1 (no DSM, pre-Hopper) to
//!    16 (H100), the paper's Rule 2 sensitivity;
//! 2. **DSM bandwidth** — the cluster tier's fabric bandwidth scaled
//!    from 0.25x to 4x of the H100's 3.27 TB/s;
//! 3. **SMEM capacity** — the block tier (and its per-peer DSM window)
//!    shrunk towards pre-Hopper sizes;
//! 4. **targets** — the built-in registry (`h100_sxm`, `a100_sxm`)
//!    plus the committed SRAM-rich non-NVIDIA descriptor
//!    `machines/tensix_like.json`, decoded through `core::codec` like
//!    any user-supplied `--machine` file.
//!
//! Every point compiles the probe chain as a whole graph and validates
//! the stitched plan against the per-op reference interpreter on
//! seeded inputs ([`validate_graph_with`]) — so a descriptor mutation
//! that silently broke the analyzer/cost/search stack would fail the
//! oracle, not just move a number. Gates (non-zero exit on violation):
//!
//! * every sweep point finds a feasible fused plan (`plans_feasible`);
//! * every stitched execution matches the oracle (`oracle_passed`);
//! * every whole-graph speedup is ≥ 1 (the per-segment fallback bar).

use flashfuser::prelude::*;
use flashfuser_core::{decode_machine, MachineDescriptor, MemLevel};
use flashfuser_graph::OpKind;
use flashfuser_tensor::KernelKind;

/// One sweep point: a label pair and the descriptor to compile on.
struct Point {
    axis: &'static str,
    value: String,
    machine: MachineDescriptor,
}

/// One sweep point's outcome row.
struct Row {
    axis: &'static str,
    value: String,
    machine: String,
    fused_us: f64,
    speedup: f64,
    feasible: bool,
    oracle_ok: bool,
}

/// Loads the committed Tensix-like descriptor, tolerating both a
/// workspace-root and a crate-dir working directory.
fn tensix_like() -> MachineDescriptor {
    let candidates = [
        "machines/tensix_like.json",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../machines/tensix_like.json"
        ),
    ];
    for path in candidates {
        if let Ok(text) = std::fs::read_to_string(path) {
            return decode_machine(&text).expect("machines/tensix_like.json decodes");
        }
    }
    panic!("machines/tensix_like.json not found from {candidates:?}");
}

/// `true` when `FLASHFUSER_QUICK=1`: a reduced sweep written to
/// `BENCH_machine.quick.json` (the verify-gate mode).
fn quick_mode() -> bool {
    std::env::var("FLASHFUSER_QUICK").is_ok_and(|v| v == "1")
}

fn sweep_points(quick: bool) -> Vec<Point> {
    let h100 = MachineDescriptor::h100_sxm();
    let mut points = Vec::new();

    let clusters: &[usize] = if quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16]
    };
    for &c in clusters {
        let machine = h100
            .clone()
            .with_compute(|p| p.max_cluster = c)
            .expect("cluster limit within num_sms")
            .with_name(format!("h100/cluster<={c}"));
        points.push(Point {
            axis: "cluster",
            value: c.to_string(),
            machine,
        });
    }

    let bw_factors: &[f64] = if quick {
        &[0.5, 1.0, 2.0]
    } else {
        &[0.25, 0.5, 1.0, 2.0, 4.0]
    };
    for &f in bw_factors {
        let machine = h100
            .clone()
            .with_tier(MemLevel::Dsm, |t| t.bandwidth *= f)
            .expect("scaled DSM bandwidth stays valid")
            .with_name(format!("h100/dsm_bw x{f}"));
        points.push(Point {
            axis: "dsm_bandwidth",
            value: format!("x{f}"),
            machine,
        });
    }

    let smem_caps: &[u64] = if quick {
        &[128 * 1024, 227 * 1024]
    } else {
        &[96 * 1024, 160 * 1024, 227 * 1024]
    };
    for &cap in smem_caps {
        // The H100's DSM window mirrors SMEM; shrink both together.
        let machine = h100
            .clone()
            .with_tier(MemLevel::Smem, |t| t.capacity_bytes = cap)
            .and_then(|m| m.with_tier(MemLevel::Dsm, |t| t.capacity_bytes = cap))
            .expect("shrunk SMEM stays valid")
            .with_name(format!("h100/smem {}KiB", cap / 1024));
        points.push(Point {
            axis: "smem_capacity",
            value: format!("{}KiB", cap / 1024),
            machine,
        });
    }

    let mut targets = vec![MachineDescriptor::h100_sxm(), tensix_like()];
    if !quick {
        targets.push(MachineDescriptor::a100_sxm());
    }
    for machine in targets {
        points.push(Point {
            axis: "target",
            value: machine.name.clone(),
            machine,
        });
    }
    points
}

fn main() {
    let quick = quick_mode();
    let chain = if quick {
        ChainSpec::standard_ffn(128, 1024, 256, 256, Activation::Relu)
    } else {
        ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu)
    };
    let d = chain.dims();
    let mut graph = OpGraph::new();
    let x = graph.add_input("tokens", d.m, d.k);
    let out = graph.append_chain(&chain, x, "l1");
    graph.add_node(OpKind::Output, vec![out], "out");

    let points = sweep_points(quick);
    println!("== machine descriptor sensitivity sweep ==");
    println!(
        "probe: {chain}  points: {} {}",
        points.len(),
        if quick { "(quick mode)" } else { "" }
    );
    println!(
        "{:<16} {:<10} {:<22} {:>10} {:>9} {:>9} {:>8}",
        "axis", "value", "machine", "fused_us", "speedup", "feasible", "oracle"
    );

    let numeric = NumericConfig {
        kernel: KernelKind::Blocked,
    };
    let mut rows: Vec<Row> = Vec::with_capacity(points.len());
    for point in &points {
        let compiler = Compiler::new(point.machine.clone());
        let feasible = compiler.compile(&chain).is_ok();
        let (fused_us, speedup, oracle_ok) = match flashfuser::validate_graph_with(
            &compiler,
            &graph,
            7,
            flashfuser::DEFAULT_TOLERANCE,
            numeric,
        ) {
            Ok(v) => {
                let plan = compiler
                    .compile_graph(&graph)
                    .expect("validated graph recompiles (cache hit)");
                (plan.seconds * 1e6, plan.speedup(), v.passed())
            }
            Err(e) => {
                eprintln!("  validation error on {}: {e}", point.machine.name);
                (f64::NAN, f64::NAN, false)
            }
        };
        println!(
            "{:<16} {:<10} {:<22} {:>10.2} {:>9.2} {:>9} {:>8}",
            point.axis,
            point.value,
            point.machine.name,
            fused_us,
            speedup,
            feasible,
            if oracle_ok { "ok" } else { "FAIL" }
        );
        rows.push(Row {
            axis: point.axis,
            value: point.value.clone(),
            machine: point.machine.name.clone(),
            fused_us,
            speedup,
            feasible,
            oracle_ok,
        });
    }

    let plans_feasible = rows.iter().all(|r| r.feasible);
    let oracle_passed = rows.iter().all(|r| r.oracle_ok);
    let speedups_ok = rows.iter().all(|r| r.speedup >= 1.0);

    let mut record = String::from("{\n");
    record.push_str(&format!(
        concat!(
            "  \"bench\": \"machine\", \"quick\": {}, \"points\": {},\n",
            "  \"axes\": [\"cluster\", \"dsm_bandwidth\", \"smem_capacity\", \"target\"],\n",
            "  \"probe\": \"{}\",\n",
            "  \"plans_feasible\": {}, \"oracle_passed\": {}, \"speedups_ok\": {},\n",
            "  \"rows\": [\n",
        ),
        quick,
        rows.len(),
        chain,
        plans_feasible,
        oracle_passed,
        speedups_ok
    ));
    for (i, r) in rows.iter().enumerate() {
        record.push_str(&format!(
            "    {{\"axis\": \"{}\", \"value\": \"{}\", \"machine\": \"{}\", \"fused_us\": {:.3}, \"speedup\": {:.3}, \"feasible\": {}, \"oracle_ok\": {}}}{}\n",
            r.axis,
            r.value,
            flashfuser::core::json::escape(&r.machine),
            r.fused_us,
            r.speedup,
            r.feasible,
            r.oracle_ok,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    record.push_str("  ]\n}\n");

    let path = if quick {
        "BENCH_machine.quick.json"
    } else {
        "BENCH_machine.json"
    };
    std::fs::write(path, record).expect("write bench record");
    println!("wrote {path}");

    if !(plans_feasible && oracle_passed && speedups_ok) {
        eprintln!("bench_machine: GATE VIOLATION (see {path})");
        std::process::exit(1);
    }
}

//! One function per table or figure of the paper, and the registry
//! naming them.

use crate::baselines::{searched, BaselineResult, System, SUITE};
use crate::e2e::LayerSpeedup;
use crate::ffn_share::ffn_time_share;
use crate::microbench::{dsm_curve, primitive_bandwidth, PrimitiveKind};
use crate::roofline::roofline_point;
use crate::tile_graph::{TileClass, TileEdgeKind, TileGraph};
use crate::topology::{DsmPrimitive, Topology};
use crate::{geomean, Artefact, Rows};
use flashfuser::Compiler;
use flashfuser_core::prune::{count_cascade, PruneConfig};
use flashfuser_core::{decode_machine, LoopSchedule, MachineDescriptor, MemLevel, MemTier};
use flashfuser_core::{PlanProfiler, RankedPlan, SearchConfig, SearchEngine};
use flashfuser_graph::{ChainKind, ChainSpec};
use flashfuser_sim::SimProfiler;
use flashfuser_tensor::{Activation, BinaryOp};
use flashfuser_workloads::{all_workloads, conv_chains, find_model, gated_ffn_chains};
use flashfuser_workloads::{gemm_chains, large_model_zoo, ModelSpec, Workload};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::time::Instant;

/// Note of a row whose gap to the paper DESIGN.md explains.
const GAP: &str = "DESIGN.md: Where the reproduction differs from the paper";
/// Note of a row that agrees with the paper at the paper's precision.
const MATCH: &str = "matches the paper";

/// Every artefact, in the order `repro` prints them.
pub const ARTEFACTS: &[Artefact] = &[
    Artefact::new("tab1", "Table I: FFN time share (seq = 512)", tab1),
    Artefact::new("tab2", "Table II: framework comparison", tab2),
    Artefact::new("tab3", "Table III: pruning, GPT-6.7B M=256", tab3),
    Artefact::new("tab4", "Table IV: spatial/temporal partitions", tab4),
    Artefact::new("tab8", "Table VIII: search time (top-K=11)", tab8),
    Artefact::new("fig4", "Fig. 4: DSM bandwidth and latency", fig4),
    Artefact::new("fig5", "Fig. 5: the 227 KB SMEM cliff of Chimera", fig5),
    Artefact::new("fig8", "Fig. 8: tile graphs, cls = (1,2,2,2)", fig8),
    Artefact::new("fig10", "Fig. 10: subgraph speedup vs PyTorch", fig10),
    Artefact::new("fig11", "Fig. 11: global memory traffic", fig11),
    Artefact::new("fig12", "Fig. 12: cost model vs measurement", fig12),
    Artefact::new("fig13", "Fig. 13: dsm_comm primitive bandwidth", fig13),
    Artefact::new("fig14", "Fig. 14: vs Mirage / PipeThreader", fig14),
    Artefact::new("fig15", "Fig. 15: ablation vs No Fusion", fig15),
    Artefact::new("fig16", "Fig. 16: large LLMs (seq 256)", fig16),
    Artefact::new("fig17", "Fig. 17: E2E speedup (M = 128)", fig17),
    Artefact::new("headline", "Headline summary (26 subgraphs)", headline),
    Artefact::new("ext_a100", "Extension: H100 vs A100", ext_a100),
    Artefact::new("ext_cluster", "Extension: cluster-size limit", ext_cluster),
    Artefact::new("ext_mesh", "Extension: mesh vs crossbar", ext_mesh),
    Artefact::new("ext_machine", "Extension: machine descriptors", ext_machine),
];

/// What several artefacts read, computed at most once per run and only
/// when an artefact asks for it: the baseline suite (keys are Tables
/// V–VII workload ids) and one compiler, whose plan cache serves every
/// repeated layer shape.
#[derive(Default)]
pub(crate) struct Inputs {
    suite: OnceCell<HashMap<&'static str, [BaselineResult; SUITE.len()]>>,
    compiler: OnceCell<Compiler>,
}

impl Inputs {
    /// Every system of the Fig. 10 suite on workload `id`.
    fn suite(&self, id: &str) -> &[BaselineResult] {
        let all = self.suite.get_or_init(|| {
            let run = |w: Workload| (w.id, SUITE.map(|s| s.run(&w.chain, &h100())));
            all_workloads().into_iter().map(run).collect()
        });
        &all[id]
    }

    /// FlashFuser's speedups on one layer of `model` with `m` tokens in
    /// flight.
    fn e2e(&self, model: &ModelSpec, m: usize) -> LayerSpeedup {
        let compiler = self.compiler.get_or_init(|| Compiler::new(h100()));
        let plan = compiler.compile_graph(&model.graph(m, 1));
        LayerSpeedup::of(&plan.expect("a decoder layer compiles"))
    }
}

/// The source model of workload `w`, rebuilt around its FFN subgraph.
fn source_model(w: &Workload) -> ModelSpec {
    let d = w.chain.dims();
    ModelSpec {
        name: w.model,
        layers: 1,
        hidden: d.k,
        ffn_hidden: d.n,
        gated: w.chain.kind().is_gated(),
    }
}

/// The evaluation machine.
fn h100() -> MachineDescriptor {
    MachineDescriptor::h100_sxm()
}

/// `x` at `digits` decimals.
fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Arithmetic mean.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The result of the system called `name`.
fn system<'a>(results: &'a [BaselineResult], name: &str) -> &'a BaselineResult {
    let found = results.iter().find(|r| r.name == name);
    found.expect("system is in the suite")
}

/// The Tables V–VII workloads called `ids`, in that order.
fn pick(ids: &[&str]) -> Vec<Workload> {
    let mut all = all_workloads();
    all.retain(|w| ids.contains(&w.id));
    all.sort_by_key(|w| ids.iter().position(|id| *id == w.id));
    all
}

fn tab1(_: &Inputs, out: &mut Rows) {
    let models = ["GPT-6.7B", "LLaMA-1B", "OPT-1.3B", "BERT", "GPT-2"];
    let paper = ["61.28", "57.44", "53.08", "47.03", "41.64"];
    for (name, paper) in models.into_iter().zip(paper) {
        let model = find_model(name).expect("Table I model is in the zoo");
        let share = fixed(100.0 * ffn_time_share(&model, 512, &h100()), 2);
        out.row(format!("{name} FFN share %"), paper, share, GAP);
    }
}

fn tab2(_: &Inputs, out: &mut Rows) {
    let note = "cache hierarchy (0 = registers, 1 = SMEM, 1.5 = DSM) | strategy | GPU | fusion";
    let rows = [
        ("BOLT", "0/1 | Tuning | yes | yes"),
        ("Chimera", "1 | Analytical | yes | yes"),
        ("Welder", "0/1 | Analytical | yes | yes"),
        ("MCFuser", "1 | Analytical | yes | yes"),
        ("T10", "1/1.5 | Analytical | no | no"),
        ("WaferLLM", "1/1.5 | Handcrafted | no | no"),
        ("FlashFuser", "0/1/1.5 | Analytical | yes | yes"),
    ];
    for (framework, cells) in rows {
        out.row(framework, "", cells, note);
    }
}

fn tab3(_: &Inputs, out: &mut Rows) {
    let chain = ChainSpec::standard_ffn(256, 16384, 4096, 4096, Activation::Relu);
    let s = count_cascade(&chain, &h100(), &PruneConfig::default());
    let initial = format!("{:.3e}", s.initial);
    out.row("original space", "2.75e13", initial, MATCH);
    out.row("after Rule 1", "1.14e8", s.after_rule1.to_string(), MATCH);
    out.row("after Rule 2", "2.47e7", s.after_rule2.to_string(), GAP);
    out.row("after Rule 3", "1.44e7", s.after_rule3.to_string(), GAP);
    out.row("after Rule 4", "9.62e6", s.after_rule4.to_string(), GAP);
    let note = "not in the paper: Rule-4 survivors whose tiles fit, what the search scans";
    out.row("after geometry", "", s.after_geometry.to_string(), note);
    out.row("after Rule 5", "1.15e6", s.after_rule5.to_string(), GAP);
    let note = "paper section III: ~1e4 without clusters, ~1e6 with them";
    let reduction = fixed(s.total_reduction() * 100.0, 4);
    out.row("total reduction %", "", reduction, note);
}

fn tab4(_: &Inputs, out: &mut Rows) {
    let all = LoopSchedule::enumerate_all();
    for (n, paper) in [(1, "24"), (2, "12"), (3, "4"), (4, "1")] {
        let count = all.iter().filter(|s| s.spatial().len() == n).count();
        out.row(format!("{n} spatial dims"), paper, count.to_string(), MATCH);
    }
    out.row("all schedules", "41", all.len().to_string(), MATCH);
}

fn tab8(_: &Inputs, out: &mut Rows) {
    // Both paths use every core (brute force forks the profiler, the
    // engine shards ranking): the ratio is the algorithmic gap.
    const WALL: &str = "wall clock; the paper's profiling compiles and runs real kernels";
    let (engine, config) = (SearchEngine::new(h100()), SearchConfig::default());
    let seconds = |p: &RankedPlan| p.measured.expect("profiled").seconds;
    for w in pick(&["G3", "G4", "G5"]) {
        let t0 = Instant::now();
        let brute = engine.brute_force(&w.chain, &config, &mut SimProfiler::new(h100()));
        let t1 = Instant::now();
        let guided = searched(&w.chain, &h100(), &config);
        let (brute_s, engine_s) = ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64());
        let ((brute, count), guided) = (brute.expect("a plan"), guided.expect("a plan"));
        let same = (seconds(guided.best()) - seconds(&brute)).abs() / seconds(&brute) < 0.02;
        let (id, stats) = (w.id, guided.stats());
        let eligible = stats.eligible.to_string();
        out.here(format!("{id} brute-profiled"), count.to_string());
        out.here(format!("{id} geometry-eligible"), eligible);
        let (verdict, note) = if same { ("yes", MATCH) } else { ("no", GAP) };
        out.row(format!("{id} same plan (within 2%)"), "yes", verdict, note);
        let (paper, metric) = (
            "1.2-8.1 hr / ~380 s / 12-68x",
            "brute s / engine s / speedup",
        );
        let times = format!("{brute_s:.2} / {engine_s:.2} / {:.1}x", brute_s / engine_s);
        out.timed(format!("{id} {metric}"), paper, times, WALL);
        let (skips, planes, dropped) = (stats.prefiltered, stats.planes, stats.planes_skipped);
        let (cut, groups) = (stats.groups_skipped, stats.groups);
        let scan = format!("{skips} / {planes} / {dropped} / {cut} / {groups}");
        let metric = "skips / planes / dropped / groups cut / groups";
        out.timed(format!("{id} {metric}"), "", scan, "");
    }
}

fn fig4(_: &Inputs, out: &mut Rows) {
    let (points, global) = dsm_curve(&h100());
    let name = |cluster: usize| format!("cluster {cluster}");
    let points = points.iter().map(|p| (name(p.cluster_size), p));
    for (label, p) in points.chain([("global".to_string(), &global)]) {
        let (bw, latency) = (fixed(p.bandwidth / 1e12, 2), fixed(p.latency_cycles, 0));
        out.here(format!("{label} bandwidth TB/s"), bw);
        out.here(format!("{label} latency cycles"), latency);
    }
}

fn fig5(_: &Inputs, out: &mut Rows) {
    // The paper's five two-GEMM workloads, (name, N, K) at M = 128, L = K.
    let rows = [
        ("ViT-Base/14", 256, 64),
        ("Mixer-Small", 256, 64),
        ("Bert-Small", 512, 64),
        ("OPT1_3B", 8192, 2048),
        ("GPT6_7B", 16384, 4096),
    ];
    for (name, n, k) in rows {
        let chain = ChainSpec::standard_ffn(128, n, k, k, Activation::Relu).named(name);
        let (c, t) = (
            System::Chimera.run(&chain, &h100()),
            System::PyTorch.run(&chain, &h100()),
        );
        let (relative, kb) = (
            t.seconds / c.seconds,
            chain.dims().intermediate_bytes_f16() / 1024,
        );
        out.here(format!("{name} rel. perf (torch=1)"), fixed(relative, 2));
        out.here(format!("{name} intermediate KB"), kb.to_string());
        let status = if c.fused { "fused" } else { "FAIL" };
        out.here(format!("{name} status"), status);
    }
}

fn fig8(_: &Inputs, out: &mut Rows) {
    let (relu, silu) = (Activation::Relu, Activation::Silu);
    let standard = ChainKind::StandardFfn { activation: relu };
    let gated = ChainKind::GatedFfn { activation: silu };
    let edges = [
        TileEdgeKind::Matmul,
        TileEdgeKind::AllExchange(BinaryOp::Add),
        TileEdgeKind::AllExchange(BinaryOp::Mul),
        TileEdgeKind::Shuffle,
        TileEdgeKind::ReduceScatter,
        TileEdgeKind::Epilogue,
    ];
    for (label, kind) in [("(a) standard", standard), ("(b) gated", gated)] {
        let g = TileGraph::expand(kind, 1, 2, 2, 2);
        for class in TileClass::ALL {
            let count = g.count_nodes(class);
            out.here(format!("{label} {class:?} nodes"), count.to_string());
        }
        for edge in edges {
            let count = g.count_edges(|e| e == edge);
            out.here(format!("{label} {edge:?} edges"), count.to_string());
        }
    }
}

fn fig10(inputs: &Inputs, out: &mut Rows) {
    let tables = [
        ("GEMM", gemm_chains()),
        ("conv", conv_chains()),
        ("gated", gated_ffn_chains()),
    ];
    for (group, table) in tables {
        let names: Vec<&str> = inputs.suite(table[0].id).iter().map(|r| r.name).collect();
        let mut per_system = vec![vec![]; names.len()];
        for w in &table {
            let results = inputs.suite(w.id);
            let torch = system(results, "PyTorch").seconds;
            for (r, speedups) in results.iter().zip(&mut per_system) {
                speedups.push(torch / r.seconds);
                out.here(format!("{} {}", w.id, r.name), fixed(torch / r.seconds, 2));
            }
        }
        for (name, speedups) in names.into_iter().zip(per_system) {
            let geo = fixed(geomean(speedups), 2);
            out.here(format!("{group} geomean {name}"), geo);
        }
    }
}

fn fig11(inputs: &Inputs, out: &mut Rows) {
    let mut ratios = vec![];
    for w in gemm_chains().into_iter().chain(conv_chains()) {
        let results = inputs.suite(w.id);
        let t = system(results, "PyTorch").global_bytes as f64;
        let f = system(results, "FlashFuser").global_bytes as f64;
        ratios.push(t / f);
        out.here(format!("{} torch MB", w.id), fixed(t / 1e6, 2));
        out.here(format!("{} ff MB", w.id), fixed(f / 1e6, 2));
        out.here(format!("{} ratio", w.id), fixed(t / f, 2));
    }
    out.row("geomean ratio", "2.4", fixed(geomean(ratios), 2), GAP);
}

fn fig12(_: &Inputs, out: &mut Rows) {
    let engine = SearchEngine::new(h100());
    let config = SearchConfig {
        top_k: 15,
        ..SearchConfig::default()
    };
    // accuracy(K) = best-within-top-K relative to best-within-top-15.
    let mut accuracy: Vec<Vec<f64>> = vec![];
    for w in conv_chains().into_iter().chain(gemm_chains()) {
        let Ok(result) = engine.search(&w.chain, &config) else {
            continue;
        };
        // Measured seconds of the cost model's top-15, in estimated-rank order.
        let mut profiler = SimProfiler::new(h100());
        let measure = |p: &RankedPlan| profiler.profile(p.analysis.plan()).seconds;
        let times: Vec<f64> = result.top_k().iter().map(measure).collect();
        let top = |k: usize| times[..k.min(times.len())].iter().copied();
        let best_of = |k: usize| top(k).fold(f64::INFINITY, f64::min);
        accuracy.push((1..=15).map(|k| best_of(15) / best_of(k)).collect());
        if !["C3", "C4", "G4"].contains(&w.id) {
            continue;
        }
        let flops = w.chain.total_flops() as f64;
        for (i, t) in times.iter().enumerate() {
            out.here(
                format!("{} rank {i} TFLOPS", w.id),
                fixed(flops / t / 1e12, 0),
            );
        }
        let best = (0..times.len()).min_by(|&a, &b| times[a].total_cmp(&times[b]));
        out.here(
            format!("{} measured best rank", w.id),
            best.unwrap_or(0).to_string(),
        );
    }
    let mut full_at = "-".to_string();
    for k in 1..=15 {
        let at_k: Vec<f64> = accuracy.iter().map(|a| a[k - 1]).collect();
        let accuracy = fixed(100.0 * mean(&at_k), 2);
        if accuracy == "100.00" && full_at == "-" {
            full_at = k.to_string();
        }
        out.here(format!("top-{k} accuracy %"), accuracy);
    }
    out.row("smallest K with 100% accuracy", "11", full_at, GAP);
}

fn fig13(_: &Inputs, out: &mut Rows) {
    use PrimitiveKind::{Mul, Reduce, Shuffle};
    let note = "32768^2 tensor in 128^2 tiles, 1000 iterations";
    for kind in [Shuffle, Reduce, Mul] {
        for cls in [2usize, 4, 8, 16] {
            let m = primitive_bandwidth(&h100(), kind, cls, 1000);
            let label = format!("{} cluster {cls}", kind.name());
            let (bw, use_) = (fixed(m.achieved / 1e9, 0), fixed(100.0 * m.utilization, 1));
            out.row(format!("{label} achieved GB/s"), "", bw, note);
            out.here(format!("{label} utilisation %"), use_);
        }
    }
}

fn fig14(inputs: &Inputs, out: &mut Rows) {
    let (mut vs_m, mut vs_p) = (vec![], vec![]);
    for w in gated_ffn_chains() {
        let f = system(inputs.suite(w.id), "FlashFuser").seconds;
        let m = System::Mirage.run(&w.chain, &h100()).seconds / f;
        let p = System::PipeThreader.run(&w.chain, &h100()).seconds / f;
        vs_m.push(m);
        vs_p.push(p);
        out.here(format!("{} vs Mirage", w.id), fixed(m, 2));
        out.here(format!("{} vs PipeThreader", w.id), fixed(p, 2));
    }
    out.here("geomean vs Mirage", fixed(geomean(vs_m), 2));
    out.here("geomean vs PipeThreader", fixed(geomean(vs_p), 2));
}

fn fig15(_: &Inputs, out: &mut Rows) {
    // On the H100 the unfused reference is PyTorch and the full system
    // is FlashFuser.
    let bars = [
        ("No Fusion", System::PyTorch),
        ("DA", System::Da),
        ("DC+DA", System::DcDa),
        ("All", System::FlashFuser),
    ];
    let mut per_bar = vec![vec![]; bars.len()];
    for w in conv_chains().into_iter().chain(gemm_chains()) {
        let times = bars.map(|(_, s)| s.run(&w.chain, &h100()).seconds);
        for (((label, _), t), speedups) in bars.iter().zip(times).zip(&mut per_bar) {
            speedups.push(times[0] / t);
            out.here(format!("{} {label}", w.id), fixed(times[0] / t, 2));
        }
    }
    let paper = ["1.00", "1.52", "2.11", "3.29"];
    for (((label, _), speedups), paper) in bars.iter().zip(per_bar).zip(paper) {
        let geo = fixed(geomean(speedups), 2);
        let note = if geo == paper { MATCH } else { GAP };
        out.row(format!("geomean {label}"), paper, geo, note);
    }
}

fn fig16(inputs: &Inputs, out: &mut Rows) {
    let p = h100();
    out.here("machine balance FLOP/B", fixed(p.machine_balance(), 0));
    let mut all = vec![];
    for model in large_model_zoo() {
        // Sequence 256 at batch 1, 2, 4, ..., 32.
        for m in [256usize, 512, 1024, 2048, 4096, 8192] {
            let label = format!("{} M={m}", model.name);
            let (r, e2e) = (roofline_point(&model, m, &p), inputs.e2e(&model, m));
            out.here(format!("{label} intensity"), fixed(r.intensity, 1));
            let attainable = fixed(r.attainable_tflops, 0);
            out.here(format!("{label} attainable TF"), attainable);
            let bound = if r.compute_bound { "compute" } else { "memory" };
            out.here(format!("{label} bound"), bound);
            all.push(e2e.layer);
            out.here(format!("{label} ffn speedup"), fixed(e2e.ffn, 2));
            out.here(format!("{label} E2E"), fixed(e2e.layer, 3));
        }
    }
    out.row("average E2E speedup", "1.16", fixed(mean(&all), 3), GAP);
}

fn fig17(inputs: &Inputs, out: &mut Rows) {
    let mut all = vec![];
    for w in gated_ffn_chains().into_iter().chain(gemm_chains()) {
        let r = inputs.e2e(&source_model(&w), 128);
        let label = format!("{} {}", w.id, w.model);
        all.push(r.layer);
        out.here(format!("{label} ffn speedup"), fixed(r.ffn, 2));
        out.here(format!("{label} E2E"), fixed(r.layer, 3));
    }
    let note = "paper: 1.32 on this suite, 1.24 over every model";
    out.row("average E2E speedup", "1.32", fixed(mean(&all), 3), note);
}

fn headline(inputs: &Inputs, out: &mut Rows) {
    let libraries = ["PyTorch", "TensorRT"];
    let compilers = ["Relay", "TASO", "BOLT", "Chimera", "MCFuser"];
    let (mut traffic_cut, mut vs_library, mut vs_compiler) = (vec![], vec![], vec![]);
    let mut e2e = vec![];
    for w in all_workloads() {
        let results = inputs.suite(w.id);
        let (f, torch) = (system(results, "FlashFuser"), system(results, "PyTorch"));
        traffic_cut.push(1.0 - f.global_bytes as f64 / torch.global_bytes as f64);
        let best = |set: &[&str]| {
            let times = results.iter().filter(|r| set.contains(&r.name));
            times.map(|r| r.seconds).fold(f64::INFINITY, f64::min)
        };
        vs_library.push(best(&libraries) / f.seconds);
        vs_compiler.push(best(&compilers) / f.seconds);
        e2e.push(inputs.e2e(&source_model(&w), 128).layer);
    }
    let cut = fixed(100.0 * mean(&traffic_cut), 0);
    out.row("memory-access reduction vs PyTorch %", "58", cut, GAP);
    let library = fixed(geomean(vs_library), 2);
    out.row("kernel speedup vs best library (x)", "3.3", library, GAP);
    let compiler = fixed(geomean(vs_compiler), 2);
    out.row("kernel speedup vs best compiler (x)", "4.1", compiler, GAP);
    let note = "within 0.02x of the paper";
    out.row("end-to-end speedup (x)", "1.24", fixed(mean(&e2e), 2), note);
}

fn ext_a100(inputs: &Inputs, out: &mut Rows) {
    let a100 = MachineDescriptor::a100_sxm();
    let note = "no DSM: the fused search cannot aggregate N-slices on-chip";
    for w in pick(&["G5", "G8", "S3"]) {
        let results = inputs.suite(w.id);
        let h100 = system(results, "PyTorch").seconds / system(results, "FlashFuser").seconds;
        out.here(format!("{} H100", w.id), fixed(h100, 2));
        let on_a100 = |s: System| s.run(&w.chain, &a100).seconds;
        let speedup = on_a100(System::PyTorch) / on_a100(System::FlashFuser);
        out.row(format!("{} A100", w.id), "", fixed(speedup, 2), note);
    }
}

fn ext_cluster(_: &Inputs, out: &mut Rows) {
    for w in pick(&["G5", "G8", "S3", "S8"]) {
        for limit in [1usize, 2, 4, 8, 16] {
            let mut config = SearchConfig::default();
            config.prune.max_cluster = limit;
            if limit == 1 {
                config.prune.lowest_spill = MemLevel::Smem;
            }
            let us = match searched(&w.chain, &h100(), &config) {
                Some(r) => fixed(r.best().measured.expect("profiled").seconds * 1e6, 2),
                None => "-".to_string(),
            };
            out.here(format!("{} best fused us, cls<={limit}", w.id), us);
        }
    }
}

fn ext_mesh(_: &Inputs, out: &mut Rows) {
    let ring = "ring: topology-agnostic (1.0x)";
    let direct = "direct all-to-all; hence the paper maps shuffle groups onto neighbouring cores";
    let primitives = [
        (DsmPrimitive::Shuffle, ring),
        (DsmPrimitive::ReduceScatter, ring),
        (DsmPrimitive::AllExchange(BinaryOp::Add), direct),
    ];
    for (prim, note) in primitives {
        for g in [2usize, 4, 8, 16] {
            let penalty = fixed(Topology::Mesh.penalty_vs_crossbar(prim, g), 2);
            let metric = format!("{} group {g} penalty (x)", prim.mnemonic());
            out.row(metric, "", penalty, note);
        }
    }
}

/// The committed SRAM-rich non-NVIDIA descriptor.
const TENSIX_LIKE: &str = include_str!("../../../machines/tensix_like.json");

/// The machines of `ext_machine`, each named after its point: the H100
/// with its cluster limit, its DSM bandwidth or its SMEM capacity
/// changed, then three whole targets (the H100, the committed
/// `machines/tensix_like.json`, the A100).
pub fn machine_sweep() -> Vec<MachineDescriptor> {
    let h100 = h100();
    let mut sweep = vec![];
    for c in [1usize, 2, 4, 8, 16] {
        let limited = h100.clone().with_compute(|p| p.max_cluster = c);
        let limited = limited.expect("cluster limit within num_sms");
        sweep.push(limited.with_name(format!("h100/cluster<={c}")));
    }
    for f in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let scaled = h100.clone().with_tier(MemLevel::Dsm, |t| t.bandwidth *= f);
        let scaled = scaled.expect("scaled DSM bandwidth stays valid");
        sweep.push(scaled.with_name(format!("h100/dsm_bw x{f}")));
    }
    for kib in [96u64, 160, 227] {
        // The H100's DSM window mirrors SMEM; shrink both together.
        let cap = |t: &mut MemTier| t.capacity_bytes = kib * 1024;
        let shrunk = h100.clone().with_tier(MemLevel::Smem, cap);
        let shrunk = shrunk.and_then(|m| m.with_tier(MemLevel::Dsm, cap));
        let shrunk = shrunk.expect("shrunk SMEM stays valid");
        sweep.push(shrunk.with_name(format!("h100/smem {kib}KiB")));
    }
    let tensix = decode_machine(TENSIX_LIKE).expect("machines/tensix_like.json decodes");
    sweep.extend([h100, tensix, MachineDescriptor::a100_sxm()]);
    sweep
}

fn ext_machine(_: &Inputs, out: &mut Rows) {
    let chain = ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu);
    let graph = chain.to_op_graph();
    out.here("probe", chain.to_string());
    for machine in machine_sweep() {
        let name = machine.name.clone();
        let compiler = Compiler::new(machine);
        let feasible = if compiler.compile(&chain).is_ok() {
            "yes"
        } else {
            "no"
        };
        let plan = compiler
            .compile_graph(&graph)
            .expect("the probe graph compiles");
        out.here(format!("{name} fused us"), fixed(plan.seconds * 1e6, 3));
        out.here(format!("{name} speedup"), fixed(plan.speedup(), 3));
        out.here(format!("{name} feasible"), feasible);
    }
}

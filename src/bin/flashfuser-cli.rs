//! The FlashFuser command-line driver.
//!
//! ```text
//! flashfuser-cli compile <M> <N> <K> <L> [--gated]
//! flashfuser-cli compile --conv <IC> <H> <W> <OC1> <OC2> <K1> <K2>
//! flashfuser-cli batch [--gated] [--workers N] [--repeat R] <SPEC>...
//! flashfuser-cli graph <MODEL> <M> [--layers N]
//! flashfuser-cli fuzz --seeds <N> [--ops K] [--dims D] [--kernel NAME] [--start S]
//!                     [--attention P]
//! flashfuser-cli serve [--port P] [--workers N] [--queue-depth D]
//! ```
//!
//! Every subcommand also takes `--machine SPEC`, `--cache-dir DIR` and
//! `--dry-run`; a flag outside a subcommand's own list is a usage error
//! (exit 2), never silently ignored.
//!
//! `compile` runs the full pipeline for one chain and prints the
//! selected plan, its simulated time and the comparison against the
//! unfused execution. With `--cache-dir` the search result is persisted
//! (and reused on the next invocation — try running the same command
//! twice). `batch` compiles many chains through the plan cache in one
//! go, deduplicating identical graphs and sharding distinct ones across
//! worker threads. `graph` lowers a transformer model from the zoo into
//! a whole operator DAG, partitions it into fusible chains + unfused
//! remainders, and prints the stitched plan — layers that repeat a
//! shape hit the plan cache after the first search. `fuzz` drives the
//! differential oracle: seeded random DAGs are compiled, the stitched
//! plan is executed against a per-op reference interpreter, and any
//! divergence is reported with the seed that reproduces it (one line
//! per seed, counting its fused and fused-attention segments). `serve`
//! turns the compiler into a long-lived HTTP service: a fixed worker
//! pool behind a bounded admission queue, one shared plan cache +
//! single-flight coalescer across all concurrent requests, graceful
//! shutdown on `POST /admin/shutdown`.
//!
//! The first token must be one of the subcommands above (model names
//! only appear after `graph`).

use flashfuser::prelude::*;
use flashfuser::workloads::{find_model, unknown_model};
use flashfuser::{DEFAULT_TOLERANCE, UNFUSED_EFFICIENCY};
use std::process::ExitCode;

const HELP: &str = "\
flashfuser-cli — fusion compiler for operator chains and model graphs

USAGE:
    flashfuser-cli compile <M> <N> <K> <L> [OPTIONS]
    flashfuser-cli compile --conv <IC> <H> <W> <OC1> <OC2> <K1> <K2> [OPTIONS]
    flashfuser-cli batch <SPEC>... [OPTIONS]
    flashfuser-cli graph <MODEL> <M> [OPTIONS]
    flashfuser-cli fuzz --seeds <N> [OPTIONS]
    flashfuser-cli serve [OPTIONS]
    flashfuser-cli --help

SUBCOMMANDS:
    compile   Search the fusion plan for one chain and report it; with
              --conv the seven extents describe a conv->ReLU->conv(1x1)
              block that is lowered to the chain via im2col first
    batch     Compile many chains through the plan cache in one call:
              identical graphs are searched once, distinct graphs are
              sharded across worker threads
    graph     Lower <MODEL> (a model-zoo name, e.g. GPT-2 or LLaMA-1B)
              with <M> resident tokens into an operator DAG, partition
              it into fusible chains + unfused remainders, and print
              the stitched whole-graph plan
    fuzz      Differentially fuzz the compiler: generate seeded random
              DAGs, compile each, execute the stitched plan and an
              op-by-op reference on identical inputs, and fail on any
              numeric or traffic divergence (each line names the seed
              that reproduces it)
    serve     Run the compilation service: HTTP/1.1 keep-alive (with
              pipelining) + JSON, a readiness reactor feeding a fixed
              worker pool behind a bounded admission queue (503 + retry
              hint when saturated, without dropping the connection), one
              shared plan cache and single-flight coalescer across all
              requests; POST /admin/snapshot exports the in-memory plans
              for another replica's --cache-dir, POST /admin/shutdown
              drains and exits cleanly

SPEC (batch): MxNxKxL with an optional ':gated' suffix,
              e.g. 128x3072x768x768 or 128x11008x4096x4096:gated

OPTIONS:
    --gated            Gated-FFN (SwiGLU) chain instead of standard FFN
                       (compile; in batch, the default for specs without
                       the ':gated' suffix)
    --conv             Compile a conv chain (compile only; see above)
    --machine SPEC     Target machine: a registry name (h100_sxm, the
                       default, or a100_sxm, which has no DSM) or a
                       descriptor JSON file in the codec format, e.g.
                       machines/tensix_like.json (applies to compile,
                       batch, graph, fuzz and serve)
    --cache-dir DIR    Persist compiled plans under DIR and reuse them on
                       later runs (content-addressed; invalidates itself
                       when the machine or search config changes; every
                       subcommand). A directory written by POST
                       /admin/snapshot boots a replica warm
    --workers N        Batch worker threads, or serve's HTTP worker pool
                       size (default: all cores)
    --repeat R         Compile the batch list R times over (demonstrates
                       dedup + warm-cache hit rates; default 1)
    --layers N         Layers to lower for 'graph' (default 2, so the
                       second layer reuses the first layer's plans)
    --seeds N          Fuzz: how many seeds to run (required for 'fuzz')
    --start S          Fuzz: first seed (default 0; rerun one failing
                       seed with --start S --seeds 1)
    --ops K            Fuzz: compute ops per generated graph (default 12)
    --dims D           Fuzz: largest tensor extent the generator draws
                       (default 64; multiples of 16 up to D — raise to
                       512 to push big GEMMs through the packed kernel)
    --kernel NAME      Fuzz: numeric backend for the stitched execution,
                       'naive' or 'blocked' (default blocked — the
                       reference side always runs the naive oracle, so
                       the default also falsifies the packed kernel)
    --attention P      Fuzz: probability in [0, 1] that a generator step
                       emits a Q.K^T -> softmax -> A.V attention motif
                       (default 0; each seed's line counts the attention
                       windows that fused)
    --port P           Serve: TCP port on 127.0.0.1 (default 8080; 0
                       picks an ephemeral port and prints it)
    --queue-depth D    Serve: admission queue depth before requests are
                       answered 503 (default 64)
    --dry-run          Parse and validate, print what would run, exit
                       (every subcommand)
    -h, --help         Print this help

A flag that its subcommand does not read (say, --port on compile) is a
usage error, not ignored.

EXAMPLES:
    flashfuser-cli compile 128 16384 4096 4096
    flashfuser-cli compile 128 11008 4096 4096 --gated --cache-dir /tmp/ff-plans
    flashfuser-cli compile --conv 64 56 56 256 64 1 1
    flashfuser-cli compile 128 4096 1024 1024 --machine machines/tensix_like.json
    flashfuser-cli batch 128x3072x768x768 128x16384x4096x4096 --repeat 3
    flashfuser-cli graph GPT-2 128 --layers 2
    flashfuser-cli graph GPT-2 128 --machine a100_sxm
    flashfuser-cli fuzz --seeds 16
    flashfuser-cli fuzz --seeds 8 --machine machines/tensix_like.json
    flashfuser-cli fuzz --seeds 64 --ops 16
    flashfuser-cli fuzz --seeds 8 --dims 512 --kernel blocked
    flashfuser-cli fuzz --seeds 16 --kernel naive
    flashfuser-cli fuzz --seeds 24 --attention 0.5
    flashfuser-cli serve --port 8080 --workers 4 --queue-depth 64
    flashfuser-cli serve --port 8080 --cache-dir /tmp/ff-plans --machine a100_sxm
    flashfuser-cli serve --port 8081 --cache-dir /tmp/ff-snapshot
";

struct CommonOpts {
    machine: Option<String>,
    cache_dir: Option<String>,
    workers: usize,
    repeat: usize,
    gated: bool,
    conv: bool,
    layers: usize,
    dry_run: bool,
    seeds: Option<u64>,
    start: u64,
    ops: usize,
    dims: usize,
    kernel: KernelKind,
    attention: f64,
    port: u16,
    queue_depth: usize,
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run 'flashfuser-cli --help' for usage");
    ExitCode::from(2)
}

/// Flags every subcommand reads.
const COMMON_FLAGS: [&str; 3] = ["--machine", "--cache-dir", "--dry-run"];

/// The flags `subcommand` reads besides [`COMMON_FLAGS`].
fn own_flags(subcommand: &str) -> &'static [&'static str] {
    match subcommand {
        "compile" => &["--gated", "--conv"],
        "batch" => &["--gated", "--workers", "--repeat"],
        "graph" => &["--layers"],
        "fuzz" => &[
            "--seeds",
            "--start",
            "--ops",
            "--dims",
            "--kernel",
            "--attention",
        ],
        "serve" => &["--port", "--workers", "--queue-depth"],
        _ => &[],
    }
}

/// Splits `subcommand`'s flags from its positionals, consuming flag
/// values. A flag the subcommand does not read is an error, even when
/// another subcommand knows it.
fn parse_opts(subcommand: &str, args: &[String]) -> Result<(CommonOpts, Vec<String>), String> {
    let mut opts = CommonOpts {
        machine: None,
        cache_dir: None,
        workers: 0,
        repeat: 1,
        gated: false,
        conv: false,
        layers: 2,
        dry_run: false,
        seeds: None,
        start: 0,
        ops: 12,
        dims: 64,
        kernel: KernelKind::Blocked,
        attention: 0.0,
        port: 8080,
        queue_depth: 64,
    };
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg.starts_with("--")
            && !COMMON_FLAGS.contains(&arg)
            && !own_flags(subcommand).contains(&arg)
        {
            return Err(format!("unknown flag '{arg}' for '{subcommand}'"));
        }
        match arg {
            "--gated" => opts.gated = true,
            "--conv" => opts.conv = true,
            "--dry-run" => opts.dry_run = true,
            "--machine" | "--cache-dir" | "--workers" | "--repeat" | "--layers" | "--seeds"
            | "--start" | "--ops" | "--dims" | "--kernel" | "--attention" | "--port"
            | "--queue-depth" => {
                let flag = args[i].clone();
                i += 1;
                let value = args
                    .get(i)
                    .ok_or_else(|| format!("{flag} requires a value"))?;
                match flag.as_str() {
                    "--machine" => opts.machine = Some(value.clone()),
                    "--cache-dir" => opts.cache_dir = Some(value.clone()),
                    "--workers" => {
                        opts.workers = value
                            .parse()
                            .map_err(|_| format!("--workers: '{value}' is not a number"))?;
                    }
                    "--repeat" => {
                        opts.repeat = value
                            .parse()
                            .map_err(|_| format!("--repeat: '{value}' is not a number"))?;
                        if opts.repeat == 0 {
                            return Err("--repeat must be at least 1".to_string());
                        }
                    }
                    "--layers" => {
                        opts.layers = value
                            .parse()
                            .map_err(|_| format!("--layers: '{value}' is not a number"))?;
                        if opts.layers == 0 {
                            return Err("--layers must be at least 1".to_string());
                        }
                    }
                    "--seeds" => {
                        let seeds: u64 = value
                            .parse()
                            .map_err(|_| format!("--seeds: '{value}' is not a number"))?;
                        if seeds == 0 {
                            return Err("--seeds must be at least 1".to_string());
                        }
                        opts.seeds = Some(seeds);
                    }
                    "--start" => {
                        opts.start = value
                            .parse()
                            .map_err(|_| format!("--start: '{value}' is not a number"))?;
                    }
                    "--ops" => {
                        opts.ops = value
                            .parse()
                            .map_err(|_| format!("--ops: '{value}' is not a number"))?;
                        if opts.ops == 0 {
                            return Err("--ops must be at least 1".to_string());
                        }
                    }
                    "--dims" => {
                        opts.dims = value
                            .parse()
                            .map_err(|_| format!("--dims: '{value}' is not a number"))?;
                        if opts.dims < 16 {
                            return Err("--dims must be at least 16".to_string());
                        }
                    }
                    "--kernel" => {
                        opts.kernel = KernelKind::parse(value).ok_or_else(|| {
                            format!("--kernel: '{value}' is not 'naive' or 'blocked'")
                        })?;
                    }
                    "--attention" => {
                        opts.attention = value
                            .parse()
                            .map_err(|_| format!("--attention: '{value}' is not a number"))?;
                        if !(0.0..=1.0).contains(&opts.attention) {
                            return Err("--attention must be a probability in [0, 1]".to_string());
                        }
                    }
                    "--port" => {
                        opts.port = value
                            .parse()
                            .map_err(|_| format!("--port: '{value}' is not a port number"))?;
                    }
                    "--queue-depth" => {
                        opts.queue_depth = value
                            .parse()
                            .map_err(|_| format!("--queue-depth: '{value}' is not a number"))?;
                        if opts.queue_depth == 0 {
                            return Err("--queue-depth must be at least 1".to_string());
                        }
                    }
                    _ => unreachable!(),
                }
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    Ok((opts, positional))
}

/// Resolves the target machine: `--machine` takes a registry name
/// (`h100_sxm`, `a100_sxm`) or a descriptor JSON file in the
/// `core::codec` format (see `machines/*.json`); without it the target
/// is the built-in H100.
fn machine(opts: &CommonOpts) -> Result<MachineDescriptor, String> {
    let Some(spec) = &opts.machine else {
        return Ok(MachineDescriptor::h100_sxm());
    };
    if let Some(desc) = MachineDescriptor::builtin(spec) {
        return Ok(desc);
    }
    let text = std::fs::read_to_string(spec).map_err(|e| {
        format!(
            "--machine: '{spec}' is neither a built-in ({}) nor a readable file ({e})",
            MachineDescriptor::builtin_ids().join(", ")
        )
    })?;
    flashfuser::core::decode_machine(&text)
        .map_err(|e| format!("--machine: cannot decode '{spec}': {e}"))
}

fn compiler(opts: &CommonOpts) -> Result<Compiler, String> {
    let mut options = flashfuser::CompilerOptions::new();
    if let Some(dir) = &opts.cache_dir {
        options = options.with_cache_dir(dir);
    }
    options.batch_workers = opts.workers;
    Compiler::with_options(machine(opts)?, options)
        .map_err(|e| format!("cannot open cache dir: {e}"))
}

/// Parses a batch spec `MxNxKxL[:gated]`.
fn parse_spec(spec: &str, default_gated: bool) -> Result<ChainSpec, String> {
    let (dims_part, gated) = match spec.strip_suffix(":gated") {
        Some(head) => (head, true),
        None => (spec, default_gated),
    };
    let dims: Vec<usize> = dims_part
        .split('x')
        .map(|p| p.parse().map_err(|_| ()))
        .collect::<Result<_, _>>()
        .map_err(|()| format!("bad spec '{spec}': expected MxNxKxL[:gated]"))?;
    if dims.len() != 4 || dims.contains(&0) {
        return Err(format!(
            "bad spec '{spec}': need 4 positive dims, got {dims:?}"
        ));
    }
    Ok(if gated {
        ChainSpec::gated_ffn(dims[0], dims[1], dims[2], dims[3], Activation::Silu)
    } else {
        ChainSpec::standard_ffn(dims[0], dims[1], dims[2], dims[3], Activation::Relu)
    })
}

fn cmd_compile(args: &[String]) -> ExitCode {
    let (opts, positional) = match parse_opts("compile", args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let chain = if opts.conv {
        if opts.gated {
            return usage_error("--conv and --gated are mutually exclusive (conv blocks are ReLU)");
        }
        let dims: Vec<usize> = positional.iter().filter_map(|a| a.parse().ok()).collect();
        if dims.len() != 7 || positional.len() != 7 {
            return usage_error(
                "compile --conv needs exactly 7 extents <IC> <H> <W> <OC1> <OC2> <K1> <K2>",
            );
        }
        let spec = match flashfuser::graph::ConvChainSpec::try_new(
            dims[0], dims[1], dims[2], dims[3], dims[4], dims[5], dims[6],
        ) {
            Ok(spec) => spec,
            Err(e) => return usage_error(&format!("bad conv block: {e}")),
        };
        let chain = spec.to_chain();
        println!(
            "conv:     {}x{}x{} -> conv{k1}x{k1}({}) -> relu -> conv1x1({}) lowered via im2col",
            dims[0],
            dims[1],
            dims[2],
            dims[3],
            dims[4],
            k1 = dims[5],
        );
        chain
    } else {
        let dims: Vec<usize> = positional.iter().filter_map(|a| a.parse().ok()).collect();
        if dims.len() != 4 || dims.contains(&0) || positional.len() != 4 {
            return usage_error("compile needs exactly 4 positive dimensions <M> <N> <K> <L>");
        }
        if opts.gated {
            ChainSpec::gated_ffn(dims[0], dims[1], dims[2], dims[3], Activation::Silu)
        } else {
            ChainSpec::standard_ffn(dims[0], dims[1], dims[2], dims[3], Activation::Relu)
        }
    };
    let params = match machine(&opts) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if opts.dry_run {
        println!("dry-run: would compile {chain} on {}", params.name);
        return ExitCode::SUCCESS;
    }
    let compiler = match compiler(&opts) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    println!("device:   {}", params.name);
    println!("workload: {chain}");
    let t0 = std::time::Instant::now();
    match compiler.compile(&chain) {
        Ok(compiled) => {
            let compile_s = t0.elapsed().as_secs_f64();
            let unfused = unfused_time(&chain, &params, UNFUSED_EFFICIENCY);
            let stats = compiler.cache_stats();
            println!("plan:     {}", compiled.plan);
            println!(
                "fused:    {:.2} us ({} candidates passed Rules 1-4 and the tile/cluster geometry)",
                compiled.measured_seconds * 1e6,
                compiled.feasible_candidates
            );
            println!(
                "unfused:  {:.2} us  -> speedup {:.2}x",
                unfused.seconds * 1e6,
                unfused.seconds / compiled.measured_seconds
            );
            println!(
                "traffic:  {:.2} MB fused vs {:.2} MB unfused",
                compiled.global_bytes as f64 / 1e6,
                unfused.global_bytes as f64 / 1e6
            );
            println!(
                "compile:  {:.3} s ({})",
                compile_s,
                if stats.hits() > 0 {
                    "plan cache hit"
                } else {
                    "full search"
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("no fused plan: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_batch(args: &[String]) -> ExitCode {
    let (opts, positional) = match parse_opts("batch", args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    if positional.is_empty() {
        return usage_error("batch needs at least one MxNxKxL[:gated] spec");
    }
    let mut chains = Vec::new();
    for spec in &positional {
        match parse_spec(spec, opts.gated) {
            Ok(chain) => chains.push(chain),
            Err(e) => return usage_error(&e),
        }
    }
    let batch: Vec<ChainSpec> = (0..opts.repeat).flat_map(|_| chains.clone()).collect();
    let params = match machine(&opts) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if opts.dry_run {
        println!(
            "dry-run: would batch-compile {} request(s) on {}",
            batch.len(),
            params.name
        );
        return ExitCode::SUCCESS;
    }
    let compiler = match compiler(&opts) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    println!("device: {}", params.name);
    println!(
        "batch:  {} request(s), {} spec(s) x {} repeat(s)",
        batch.len(),
        chains.len(),
        opts.repeat
    );
    let t0 = std::time::Instant::now();
    let results = compiler.compile_batch(&batch);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut failures = 0usize;
    for (chain, result) in batch.iter().zip(&results).take(chains.len()) {
        match result {
            Ok(c) => println!("  {chain}: {} ({:.2} us)", c.plan, c.measured_seconds * 1e6),
            Err(e) => {
                println!("  {chain}: FAILED ({e})");
                failures += 1;
            }
        }
    }
    let stats = compiler.cache_stats();
    println!(
        "batch compiled in {:.3} s: {} search(es) for {} request(s); cache: {}",
        wall_s,
        compiler.searches_run(),
        batch.len(),
        stats
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_graph(args: &[String]) -> ExitCode {
    let (opts, positional) = match parse_opts("graph", args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    let [model_name, m_arg] = positional.as_slice() else {
        return usage_error("graph needs exactly <MODEL> <M> (a zoo model name and a token count)");
    };
    let Some(model) = find_model(model_name) else {
        return usage_error(&unknown_model(model_name));
    };
    let m: usize = match m_arg.parse() {
        Ok(m) if m > 0 => m,
        _ => return usage_error(&format!("<M>: '{m_arg}' is not a positive token count")),
    };
    let params = match machine(&opts) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if opts.dry_run {
        println!(
            "dry-run: would lower {} x{} layer(s) at m={m} and compile the graph on {}",
            model.name, opts.layers, params.name
        );
        return ExitCode::SUCCESS;
    }
    let compiler = match compiler(&opts) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    let graph = model.graph(m, opts.layers);
    println!("device: {}", params.name);
    println!(
        "model:  {} (hidden {}, ffn {}{}) — lowering {} of {} layer(s), m={m}",
        model.name,
        model.hidden,
        model.ffn_hidden,
        if model.gated { ", gated" } else { "" },
        opts.layers,
        model.layers,
    );
    println!(
        "graph:  {} node(s), {} matmul(s)",
        graph.len(),
        graph.matmul_count()
    );
    let t0 = std::time::Instant::now();
    let plan = match compiler.compile_graph(&graph) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("cannot compile graph: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    println!("segments:");
    for (i, segment) in plan.segments.iter().enumerate() {
        match segment {
            CompiledSegment::Fused(f) => {
                let how = if f.fell_back {
                    "fell back to unfused"
                } else if f.searched {
                    "searched"
                } else {
                    "reused"
                };
                println!(
                    "  {:>2}. fused   {:>10.2} us  {} ({how})",
                    i + 1,
                    f.stitched_seconds() * 1e6,
                    f.compiled.plan,
                );
            }
            CompiledSegment::Unfused(u) => {
                let first = &graph.node(u.nodes[0]).label;
                let last = &graph
                    .node(*u.nodes.last().expect("non-empty segment"))
                    .label;
                println!(
                    "  {:>2}. unfused {:>10.2} us  {} kernel(s): {first} .. {last}",
                    i + 1,
                    u.seconds * 1e6,
                    u.nodes.len(),
                );
            }
        }
    }
    println!(
        "stitched: {:.2} us vs {:.2} us all-unfused -> speedup {:.2}x",
        plan.seconds * 1e6,
        plan.unfused_seconds * 1e6,
        plan.speedup()
    );
    println!(
        "compile:  {:.3} s, {} search(es) for {} fused segment(s); cache: {}",
        wall_s,
        compiler.searches_run(),
        plan.fused_segments().count(),
        compiler.cache_stats()
    );
    ExitCode::SUCCESS
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let (opts, positional) = match parse_opts("serve", args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error(&format!(
            "serve takes no positional arguments, got {positional:?}"
        ));
    }
    let params = match machine(&opts) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    let workers_desc = if opts.workers == 0 {
        "auto".to_string()
    } else {
        opts.workers.to_string()
    };
    if opts.dry_run {
        println!(
            "dry-run: would serve {} on 127.0.0.1:{} ({} worker(s), queue depth {}{})",
            params.name,
            opts.port,
            workers_desc,
            opts.queue_depth,
            opts.cache_dir
                .as_deref()
                .map(|d| format!(", plans persisted under {d}"))
                .unwrap_or_default(),
        );
        return ExitCode::SUCCESS;
    }
    let compiler = match compiler(&opts) {
        Ok(c) => std::sync::Arc::new(c),
        Err(e) => return usage_error(&e),
    };
    let options = flashfuser::serve::ServeOptions {
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        ..flashfuser::serve::ServeOptions::default()
    };
    let server = match flashfuser::service::start(compiler, ("127.0.0.1", opts.port), options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("device:    {}", params.name);
    println!("listening: http://{}", server.addr());
    println!(
        "workers:   {workers_desc}, queue depth {}",
        opts.queue_depth
    );
    println!(
        "endpoints: POST /compile, POST /batch, GET /machines, GET /stats, GET /healthz, POST /admin/snapshot, POST /admin/shutdown"
    );
    server.wait();
    println!("shut down cleanly (drained the admission queue)");
    ExitCode::SUCCESS
}

/// The command that regenerates and re-validates `seed` alone: every
/// `fuzz` flag the graph generator or the validation reads.
fn fuzz_repro(seed: u64, opts: &CommonOpts) -> String {
    let mut line = format!(
        "flashfuser-cli fuzz --seeds 1 --start {seed} --ops {} --dims {} --kernel {}",
        opts.ops, opts.dims, opts.kernel
    );
    if opts.attention > 0.0 {
        line += &format!(" --attention {}", opts.attention);
    }
    if let Some(m) = &opts.machine {
        line += &format!(" --machine {m}");
    }
    line
}

fn cmd_fuzz(args: &[String]) -> ExitCode {
    let (opts, positional) = match parse_opts("fuzz", args) {
        Ok(v) => v,
        Err(e) => return usage_error(&e),
    };
    if !positional.is_empty() {
        return usage_error(&format!(
            "fuzz takes no positional arguments, got {positional:?}"
        ));
    }
    let Some(seeds) = opts.seeds else {
        return usage_error("fuzz requires --seeds N");
    };
    let Some(end) = opts.start.checked_add(seeds) else {
        return usage_error("--start + --seeds overflows the seed space");
    };
    let params = match machine(&opts) {
        Ok(p) => p,
        Err(e) => return usage_error(&e),
    };
    if opts.dry_run {
        println!(
            "dry-run: would fuzz seeds {}..{end} ({} graph(s) of ~{} ops, dims <= {}, {} kernel, tol {:.1e}, attention {:.2}) on {}",
            opts.start, seeds, opts.ops, opts.dims, opts.kernel, DEFAULT_TOLERANCE, opts.attention, params.name
        );
        return ExitCode::SUCCESS;
    }
    let compiler = match compiler(&opts) {
        Ok(c) => c,
        Err(e) => return usage_error(&e),
    };
    let config = RandGraphConfig::new()
        .with_ops(opts.ops)
        .with_max_dim(opts.dims)
        .with_attention_prob(opts.attention);
    let numeric = NumericConfig {
        kernel: opts.kernel,
    };
    println!(
        "device: {}  seeds: {}..{end}  ops/graph: ~{}  dims: <= {}  kernel: {}  tol: {:.1e}  attention: {:.2}",
        params.name, opts.start, opts.ops, opts.dims, opts.kernel, DEFAULT_TOLERANCE, opts.attention
    );
    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    for seed in opts.start..end {
        let graph = rand_graph(seed, &config);
        let repro = fuzz_repro(seed, &opts);
        match validate_graph_with(&compiler, &graph, seed, DEFAULT_TOLERANCE, numeric) {
            Ok(v) => {
                let attention_fused = v
                    .plan
                    .fused_segments()
                    .filter(|s| s.chain.kind().is_attention() && !s.fell_back)
                    .count();
                let line = format!(
                    "seed {seed:>6}: {:>2} nodes, {} segment(s) ({} fused, {} attention), max err {:.2e}",
                    graph.len(),
                    v.segments.len(),
                    v.fused_count(),
                    attention_fused,
                    v.max_err
                );
                if v.passed() {
                    println!("{line} .. ok");
                } else {
                    failures += 1;
                    println!("{line} .. DIVERGED");
                    for f in v.failures() {
                        println!(
                            "    segment {} ({}): max err {:.2e}, global {} vs {} predicted, dsm {} vs {}",
                            f.index,
                            if f.fused { "fused" } else { "unfused" },
                            f.max_err,
                            f.executed_global,
                            f.predicted_global,
                            f.executed_dsm,
                            f.predicted_dsm,
                        );
                    }
                    println!("    repro: {repro}");
                }
            }
            Err(e) => {
                failures += 1;
                println!("seed {seed:>6}: ERROR {e}");
                println!("    repro: {repro}");
            }
        }
    }
    println!(
        "fuzzed {seeds} graph(s) in {:.2} s: {} passed, {failures} diverged",
        t0.elapsed().as_secs_f64(),
        seeds - failures,
    );
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("-h" | "--help" | "help") => {
            print!("{HELP}");
            if args.is_empty() {
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Some("compile") => cmd_compile(&args[1..]),
        Some("batch") => cmd_batch(&args[1..]),
        Some("graph") => cmd_graph(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some(other) => usage_error(&format!("unknown subcommand '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_repro_line_parses_back_to_the_same_run() {
        let flags =
            "--seeds 8 --ops 10 --dims 32 --kernel naive --attention 0.5 --machine a100_sxm";
        let words = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        let (opts, _) = parse_opts("fuzz", &words(flags)).unwrap();
        let line = fuzz_repro(2, &opts);
        let (back, positional) = parse_opts("fuzz", &words(&line)[2..]).unwrap();
        assert!(positional.is_empty(), "{line}");
        let run = |o: &CommonOpts| (o.ops, o.dims, o.kernel, o.attention, o.machine.clone());
        assert_eq!(run(&back), run(&opts), "{line}");
        assert_eq!((back.seeds, back.start), (Some(1), 2), "{line}");
        // The attention flag appears only when the knob is on.
        let (plain, _) = parse_opts("fuzz", &words("--seeds 1")).unwrap();
        assert!(!fuzz_repro(0, &plain).contains("--attention"));
    }
}

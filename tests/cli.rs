//! The CLI's documented surface must stay honest: every invocation
//! shown in `--help` and in `README.md` has to parse (exercised with
//! `--dry-run`, which validates arguments and exits before any search).

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flashfuser-cli"))
        .args(args)
        .output()
        .expect("spawn flashfuser-cli")
}

/// Extracts concrete `flashfuser-cli ...` invocations from free text:
/// lines that start with the binary name (optionally after a `$ `
/// shell prompt) and contain no `<placeholders>`, `[optional]`
/// brackets, or prose (an em dash). Returns the argument vectors
/// (binary name stripped).
fn documented_invocations(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .map(|l| l.trim().trim_start_matches("$ ").trim())
        .filter(|l| l.starts_with("flashfuser-cli "))
        .filter(|l| !l.contains('<') && !l.contains('[') && !l.contains('—'))
        .map(|l| l.split_whitespace().skip(1).map(String::from).collect())
        .collect()
}

#[test]
fn help_prints_every_subcommand_and_exits_zero() {
    let out = run(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "compile",
        "batch",
        "graph",
        "serve",
        "--conv",
        "--port",
        "--queue-depth",
        "--dry-run",
        "--layers",
        "EXAMPLES",
    ] {
        assert!(text.contains(needle), "--help must mention {needle}");
    }
}

#[test]
fn no_arguments_prints_help_and_fails() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stdout).unwrap().contains("USAGE"));
}

#[test]
fn every_help_example_parses() {
    let help = String::from_utf8(run(&["--help"]).stdout).unwrap();
    let invocations = documented_invocations(&help);
    assert!(
        invocations.len() >= 4,
        "expected the EXAMPLES section, found {invocations:?}"
    );
    for args in invocations {
        let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
        args.push("--dry-run");
        let out = run(&args);
        assert!(
            out.status.success(),
            "documented invocation failed to parse: {args:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn every_readme_example_parses() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md exists at the repository root");
    let invocations = documented_invocations(&readme);
    assert!(
        !invocations.is_empty(),
        "README.md must document CLI usage with at least one concrete invocation"
    );
    for args in invocations {
        let mut args: Vec<&str> = args.iter().map(String::as_str).collect();
        args.push("--dry-run");
        let out = run(&args);
        assert!(
            out.status.success(),
            "README invocation failed to parse: {args:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn graph_rejects_unknown_models_with_the_zoo_list() {
    let out = run(&["graph", "not-a-model", "128", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown model"));
    assert!(err.contains("GPT-2"), "error must list available models");
}

#[test]
fn unknown_subcommand_is_a_usage_error() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    // Bare dimensions are not a subcommand: `compile` must be spelled.
    let out = run(&["128", "512", "416", "256", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown subcommand '128'"), "{err}");
}

#[test]
fn a_flag_its_subcommand_does_not_read_is_a_usage_error() {
    // Each row is valid without its last flag (+ value); the stranger
    // is a real flag of *another* subcommand, or one that was removed
    // (`serve --preload`, folded into `--cache-dir`), so it must be
    // refused by name rather than parsed and dropped.
    for (args, stranger) in [
        (
            vec!["compile", "128", "512", "256", "256", "--seeds", "5"],
            "--seeds",
        ),
        (
            vec!["compile", "128", "512", "256", "256", "--port", "1"],
            "--port",
        ),
        (vec!["batch", "128x512x256x256", "--conv"], "--conv"),
        (vec!["graph", "GPT-2", "128", "--repeat", "3"], "--repeat"),
        (vec!["fuzz", "--seeds", "2", "--layers", "2"], "--layers"),
        (vec!["serve", "--port", "0", "--gated"], "--gated"),
        (vec!["serve", "--attention", "0.5"], "--attention"),
        (vec!["serve", "--preload", "/tmp/x"], "--preload"),
    ] {
        let mut args = args;
        args.push("--dry-run");
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(stranger) && err.contains(&format!("'{}'", args[0])),
            "error must name the flag and the subcommand: {err}"
        );
    }
}

/// The `seed N: ...` lines of a fuzz run's stdout.
fn seed_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| l.starts_with("seed ")).collect()
}

#[test]
fn fuzz_runs_real_seeds_and_prints_one_line_per_seed() {
    let out = run(&["fuzz", "--seeds", "2", "--ops", "6"]);
    assert!(
        out.status.success(),
        "fuzz diverged:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("2 passed, 0 diverged"), "{text}");
    let lines = seed_lines(&text);
    assert_eq!(lines.len(), 2, "{text}");
    assert!(lines[1].starts_with("seed      1:"), "{text}");
    assert!(lines.iter().all(|l| l.ends_with(".. ok")), "{text}");
}

#[test]
fn serve_dry_run_covers_every_documented_form() {
    // Every `serve` invocation the README and --help document, plus
    // each flag alone, must validate under --dry-run.
    for args in [
        vec!["serve"],
        vec![
            "serve",
            "--port",
            "8080",
            "--workers",
            "4",
            "--queue-depth",
            "64",
        ],
        vec!["serve", "--port", "0"],
        vec![
            "serve",
            "--cache-dir",
            "/tmp/ff-serve-dry",
            "--machine",
            "a100_sxm",
        ],
    ] {
        let mut args = args.clone();
        args.push("--dry-run");
        let out = run(&args);
        assert!(
            out.status.success(),
            "serve form failed to parse: {args:?}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("would serve"), "{text}");
    }
}

#[test]
fn serve_rejects_bad_arguments() {
    for args in [
        vec!["serve", "extra-positional", "--dry-run"],
        vec!["serve", "--queue-depth", "0", "--dry-run"],
        vec!["serve", "--port", "notaport", "--dry-run"],
        vec!["serve", "--port", "--dry-run"], // missing value swallows the flag
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    }
}

#[test]
fn conv_compile_dry_run_shows_the_lowering() {
    let out = run(&[
        "compile",
        "--conv",
        "64",
        "56",
        "56",
        "256",
        "64",
        "1",
        "1",
        "--dry-run",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("lowered via im2col"), "{text}");
    assert!(
        text.contains("would compile ffn/relu[M=3136 N=256 K=64 L=64]"),
        "Table V C1 lowers to M=H*W K=IC N=OC1 L=OC2: {text}"
    );
}

#[test]
fn conv_compile_end_to_end_matches_the_explicit_chain() {
    // Small block so the real search is fast: IC=16 H=W=8 OC1=32 OC2=16
    // lowers to M=64 N=32 K=16 L=16.
    let conv = run(&["compile", "--conv", "16", "8", "8", "32", "16", "1", "1"]);
    assert!(
        conv.status.success(),
        "{}",
        String::from_utf8_lossy(&conv.stderr)
    );
    let conv_text = String::from_utf8(conv.stdout).unwrap();
    assert!(
        conv_text.contains("workload: ffn/relu[M=64 N=32 K=16 L=16]"),
        "{conv_text}"
    );
    assert!(conv_text.contains("speedup"), "{conv_text}");
    // The lowered chain and the explicit chain select the same plan.
    let chain = run(&["compile", "64", "32", "16", "16"]);
    assert!(chain.status.success());
    let chain_text = String::from_utf8(chain.stdout).unwrap();
    let plan_line = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("plan:"))
            .expect("output has a plan line")
            .to_string()
    };
    assert_eq!(plan_line(&conv_text), plan_line(&chain_text));
}

#[test]
fn conv_compile_rejects_bad_geometry() {
    // Wrong arity.
    let out = run(&["compile", "--conv", "64", "56", "56", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2));
    // Non-1x1 second kernel cannot lower to a two-GEMM chain.
    let out = run(&[
        "compile",
        "--conv",
        "64",
        "56",
        "56",
        "256",
        "64",
        "1",
        "3",
        "--dry-run",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("1x1"), "{err}");
    // An even first kernel is a usage error, not an im2col panic.
    let out = run(&[
        "compile",
        "--conv",
        "64",
        "56",
        "56",
        "256",
        "64",
        "2",
        "1",
        "--dry-run",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("odd"), "{err}");
    // --conv and --gated are incompatible.
    let out = run(&[
        "compile", "--conv", "--gated", "16", "8", "8", "32", "16", "1", "1",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fuzz_dims_and_kernel_flags_reach_the_run() {
    let out = run(&[
        "fuzz", "--seeds", "2", "--ops", "6", "--dims", "128", "--kernel", "blocked",
    ]);
    assert!(
        out.status.success(),
        "fuzz diverged:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("dims: <= 128"), "{text}");
    assert!(text.contains("kernel: blocked"), "{text}");
    assert!(text.contains("0 diverged"), "{text}");
    assert_eq!(seed_lines(&text).len(), 2, "{text}");
}

#[test]
fn fuzz_naive_kernel_is_selectable() {
    let out = run(&["fuzz", "--seeds", "1", "--ops", "4", "--kernel", "naive"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("kernel: naive"), "{text}");
}

#[test]
fn fuzz_rejects_bad_dims_and_kernels() {
    let out = run(&["fuzz", "--seeds", "1", "--dims", "8", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2), "--dims below the granule");
    let out = run(&["fuzz", "--seeds", "1", "--dims", "many", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2), "--dims must be numeric");
    let out = run(&["fuzz", "--seeds", "1", "--kernel", "gpu", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2), "unknown kernel name");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("naive") && err.contains("blocked"), "{err}");
}

#[test]
fn machine_flag_resolves_registry_names_and_descriptor_files() {
    // A committed descriptor file: the compile target comes from data.
    let tensix = concat!(env!("CARGO_MANIFEST_DIR"), "/machines/tensix_like.json");
    let out = run(&[
        "compile",
        "128",
        "4096",
        "1024",
        "1024",
        "--machine",
        tensix,
        "--dry-run",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("on tensix_like"), "{text}");
    // A registry name, on a different subcommand.
    let out = run(&[
        "graph",
        "GPT-2",
        "128",
        "--machine",
        "a100_sxm",
        "--dry-run",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("A100-SXM4"), "{text}");
    // fuzz names its target machine too.
    let out = run(&["fuzz", "--seeds", "4", "--machine", tensix, "--dry-run"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("on tensix_like"), "{text}");
}

#[test]
fn machine_flag_rejects_unknown_specs() {
    // Neither a registry name nor a file: usage error listing what is.
    let out = run(&[
        "compile",
        "128",
        "512",
        "416",
        "256",
        "--machine",
        "tpu_v9",
        "--dry-run",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("h100_sxm") && err.contains("a100_sxm"),
        "error must list the registry: {err}"
    );
    // A file that exists but is not a machine document.
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
    let out = run(&[
        "compile",
        "128",
        "512",
        "416",
        "256",
        "--machine",
        readme,
        "--dry-run",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8(out.stderr)
            .unwrap()
            .contains("cannot decode"),
        "decode failures are reported as such"
    );
}

#[test]
fn fuzz_requires_seeds_and_rejects_positionals() {
    let out = run(&["fuzz"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["fuzz", "12", "--seeds", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["fuzz", "--seeds", "0"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fuzz_attention_sweep_fuses_attention_windows() {
    // An attention-bearing population under the blocked kernel must
    // pass against the naive oracle, and some seed's line must count a
    // fused attention window.
    let out = run(&[
        "fuzz",
        "--seeds",
        "8",
        "--ops",
        "10",
        "--attention",
        "0.5",
        "--kernel",
        "blocked",
    ]);
    assert!(
        out.status.success(),
        "fuzz diverged:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("attention: 0.50"), "{text}");
    assert!(text.contains("0 diverged"), "{text}");
    // `seed N: .. segment(s) (F fused, A attention), ..`
    let attention = |line: &str| -> usize {
        let (head, _) = line.split_once(" attention)").expect("a per-seed line");
        let count = head.rsplit(' ').next().expect("a count before 'attention'");
        count.parse().expect("a number")
    };
    let fused: usize = seed_lines(&text).into_iter().map(attention).sum();
    assert!(fused > 0, "no seed fused an attention window:\n{text}");
}

#[test]
fn fuzz_rejects_bad_attention_probabilities() {
    let out = run(&["fuzz", "--seeds", "1", "--attention", "1.5", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2), "probability above 1");
    let out = run(&["fuzz", "--seeds", "1", "--attention", "-0.1", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2), "negative probability");
    let out = run(&["fuzz", "--seeds", "1", "--attention", "lots", "--dry-run"]);
    assert_eq!(out.status.code(), Some(2), "non-numeric probability");
}

#[test]
fn compile_prices_the_unfused_comparison_like_the_fallback_bar() {
    // `compile` reports its speedup against the same unfused price the
    // graph fallback bar and the partitioner use.
    use flashfuser::prelude::*;
    let out = run(&["compile", "128", "2048", "512", "512"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("unfused:"))
        .expect("an unfused line");
    let chain = ChainSpec::standard_ffn(128, 2048, 512, 512, Activation::Relu);
    let h100 = MachineDescriptor::h100_sxm();
    let unfused = unfused_time(&chain, &h100, flashfuser::UNFUSED_EFFICIENCY);
    let expected = format!("unfused:  {:.2} us", unfused.seconds * 1e6);
    assert!(line.starts_with(&expected), "{line:?} is not {expected:?}");
}

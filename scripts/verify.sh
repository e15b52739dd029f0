#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, rustdoc (warnings
# fatal), a release build, a run of every example, the full test suite
# (the paper's tables and figures included: crates/bench/tests/ledger.rs
# recomputes REPRO.json), a build of the benchmark/ bins and a 2-second
# smoke of every benchmark/ workload. CI runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== clippy -D warnings (workspace, all targets) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo doc (RUSTDOCFLAGS=-D warnings, no deps) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== cargo build --release =="
cargo build --release -q --workspace

# --all-targets compiles the examples; only running them checks their
# own asserts. Any non-zero exit fails the gate.
for example in examples/*.rs; do
    name="$(basename "${example}" .rs)"
    echo "== example ${name} =="
    cargo run --release -q --example "${name}" >/dev/null
done
for example in crates/bench/examples/*.rs; do
    name="$(basename "${example}" .rs)"
    echo "== example ${name} (flashfuser-bench) =="
    cargo run --release -q -p flashfuser-bench --example "${name}" >/dev/null
done

# --no-fail-fast: one red test binary must not hide the suites cargo
# would have run after it.
echo "== cargo test -q (workspace, every suite) =="
cargo test -q --workspace --no-fail-fast

# benchmark/ is its own workspace and names part of the facade's public
# surface: a rename that breaks its `run` or `trace` bin must fail here,
# not in the benchmark run.
echo "== benchmark bins build against the facade =="
cargo build --offline -q --release --manifest-path benchmark/Cargo.toml --bins

echo "== benchmark unit tests =="
cargo test --offline -q --manifest-path benchmark/Cargo.toml

# One short run of every benchmark workload: each checks its own
# answers (byte-identical replies, codec round trips, plans vs the
# reference) and ends with a result line that must say so. This is a
# does-it-run smoke, not a timing gate — `benchmark/run.sh --compare`
# against benchmark/baseline.json judges the numbers.
for w in cold_chain serve_hit serve_graph serve_mixed exec_zoo; do
    echo "== benchmark-smoke (${w}, 2 s) =="
    result="$(bash benchmark/run.sh --workload "${w}" --seed 1 --seconds 2 --trace 0 | tail -n 1)" || result=""
    echo "${result}"
    case "${result}" in
        '{"correct": true'*) ;;
        *)
            echo "verify: FAIL — benchmark workload '${w}' did not end with a correct result line" >&2
            exit 1
            ;;
    esac
done

echo "verify: OK"

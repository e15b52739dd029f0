#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, rustdoc (warnings
# fatal), the full test suite, a 2-second smoke of every benchmark/
# workload, and the table/descriptor/fuzz smokes. CI runs exactly this
# script. The test suite is the only thing that judges the program and
# benchmark/ the only thing that times it; nothing here gates on a
# wall-clock number.
#
# Environment knob (honored, never hardcoded):
#   FLASHFUSER_QUICK    1 (default here) = quick mode: tab8_search_time
#                       runs G3 only, bench_machine a reduced sweep
#                       written to BENCH_machine.quick.json, fuzz 16
#                       seeds; set 0 for the full sizes and to refresh
#                       the committed BENCH_machine.json.
set -euo pipefail
cd "$(dirname "$0")/.."

export FLASHFUSER_QUICK="${FLASHFUSER_QUICK:-1}"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== clippy -D warnings (workspace, all targets) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo doc (RUSTDOCFLAGS=-D warnings, no deps) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== cargo build --release =="
cargo build --release -q --workspace

# --no-fail-fast: one red test binary must not hide the suites cargo
# would have run after it.
echo "== cargo test -q (workspace, every suite) =="
cargo test -q --workspace --no-fail-fast

# benchmark/ is its own workspace and names part of the facade's public
# surface: a rename that breaks its `run` or `trace` bin must fail here,
# not in the benchmark run.
echo "== benchmark bins build against the facade =="
cargo build --offline -q --release --manifest-path benchmark/Cargo.toml --bins

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

# Run a crates/bench bin, failing the gate loudly if it panics or exits
# non-zero (a panicking bin must never look like a pass).
run_bench() {
    local bin="$1"
    echo "== ${bin} (FLASHFUSER_QUICK=${FLASHFUSER_QUICK}) =="
    if ! cargo run --release -q -p flashfuser-bench --bin "${bin}"; then
        echo "verify: FAIL — bench bin '${bin}' exited non-zero (panic or gate violation)" >&2
        exit 1
    fi
}

run_bench tab8_search_time

# Machine-model smoke: bench_machine sweeps descriptor mutations
# (cluster size, DSM bandwidth, SMEM capacity, whole targets including
# the committed machines/tensix_like.json), recompiles the probe at
# every point and runs the numeric oracle on each plan; it exits
# non-zero unless every point is feasible, oracle-clean, and keeps the
# speedup >= 1 fallback bar.
echo "== machine-smoke (bench_machine) =="
run_bench bench_machine

# Differential fuzzing smoke: generator -> compiler -> stitched
# execution vs per-op reference. The population is attention-bearing
# (the generator's motif knob) and runs the packed blocked kernel
# against the always-naive oracle. Any numeric or traffic divergence
# fails the gate; the seed report names the exact repro invocation.
if [ "${FLASHFUSER_QUICK}" = "1" ]; then
    FUZZ_SEEDS=16
    FUZZ_REPORT=FUZZ_report.quick.json
else
    FUZZ_SEEDS=64
    FUZZ_REPORT=FUZZ_report.json
fi
echo "== fuzz-smoke (${FUZZ_SEEDS} seeds, attention 0.5, blocked kernel) =="
if ! cargo run --release -q --bin flashfuser-cli -- \
    fuzz --seeds "${FUZZ_SEEDS}" --attention 0.5 --kernel blocked --report "${FUZZ_REPORT}"; then
    echo "verify: FAIL — differential fuzzing diverged (see ${FUZZ_REPORT})" >&2
    exit 1
fi
grep -q '"failures": 0' "${FUZZ_REPORT}" || {
    echo "verify: FAIL — ${FUZZ_REPORT} records failures" >&2
    exit 1
}
grep -q '"attention_fused": true' "${FUZZ_REPORT}" || {
    echo "verify: FAIL — the fuzz population fused no attention window (see ${FUZZ_REPORT})" >&2
    exit 1
}

# Full mode only: a big-extent sweep under the blocked kernel, where the
# packed path's cache blocking actually engages (the default dims cap
# keeps the quick gate affordable on the naive oracle).
if [ "${FLASHFUSER_QUICK}" != "1" ]; then
    echo "== fuzz-smoke (dims 512, blocked kernel) =="
    if ! cargo run --release -q --bin flashfuser-cli -- \
        fuzz --seeds 16 --dims 512 --kernel blocked --report FUZZ_report.dims512.json; then
        echo "verify: FAIL — blocked-kernel fuzzing diverged (see FUZZ_report.dims512.json)" >&2
        exit 1
    fi
fi

echo "verify: OK"

#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, rustdoc (warnings
# fatal), the full test suite, and reduced-mode runs of the search +
# cache benchmarks. CI runs exactly this script.
#
# Environment knobs (both honored, never hardcoded):
#   FLASHFUSER_QUICK    1 (default here) = quick bench mode, writes
#                       *.quick.json; set 0 to run the full-size chains
#                       and refresh the committed BENCH_*.json baselines.
#   FLASHFUSER_THREADS  worker-thread override for the bench bins
#                       (0/unset = all cores; results are identical for
#                       every value — only wall-clock changes).
set -euo pipefail
cd "$(dirname "$0")/.."

export FLASHFUSER_QUICK="${FLASHFUSER_QUICK:-1}"
export FLASHFUSER_THREADS="${FLASHFUSER_THREADS:-}"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== clippy -D warnings (workspace, all targets) =="
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo doc (RUSTDOCFLAGS=-D warnings, no deps) =="
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== cargo build --release (benches included) =="
cargo build --release -q --workspace
cargo check -q --workspace --benches

# --no-fail-fast: one red test binary must not hide the suites cargo
# would have run after it.
echo "== cargo test -q (workspace, every suite) =="
cargo test -q --workspace --no-fail-fast

# benchmark/ is its own workspace and names part of the facade's public
# surface: a rename that breaks its `run` or `trace` bin must fail here,
# not in the benchmark run.
echo "== benchmark bins build against the facade =="
cargo build --offline -q --release --manifest-path benchmark/Cargo.toml --bins

# Run a bench bin, failing the gate loudly if it panics or exits
# non-zero (a panicking bench must never look like a pass).
run_bench() {
    local bin="$1"
    echo "== ${bin} (FLASHFUSER_QUICK=${FLASHFUSER_QUICK}, FLASHFUSER_THREADS=${FLASHFUSER_THREADS:-auto}) =="
    if ! cargo run --release -q -p flashfuser-bench --bin "${bin}"; then
        echo "verify: FAIL — bench bin '${bin}' exited non-zero (panic or gate violation)" >&2
        exit 1
    fi
}

run_bench tab8_search_time
run_bench bench_search
run_bench bench_cache

# Numeric-backend smoke: bench_interp measures naive vs packed blocked
# GEMM throughput and validates every zoo layer graph under both
# backends; it exits non-zero unless blocked wins by >= 5x at dim 1024
# and the zoo stays green.
echo "== interp-smoke (bench_interp) =="
run_bench bench_interp

# Serving smoke: bench_serve starts the real HTTP server on an
# ephemeral loopback port, fires a mixed load (compile/batch/healthz,
# plus a same-key burst), measures keep-alive connection reuse against
# one-shot connections, and round-trips a warm-cache snapshot into a
# fresh replica. It exits non-zero unless the run had zero errors,
# >= 90% cache hit rate, byte-identical responses (one-shot and
# pipelined), exactly one burst search, the gated reuse ratio
# (reuse_ok), a warm replica with zero searches (snapshot_warm), and a
# clean drain through the control endpoint.
echo "== serve-smoke (bench_serve) =="
run_bench bench_serve

# Machine-model smoke: bench_machine sweeps descriptor mutations
# (cluster size, DSM bandwidth, SMEM capacity, whole targets including
# the committed machines/tensix_like.json), recompiles the probe at
# every point and runs the numeric oracle on each plan; it exits
# non-zero unless every point is feasible, oracle-clean, and keeps the
# speedup >= 1 fallback bar.
echo "== machine-smoke (bench_machine) =="
run_bench bench_machine

# Attention-fusion smoke: bench_attention compiles zoo-shaped
# Q.K^T -> softmax -> A.V windows on the H100 and the committed
# Tensix-like descriptor, validates each against the per-op oracle,
# and exits non-zero unless every fused plan moves strictly fewer
# priced global bytes than the per-op unfused fallback.
echo "== attention-smoke (bench_attention) =="
run_bench bench_attention

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

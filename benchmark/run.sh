#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --all [--seed N] [--runs R] [--out FILE]
#   bash benchmark/run.sh --compare A.json B.json
#   bash benchmark/run.sh --spec
# `--trace 1` goes to the `trace` bin, everything else to `run`; each is
# built on its own, so a layer API the trace bin names can change without
# breaking the end-to-end bin. Run from the repository root, the build
# picks up .cargo/config.toml and so the repository's own codegen flags.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

bin=run
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=trace
    fi
    prev=$arg
done

manifest=benchmark/Cargo.toml
if [ "${1:-}" = "--all" ]; then
    # `run --all` starts the trace bin as a child, so it must exist too.
    cargo build --offline -q --release --manifest-path "$manifest" --bin trace
fi
exec cargo run --offline -q --release --manifest-path "$manifest" --bin "$bin" -- "$@"

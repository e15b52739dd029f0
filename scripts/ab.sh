#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, as one command:
#   bash scripts/ab.sh <parent-checkout> <workload> [pairs=10] [seconds]
#
# Runs `bash benchmark/run.sh --workload W --seed S --seconds N --trace 0`
# in <parent-checkout> and in this working tree alternately — who goes
# first flips every pair, every pair gets a fresh seed (1001, 1002, ...)
# that both sides share — and prints, per end-to-end metric of
# BENCHMARK.json: both medians and quartiles, the pairs the change won
# (ties count for neither side), and whether the medians differ by more
# than the distance between the parent's own quartiles; a metric that
# reads worse is also held against its BENCHMARK.json bound. A gain is
# claimable only where the change wins at least nine tenths of the pairs
# *and* the medians differ by more than that distance (the
# `choosing-metrics` rule); everything else is reported as it reads.
# Every run's result line is kept in the directory named at the end.
#
# <parent-checkout> is any directory holding the parent commit with its
# own benchmark/ (e.g. `git clone . /tmp/parent && git -C /tmp/parent
# checkout <rev>`); `seconds` defaults to BENCHMARK.json's run_seconds.
# Bash and awk only; nothing under benchmark/ is modified.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
    sed -n '2,4p' "$0" >&2
    exit 2
fi
here="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent="$(cd "$1" && pwd)"
workload="$2"
pairs="${3:-10}"
seconds="${4:-$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$here/BENCHMARK.json")}"
out="$(mktemp -d "${TMPDIR:-/tmp}/ab-${workload}-XXXXXX")"

for side in "$parent" "$here"; do
    (cd "$side" && cargo build --offline -q --release --manifest-path benchmark/Cargo.toml --bin run) 2>/dev/null ||
        { echo "ab: benchmark does not build in $side" >&2; exit 1; }
done

# One run: appends "<side> <pair> <result line>" to $out/runs.
run_side() {
    local side="$1" dir="$2" pair="$3" line
    line="$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$((1000 + pair))" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)" || line=""
    echo "$side $pair $line" >>"$out/runs"
    echo "  pair $pair $side: ${line:0:60}..." >&2
}

echo "ab: $workload, $pairs pairs x $seconds s, parent = $parent" >&2
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run_side parent "$parent" "$pair"
        run_side change "$here" "$pair"
    else
        run_side change "$here" "$pair"
        run_side parent "$parent" "$pair"
    fi
done

awk -v pairs="$pairs" '
# Pass 1, BENCHMARK.json: the end-to-end metrics, in order, and which
# way is better.
FNR == NR {
    if ($0 ~ /"end_to_end"/) inside = 1
    if ($0 ~ /"per_layer"/) inside = 0
    if (inside && match($0, /"name": "[a-z0-9_]+"/)) {
        name = substr($0, RSTART + 9, RLENGTH - 10)
        order[++metrics] = name
    }
    if (inside && match($0, /"better": "[a-z]+"/))
        better[name] = substr($0, RSTART + 11, RLENGTH - 12)
    if (inside && match($0, /"bound": [0-9.]+/))
        bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
    next
}
# Pass 2, the runs: "<side> <pair> {json}".
{
    side = $1; pair = $2
    runs[side]++
    if ($0 !~ /"correct": true/) incorrect[side]++
    if (match($0, /"failed": [0-9]+/)) failed[side] += substr($0, RSTART + 10, RLENGTH - 10)
    for (m = 1; m <= metrics; m++) {
        pattern = "\"" order[m] "\": \\{\"value\": [-+0-9.eE]+"
        if (match($0, pattern)) {
            text = substr($0, RSTART, RLENGTH)
            sub(/.*"value": /, "", text)
            value[order[m], side, pair] = text + 0
            have[order[m], side, pair] = 1
        }
    }
}
# Quantile q of v[1..n] (sorted ascending), linear interpolation.
function quantile(v, n, q,    pos, lo, frac) {
    if (n == 0) return 0
    pos = 1 + (n - 1) * q; lo = int(pos); frac = pos - lo
    return lo >= n ? v[n] : v[lo] + frac * (v[lo + 1] - v[lo])
}
function sorted(metric, side, v,    n, p, i, j, t) {
    n = 0
    for (p = 1; p <= pairs; p++) if (have[metric, side, p]) v[++n] = value[metric, side, p]
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
    return n
}
END {
    printf "runs: parent %d (%d incorrect, %d failed ops), change %d (%d incorrect, %d failed ops)\n",
        runs["parent"], incorrect["parent"], failed["parent"], runs["change"], incorrect["change"], failed["change"]
    printf "%-26s %-36s %-36s %-7s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict"
    for (m = 1; m <= metrics; m++) {
        name = order[m]
        np = sorted(name, "parent", P); nc = sorted(name, "change", C)
        if (np == 0 || nc == 0) continue
        pm = quantile(P, np, 0.5); cm = quantile(C, nc, 0.5)
        iqr = quantile(P, np, 0.75) - quantile(P, np, 0.25)
        won = 0; lost = 0
        for (p = 1; p <= pairs; p++) {
            if (!have[name, "parent", p] || !have[name, "change", p]) continue
            d = value[name, "change", p] - value[name, "parent", p]
            if (better[name] == "higher") d = -d
            if (d < 0) won++; else if (d > 0) lost++
        }
        gap = cm - pm; if (better[name] == "higher") gap = -gap
        beyond = (gap < 0 ? -gap : gap) > iqr
        if (cm == pm && won + lost == 0) verdict = "identical"
        else if (gap < 0 && beyond && won * 10 >= pairs * 9) verdict = sprintf("GAIN %.2fx, beyond parent IQR", better[name] == "higher" ? cm / pm : pm / cm)
        else if (gap > 0 && beyond && lost * 10 >= pairs * 9) verdict = sprintf("WORSE %.2fx, beyond parent IQR", better[name] == "higher" ? pm / cm : cm / pm)
        else verdict = sprintf("%s%.1f%%, %s parent IQR", gap <= 0 ? "better by " : "worse by ", (gap < 0 ? -gap : gap) / (pm == 0 ? 1 : pm) * 100, beyond ? "beyond" : "within")
        if (gap > 0) verdict = verdict sprintf(" (%s the %.1f%% bound)", gap > bound[name] * pm ? "EXCEEDS" : "inside", bound[name] * 100)
        printf "%-26s %-36s %-36s %-7s %s\n", name,
            sprintf("%.6g [%.6g, %.6g]", pm, quantile(P, np, 0.25), quantile(P, np, 0.75)),
            sprintf("%.6g [%.6g, %.6g]", cm, quantile(C, nc, 0.25), quantile(C, nc, 0.75)),
            won "/" pairs, verdict
    }
    if (pairs < 10) print "fewer than 10 pairs: verdicts are indicative, not claimable"
}' "$here/BENCHMARK.json" "$out/runs"
echo "ab: every run's result line is in $out/runs"

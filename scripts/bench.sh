#!/usr/bin/env bash
# bench.sh — run the repository's benchmark battery (the E1..E10 experiment
# benchmarks plus the engine micro-benchmarks in bench_test.go) and record
# the results as JSON, so the perf trajectory of the hot paths is tracked
# across PRs instead of living in commit messages.
#
# Usage:
#   scripts/bench.sh                # full run (default benchtime), writes .bench_build/gobench.json
#                                   # (gitignored; copy it to a BENCH_*.json to commit a record)
#   scripts/bench.sh --smoke        # 1 iteration per benchmark: the CI smoke job
#   BENCH_OUT=out.json scripts/bench.sh
#   BENCHTIME=3x scripts/bench.sh   # custom -benchtime
#
# Each JSON entry carries the benchmark name, iteration count and every
# metric Go reported (ns/op, B/op, allocs/op, and custom metrics such as
# states/sec from the construction series BenchmarkParallelBuild and
# BenchmarkPackedExplore).  BenchmarkCorrespondenceM3ToMr records the
# per-pair decision (r=N/workers=W) and the orbit decision (r=N/orbit, one
# Compute per orbit class of index pairs) of the same ring cells side by
# side.
#
# The script fails loudly: a benchmark binary that fails to build, a
# benchmark that calls b.Fatal, or a run that produces no parseable
# benchmark lines all exit non-zero without writing the JSON — a silent
# empty result would read as "benchmarked everything" when nothing ran.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-.bench_build/gobench.json}"
mkdir -p "$(dirname "$out")"
benchtime="${BENCHTIME:-1s}"
if [ "${1:-}" = "--smoke" ]; then
    benchtime="1x"
fi

# A tree that violates the engine invariants (see DESIGN.md §8) does not get
# a recorded baseline: numbers from a build with nondeterministic ordering or
# broken cancellation are not comparable across PRs.
if ! go run ./cmd/repolint ./...; then
    echo "bench.sh: repolint reports findings; fix or waive them before recording $out" >&2
    exit 1
fi

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# tee under pipefail still propagates go test's exit status, but keep the
# status explicit so a failure is reported as such, not as a tee artefact.
if ! go test -run '^$' -bench . -benchmem -benchtime "$benchtime" -timeout 60m . | tee "$raw"; then
    echo "bench.sh: benchmark run failed (see output above); not writing $out" >&2
    exit 1
fi
if grep -Eq '^(FAIL|--- FAIL)' "$raw"; then
    echo "bench.sh: FAIL marker in benchmark output; not writing $out" >&2
    exit 1
fi
count="$(grep -c '^Benchmark' "$raw" || true)"
if [ "${count:-0}" -eq 0 ]; then
    echo "bench.sh: no benchmark results parsed from the run; not writing $out" >&2
    exit 1
fi

awk -v benchtime="$benchtime" '
BEGIN {
    printf "{\n  \"harness\": \"scripts/bench.sh\",\n  \"benchtime\": \"%s\",\n  \"results\": [", benchtime
    n = 0
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {", name, $2
    first = 1
    for (i = 3; i + 1 <= NF; i += 2) {
        if (!first) printf ", "
        first = 0
        printf "\"%s\": %s", $(i + 1), $i
    }
    printf "}}"
}
END {
    printf "\n  ],\n  \"goos\": \"%s\",\n  \"goarch\": \"%s\",\n  \"cpu\": \"%s\"\n}\n", goos, goarch, cpu
}
' "$raw" > "$out"

echo "wrote $out ($count benchmarks)"

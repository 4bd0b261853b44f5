#!/usr/bin/env bash
# loc.sh — print the repository's non-test Go line count: every .go file
# that is not a _test.go file, outside bench/ (the benchmark module) and
# testdata directories.  The number is tracked beside the benchmarks as the
# size of the code that has to earn its keep; there is no gate on it.
#
# Usage:
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' \
    ! -path './bench/*' ! -path '*/testdata/*' ! -path './.git/*' -print0 |
    xargs -0 cat | wc -l | tr -d ' '

#!/usr/bin/env bash
# tier1-repeat.sh runs the tier-1 suite (go test ./...) uncached several
# times over, to tell a flaky test from a steady one.  Each run starts with
# `go clean -testcache` and runs every test twice, at one processor and at
# the host's count (-cpu 1,N), since a test that needs a second processor to
# pass is a flake on a one-processor runner; it prints its number, pass or
# fail, its time, and the names of the tests (or packages) that failed, a
# name ending in -N for the run at N processors.  The script exits non-zero
# when any run failed.  Twenty runs take about fifteen minutes on a 2-CPU
# host, so CI does not run it.
#
# Usage: scripts/tier1-repeat.sh [runs]   (default 20)
set -uo pipefail

runs=${1:-20}
cpus=1,$(getconf _NPROCESSORS_ONLN)
cd "$(git rev-parse --show-toplevel)"
out=$(mktemp)
trap 'rm -f "$out"' EXIT
failed=0
for i in $(seq 1 "$runs"); do
	go clean -testcache
	t0=$SECONDS
	if go test -cpu "$cpus" ./... >"$out" 2>&1; then
		echo "run $i/$runs: pass ($((SECONDS - t0)) s)"
	else
		failed=$((failed + 1))
		echo "run $i/$runs: FAIL ($((SECONDS - t0)) s)"
		# A failing test prints "--- FAIL: Name" and its messages below
		# it, indented; a package that fails to build or panics only
		# "FAIL<TAB>path".
		grep -E '^\s*--- FAIL: |^\s+\S+_test\.go:[0-9]+: |^FAIL\s' "$out" |
			sed -E 's/^\s*--- FAIL: ([^ ]+).*/  \1/; s/^\s+(\S+_test\.go)/    \1/; s/^FAIL\s+([^ ]+).*/  package \1/'
	fi
done
echo "$((runs - failed)) of $runs runs passed"
[[ $failed == 0 ]]

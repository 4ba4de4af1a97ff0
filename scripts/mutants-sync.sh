#!/usr/bin/env bash
# mutants-sync.sh re-runs the sync mutation table of DESIGN.md §8: each row
# deletes one sync, force or force ticket of the engine by a one-line edit,
# made in a temporary copy of the tree (never the working tree), and runs the
# data-checking test the row names.  A row passes when that test fails
# within 60 s; the script fails when any row's test passes, hangs, or does
# not build, or when a row's line is no longer found exactly once.
#
# Usage: scripts/mutants-sync.sh [row-name-substring]
set -euo pipefail

# name | file | line as it stands | line with the sync gone | package | tests
rows=(
	"the log force's sync|internal/wal/wal.go|	err := dev.Sync()|	err, _ := error(nil), dev|./internal/core|^TestLossyCrashProperty\$"
	"clean's segment syncs|internal/core/truncate.go|		wrote[r.seg] = true|		_ = wrote|./internal/core|^TestLossyCrashProperty\$"
	"flushSpool's ticket|internal/core/truncate.go|	if _, _, err := e.waitForced(last, false); err != nil {|	if _, _, err := e.waitForced(0*last, false); err != nil {|./internal/core|^TestLossyCrashProperty\$"
	"SetHead's status sync|internal/wal/wal.go|		if err := dev.Sync(); err != nil {|		if err := error(nil); err != nil {|./internal/core|^TestLossyCrashProperty\$"
	"clean's write-ahead force|internal/core/truncate.go|		if d.Last > e.log.ForcedThrough() {|		if false {|./internal/core|^TestCleanerForcesDrainedRecords\$/^crashed\$"
	"the epoch's ticket before it applies|internal/core/truncate.go|	if end := ep.EndSeq(); end > 0 {|	if end := ep.EndSeq(); false && end > 0 {|./internal/core|^TestLossyCrashProperty\$"
	"clean's drain of a spooled page|internal/core/truncate.go|		if r.spoolRefs[d.ID.Page] > 0 {|		if false {|./internal/core|^TestCleanerLogsSpooledPageBeforeWritingIt\$"
	"Unmap's segment sync|internal/core/engine.go|		if err := e.retryIO(r.seg.Sync); err != nil {|		if err := error(nil); err != nil {|./internal/core|^TestLossyCrashProperty\$"
)

root=$(git rev-parse --show-toplevel)
only=${1:-}
failed=0
for row in "${rows[@]}"; do
	IFS='|' read -r name file from to pkg tests <<<"$row"
	[[ -n $only && $name != *"$only"* ]] && continue
	tmp=$(mktemp -d)
	(cd "$root" && git ls-files -z --cached --others --exclude-standard |
		xargs -0 tar -c --ignore-failed-read 2>/dev/null) | tar -x -C "$tmp"
	n=$(grep -cxF -- "$from" "$tmp/$file" || true)
	if [[ $n != 1 ]]; then
		echo "FAIL  $name: the line is in $file $n times, want once; mend the table"
		failed=1
		rm -rf "$tmp"
		continue
	fi
	FROM=$from TO=$to awk '$0 == ENVIRON["FROM"] { $0 = ENVIRON["TO"] } { print }' "$tmp/$file" >"$tmp/$file.new"
	mv "$tmp/$file.new" "$tmp/$file"
	start=$SECONDS
	status=0
	out=$(cd "$tmp" && timeout 60 go test -count=1 -run "$tests" "$pkg" 2>&1) || status=$?
	took=$((SECONDS - start))
	if [[ $status == 124 ]]; then
		echo "FAIL  $name: $tests still running after 60 s"
		failed=1
	elif [[ $status == 0 ]]; then
		echo "FAIL  $name: $tests passes without it"
		failed=1
	elif ! grep -q -- '--- FAIL' <<<"$out"; then
		echo "FAIL  $name: the mutant did not build or run:"
		echo "$out" | head -20
		failed=1
	else
		echo "red   $name: $tests in ${took}s"
		grep -m1 -A2 -- '--- FAIL' <<<"$out" | sed 's/^/      /'
	fi
	rm -rf "$tmp"
done
exit $failed

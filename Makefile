# External lint tools are installed by version, never @latest; CI installs
# the same versions (TestLintToolVersionsPinned keeps the two in sync).
STATICCHECK_VERSION := 2024.1.1
GOVULNCHECK_VERSION := v1.1.3

.PHONY: build test lint loc bench bench-gates

build:
	go build ./...

test:
	go build ./... && go test ./...

# lint runs everything that needs no network: gofmt, go vet, and the
# repo's own rvmcheck suite (all eight discipline analyzers, run
# whole-program; see DESIGN.md §10).  staticcheck and govulncheck run
# when installed (go install <module>@$(VERSION)) and are skipped
# otherwise, so `make lint` works in offline sandboxes.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	go vet ./...
	go run ./cmd/rvmcheck ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed; go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)"; fi

# loc prints the sizes CHANGES.md entries quote, so that nobody counts by
# hand: non-test, non-testdata Go lines of the engine's packages and of
# rvm.go, and the fields of the two Options structs (TestOptionsForwarded is
# their ratchet; this only prints).  CI's lint job runs it.
loc:
	@for d in core wal recovery obs analysis; do \
		printf '%-22s %6d lines\n' internal/$$d $$(find internal/$$d -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + | wc -l); done
	@printf '%-22s %6d lines\n' rvm.go $$(wc -l < rvm.go)
	@printf '%-22s %6d fields\n' rvm.Options $$(go doc . Options | awk '/^\t[A-Z]/ {n++} END {print n}')
	@printf '%-22s %6d fields\n' core.Options $$(go doc ./internal/core Options | awk '/^\t[A-Z]/ {n++} END {print n}')

# bench is the one list of smoke benchmarks; CI's bench job calls it.
bench:
	go test -bench 'Table1|ConcurrentCommit|ConcurrentSetRange|ObsOverhead|CommitNoFlush|AppendBatch|OpenRecover' -benchtime 1x -run '^$$' . ./internal/core ./internal/wal

# bench-gates is the one list of the four checked-in regression gates; CI's
# bench job calls it: fsyncs/commit + p99, observability overhead, commit
# scaling, and recovery (serial and parallel ns/MB + checkpoint-bounded
# restart scan).
bench-gates:
	go run ./cmd/rvmbench -experiment concurrent -json BENCH_ci.json -thresholds bench_thresholds.json
	go run ./cmd/rvmbench -experiment obs -thresholds bench_thresholds.json
	go run ./cmd/rvmbench -experiment scaling -json BENCH_ci.json -thresholds bench_thresholds.json
	go run ./cmd/rvmbench -experiment recovery -json BENCH_ci.json -thresholds bench_thresholds.json

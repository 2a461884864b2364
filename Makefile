# Mirrors .github/workflows/ci.yml so contributors can run the exact CI
# gates locally: `make ci` is the whole pipeline, individual targets run
# one job. staticcheck/govulncheck run when installed and are skipped
# with a hint otherwise (CI always runs them).

GO        ?= go
BENCH_OUT ?= bench.txt
FRESH     ?= bench-fresh.json

# pipefail so `go test ... | tee` fails the target when the tests fail.
SHELL       := /bin/bash
.SHELLFLAGS := -o pipefail -c

# External analyzer versions, pinned to match ci.yml exactly.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: ci lint vet-hdb tools test bench-module determinism bench benchdiff loc clean

ci: lint test bench-module determinism benchdiff

lint: vet-hdb
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed, skipping (make tools)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed, skipping (make tools)"; fi

# The module's own analyzers (lockorder, hotpath, rowslifecycle,
# ctxflow), built from the tree and run through go vet's -vettool
# protocol. Needs no network: the tool lives in ./cmd/hdbvet.
vet-hdb:
	$(GO) build -o bin/hdbvet ./cmd/hdbvet
	$(GO) vet -vettool=$(CURDIR)/bin/hdbvet ./...

# Install the lint tools: hdbvet from the tree, the external ones at
# the exact versions CI uses.
tools:
	$(GO) install ./cmd/hdbvet
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

test:
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -run 'ZeroAlloc|Amortized|AllocBound|AllocBytesBound' -v ./internal/simtime/ ./internal/core/ ./internal/vec/ ./internal/exec/ .
	$(GO) test -run '^$$' -fuzz FuzzJoinEquivalence -fuzztime 30s ./internal/difftest/
	$(GO) test -run '^$$' -fuzz FuzzTableFileRoundTrip -fuzztime 30s ./internal/difftest/
	$(GO) build -o bin/hdbtable ./cmd/hdbtable
	@rm -f /tmp/hdb-smoke.hdb; \
	./bin/hdbtable write -o /tmp/hdb-smoke.hdb -chunk 64 -synth -seed 7 -nrel 3 -rel 0 && \
	./bin/hdbtable inspect -zones /tmp/hdb-smoke.hdb >/dev/null && \
	out=$$(./bin/hdbtable scan -col 0 -op lt -val 5 /tmp/hdb-smoke.hdb); echo "$$out"; \
	case "$$out" in *"skipped=0"*) echo "zone-map pruning skipped no chunks"; exit 1;; esac; \
	rm -f /tmp/hdb-smoke.hdb
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) build -o bin/hdbload ./cmd/hdbload
	./bin/hdbload -rate 200 -duration 1s -maxq 2 -queue 4 -memory 65536 -tenants 2 -seed 7

# bench/ is a module of its own (replace hierdb => ../), so the root
# `go build ./... && go test ./...` never compiles it: build, self-test
# and quick-run it here, so a vec/spill/store change that breaks the
# benchmark's replay code (or a workload's result check) fails CI.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./... && $(GO) run . -quick

determinism:
	@set -e; for p in 1 2 8; do for g in 1 4; do \
		echo "== -parallel $$p GOMAXPROCS=$$g"; \
		GOMAXPROCS=$$g $(GO) test -count=1 -run TestFigureDeterminismAcrossParallelism -parallel $$p ./internal/experiments/; \
	done; done

bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkKernel' -benchmem ./internal/simtime/; \
	  $(GO) test -run '^$$' -bench 'Churn|MultiNode' -benchmem ./internal/core/; \
	  $(GO) test -run '^$$' -bench 'BenchmarkFig6$$|BenchmarkEngineJoinDP$$|ConcurrentQueries|StreamingSink|MultiNodeSkew|SpillJoin|DiskScan|DiskJoinSpill|OptimizeOverhead' -benchtime 10x -benchmem .; \
	  $(GO) test -run '^$$' -bench 'BenchmarkAdmission|BenchmarkBrokerLease|BenchmarkSpillPartitionWrite|BenchmarkJoinProbeGather|BenchmarkJoinGroupFold|BenchmarkSealIndex' -benchmem ./internal/exec/; \
	  $(GO) test -run '^$$' -bench 'BenchmarkChunkDecodeSel|BenchmarkSpillFanout' -benchmem ./internal/spill/; \
	} | tee $(BENCH_OUT)

benchdiff: bench
	$(GO) run ./cmd/benchdiff -baseline BENCH_kernel.json -baseline BENCH_engine.json -in $(BENCH_OUT) -out $(FRESH)

# Non-test Go lines per internal/* package and for the module — the
# figure ROADMAP and CHANGES quote. go list's GoFiles is the definition:
# no _test.go files, no testdata, and not bench/ (a module of its own).
loc:
	@$(GO) list -f '{{$$d := .Dir}}{{.ImportPath}}{{range .GoFiles}} {{$$d}}/{{.}}{{end}}' ./... | \
	awk '{ n = 0; for (i = 2; i <= NF; i++) { while ((getline line < $$i) > 0) n++; close($$i) } \
	       total += n; if ($$1 ~ /\/internal\//) printf "%7d %s\n", n, $$1 } \
	     END { printf "%7d hierdb (module, non-test Go lines)\n", total }'

clean:
	rm -f $(BENCH_OUT) $(FRESH) *.test *.prof *.pprof
	rm -rf bin

# Developer workflow shortcuts. The perf targets implement the profiling
# loop documented in DESIGN.md ("Performance"): benchmark, profile, read
# the top, fix, re-benchmark, gate.

GO ?= go
PROF_DIR := .prof
BENCH ?= BenchmarkRunService
PKG ?= ./internal/server
# The packages whose microbenchmarks CI gates.
GATED_PKGS := ./internal/sim ./internal/stats ./internal/server ./internal/cluster \
	./internal/runner ./internal/scenariofile ./cmd/awserved

.PHONY: all build test race bench bench-micro profile profile-mem bench-json clean-prof loc

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark suite (regenerates every table/figure once each).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./...

# The CI-gated microbenchmarks, with stable sampling, then the whole
# quick evaluation (one pass per sample).
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 0.3s -count 6 $(GATED_PKGS)
	$(GO) test -run '^$$' -bench '^BenchmarkQuickEvaluation$$' -benchmem -benchtime 1x -count 6 .

# CPU-profile one benchmark (default BenchmarkRunService) and open the
# top. Narrow with BENCH=... PKG=..., drill down with:
#   go tool pprof $(PROF_DIR)/test.bin $(PROF_DIR)/cpu.prof
profile:
	@mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 3s \
		-cpuprofile $(PROF_DIR)/cpu.prof -o $(PROF_DIR)/test.bin $(PKG)
	$(GO) tool pprof -top -nodecount 25 $(PROF_DIR)/test.bin $(PROF_DIR)/cpu.prof

# Allocation profile of the same benchmark (hunt hot-path garbage).
profile-mem:
	@mkdir -p $(PROF_DIR)
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchtime 3s -benchmem \
		-memprofile $(PROF_DIR)/mem.prof -o $(PROF_DIR)/test.bin $(PKG)
	$(GO) tool pprof -top -nodecount 25 -sample_index=alloc_objects \
		$(PROF_DIR)/test.bin $(PROF_DIR)/mem.prof

# Record the perf trajectory: run the gated microbenchmarks and emit a
# dated BENCH_<date>.json snapshot (the same artifact CI uploads).
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 0.3s -count 6 $(GATED_PKGS) \
		| tee $(PROF_DIR)/bench-micro.txt
	$(GO) test -run '^$$' -bench '^BenchmarkQuickEvaluation$$' -benchmem -benchtime 1x -count 6 . \
		| tee -a $(PROF_DIR)/bench-micro.txt
	$(GO) run ./cmd/benchgate -new $(PROF_DIR)/bench-micro.txt \
		-emit BENCH_$$(date -u +%F).json -commit "$$(git rev-parse HEAD 2>/dev/null)"

clean-prof:
	rm -rf $(PROF_DIR)

# Non-test Go lines per package (directory) and in total, bench/
# excluded: the tracked code-size number.
loc:
	@git ls-files '*.go' | grep -v '_test\.go$$' | grep -v '^bench/' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

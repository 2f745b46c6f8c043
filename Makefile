# hbmsim — build, test, and reproduction targets.

GO ?= go

# bench-json knobs: shrink BENCHTIME for a quick regression check, or
# point BENCH_OUT elsewhere to compare against the committed baseline.
BENCHTIME ?= 0.5s
# Each benchmark runs BENCH_COUNT times and benchjson keeps the fastest
# run, so snapshots (and the bench-diff gate) resist machine noise.
BENCH_COUNT ?= 3
BENCH_OUT ?= BENCH_PR30.json
# bench-diff compares the previous PR's committed snapshot against the
# current one and fails on ns/op regressions past BENCH_THRESHOLD
# percent or allocs/op regressions past BENCH_ALLOC_THRESHOLD percent,
# and on any change to the ticks/op or evictions/op a benchmark reports
# in both snapshots (the simulator's work counts, exact on any host).
# The limits are split because the metrics' noise profiles differ by an
# order of magnitude: allocs/op is deterministic (same binary, same
# count — any growth is a real regression), while ns/op on this class
# of hardware is not. Measured on a 1-core virtualised host: packages
# whose test binaries are bit-identical across two PRs (zero changed
# dependencies, verified with `go list -deps -test`) still swing
# ±30-50% ns/op between recording windows minutes apart, with exactly
# flat allocs — so a ns gate tighter than ~50% fails on machine noise,
# not on code. Real kernel-level regressions this gate exists to catch
# (an accidental O(n) in the tick loop, a lost fast path) show up well
# past 50% or in allocs/op first.
BENCH_BASE ?= BENCH_PR28.json
BENCH_THRESHOLD ?= 50
BENCH_ALLOC_THRESHOLD ?= 25

# fuzz-smoke runs each fuzzer briefly inside `make check`; the standalone
# `fuzz` target digs longer.
SMOKE_FUZZTIME ?= 5s

# cover knobs: the overall floor is deliberately conservative; the
# per-package floors cover the simulation kernel (tick loop, cruising
# and its jumps, checkpointing) and the optimality-telemetry layer this repo's
# correctness argument leans on hardest, plus the tracing/introspection
# layer operators debug production incidents with, plus the result cache
# and the sweep-sharding coordinator the fleet's correctness rests on, plus
# the far-memory backends every simulated transfer now flows through, plus
# the durable-file package every crash-safe write goes through, plus the
# HBM store, replacement policies and arbiters whose contracts the
# kernel's differential tests rest on, plus the experiment suite that
# regenerates the paper's tables, plus the job service and the sweep
# runner whose journals carry crash recovery.
COVER_OUT ?= coverage.out
COVER_FLOOR ?= 70
COVER_FLOOR_PKGS ?= hbmsim/internal/core hbmsim/internal/lowerbound hbmsim/internal/stackdist hbmsim/internal/telemetry hbmsim/internal/metrics hbmsim/internal/introspect hbmsim/internal/tracing hbmsim/internal/resultcache hbmsim/internal/shard hbmsim/internal/membackend hbmsim/internal/durable hbmsim/internal/hbm hbmsim/internal/replacement hbmsim/internal/arbiter hbmsim/internal/experiments hbmsim/internal/serve hbmsim/internal/sweep

.PHONY: all check build vet test test-short test-race e2e-multinode bench bench-json bench-diff cover profile fuzz fuzz-smoke docsmoke repro repro-full figures clean

all: build vet test test-race

# The one-stop gate: formatting, vet, build, tests (incl. -race), the
# multi-node sharding/cache e2e against real processes, a short fuzzing
# smoke over the codecs and the snapshot format, the doc-drift gate, a
# fresh machine-readable benchmark snapshot, and the cross-PR regression
# gate. `vet` fails on gofmt drift.
check: vet build test test-race e2e-multinode fuzz-smoke docsmoke bench-json bench-diff

build:
	$(GO) build ./...

# vet also fails if a command, an example or the root package links
# package testing: test helpers belong in _test.go files.
vet:
	$(GO) vet ./...
	gofmt -l . && test -z "$$(gofmt -l .)"
	@if $(GO) list -deps . ./cmd/... ./examples/... | grep -qx testing; then \
		echo "vet: 'go list -deps . ./cmd/... ./examples/...' lists package testing" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The step loop is single-goroutine, but construction and workload
# generation fan out per core (trace.Parallel), and collectors may be
# handed to callers that step simulations from multiple goroutines; keep
# the tree race-clean.
test-race:
	$(GO) test -race ./...

# The fleet-level acceptance tests against real hbmserved processes: a
# sweep sharded across two peers with one SIGKILLed mid-shard merges to
# a journal byte-identical to a single-node run, and an identical
# resubmitted job is answered from the result cache. Also part of the
# plain `test` run; this target re-runs them verbosely and uncached.
e2e-multinode:
	$(GO) test -count=1 -v -run 'TestShardedSweepSIGKILLPeerByteIdentical|TestCacheHitEndToEnd' ./cmd/hbmserved

# One benchmark per paper table/figure plus component micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark snapshot for regression tracking: runs the
# full benchmark suite and converts it to schema-stable JSON.
bench-json:
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(BENCHTIME) -count=$(BENCH_COUNT) ./... \
		| $(GO) run ./cmd/benchjson -out $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

# Cross-PR benchmark regression gate: per-benchmark ns/op and allocs/op
# deltas and work counts between the committed baseline and the current
# snapshot; exits non-zero when anything regressed past its threshold or
# a work count drifted (see the BENCH_THRESHOLD / BENCH_ALLOC_THRESHOLD
# comment above).
bench-diff:
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCH_THRESHOLD) -alloc-threshold $(BENCH_ALLOC_THRESHOLD) $(BENCH_BASE) $(BENCH_OUT)

# Coverage gate: one instrumented test run producing $(COVER_OUT), then
# per-package floors on the packages the optimality-telemetry argument
# rests on. Inspect hot spots with `go tool cover -html=$(COVER_OUT)`.
cover:
	$(GO) test -coverprofile=$(COVER_OUT) ./... > $(COVER_OUT).txt || { cat $(COVER_OUT).txt; rm -f $(COVER_OUT).txt; exit 1; }
	@cat $(COVER_OUT).txt
	@ok=1; \
	for pkg in $(COVER_FLOOR_PKGS); do \
		pct=$$(awk -v p="$$pkg" '$$1 == "ok" && $$2 == p { for (i = 1; i <= NF; i++) if ($$i ~ /%/) { sub(/%/, "", $$i); print $$i } }' $(COVER_OUT).txt); \
		if [ -z "$$pct" ]; then echo "cover: no coverage line for $$pkg"; ok=0; continue; fi; \
		if awk -v c="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(c + 0 < f + 0) }'; then \
			echo "cover: FAIL $$pkg at $$pct% is below the $(COVER_FLOOR)% floor"; ok=0; \
		else \
			echo "cover: ok   $$pkg $$pct% (floor $(COVER_FLOOR)%)"; \
		fi; \
	done; \
	rm -f $(COVER_OUT).txt; \
	[ $$ok -eq 1 ]

# CPU and heap profiles of the priority-arbiter simulator benchmark, the
# tick kernel's hottest configuration. Inspect with
# `go tool pprof profiles/cpu.out`.
profile:
	mkdir -p profiles
	$(GO) test -run='^$$' -bench=BenchmarkSimPriority -benchtime=$(BENCHTIME) \
		-cpuprofile=$(abspath profiles/cpu.out) \
		-memprofile=$(abspath profiles/mem.out) \
		-o profiles/core.test ./internal/core
	@echo "wrote profiles/cpu.out profiles/mem.out (binary: profiles/core.test)"

# Short fuzzing pass over the trace codecs, page renumbering, the
# construction scan, the checkpoint format, log recovery,
# result-cache entries, the miss-ratio curve, the backend parameter
# parser and the traceparent header parser.
fuzz:
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzReadText -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzRenumber -fuzztime=30s ./internal/trace/
	$(GO) test -fuzz=FuzzCompact -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzCheckpointRoundTrip -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzResumeCorrupt -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzFastForwardDifferential -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzLogRecover -fuzztime=30s ./internal/durable/
	$(GO) test -fuzz=FuzzReadEntry -fuzztime=30s ./internal/resultcache/
	$(GO) test -fuzz=FuzzCurve -fuzztime=30s ./internal/stackdist/
	$(GO) test -fuzz=FuzzParseBackend -fuzztime=30s ./internal/membackend/
	$(GO) test -fuzz=FuzzParseTraceparent -fuzztime=30s ./internal/tracing/

# Quick fuzzing smoke for `make check`: a few seconds per fuzzer, enough
# to catch gross codec or snapshot-validation breakage.
fuzz-smoke:
	$(GO) test -fuzz=FuzzReadBinary -fuzztime=$(SMOKE_FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzReadText -fuzztime=$(SMOKE_FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzRenumber -fuzztime=$(SMOKE_FUZZTIME) ./internal/trace/
	$(GO) test -fuzz=FuzzCompact -fuzztime=$(SMOKE_FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzCheckpointRoundTrip -fuzztime=$(SMOKE_FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzResumeCorrupt -fuzztime=$(SMOKE_FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzFastForwardDifferential -fuzztime=$(SMOKE_FUZZTIME) ./internal/core/
	$(GO) test -fuzz=FuzzLogRecover -fuzztime=$(SMOKE_FUZZTIME) ./internal/durable/
	$(GO) test -fuzz=FuzzReadEntry -fuzztime=$(SMOKE_FUZZTIME) ./internal/resultcache/
	$(GO) test -fuzz=FuzzCurve -fuzztime=$(SMOKE_FUZZTIME) ./internal/stackdist/
	$(GO) test -fuzz=FuzzParseBackend -fuzztime=$(SMOKE_FUZZTIME) ./internal/membackend/
	$(GO) test -fuzz=FuzzParseTraceparent -fuzztime=$(SMOKE_FUZZTIME) ./internal/tracing/

# Doc-drift gate: every fenced sh/go block in the listed docs must match
# the tree — Go examples compile, documented flags exist, make targets
# resolve. See cmd/docsmoke.
docsmoke:
	$(GO) run ./cmd/docsmoke README.md EXPERIMENTS.md OPERATIONS.md DESIGN.md BACKENDS.md

# Regenerate every table and figure (laptop scale, a few minutes).
repro:
	$(GO) run ./cmd/hbmsweep -exp all

# Paper-scale reproduction (hours).
repro-full:
	$(GO) run ./cmd/hbmsweep -exp all -full

# SVG figures for every experiment that has a chart.
figures:
	$(GO) run ./cmd/hbmsweep -exp all -chart=false -svg figures/

clean:
	rm -rf figures/ profiles/
	$(GO) clean ./...

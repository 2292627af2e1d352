GO ?= go
GOFMT ?= gofmt

# FUZZMINTIME bounds how long a fuzz run spends minimizing each new
# interesting input. Unbounded (60 s each), a target whose coverage
# keeps growing, like FuzzDecodeViews with its MEL verdict leg, spends
# a 10 s smoke minimizing instead of fuzzing.
FUZZMINTIME := 100x

.PHONY: all build test vet lint lint-strict verify verify-quick ci bench bench-engine bench-pair race fuzz report cover clean

all: build vet test

# perfbench is its own module (the benchmark harness, built against
# this tree through a replace directive), so the root build never
# compiles it; build and vet it here so a server or client API change
# that breaks the harness fails the build. The binary is discarded.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

vet:
	$(GO) vet ./...

# lint first fails if gofmt would reformat any file, then runs mellint,
# the repo's own analyzer suite (internal/lint): hot-path call and
# allocation discipline (allocfree), wire-protocol exhaustiveness, lock
# hygiene and module-wide lock ordering (lockcheck and lockorder, two
# reports over one lock model), atomic discipline, goroutine-leak
# evidence, context conventions, and taint flow from hostile wire
# input. Findings recorded and justified in lint.baseline are
# suppressed; anything new exits nonzero. One run
# archives both machine-readable reports: lint.json for tooling and
# lint.sarif for code-scanning UIs.
# Timings go to a separate artifact (lint-timings.json) so the
# committed lint.json/lint.sarif stay byte-identical across re-runs.
lint:
	@unformatted=$$($(GOFMT) -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/mellint -baseline lint.baseline -json -o lint.json -sarif-o lint.sarif -timings-o lint-timings.json ./...

# lint-strict ignores the baseline: every accepted finding surfaces
# again. Run it when re-auditing the baseline's justifications; it is
# expected to exit nonzero while lint.baseline is non-empty.
lint-strict:
	$(GO) run ./cmd/mellint ./...

# verify is melverify: the exhaustive decoder-equivalence prover
# (decodeprover + dpinvariants). It enumerates the bounded x86
# encoding space for all four rule sets and fails on any divergence
# between the fused packed-record decoder and the reference decoder,
# on any violated scan invariant, or on an incomplete enumeration
# (budget exceeded). Witnesses are exported as fuzz corpus seeds.
verify:
	$(GO) run ./cmd/mellint -verify -verify-budget 30s \
		-verify-corpus internal/mel/testdata/fuzz/FuzzScanDifferential \
		-baseline lint.baseline -json -o lint-verify.json ./...

# verify-quick is the seconds-scale smoke variant of the same prover.
verify-quick:
	$(GO) run ./cmd/mellint -verify -verify-quick -verify-budget 10s -baseline lint.baseline ./...

# Race-enabled everywhere: the engine's pooled scan state, the
# detector's threshold cache, and the serving pool/cache are all shared
# across goroutines. Vet and mellint first — they catch mistakes tests
# can miss.
test:
	$(GO) vet ./...
	$(GO) run ./cmd/mellint -baseline lint.baseline ./...
	$(GO) test -race ./...

# ci is the full gate a commit must pass: compile, vet, the analyzer
# suite (failing on any non-baselined finding), the exhaustive prover
# within its budget, the race-enabled tests — which include the lint
# framework's own tests and the self-hosting TestRepoIsClean gate —
# short fuzz smokes over the wire codec, the client's response reader
# (arbitrary response streams against pending calls), the content
# decoder (whose fuzz target checks Views against the reference
# peelers), the scan core (fused and traced scans, stream windows and
# ScanReference against each other), the detector (verdict fields
# consistent on any payload) and the x86 spec decoder that serves every
# offset the scan core's tables leave unresolved, and the paired bench
# gate, which fails if the change is slower than its parent commit on
# the same host, or allocates more.
ci: build vet lint verify
	$(GO) test -race ./...
	$(GO) test -run NONE -fuzz FuzzWire -fuzztime 10s -fuzzminimizetime $(FUZZMINTIME) ./internal/server/
	$(GO) test -run NONE -fuzz FuzzClientFrames -fuzztime 10s -fuzzminimizetime $(FUZZMINTIME) ./internal/server/client/
	$(GO) test -run NONE -fuzz FuzzDecodeViews -fuzztime 10s -fuzzminimizetime $(FUZZMINTIME) ./internal/content/
	$(GO) test -run NONE -fuzz FuzzScanDifferential -fuzztime 10s -fuzzminimizetime $(FUZZMINTIME) ./internal/mel/
	$(GO) test -run NONE -fuzz FuzzScan -fuzztime 10s -fuzzminimizetime $(FUZZMINTIME) ./internal/core/
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s -fuzzminimizetime $(FUZZMINTIME) ./internal/x86/
	$(MAKE) bench-pair

# bench-pair is the paired bench gate. It builds cmd/melbench at the
# parent commit (HEAD when tracked files differ from it, else HEAD~1,
# checked out into a temporary git worktree) and from the working tree,
# runs the engine and content benchmarks in ten alternating
# parent/change pairs on this host, and fails if an entry's ns/op is
# higher in nine of ten pairs with a median delta above the parent's
# own interquartile range, or if every change run allocates more per
# op than every parent run. BENCH_engine.json and
# BENCH_content.json are records written by bench-engine and
# `melbench -exp content`; no gate reads them.
bench-pair:
	$(GO) run ./cmd/melbench -exp pair

race:
	$(GO) test -race ./internal/core/ ./internal/proxy/ ./internal/server/... ./internal/telemetry/events/ ./internal/telemetry/anomaly/

bench:
	$(GO) test -bench=. -benchmem -run NONE .

bench-engine:
	$(GO) run ./cmd/melbench -exp engine

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s -fuzzminimizetime=$(FUZZMINTIME) ./internal/x86/
	$(GO) test -fuzz=FuzzScan -fuzztime=30s -fuzzminimizetime=$(FUZZMINTIME) ./internal/core/
	$(GO) test -run NONE -fuzz=FuzzScanDifferential -fuzztime=30s -fuzzminimizetime=$(FUZZMINTIME) ./internal/mel/
	$(GO) test -run NONE -fuzz=FuzzDecodeViews -fuzztime=30s -fuzzminimizetime=$(FUZZMINTIME) ./internal/content/
	$(GO) test -run NONE -fuzz=FuzzWire -fuzztime=30s -fuzzminimizetime=$(FUZZMINTIME) ./internal/server/
	$(GO) test -run NONE -fuzz=FuzzClientFrames -fuzztime=30s -fuzzminimizetime=$(FUZZMINTIME) ./internal/server/client/

report:
	$(GO) run ./cmd/melbench -exp all | tee report.txt

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f report.txt cover.out test_output.txt bench_output.txt lint.json lint.sarif
	rm -f lint-timings.json lint-verify.json
	rm -f events.jsonl events.jsonl.1
	rm -rf bundles

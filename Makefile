GO ?= go
GOFMT ?= gofmt

.PHONY: all build test vet lint lint-strict verify verify-quick ci bench bench-engine bench-smoke bench-guard race fuzz report cover clean

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
# suite (failing on any non-baselined finding), the race-enabled tests
# — which include the lint framework's own tests and the self-hosting
# TestRepoIsClean gate — short fuzz smokes over the wire codec, the
# client's response reader (arbitrary response streams against pending
# calls), the content decoder (whose fuzz target checks Views against the reference
# peelers), the scan core (fused and traced scans, stream windows
# and ScanReference against each other), the detector (verdict fields
# consistent on any payload) and the x86 spec decoder that
# serves every offset the scan core's tables leave unresolved, and the
# bench guard, which
# fails the gate outright if the engine regressed against the committed
# BENCH_engine.json.
ci: build vet lint verify
	$(GO) test -race ./...
	$(GO) test -run NONE -fuzz FuzzWire -fuzztime 10s ./internal/server/
	$(GO) test -run NONE -fuzz FuzzClientFrames -fuzztime 10s ./internal/server/client/
	$(GO) test -run NONE -fuzz FuzzDecodeViews -fuzztime 10s ./internal/content/
	$(GO) test -run NONE -fuzz FuzzScanDifferential -fuzztime 10s ./internal/mel/
	$(GO) test -run NONE -fuzz FuzzScan -fuzztime 10s ./internal/core/
	$(GO) test -run NONE -fuzz FuzzDecode -fuzztime 10s ./internal/x86/
	$(MAKE) bench-guard

# bench-smoke runs the engine benchmark once with the JSON artifact
# suppressed — a CI canary, not a BENCH_engine.json refresh — and then
# checks the exhaustive verify pass still fits its runtime budget: the
# -verify-budget flag makes the prover itself fail (incomplete
# enumeration is a finding) if the full space no longer fits in ~30s.
bench-smoke:
	$(GO) run ./cmd/melbench -exp engine -benchout ""
	$(GO) run ./cmd/mellint -verify -verify-budget 30s -baseline lint.baseline ./...

# bench-guard re-measures the engine and content-pipeline benchmarks
# and exits nonzero if any ns/op, divided by the same run's frozen
# ScanReference (engine_scan_reference_4k), regressed more than 20%
# against the same ratio in the committed BENCH_engine.json and
# BENCH_content.json — or any allocs/op rose. Judging the ratio keeps a
# uniformly slower host from reading as a regression. A failing first
# pass is re-measured once and judged on the better run.
bench-guard:
	$(GO) run ./cmd/melbench -exp guard

race:
	$(GO) test -race ./internal/core/ ./internal/proxy/ ./internal/server/... ./internal/telemetry/events/ ./internal/telemetry/anomaly/

bench:
	$(GO) test -bench=. -benchmem -run NONE .

bench-engine:
	$(GO) run ./cmd/melbench -exp engine

fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/x86/
	$(GO) test -fuzz=FuzzScan -fuzztime=30s ./internal/core/
	$(GO) test -run NONE -fuzz=FuzzScanDifferential -fuzztime=30s ./internal/mel/
	$(GO) test -run NONE -fuzz=FuzzDecodeViews -fuzztime=30s ./internal/content/
	$(GO) test -run NONE -fuzz=FuzzWire -fuzztime=30s ./internal/server/
	$(GO) test -run NONE -fuzz=FuzzClientFrames -fuzztime=30s ./internal/server/client/

report:
	$(GO) run ./cmd/melbench -exp all | tee report.txt

cover:
	$(GO) test -coverprofile=cover.out ./... && $(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f report.txt cover.out test_output.txt bench_output.txt lint.json lint.sarif
	rm -f lint-timings.json lint-verify.json
	rm -f events.jsonl events.jsonl.1
	rm -rf bundles

GO ?= go

# repro pipes through tee; plain sh reports tee's exit status, swallowing a
# crbench failure. bash + pipefail propagates it.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test test-short microbench repro smoke fuzz vet fmt lint clean

# Staticcheck release `make lint` and CI pin, so a toolchain drift cannot
# change what the gate enforces.
STATICCHECK_VERSION ?= 2025.1.1

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The full static-analysis gate: the project-specific contract analyzers
# (cmd/crlint: detrand, nilinstr, bufalias, unitconv, shardsafe,
# wallclass, hotlabel, atomiclock — DESIGN.md §12 and §17), the
# suppression audit (every //lint:allow must be justified and still
# suppressing a live finding), go vet, and the pinned staticcheck.
# staticcheck is the only tool not shipped with the Go toolchain; when
# it is not installed the step is skipped with a notice instead of
# failing, so offline checkouts still get the crlint + vet gate. CI
# installs the pinned version and runs all of them.
lint:
	$(GO) run ./cmd/crlint
	$(GO) run ./cmd/crlint -audit
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

# Fails (exit 1) when any file needs reformatting, so CI can gate on it;
# `gofmt -l` alone always exits 0.
fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "gofmt: the following files need formatting:" >&2; \
		echo "$$files" >&2; \
		exit 1; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Go micro-benchmarks (single iteration: a compile-and-run sanity pass,
# not a timing study).
microbench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# Regenerate every paper table and figure at full trial counts, plus the
# machine-readable run report.
repro:
	$(GO) run ./cmd/crbench -json results/crbench-seed1.json | tee results/crbench-seed1.txt
	$(GO) run ./cmd/reportcheck results/crbench-seed1.json

# Fast end-to-end check of the instrumented pipeline: a tiny run must
# produce a valid, non-empty report and a triage-able flight-recorder
# trace. fig4 is the experiment that runs a detector, so it supplies the
# detector.* families the check requires.
smoke:
	$(GO) run ./cmd/crbench -trials 3 -json results/smoke-report.json -tracefile results/smoke-trace.jsonl fig4 sec5 campaign
	$(GO) run ./cmd/reportcheck -require-metrics detector.,sim.,experiments.,trace. results/smoke-report.json
	$(GO) run ./cmd/crtrace results/smoke-trace.jsonl

# Every Fuzz* target in the repository, 60 s each. Minimizing an input that
# finds new coverage may take at most 10 s (the default is 60 s), so a
# target with slow bodies keeps most of its time for fuzzing. The
# detector's targets, FuzzDetect and FuzzFrameSearch, run bodies slow
# enough that 10 s of minimizing still ate most of their minute, so their
# minimizing stops after 100 executions instead (FUZZ_DETECT).
FUZZ = -fuzztime 60s -fuzzminimizetime 10s
FUZZ_DETECT = -fuzztime 60s -fuzzminimizetime 100x

fuzz:
	$(GO) test ./internal/dsp -fuzz FuzzFFTRoundTrip $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzUpsamplePlan $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzUpsampleAddSegment $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzConvolve $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzFFTKernels $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzScanBest $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzIngest $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzTrackedOutputs $(FUZZ)
	$(GO) test ./internal/dsp -fuzz FuzzPulseKernel $(FUZZ)
	$(GO) test ./internal/core -fuzz FuzzDetect $(FUZZ_DETECT)
	$(GO) test ./internal/core -fuzz FuzzFrameSearch $(FUZZ_DETECT)
	$(GO) test ./internal/core -fuzz FuzzSlotPlan $(FUZZ)
	$(GO) test ./internal/dw1000 -fuzz FuzzScheduleDelayedTX $(FUZZ)
	$(GO) test ./ranging -fuzz FuzzLoadScenario $(FUZZ)
	$(GO) test ./internal/sim -fuzz FuzzSwarmConfig $(FUZZ)

clean:
	$(GO) clean ./...

# Developer targets. `make verify` is the pre-merge gate: build, vet, the
# full test suite, and a race-detector pass over the concurrency-bearing
# packages (the parallel engine, the scheduler, and the per-walk telemetry
# shards with the recorder that accumulates them).

GO ?= go
GOFMT ?= gofmt

.PHONY: build vet test race bench verify fuzz-smoke soak crash-soak bench-lab flight-smoke gateway-smoke trace-smoke profile-smoke

build:
	$(GO) build ./...

# vet also fails on any Go file gofmt would change (dot directories, such as
# the benchmark's build cache, are skipped).
vet:
	@unformatted=$$(find . -path './.*' -prune -o -name '*.go' -print | xargs $(GOFMT) -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race target exercises the packages that share memory across
# goroutines; a walk's shard free list and the recorder's accumulation and
# snapshotting in particular must stay race-clean, also with stencils that
# share a recorder run concurrently. The root-package run replays the
# hardened-execution suite (panic isolation, cancellation, poisoning,
# checkpoint/restore, fault injection) and the supervised-resilience suite
# (segment retries, degradation ladder, shadow verification) under the
# detector, as well as the live monitor: every scrape of /metrics a valid
# exposition, the zoid counter rising across runs, and a recovered supervised
# run's progress never falling and ending at 100%. The grid free list's
# tests run there too: storage handed between goroutines by Release and
# NewArray must never be shared; so do the accessors' reference and rank
# tests, the RunChecked tests that hold the accessors' in-domain fast path
# to shape checking, and the cross-signal agreement of every walker sink on
# parallel walks.
race:
	$(GO) test -race ./internal/core ./internal/sched ./internal/telemetry ./internal/loops ./internal/faultpoint ./internal/resilience ./internal/metrics ./internal/flight ./internal/wire ./internal/compiler ./internal/gateway ./internal/trace ./internal/profile
	$(GO) test -race -run 'FreeList|Released|AccessorsMatchReference|IndexRank' ./internal/grid
	$(GO) test -race -run 'Panic|Cancel|Poison|Checkpoint|Restore|Fault|RegisterArray|Supervised|LoopsEngine|Monitor|Progress|Bundle|Recorder|Incident|Resume|Durable|ShareRunMetrics|ShadowVerify|RunChecked|SignalsAgree' .

# soak runs the supervised-run soak with probabilistic faults armed at the
# walker's base and cut sites: every visit rolls the dice, and the
# supervisor must still converge to the bit-exact result. CI runs both
# specs on every push.
soak:
	POCHOIR_FAULTPOINTS='walker/base=p:0.01' $(GO) test -race -count 3 -run TestSupervisedSoakEnvFaults -v .
	POCHOIR_FAULTPOINTS='walker/cut=p:0.02' $(GO) test -race -count 3 -run TestSupervisedSoakEnvFaults -v .

# fuzz-smoke gives each fuzz target a short budget; CI runs them on every
# push, and `go test` alone still replays the seed corpora. FuzzWireDecode
# feeds arbitrary bytes to the durable-checkpoint decoder, which must error —
# never panic, and never allocate beyond the input's actual size.
# FuzzProfileDecode does the same for the hand-rolled gzip+protobuf pprof
# decoder behind /profilez. FuzzRowExec is the one end-to-end harness: on
# whatever source text compiles, it holds every run path to a serial sweep of
# the point kernel, bit for bit — RunChecked; the generic executor and the
# row-program clones (sumK and the Go loops) under TRAP/STRAP/LOOPS, serial
# and parallel; the interior clone beside the generic boundary executor; a
# resumed run; an observed run; a supervised run through a one-shot walker
# panic with shadow verification; and a spilled run cancelled and resumed
# from its journal. FuzzSumRows holds opSum's AVX2 kernel
# (sumK) against the Go loops bit for bit over raw float64 bit patterns; it
# skips on a CPU without AVX2. FuzzWalkerCover draws walker
# configurations (1-4 dimensions, degenerate extents, slopes 0-2, mixed
# periodicity, random coarsening and grain, TRAP/STRAP, serial/parallel) and
# requires every space-time point executed exactly once, after its
# dependency cone.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDSL -fuzztime=30s -run '^FuzzDSL$$' ./internal/compiler
	$(GO) test -fuzz=FuzzRowExec -fuzztime=30s -run '^FuzzRowExec$$' ./internal/compiler
	$(GO) test -fuzz=FuzzSumRows -fuzztime=30s -run '^FuzzSumRows$$' ./internal/compiler
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s -run '^FuzzWireDecode$$' ./internal/wire
	$(GO) test -fuzz=FuzzProfileDecode -fuzztime=30s -run '^FuzzProfileDecode$$' ./internal/profile
	$(GO) test -fuzz=FuzzWalkerCover -fuzztime=30s -run '^FuzzWalkerCover$$' ./internal/core

# crash-soak hammers the durable-checkpoint crash path end to end: each
# iteration re-execs the test binary as a child running a spilling supervised
# run, SIGKILLs it at a random point of its journal progress, resumes from
# the journal in the parent process, and requires the final grid to be
# bit-identical to an uninterrupted run — all under the race detector.
# Journals are kept in ./crash-soak-out on failure so CI can upload them.
crash-soak:
	rm -rf crash-soak-out && mkdir -p crash-soak-out
	POCHOIR_CRASH_SOAK_DIR=$(CURDIR)/crash-soak-out \
		$(GO) test -race -count 8 -run '^TestCrashRecoveryKillHarness$$' -v .

# bench checks the telemetry acceptance criterion: Heat2D/NoTelemetry
# (nil-recorder fast path) must match seed throughput, and Heat2D/Telemetry
# reports the decomposition counters. AllSignalsOn is the one observability
# budget: every signal off against metrics, progress, flight, trace and an
# armed profile window all on. WalkOnly is the walker's own cost — time,
# allocations and spawns per walk with clones that do nothing.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(Heat2D|AllSignalsOn|WalkOnly)$$' -benchtime 10x .

# bench-lab runs the performance observatory: the paper suite across the
# TRAP/STRAP/LOOPS engines with wall clock, telemetry, work/span, and
# cache-sim signals fused into BENCH_pochoir.json, then gates the report
# against the committed baseline in warn-only mode (shared CI runners are
# too noisy for a hard gate; the thresholds only hard-fail locally via
# `benchlab diff`/`benchlab check` without -informational).
bench-lab:
	$(GO) run ./cmd/benchlab run -profile quick -out BENCH_pochoir.json
	$(GO) run ./cmd/benchlab check -informational -baseline BENCH_baseline.json BENCH_pochoir.json

# flight-smoke is the black-box post-mortem smoke test: examples/blackbox
# crashes a Heat 2D run with a kernel panic 90% of the way through and reads
# back the crash bundle the always-on flight recorder wrote, then
# cmd/blackbox must list, render, diff, and trace-export the same bundle.
# Bundles land in ./flight-smoke-out so CI can upload them as artifacts.
flight-smoke:
	rm -rf flight-smoke-out && mkdir -p flight-smoke-out
	POCHOIR_POSTMORTEM_DIR=$(CURDIR)/flight-smoke-out $(GO) run ./examples/blackbox
	POCHOIR_POSTMORTEM_DIR=$(CURDIR)/flight-smoke-out $(GO) run ./cmd/blackbox list
	POCHOIR_POSTMORTEM_DIR=$(CURDIR)/flight-smoke-out $(GO) run ./cmd/blackbox show -tail 12
	POCHOIR_POSTMORTEM_DIR=$(CURDIR)/flight-smoke-out $(GO) run ./cmd/blackbox diff
	POCHOIR_POSTMORTEM_DIR=$(CURDIR)/flight-smoke-out $(GO) run ./cmd/blackbox trace -o flight-smoke-out/postmortem-trace.json

# gateway-smoke proves the serving gateway's overload/drain safety under the
# race detector, end to end over real HTTP: a burst past queue capacity must
# shed with 429 + Retry-After and lose zero accepted jobs; concurrent
# executions must never exceed the worker pool bound; an injected worker
# fault (POCHOIR_FAULTPOINTS grammar) must be absorbed by the supervisor
# with a bit-identical result; SIGTERM mid-burst (a real signal to a real
# re-exec'd daemon process) must drain every admitted job and exit 0; and
# the self-scraped /metrics exposition must stay parseable throughout.
gateway-smoke:
	$(GO) test -race -run 'TestGatewaySmoke|TestPochoird' -v ./internal/gateway

# trace-smoke is the causal-tracing acceptance test under the race detector,
# end to end over real HTTP: a faulted, retried, deadline-bounded job
# submitted with a caller W3C traceparent must yield one retrievable trace
# showing the admission decision, compile, queue wait, every segment attempt
# with its retry cause, and the spill/restore markers — surviving tail
# sampling through the slow-outlier rule with probabilistic keeps disabled;
# latency exemplars in /metrics must resolve to live /tracez entries; unknown
# trace IDs must 404; /statusz must link the incident's trace; and the SLO
# engine must report a fast-burn breach during a deadline-miss fault window
# and recover to healthy after it. The trace JSON and rendered waterfall land
# in ./trace-smoke-out so CI can upload them as artifacts.
trace-smoke:
	rm -rf trace-smoke-out && mkdir -p trace-smoke-out
	POCHOIR_TRACE_SMOKE_OUT=$(CURDIR)/trace-smoke-out \
		$(GO) test -race -run '^TestTraceSmoke$$' -v ./internal/gateway

# profile-smoke proves CPU attribution end to end under the race detector:
# two tenants share the daemon — one submitting heavy grids, one thrifty —
# and the scraped /profilez.json aggregate must attribute dominant CPU to
# the heavy tenant (≥4x the light one), carry priority/engine/job/phase
# label breakdowns, export pochoir_tenant_cpu_seconds_total on /metrics,
# and the hot-path sentinel must stay silent on a clean re-aggregation
# while flagging a synthetically injected kernel-share collapse. The JSON
# and ASCII renderings plus the sentinel findings land in
# ./profile-smoke-out so CI can upload them as artifacts.
profile-smoke:
	rm -rf profile-smoke-out && mkdir -p profile-smoke-out
	POCHOIR_PROFILE_SMOKE_OUT=$(CURDIR)/profile-smoke-out \
		$(GO) test -race -run '^TestProfileSmoke$$' -v ./internal/gateway

verify: build vet test race

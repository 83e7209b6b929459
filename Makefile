# Development targets. The performance gate is bench/ (bench/README.md,
# BENCHMARK.json); `bench-test` runs its tests and `bench-smoke` proves
# the Benchmark* functions still execute.

.PHONY: all build test bench-test test-race vet fmt lint loc chaos front-fuzz serve-sim serve-timing warm-sim tuner-sim bench-smoke

all: build test

build:
	go build ./...

test:
	go test ./...

# The gate harness under bench/ is its own Go module, so `./...` above
# never reaches it: build and test it here, or an API change in
# internal/ breaks the benchmark unnoticed (about 25 s).
bench-test:
	cd bench && go test ./...

test-race:
	go test -race ./...

# bench/ is its own module, so the root ./... never reaches it.
vet:
	go vet ./...
	cd bench && go vet ./...

fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Non-test Go lines under internal/, the size ROADMAP.md budgets.
loc:
	@find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

# Static analysis beyond vet. staticcheck is optional tooling: run it
# when the host has it, skip cleanly when it doesn't (CI images and dev
# boxes differ; the target must not fail on a missing binary).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# Fault-containment suite under the race detector: the injection fuzz
# corpus (every generated kernel sabotaged at entry and exit on both
# optimized backends, plus the silent-miscompile audit leg), injected
# panics during trial calls and during a tuner's survey trials (each
# must degrade and quarantine as a full call does), the one call
# contract on every backend (walker, O0, O3, bytecode: trials, audits,
# injected faults, globals, a poisoned session through the pool) and
# the walker's exit-point fault racing its context teardown, fresh
# compiled programs whose one deferred lowering races NewInstance, Call,
# Disassemble and BytecodeFuncs from several goroutines, the
# walker's subscript faults (the positioned program fault every backend
# reports, never an internal one), the table of the C conversion rules
# on the walker, O0, O3 and the bytecode, goroutines whose fallback
# calls all fault, each rollback restoring only its own call's arrays
# from the snapshot that call borrowed, rollbacks of one array bound to
# a written and a read-only parameter or to two read-only ones (the
# snapshot copies only written arrays), and the
# deterministic quarantine lifecycle simulations, including the
# concurrent chaos-routing test, whose shared clock moves on every read
# so quarantine lifts race the routing by design. Then 30 s of FuzzBytecodeRuns without -race: generated run-form
# kernels of any seed, trip count and argument aliasing against the
# walker, at the full budget and at one the fuzzer picks (new interesting
# inputs shrunk for at most 100 runs, as in warm-sim).
chaos:
	go test -race -count=1 ./internal/cminor/ -run 'TestChaosInjectedFaultsStayBitExact|TestCallTrialInjectedFaults|TestCallContractAcrossBackends|TestWalkerExitPanicContained|TestWalkerSubscriptFaults|TestConversionRules|TestConcurrentRollbacksRestoreOwnArrays|TestAliasedArgumentsRollBack|TestDeferredLoweringRace'
	go test -race -count=1 ./internal/cminor/autotune/ -run 'TestQuarantine|TestAllArmsQuarantined|TestAuditCatches|TestConcurrentChaos|TestSurveyTrialFaultQuarantines'
	go test -count=1 ./internal/cminor/ -run '^$$' -fuzz '^FuzzBytecodeRuns$$' -fuzztime=30s -fuzzminimizetime=100x

# The front end's round-trip fuzz, without -race: for any input that
# parses, printing the reparse of the print gives the print again, and
# for any input that also compiles, SourceHash (streamed by the printer)
# is FNV-64a of the print. 30 s, each new interesting input shrunk for
# at most 100 runs, as in chaos.
front-fuzz:
	go test -count=1 ./internal/cminor/ -run '^$$' -fuzz '^FuzzPrintRoundTrip$$' -fuzztime=30s -fuzzminimizetime=100x

# Serving-layer suite under the race detector: the deterministic
# fake-clock scheduler simulations (admission order, quota exhaustion
# and refill, batch coalescing, both shed points, the golden status
# line, the request-ledger checker), the 12-goroutine live stress test
# with per-call bit-exactness (a call not done in 10 s fails it, naming
# the client), and the InstancePool churn/leak test
# backing it. The concurrency tests (waiter-run dispatch, the done
# channel made on demand, the wake rule, the allocation and clock-read
# pins, the live stress, and the ledger balancing in snapshots scraped
# under live load) then run ten more times, since which goroutine runs a
# batch, who makes a done channel, which worker is on its way and where
# a scrape lands are decided by races; -timeout (about 13× the 9 s
# those ten runs take on a 2-vCPU box) makes a hang dump its goroutines
# in two minutes, not go test's ten. The wall-clock test of the batch
# hold's accuracy is not built under -race (timing means nothing there);
# `make serve-timing` runs it.
serve-sim:
	go test -race -count=1 ./internal/cminor/serve/
	go test -race -count=10 -timeout 2m ./internal/cminor/serve/ -run 'TestWaiter|TestWake|TestDo|TestSubmitWaitAllocations|TestServerLiveStress|TestLiveSnapshotBalances'
	go test -race -count=1 ./internal/cminor/ -run 'TestInstancePoolStress'

# The batch hold against the real clock, without the race detector: a
# lone request under a 100µs hold must be dispatched within 500µs.
serve-timing:
	go test -count=1 ./internal/cminor/serve/ -run 'TestHoldAccuracyRealClock' -v

# Warm-start suite under the race detector: the tuner-level save ->
# restart -> load simulations (zero re-exploration, byte-identical
# snapshots, stale-winner dethroning, every bad-snapshot class, every
# truncation and single-byte flip degrading to a cold start, a stray
# temp file from a crash before the rename) and the server-lifecycle
# warm start (the tuner Host returns is saved after Close and loaded
# into the next server's before its first request).
# Then 20 s of FuzzLoadFrom without -race: a fuzzed body behind a valid
# header and checksum must neither panic the loader nor break routing.
# Shrinking each new interesting input is capped at 100 runs: uncapped,
# it takes most of the 20 s and the fuzzer runs under a thousand inputs.
warm-sim:
	go test -race -count=1 ./internal/cminor/autotune/ -run 'TestWarmStart|FuzzLoadFrom'
	go test -race -count=1 ./internal/cminor/serve/ -run 'TestServerWarmStart'
	go test -race -count=1 ./internal/cminor/ -run 'TestSourceHash'
	go test -count=1 ./internal/cminor/autotune/ -run '^$$' -fuzz '^FuzzLoadFrom$$' -fuzztime=20s -fuzzminimizetime=100x

# Tuner-policy suite under the race detector: the whole autotune package
# — the seeded fake-clock sims of convergence, the measure phase, survey
# trials, time-priced exploration, drift, quarantine, warm start, and the
# policy lab that pins each policy constant (heavy tail, switch penalty,
# drift past the band, a flaky arm) — so a renamed or new sim cannot drop
# out of a hand-kept name list. Then the 12-goroutine live stress test —
# cold-site trials included — fifty times over, since which goroutine's
# call lands on a survey, a trial or a re-measure is decided by a race
# (about 30 s). The fifty runs take about 22 s on a 2-vCPU box; -timeout
# 3m (about 8×) makes a hang dump its goroutines in minutes, not go
# test's ten.
tuner-sim:
	go test -race -count=1 ./internal/cminor/autotune/
	go test -race -count=50 -timeout 3m ./internal/cminor/autotune/ -run 'TestConcurrentTunerStress'

# One-iteration smoke run for CI: proves every benchmark still executes.
bench-smoke:
	go test ./internal/cminor/... -run '^$$' -bench . -benchmem -benchtime 1x

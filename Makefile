# Development targets. The performance gate is bench/ (bench/README.md,
# BENCHMARK.json); `bench-test` runs its tests and `bench-smoke` proves
# the Benchmark* functions still execute.

.PHONY: all build test bench-test test-race vet fmt lint chaos serve-sim serve-timing warm-sim tuner-sim bench-smoke

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
# optimized backends, plus the silent-miscompile audit leg) and the
# deterministic quarantine lifecycle simulations, including the
# concurrent chaos-routing test the small backoff makes race-prone by
# design.
chaos:
	go test -race -count=1 ./internal/cminor/ -run 'TestChaosInjectedFaultsStayBitExact'
	go test -race -count=1 ./internal/cminor/autotune/ -run 'TestQuarantine|TestAllArmsQuarantined|TestAuditCatches|TestConcurrentChaos'

# Serving-layer suite under the race detector: the deterministic
# fake-clock scheduler simulations (admission order, quota exhaustion
# and refill, batch coalescing, both shed points, the golden status
# line), the 12-goroutine live stress test with per-call bit-exactness,
# and the InstancePool churn/leak test backing it. The wall-clock test
# of the batch hold's accuracy is not built under -race (timing means
# nothing there); `make serve-timing` runs it.
serve-sim:
	go test -race -count=1 ./internal/cminor/serve/
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
# warm-start tests (Host loads, Close flushes, corrupt snapshots heal).
# Then 20 s of FuzzLoadFrom without -race: a fuzzed body behind a valid
# header and checksum must neither panic the loader nor break routing.
# Shrinking each new interesting input is capped at 100 runs: uncapped,
# it takes most of the 20 s and the fuzzer runs under a thousand inputs.
warm-sim:
	go test -race -count=1 ./internal/cminor/autotune/ -run 'TestWarmStart|FuzzLoadFrom'
	go test -race -count=1 ./internal/cminor/serve/ -run 'TestServerWarmStart|TestFlushTuneCache'
	go test -race -count=1 ./internal/cminor/ -run 'TestSourceHash'
	go test -count=1 ./internal/cminor/autotune/ -run '^$$' -fuzz '^FuzzLoadFrom$$' -fuzztime=20s -fuzzminimizetime=100x

# Tuner-policy suite under the race detector: the seeded fake-clock sims
# of convergence, the measure phase's survey-then-contenders rule (near
# ties, a spiked survey sample, a drift re-measure), exploration priced
# in time, drift (spike, winner shift, common-mode slowdown), per-class
# sites and Call = CallBatch(1), then the 12-goroutine live stress test
# fifty times over, since its real-clock drift challenges land at
# random points (about 10 s).
tuner-sim:
	go test -race -count=1 ./internal/cminor/autotune/ -run 'TestSimulatedConvergence|TestMeasureSurveysThenBurstsContenders|TestNearTieArmsBothBurst|TestSurveySpikeStillFindsWinner|TestExploration|TestDrift|TestIsolatedSpike|TestCommonModeSlowdown|TestPerClassSelection|TestCallIsBatchOfOne'
	go test -race -count=50 ./internal/cminor/autotune/ -run 'TestConcurrentTunerStress'

# One-iteration smoke run for CI: proves every benchmark still executes.
bench-smoke:
	go test ./internal/cminor/... -run '^$$' -bench . -benchmem -benchtime 1x

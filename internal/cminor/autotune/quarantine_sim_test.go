package autotune

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// Deterministic quarantine simulations: a scripted fault injector
// sabotages chosen arms at chosen call counts, a fake clock drives the
// backoff windows, and the synthetic sampler keeps costs exact — so the
// whole detect → contain → rollback → fallback → quarantine → re-entry
// lifecycle is asserted call by call, with zero wall-clock dependence.

func eqValue(a, b cm.Value) bool {
	return a.IsInt == b.IsInt && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// probeOracle returns the reference result of probe over simArgs(16).
func probeOracle(t testing.TB) cm.Value {
	t.Helper()
	v, err := simProgram(t).NewInstance().Call("probe", simArgs(16)...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// chaosGrid is the three-arm knob space the lifecycle tests route over:
// the trusted baseline, the optimized closure tier, and the flat
// bytecode machine that will be sabotaged.
func chaosGrid() []VariantSpec {
	return []VariantSpec{
		{Opt: cm.O0},
		{Opt: cm.O3, Passes: cm.AllPasses},
		{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses},
	}
}

var chaosCost = map[string]time.Duration{
	"O0":       400 * time.Microsecond,
	"O3":       100 * time.Microsecond,
	"bytecode": 50 * time.Microsecond,
}

// runQuarantineLifecycle drives the acceptance scenario and returns the
// final snapshot (for the determinism assertion): the cheapest arm
// (bytecode) wins, an injected panic knocks it out mid-exploit, routing
// excludes it while the caller keeps getting correct answers, and after
// the backoff expires on the fake clock the arm re-measures and re-wins.
func runQuarantineLifecycle(t *testing.T) []SiteReport {
	t.Helper()
	want := probeOracle(t)
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: 6,
		Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	clk := clock.NewFake(time.Unix(0, 0))
	tn, err := New(simProgram(t),
		WithGrid(chaosGrid()...),
		WithSampler(&simSampler{cost: flatCost(chaosCost)}),
		WithSeed(11),
		WithClock(clk),
		WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	call := func(i int) {
		t.Helper()
		v, err := tn.Call("probe", args...)
		if err != nil {
			t.Fatalf("call %d: %v (a contained fault must never surface)", i, err)
		}
		if !eqValue(want, v) {
			t.Fatalf("call %d: value %+v, want %+v", i, v, want)
		}
	}

	// Phase A — measure (a survey of the 3 arms, then bytecode, the one
	// contender, bursts to 3) plus exploit on the cheapest arm; the
	// bytecode arm's 6th call (site call 6: its survey call, the two cut
	// survey trials of O0 and O3 it served, two bursts and one exploit
	// call) is the injected panic. The caller must see nothing but the
	// right answer.
	for i := 1; i <= 12; i++ {
		call(i)
	}
	if inj.TotalFired() != 1 {
		t.Fatalf("injector fired %d times, want 1", inj.TotalFired())
	}
	rep := siteReport(t, tn, "probe", class)
	if rep.QuarantinedArms != 1 {
		t.Fatalf("QuarantinedArms = %d, want 1", rep.QuarantinedArms)
	}
	bc := rep.Arms[2]
	if bc.Spec.String() != "bytecode" {
		t.Fatalf("arm 2 is %s, want bytecode", bc.Spec)
	}
	if !bc.Quarantined || bc.Quarantines != 1 || bc.Faults != 1 || bc.Degraded != 1 {
		t.Fatalf("bytecode arm after fault: %+v", bc)
	}
	// The poisoned winner abdicated: the best trusted arm rules.
	if got := bestSpec(t, tn, "probe", class); got.String() != "O3" {
		t.Fatalf("post-quarantine winner = %s, want O3", got)
	}

	// Phase B — while quarantined (clock frozen), the arm gets zero
	// routing: its pull count must not move.
	pulls := bc.Pulls
	for i := 13; i <= 22; i++ {
		call(i)
	}
	rep = siteReport(t, tn, "probe", class)
	if rep.Arms[2].Pulls != pulls {
		t.Fatalf("quarantined arm was routed: pulls %d → %d", pulls, rep.Arms[2].Pulls)
	}

	// Phase C — the backoff expires on the fake clock: the arm re-enters
	// through a fresh measure burst and, being clean again and cheapest,
	// re-wins the site.
	clk.Advance(2 * backoffBase)
	for i := 23; i <= 30; i++ {
		call(i)
	}
	rep = siteReport(t, tn, "probe", class)
	if rep.Arms[2].Quarantined {
		t.Fatal("arm still quarantined after backoff expiry")
	}
	if rep.QuarantinedArms != 0 {
		t.Fatalf("QuarantinedArms = %d, want 0", rep.QuarantinedArms)
	}
	if got := bestSpec(t, tn, "probe", class); got.String() != "bytecode" {
		t.Fatalf("re-entered winner = %s, want bytecode", got)
	}
	if rep.Arms[2].Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (history must survive the lift)", rep.Arms[2].Quarantines)
	}
	if inj.TotalFired() != 1 {
		t.Fatalf("injector fired %d times total, want 1", inj.TotalFired())
	}
	return tn.Snapshot()
}

func TestQuarantineLifecycle(t *testing.T) {
	runQuarantineLifecycle(t)
}

// The whole lifecycle — injected faults, quarantine windows, lifts,
// re-convergence — is a pure function of (seed, script, clock): two
// runs must produce identical snapshots.
func TestQuarantineLifecycleDeterministic(t *testing.T) {
	a := runQuarantineLifecycle(t)
	b := runQuarantineLifecycle(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("lifecycle not deterministic:\n%+v\nvs\n%+v", a, b)
	}
}

// Repeated quarantines of the same arm double the backoff window:
// still out at 1× base after the second quarantine, back in at 2×.
func TestQuarantineBackoffDoubles(t *testing.T) {
	grid := []VariantSpec{
		{Opt: cm.O0},
		{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses},
	}
	inj := cm.NewScriptedInjector(
		cm.FaultRule{Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: 2,
			Kind: cm.FaultPanic, Point: cm.FaultAtExit},
		cm.FaultRule{Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: 4,
			Kind: cm.FaultPanic, Point: cm.FaultAtExit},
	)
	clk := clock.NewFake(time.Unix(0, 0))
	const base = backoffBase
	tn, err := New(simProgram(t),
		WithGrid(grid...),
		WithSampler(&simSampler{cost: flatCost(chaosCost)}),
		WithSeed(5),
		WithClock(clk),
		WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	call := func() {
		t.Helper()
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
	}
	quarantined := func() bool {
		return siteReport(t, tn, "probe", class).Arms[1].Quarantined
	}

	call() // survey bytecode, the grid's last arm, by a full call
	call() // O0's survey trial is cut and bytecode serves the call: its call 2 → fault → quarantine #1 at T0
	if !quarantined() {
		t.Fatal("arm not quarantined after first fault")
	}
	call() // T0: O0, the one arm in service, bursts
	clk.Advance(base - time.Millisecond)
	call() // T0+base−1ms: still inside the 1×base window
	if !quarantined() {
		t.Fatal("quarantine lifted before base backoff elapsed")
	}
	clk.Advance(time.Millisecond)
	call() // T0+base: lift → the re-survey routes the arm (clean, its call 3)
	if quarantined() {
		t.Fatal("quarantine not lifted at base backoff")
	}
	call() // bytecode, a contender, bursts; its call 4 → fault → quarantine #2 at T1
	rep := siteReport(t, tn, "probe", class)
	if !rep.Arms[1].Quarantined || rep.Arms[1].Quarantines != 2 {
		t.Fatalf("after second fault: %+v", rep.Arms[1])
	}
	clk.Advance(base)
	call() // T1+base: the window doubled — still out
	if !quarantined() {
		t.Fatal("second quarantine lifted after only 1×base (no exponential backoff)")
	}
	clk.Advance(base)
	call() // T1+2×base: elapsed → lifted
	if quarantined() {
		t.Fatal("second quarantine not lifted at 2×base")
	}
	if inj.TotalFired() != 2 {
		t.Fatalf("injector fired %d times, want 2", inj.TotalFired())
	}
}

// When every arm of a site is quarantined there is no trusted variant
// left — yet calls must keep succeeding (containment + fallback serve
// them) while routing falls back to the arm whose backoff expires
// soonest.
func TestAllArmsQuarantinedStillServes(t *testing.T) {
	grid := []VariantSpec{
		{Opt: cm.O0},
		{Opt: cm.O3, Passes: cm.AllPasses},
	}
	// Every compiled-backend call faults at exit: both arms poison
	// themselves immediately and repeatedly. The trusted reference tier
	// the fallback runs on is always injector-free.
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendCompiled, AnyOpt: true, Fn: "probe", Call: 0,
		Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	clk := clock.NewFake(time.Unix(0, 0))
	tn, err := New(simProgram(t),
		WithGrid(grid...),
		WithSampler(&simSampler{cost: flatCost(chaosCost)}),
		WithSeed(9),
		WithClock(clk),
		WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := probeOracle(t)
	args := simArgs(16)
	class := SizeClass(args)
	for i := 1; i <= 6; i++ {
		v, err := tn.Call("probe", args...)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if !eqValue(want, v) {
			t.Fatalf("call %d: value %+v, want %+v", i, v, want)
		}
	}
	rep := siteReport(t, tn, "probe", class)
	if rep.QuarantinedArms != len(grid) {
		t.Fatalf("QuarantinedArms = %d, want %d", rep.QuarantinedArms, len(grid))
	}
	for i, a := range rep.Arms {
		if !a.Quarantined || a.Faults == 0 || a.Degraded == 0 {
			t.Fatalf("arm %d: %+v", i, a)
		}
	}
	if rep.Converged {
		t.Fatal("a site with zero successful measurements must not report converged")
	}
	// Lifts re-try the arms; they fault again and re-quarantine with a
	// doubled window — forever serving correct results in between.
	clk.Advance(backoffBase * 3 / 2)
	for i := 7; i <= 10; i++ {
		v, err := tn.Call("probe", args...)
		if err != nil || !eqValue(want, v) {
			t.Fatalf("call %d after lift: v=%+v err=%v", i, v, err)
		}
	}
	rep = siteReport(t, tn, "probe", class)
	if rep.Arms[0].Quarantines < 2 && rep.Arms[1].Quarantines < 2 {
		t.Fatalf("no arm re-quarantined after lift: %+v", rep.Arms)
	}
}

// A silent miscompile — wrong results, no panic — is invisible to
// containment; the audit cadence catches it, returns the reference
// outcome to the caller, and quarantines the arm.
func TestAuditCatchesSilentMiscompile(t *testing.T) {
	grid := []VariantSpec{
		{Opt: cm.O0},
		{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses},
	}
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: 0,
		Kind: cm.FaultWrongResult,
	})
	clk := clock.NewFake(time.Unix(0, 0))
	tn, err := New(simProgram(t),
		WithGrid(grid...),
		WithSampler(&simSampler{cost: flatCost(chaosCost)}),
		WithSeed(13),
		WithClock(clk),
		WithFaultInjector(inj),
		WithAuditEvery(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := probeOracle(t)
	args := simArgs(16)
	class := SizeClass(args)
	// Site pull 1 surveys bytecode, the grid's last arm, unaudited. Pull
	// 2 is O0's survey trial, cut, and bytecode serves the call: the two
	// calls whose corrupt value escapes, which is exactly why the audit
	// cadence exists. Bytecode is the contender, so pull 3 bursts it,
	// audited → divergence → quarantine.
	var sawCorrupt bool
	for i := 1; i <= 3; i++ {
		v, err := tn.Call("probe", args...)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if i == 3 && !eqValue(want, v) {
			t.Fatalf("audited call returned the corrupt value: %+v, want %+v", v, want)
		}
		if !eqValue(want, v) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatal("wrong-result injection never produced a corrupt value (test premise broken)")
	}
	rep := siteReport(t, tn, "probe", class)
	bc := rep.Arms[1]
	if bc.Diverged != 1 || !bc.Quarantined || bc.Quarantines != 1 {
		t.Fatalf("bytecode arm after audit: %+v", bc)
	}
	if bc.Faults != 0 {
		t.Fatalf("divergence miscounted as an internal fault: %+v", bc)
	}
	// With the lying arm out of routing, every further call is correct.
	for i := 4; i <= 12; i++ {
		v, err := tn.Call("probe", args...)
		if err != nil || !eqValue(want, v) {
			t.Fatalf("call %d post-quarantine: v=%+v err=%v, want %+v", i, v, err, want)
		}
	}
}

// tickingClock advances step on every read and is safe for concurrent
// use: time passes exactly as fast as the goroutines sharing it read it.
type tickingClock struct {
	ns   atomic.Int64
	step time.Duration
}

func (c *tickingClock) Now() time.Time { return time.Unix(0, c.ns.Add(int64(c.step))) }

// Concurrent chaos: many goroutines hammer a tuner whose bytecode arm
// panics on every call, on a clock shared by all of them that moves a
// millisecond per read, so the quarantine backoff lifts every few dozen
// calls and the lifts race the routing. Run under -race; every call
// must still return the oracle value, and the arm must have been
// quarantined, lifted and quarantined again.
func TestConcurrentChaosRouting(t *testing.T) {
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: 0,
		Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	tn, err := New(simProgram(t),
		WithSeed(17),
		WithClock(&tickingClock{step: time.Millisecond}),
		WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := probeOracle(t)
	const goroutines = 8
	const perG = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := simArgs(16)
			for i := 0; i < perG; i++ {
				v, err := tn.Call("probe", args...)
				if err != nil {
					errs <- fmt.Errorf("call %d: %w", i, err)
					return
				}
				if !eqValue(want, v) {
					errs <- fmt.Errorf("call %d: value %+v, want %+v", i, v, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if inj.TotalFired() == 0 {
		t.Error("chaos run never injected a fault (test premise broken)")
	}
	if bc := tn.Snapshot()[0].Arms[4]; bc.Quarantines < 2 {
		t.Errorf("bytecode quarantined %d times, want a lift raced by a second quarantine", bc.Quarantines)
	}
}

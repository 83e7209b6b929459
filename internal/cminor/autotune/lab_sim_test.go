package autotune

import (
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// The policy lab: seeded sims built from the failure modes a live box
// shows the tuner — a heavy-tailed cost distribution, a first call
// after a variant switch that runs slow, and a winner that degrades
// while the box does not. Each asserts an outcome (which arm serves,
// how often the winner changes, how many calls fault), and each fails
// when one of the policy constants is set to its neutral value; the
// constants' doc comments name the sim that pins them.

// labRun drives n calls of probe and returns the arm each sampled call
// ran on and how many times Best changed once the site had converged.
func labRun(t *testing.T, tn *AutoTuner, sampler *specSampler, n int) (specs []string, changes int) {
	t.Helper()
	args := simArgs(16)
	class := SizeClass(args)
	var last VariantSpec
	seen := false
	for i := 0; i < n; i++ {
		drive(t, tn, 1, args)
		if b, ok := tn.Best("probe", class); ok {
			if seen && b != last {
				changes++
			}
			last, seen = b, true
		}
	}
	return specNames(sampler.specs), changes
}

// share is the fraction of names equal to want.
func share(names []string, want string) float64 {
	n := 0
	for _, s := range names {
		if s == want {
			n++
		}
	}
	return float64(n) / float64(len(names))
}

// TestLabHeavyTailKeepsWinner: one sampled call in 50 stalls 20× (a GC
// pause, a preemption), whichever arm it runs on. The winner, bytecode
// at 100µs, has a runner-up within 30% (O3, 130µs, estimated at its
// jitter minimum of 125µs). A stall on the winner folds in capped at
// clipFactor× its estimate, so the estimate rises to 1.6× (0.3·3 +
// 0.7), short of O3's 125µs ÷ 0.75, and the winner never changes:
// every call but the ε explorations (about 2%) runs on bytecode. Unclipped, one stall lifts the estimate
// to 6.7× and O3 takes over until ε re-samples bytecode; at α = 1 the
// clipped stall alone (3×) hands the site to O3, and a single clean
// sample of 100µs never clears the margin back.
func TestLabHeavyTailKeepsWinner(t *testing.T) {
	base := pr21Cost(100, 130)
	sampler := &specSampler{inner: simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := base[spec.String()]
		if call%50 == 0 {
			c *= 20
		}
		return time.Duration(float64(c) * jitter(call))
	}}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	specs, changes := labRun(t, tn, sampler, 3000)
	if s := share(specs, "bytecode"); changes != 0 || s < 0.95 {
		t.Fatalf("under a heavy tail: %d winner changes, %.3f of calls on bytecode; want 0 and >= 0.95", changes, s)
	}
}

// TestLabSwitchPenaltyBurstsFindWinner: the first call after a variant
// switch runs slow (a cold closure graph, predictor and icache thrash)
// by a margin that differs per arm: 40% on bytecode, 10% elsewhere.
// Bytecode truly costs 100µs and O3 110µs, but every survey sample is a
// first call after a switch, so the survey prices bytecode at 140µs and
// O3 at 121µs. O3's burst brings it to 110µs; bytecode's 140µs is
// within burstBand of that, so bytecode bursts too, and its second
// burst sample, switch-free, crowns it at 100µs. The site then serves
// bytecode on all but the ε explorations, and the penalized return from
// each (140µs, lifting the estimate to 112µs) stays inside the switch
// margin. With a quota of one there are no bursts; with burstBand at 1×
// bytecode's survey sample cuts it — either way the site
// settles on O3, 10% slower, and ε samples of bytecode, each a first
// call after a switch, never win it back.
func TestLabSwitchPenaltyBurstsFindWinner(t *testing.T) {
	base := map[string]time.Duration{
		"O0": 400 * time.Microsecond, "O1": 300 * time.Microsecond,
		"O2": 125 * time.Microsecond, "O3": 110 * time.Microsecond,
		"bytecode": 100 * time.Microsecond,
	}
	prev := ""
	sampler := &specSampler{inner: simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		name := spec.String()
		c := float64(base[name])
		if name != prev {
			c *= 1.1
			if name == "bytecode" {
				c *= 1.4 / 1.1
			}
			prev = name
		}
		return time.Duration(c)
	}}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	specs, changes := labRun(t, tn, sampler, 3000)
	if best := bestSpec(t, tn, "probe", SizeClass(simArgs(16))); best.String() != "bytecode" || changes != 0 {
		t.Fatalf("under a switch penalty the site settled on %v after %d winner changes; want bytecode and none", best, changes)
	}
	if s := share(specs, "bytecode"); s < 0.95 {
		t.Fatalf("under a switch penalty %.3f of calls ran on bytecode, want >= 0.95", s)
	}
}

// TestLabDriftPastBandFindsRunnerUp: the winner (bytecode, 30µs)
// degrades to 48µs while the box does not — 1.6×, past the drift band
// of 1.5× — and O3 at 38µs is now the best arm. The switch margin
// cannot see it: 38µs is not 25% below 48µs, so the hysteresis switch
// never fires and ε samples of O3 only confirm its 38µs. The drift
// challenge does: after minSamples over-band samples it re-measures the
// arms estimated below 48µs (bytecode, O3 and O2 all burst, each within
// burstBand of the best), and O3 is crowned within 12 calls of the
// shift. Without the drift band the site serves 48µs calls forever.
func TestLabDriftPastBandFindsRunnerUp(t *testing.T) {
	const shiftAt = 60
	base := map[string]time.Duration{
		"O0": 300 * time.Microsecond, "O1": 200 * time.Microsecond,
		"O2": 40 * time.Microsecond, "O3": 38 * time.Microsecond,
		"bytecode": 30 * time.Microsecond,
	}
	sampler := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := base[spec.String()]
		if call > shiftAt && spec.String() == "bytecode" {
			c = 48 * time.Microsecond
		}
		return time.Duration(float64(c) * jitter(call))
	}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	drive(t, tn, shiftAt, args)
	if got := bestSpec(t, tn, "probe", class); got.String() != "bytecode" {
		t.Fatalf("pre-shift winner %v, want bytecode", got)
	}
	for i := 1; i <= 200; i++ {
		drive(t, tn, 1, args)
		if got, ok := tn.Best("probe", class); i >= 12 && (!ok || got.String() != "O3") {
			t.Fatalf("%d calls after the shift the winner is %v (converged %v), want O3", i, got, ok)
		}
	}
}

// TestLabFlakyArmRetriedPerWindow: bytecode, the cheapest arm, faults
// on every call, and the fake clock moves 1ms per call. Each fault is
// contained and the call served again on the trusted tier — a
// fallback re-execution — and quarantines the arm. The backoff doubles
// per quarantine (250ms, 500ms, 1s), so over 2000 calls the arm is
// retried at about 250ms, 750ms and 1750ms: 4 faults. Without backoff
// a quarantine lifts on the next call, whose survey pull routes the
// arm again: it faults on every call.
func TestLabFlakyArmRetriedPerWindow(t *testing.T) {
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: 0,
		Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	clk := clock.NewFake(time.Unix(0, 0))
	tn, err := New(simProgram(t), WithGrid(chaosGrid()...), WithSampler(&simSampler{cost: flatCost(chaosCost)}),
		WithClock(clk), WithFaultInjector(inj), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	for i := 0; i < 2000; i++ {
		drive(t, tn, 1, args)
		clk.Advance(time.Millisecond)
	}
	bc := siteReport(t, tn, "probe", SizeClass(args)).Arms[2]
	if bc.Faults != 4 || bc.Degraded != 4 {
		t.Fatalf("a flaky arm over 2000 calls: %d faults, %d degraded calls; want 4 each", bc.Faults, bc.Degraded)
	}
}

// TestLabUniformSwitchPenaltyFindsWinner: every arm's first call after
// a variant switch costs 2×. O3 truly costs 96µs against bytecode's
// 100µs (O2 125µs, O1 300µs, O0 400µs). The survey starts on bytecode
// at 100µs, and O3's one survey sample, a first call after a switch,
// is 192µs: beyond the switch margin of bytecode (192·0.75 > 100) but
// within burstBand of it, so O3 bursts, its second burst sample,
// switch-free, is 96µs, and every seed converges on O3. In exploit the
// winner's estimate absorbs one penalized return from an exploration
// (192µs lifts it to 125µs, inside the switch margin of bytecode's
// 100µs) but not two within a few calls: on one seed of the ten (7) the
// second exploit call explores and bytecode takes the site. So the sim
// asks that at least nine seeds keep O3 with no winner change and serve
// 95% of their calls there. With burstBand at 1× O3 is cut on its one
// penalized survey sample and every seed settles on bytecode: each ε
// sample of O3 is a first call after a switch, so O3 never wins it back.
func TestLabUniformSwitchPenaltyFindsWinner(t *testing.T) {
	base := map[string]time.Duration{
		"O0": 400 * time.Microsecond, "O1": 300 * time.Microsecond,
		"O2": 125 * time.Microsecond, "O3": 96 * time.Microsecond,
		"bytecode": 100 * time.Microsecond,
	}
	args := simArgs(16)
	kept := 0
	for seed := uint64(1); seed <= 10; seed++ {
		prev := ""
		sampler := &specSampler{inner: simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
			name := spec.String()
			c := base[name]
			if prev != "" && name != prev {
				c *= 2
			}
			prev = name
			return c
		}}}
		tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		rep := driveToConvergence(t, tn, args, minSamples*len(DefaultGrid()))
		if rep.Best.String() != "O3" {
			t.Fatalf("seed %d: under a uniform switch penalty the site converged on %v, want O3", seed, rep.Best)
		}
		specs, changes := labRun(t, tn, sampler, 3000-int(rep.Pulls))
		if changes == 0 && share(specs, "O3") >= 0.95 {
			kept++
		}
	}
	if kept < 9 {
		t.Fatalf("under a uniform switch penalty %d of 10 seeds kept O3 on 95%% of calls with no winner change, want >= 9", kept)
	}
}

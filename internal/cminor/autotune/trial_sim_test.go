package autotune

import (
	"reflect"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// Survey trials (policy.go: trialSlice, cutByTrial): once a site has a
// full-call sample, every other arm's survey pull runs a slice of the
// call and is cut there when its projected cost could not win.

// siteTrials reads the unexported trial counter and per-arm call
// lengths of a site.
func siteTrials(tn *AutoTuner, args []any) (trials int64, steps []int) {
	tn.mu.Lock()
	defer tn.mu.Unlock()
	st := tn.sites[siteKey{fn: "probe", class: SizeClass(args)}]
	for _, a := range st.arms {
		steps = append(steps, a.steps)
	}
	return st.trials, steps
}

// TestColdSiteCutsLosersByTrial: a cold default-grid site on every PR
// 21-shaped cost model converges in 7 pulls — bytecode's full call,
// four trials that are cut, two bytecode bursts — and no losing arm
// runs a full call: only bytecode has a call length, and each loser's
// estimate is its trial's price.
func TestColdSiteCutsLosersByTrial(t *testing.T) {
	want := []string{"bytecode", "O0", "O1", "O2", "O3", "bytecode", "bytecode"}
	for _, k := range pr21Kernels {
		cost := pr21Cost(k.bytecode, k.o3)
		sampler := &specSampler{inner: simSampler{cost: flatCost(cost)}}
		tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		args := simArgs(16)
		rep := driveToConvergence(t, tn, args, len(want))
		if rep.Pulls != int64(len(want)) || rep.Best.String() != "bytecode" {
			t.Fatalf("%s: converged on %v after %d pulls, want bytecode after %d", k.name, rep.Best, rep.Pulls, len(want))
		}
		if got := specNames(sampler.specs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pulls %v, want %v", k.name, got, want)
		}
		trials, steps := siteTrials(tn, args)
		if trials != 4 {
			t.Fatalf("%s: %d trials, want 4", k.name, trials)
		}
		for i, arm := range rep.Arms {
			if arm.Spec.String() == "bytecode" {
				if steps[i] == 0 {
					t.Fatalf("%s: the winner has no call length", k.name)
				}
				continue
			}
			if steps[i] != 0 || arm.Pulls != 1 {
				t.Fatalf("%s: loser %v ran a full call (%d steps, %d pulls)", k.name, arm.Spec, steps[i], arm.Pulls)
			}
			// The loser's price is the sampler's whole-call cost, with the
			// jitter of the call its trial ran in.
			if c := cost[arm.Spec.String()]; arm.EWMA < c*24/25 || arm.EWMA > c*26/25 {
				t.Fatalf("%s: loser %v estimated at %v, want its trial's price ~%v", k.name, arm.Spec, arm.EWMA, c)
			}
		}
	}
}

// TestNearTieTrialRunsInFull: with norms-shaped costs, O2 and O3 are
// within burstBand of bytecode, so their trials are not cut:
// each call runs in full on its arm, which gets a real sample and a
// call length, and both burst. O0 and O1 are cut.
func TestNearTieTrialRunsInFull(t *testing.T) {
	tn, err := New(simProgram(t), WithSampler(&simSampler{cost: flatCost(pr21Cost(38, 37))}),
		WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	rep := driveToConvergence(t, tn, args, 3*len(DefaultGrid()))
	trials, steps := siteTrials(tn, args)
	if trials != 4 {
		t.Fatalf("%d trials, want 4", trials)
	}
	for i, arm := range rep.Arms {
		cut := arm.Spec.String() == "O0" || arm.Spec.String() == "O1"
		if cut != (steps[i] == 0) {
			t.Fatalf("%v: call length %d; want one exactly when its trial was not cut", arm.Spec, steps[i])
		}
		if !cut && arm.Pulls != 3 {
			t.Fatalf("near tie %v took %d pulls, want the full quota of 3", arm.Spec, arm.Pulls)
		}
	}
}

// TestCutLeaderServesBatchOnBest: a batch whose leader's survey trial
// is cut is served on the best arm whole — the leader and every rider
// — with the trial as the cut arm's only pull, the riders charged to
// the best arm, and every result exact.
func TestCutLeaderServesBatchOnBest(t *testing.T) {
	prog := simProgram(t)
	want, err := prog.NewInstance().Call("probe", simArgs(16)...)
	if err != nil {
		t.Fatal(err)
	}
	sampler := &specSampler{inner: simSampler{cost: flatCost(pr21Cost(27, 123))}}
	tn, err := New(prog, WithSampler(sampler), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, tn, 1, simArgs(16)) // bytecode's full-call survey
	batch := make([]BatchCall, 4)
	for i := range batch {
		batch[i].Args = simArgs(16)
	}
	if err := tn.CallBatch("probe", batch); err != nil {
		t.Fatal(err)
	}
	if got, w := specNames(sampler.specs), []string{"bytecode", "O0", "bytecode", "bytecode", "bytecode"}; !reflect.DeepEqual(got, w) {
		t.Fatalf("sampled %v, want %v: the cut leader's trial, then the riders on bytecode", got, w)
	}
	for i, b := range batch {
		if b.Err != nil || b.Ret != want || b.Steps == 0 {
			t.Fatalf("entry %d: %v, %v, %d steps; want %v", i, b.Ret, b.Err, b.Steps, want)
		}
	}
	rep := siteReport(t, tn, "probe", SizeClass(simArgs(16)))
	if rep.Pulls != 5 || rep.Arms[0].Pulls != 1 || rep.Arms[4].Pulls != 4 {
		t.Fatalf("pulls: site %d, O0 %d, bytecode %d; want 5, 1, 4", rep.Pulls, rep.Arms[0].Pulls, rep.Arms[4].Pulls)
	}
}

// TestConvergedSiteRunsNoTrials: trials are survey pulls only. A
// converged site at the default ε explores — and every exploring call
// runs in full — but runs no trial over 10 000 calls.
func TestConvergedSiteRunsNoTrials(t *testing.T) {
	tn, err := New(simProgram(t), WithSampler(&simSampler{cost: flatCost(pr21Cost(27, 123))}), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	driveToConvergence(t, tn, args, 3*len(DefaultGrid()))
	before, _ := siteTrials(tn, args)
	drive(t, tn, 10000, args)
	after, _ := siteTrials(tn, args)
	rep := siteReport(t, tn, "probe", SizeClass(args))
	if after != before || rep.ExplorePulls == 0 || !rep.Converged {
		t.Fatalf("over 10 000 converged calls: %d -> %d trials, %d explore pulls, converged %v; want no trial, some exploration",
			before, after, rep.ExplorePulls, rep.Converged)
	}
}

// pairClock advances only on every second read, by the next of its
// durations: a call bracketed by two reads is measured at exactly that
// duration.
type pairClock struct {
	t    time.Time
	odd  bool
	durs []time.Duration
}

func (c *pairClock) Now() time.Time {
	if c.odd {
		c.t = c.t.Add(c.durs[0])
		c.durs = c.durs[1:]
	}
	c.odd = !c.odd
	return c.t
}

// TestTrialProjection pins the clock-priced projection. The trial's
// fixed cost is priced first by two one-statement trials (a cold one,
// then a warm one); what the slice adds beyond the warm one is scaled
// to the call's length and added to the cold one. Here bytecode's full
// call costs 10µs, and O0's probes 50µs and 4µs and its trial of a
// sixteenth 24µs, so O0 projects to 50µs + 20µs·(L−1)/(L/16−1), far
// beyond burstBand: it is cut, and bytecode serves the call
// unpriced.
func TestTrialProjection(t *testing.T) {
	const us = time.Microsecond
	clk := &pairClock{t: time.Unix(0, 0), durs: []time.Duration{10 * us, 50 * us, 4 * us, 24 * us}}
	tn, err := New(simProgram(t), WithClock(clk), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(64)
	drive(t, tn, 2, args)
	if len(clk.durs) != 0 || clk.odd {
		t.Fatalf("%d durations left, odd read %v: the two calls did not read the clock in four pairs", len(clk.durs), clk.odd)
	}
	_, steps := siteTrials(tn, args)
	length := steps[4]
	slice := length / trialDiv
	want := time.Duration(float64(50*us) + float64(24*us-4*us)*float64(length-1)/float64(slice-1))
	rep := siteReport(t, tn, "probe", SizeClass(args))
	if o0 := rep.Arms[0]; o0.EWMA != want || steps[0] != 0 {
		t.Fatalf("O0 estimated at %v with call length %d, want the projection %v and no full call", o0.EWMA, steps[0], want)
	}
	if bc := rep.Arms[4]; bc.EWMA != 10*us || bc.Pulls != 1 {
		t.Fatalf("bytecode %v over %d pulls; the cut leader must not be a bytecode sample", bc.EWMA, bc.Pulls)
	}
}

// TestSurveyTrialFaultQuarantines: an injected panic during a survey
// trial — at entry, or at exit, cut off by the slice and fired at its
// end — degrades the call and
// quarantines the arm exactly as a full survey call of the arm does:
// the same fault accounting and quarantine on the arm, and the caller
// served the reference result.
func TestSurveyTrialFaultQuarantines(t *testing.T) {
	want := probeOracle(t)
	run := func(grid []VariantSpec, point cm.FaultPoint) (ArmReport, BatchCall, int64) {
		inj := cm.NewScriptedInjector(cm.FaultRule{Backend: cm.BackendCompiled, Opt: cm.O0, Fn: "probe", Call: 1,
			Kind: cm.FaultPanic, Point: point})
		tn, err := New(simProgram(t), WithGrid(grid...), WithSampler(&simSampler{cost: flatCost(chaosCost)}),
			WithFaultInjector(inj), WithClock(clock.NewFake(time.Unix(0, 0))), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		var last BatchCall
		for range grid {
			b := []BatchCall{{Args: simArgs(16)}}
			if err := tn.CallBatch("probe", b); err != nil {
				t.Fatal(err)
			}
			if b[0].Fault != nil {
				last = b[0]
			}
		}
		trials, _ := siteTrials(tn, simArgs(16))
		for _, arm := range siteReport(t, tn, "probe", SizeClass(simArgs(16))).Arms {
			if arm.Spec.String() == "O0" {
				return arm, last, trials
			}
		}
		t.Fatal("no O0 arm")
		return ArmReport{}, BatchCall{}, 0
	}
	bytecode := VariantSpec{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses}
	for _, point := range []cm.FaultPoint{cm.FaultAtEntry, cm.FaultAtExit} {
		// O0 surveyed second, by a trial against bytecode's full call …
		trialArm, trialCall, trials := run([]VariantSpec{{Opt: cm.O0}, bytecode}, point)
		// … and surveyed first, by a full call.
		fullArm, fullCall, _ := run([]VariantSpec{bytecode, {Opt: cm.O0}}, point)
		if trials != 1 {
			t.Fatalf("%v: %d trials, want O0's survey to be one", point, trials)
		}
		if !reflect.DeepEqual(trialArm, fullArm) || !trialArm.Quarantined || trialArm.Faults != 1 || trialArm.Degraded != 1 {
			t.Fatalf("%v: O0 after a faulting trial %+v, after a faulting full call %+v; want both quarantined on one degraded fault",
				point, trialArm, fullArm)
		}
		for _, c := range []BatchCall{trialCall, fullCall} {
			if c.Err != nil || !eqValue(c.Ret, want) || !c.Degraded || c.Steps != fullCall.Steps {
				t.Fatalf("%v: faulting survey call returned %v, %v, degraded %v, %d steps; want the reference %v",
					point, c.Ret, c.Err, c.Degraded, c.Steps, want)
			}
		}
	}
}

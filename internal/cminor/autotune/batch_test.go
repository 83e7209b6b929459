package autotune

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// specSampler records which variant every sampled call ran on, so batch
// tests can assert the whole batch shared one arm.
type specSampler struct {
	inner simSampler
	specs []VariantSpec
}

func (s *specSampler) Sample(fn string, spec VariantSpec, class int, call func() error) (time.Duration, error) {
	s.specs = append(s.specs, spec)
	return s.inner.Sample(fn, spec, class, call)
}

// TestCallBatchSharesOneDecision pins the batching contract: a k-entry
// batch charges k pulls to exactly one arm, runs every call on it, and
// produces the same values as individual calls.
func TestCallBatchSharesOneDecision(t *testing.T) {
	prog := simProgram(t)
	want, err := prog.NewInstance().Call("probe", simArgs(16)...)
	if err != nil {
		t.Fatal(err)
	}
	sampler := &specSampler{inner: simSampler{cost: flatCost(map[string]time.Duration{
		"O0": 100 * time.Microsecond, "O2": 30 * time.Microsecond})}}
	tn, err := New(prog,
		WithGrid(VariantSpec{Opt: cm.O0}, VariantSpec{Opt: cm.O2}),
		WithSampler(sampler),
	)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchCall, 4)
	for i := range batch {
		batch[i].Args = simArgs(16)
	}
	if err := tn.CallBatch("probe", batch); err != nil {
		t.Fatal(err)
	}
	if len(sampler.specs) != 4 {
		t.Fatalf("sampled %d calls, want 4", len(sampler.specs))
	}
	for i, b := range batch {
		if b.Err != nil {
			t.Fatalf("entry %d: %v", i, b.Err)
		}
		if b.Ret != want {
			t.Fatalf("entry %d: got %v, want %v", i, b.Ret, want)
		}
		if b.Steps == 0 {
			t.Fatalf("entry %d: no step accounting", i)
		}
		if sampler.specs[i] != sampler.specs[0] {
			t.Fatalf("batch split across arms: %v vs %v", sampler.specs[i], sampler.specs[0])
		}
	}
	snaps := tn.Snapshot()
	if len(snaps) != 1 || snaps[0].Pulls != 4 {
		t.Fatalf("want one site with 4 pulls, got %+v", snaps)
	}
	var armPulls int64
	for _, a := range snaps[0].Arms {
		if a.Pulls != 0 && a.Pulls != 4 {
			t.Fatalf("pulls split across arms: %+v", snaps[0].Arms)
		}
		armPulls += a.Pulls
	}
	if armPulls != 4 {
		t.Fatalf("arm pulls total %d, want 4", armPulls)
	}

	// A second batch must survey the other arm: the measure phase pulls
	// every unsurveyed arm before any burst. Its leader runs as a trial,
	// and O0, priced beyond burstBand× O2, is cut: O2 serves
	// the leader and the rider, so only the trial is sampled on O0.
	batch2 := make([]BatchCall, 2)
	for i := range batch2 {
		batch2[i].Args = simArgs(16)
	}
	if err := tn.CallBatch("probe", batch2); err != nil {
		t.Fatal(err)
	}
	if sampler.specs[4] == sampler.specs[0] || sampler.specs[5] != sampler.specs[0] {
		t.Fatalf("second batch should survey the other arm and serve its rider on the first: %v", sampler.specs)
	}
	for i, b := range batch2 {
		if b.Err != nil || b.Ret != want {
			t.Fatalf("second batch entry %d: got %v, %v; want %v", i, b.Ret, b.Err, want)
		}
	}
	if _, ok := tn.Best("probe", SizeClass(simArgs(16))); !ok {
		t.Fatal("site should have converged after both quotas")
	}
}

// TestCallBatchPoisonedSessionRecycled pins mid-batch fault isolation:
// with the call's state over cm.MaxSnapshotElems (a negative bound,
// since probe only reads a and its snapshot copies nothing) the engine
// skips the fallback snapshot, so an exit-point injected panic poisons
// the session, and the NEXT batch entry must still compute the correct value — the
// batch runner cycles the poisoned session through the pool (which
// rebuilds it) instead of reusing half-written state.
func TestCallBatchPoisonedSessionRecycled(t *testing.T) {
	prog := simProgram(t)
	want, err := prog.NewInstance().Call("probe", simArgs(16)...)
	if err != nil {
		t.Fatal(err)
	}
	defer func(n int) { cm.MaxSnapshotElems = n }(cm.MaxSnapshotElems)
	cm.MaxSnapshotElems = -1 // even an empty copy is over: no snapshot, no fallback
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendCompiled, Opt: cm.O2, Fn: "probe",
		Call: 1, Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	tn, err := New(prog,
		WithGrid(VariantSpec{Opt: cm.O2}),
		WithSampler(&simSampler{cost: flatCost(map[string]time.Duration{"O2": 30 * time.Microsecond})}),
		WithFaultInjector(inj),
	)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchCall, 3)
	for i := range batch {
		batch[i].Args = simArgs(16)
	}
	if err := tn.CallBatch("probe", batch); err != nil {
		t.Fatal(err)
	}
	var ifault *cm.InternalFault
	if !errors.As(batch[0].Err, &ifault) {
		t.Fatalf("entry 0: want InternalFault, got %v", batch[0].Err)
	}
	if batch[0].Fault == nil {
		t.Fatal("entry 0: fault tap not set")
	}
	for i := 1; i < 3; i++ {
		if batch[i].Err != nil || batch[i].Ret != want {
			t.Fatalf("entry %d after poison: got (%v, %v), want (%v, nil)",
				i, batch[i].Ret, batch[i].Err, want)
		}
	}
	snaps := tn.Snapshot()
	if len(snaps) != 1 || snaps[0].Arms[0].Faults != 1 || snaps[0].Arms[0].Quarantines != 1 {
		t.Fatalf("fault accounting: %+v", snaps)
	}
}

// TestCallIsBatchOfOne pins the unification: Call and CallContext are a
// CallBatch of length one, so two identically seeded tuners — one
// driven through each entry point — must stay in deep-equal states,
// call for call, through convergence, an injected-fault quarantine and
// its lift, a drift reopen, audited calls and a cancelled context.
func TestCallIsBatchOfOne(t *testing.T) {
	const (
		calls     = 140
		driftAt   = 60  // sampler call after which the standing winner degrades
		liftAt    = 100 // site call before which the fake clock passes the backoff
		cancelAt  = 120 // site call made under a cancelled context
		auditNth  = 7
		faultCall = 5 // the bytecode arm's faulting call
	)
	type tuner struct {
		tn  *AutoTuner
		clk *clock.Fake
	}
	build := func() tuner {
		clk := clock.NewFake(time.Unix(0, 0))
		sampler := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
			c := chaosCost[spec.String()]
			if call > driftAt && spec.String() == "O3" {
				c *= 5
			}
			return time.Duration(float64(c) * jitter(call))
		}}
		tn, err := New(simProgram(t),
			WithGrid(chaosGrid()...),
			WithSampler(sampler),
			WithSeed(5),
			WithClock(clk),
			WithAuditEvery(auditNth),
			WithFaultInjector(cm.NewScriptedInjector(cm.FaultRule{
				Backend: cm.BackendBytecode, AnyOpt: true, Fn: "probe", Call: faultCall,
				Kind: cm.FaultPanic, Point: cm.FaultAtExit,
			})),
		)
		if err != nil {
			t.Fatal(err)
		}
		return tuner{tn, clk}
	}
	single, batched := build(), build()
	viaCall := func(ctx context.Context, args []any) (cm.Value, error) {
		if ctx == nil {
			return single.tn.Call("probe", args...)
		}
		return single.tn.CallContext(ctx, "probe", args...)
	}
	viaBatch := func(ctx context.Context, args []any) (cm.Value, error) {
		b := []BatchCall{{Ctx: ctx, Args: args}}
		if err := batched.tn.CallBatch("probe", b); err != nil {
			return cm.Value{}, err
		}
		return b[0].Ret, b[0].Err
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var sawReopen, sawQuarantine, sawLift, sawCancel bool
	for i := 1; i <= calls; i++ {
		var ctx context.Context
		switch i {
		case liftAt:
			single.clk.Advance(backoffBase * 3 / 2)
			batched.clk.Advance(backoffBase * 3 / 2)
		case cancelAt:
			ctx = cancelled
		}
		v1, err1 := viaCall(ctx, simArgs(16))
		v2, err2 := viaBatch(ctx, simArgs(16))
		if !eqValue(v1, v2) || fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("call %d: Call gave (%+v, %v), CallBatch(1) gave (%+v, %v)", i, v1, err1, v2, err2)
		}
		s1, s2 := single.tn.Snapshot(), batched.tn.Snapshot()
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("call %d: states diverged:\nCall:         %+v\nCallBatch(1): %+v", i, s1, s2)
		}
		if ctx != nil {
			sawCancel = errors.Is(err1, context.Canceled)
		}
		sawReopen = sawReopen || s1[0].Reopens > 0
		if s1[0].QuarantinedArms > 0 {
			sawQuarantine = true
		} else if sawQuarantine {
			sawLift = true
		}
	}
	// The comparison is only worth its name if the scenario reached
	// every branch of the pipeline it claims to cover.
	rep := single.tn.Snapshot()[0]
	if !sawReopen || !sawQuarantine || !sawLift || !sawCancel {
		t.Fatalf("scenario incomplete: reopen=%v quarantine=%v lift=%v cancel=%v\n%+v",
			sawReopen, sawQuarantine, sawLift, sawCancel, rep)
	}
	if rep.Pulls != calls || !rep.Converged {
		t.Fatalf("final site: %+v", rep)
	}
}

// TestConvergedCallAllocatesNothing: on the production (clock) sampler
// a converged Call is a stack-allocated batch of one — the tuner adds
// no allocation to the kernel's own zero, whether the call rides the
// winner or explores. The clock stands still, so every arm ties at
// zero cost: each bursts to the quota (5 × 3 = 15 calls to converge)
// and no drift challenge can reopen the site.
func TestConvergedCallAllocatesNothing(t *testing.T) {
	tn, err := New(simProgram(t), WithClock(clock.NewFake(time.Unix(0, 0))))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	for i := 0; i < minSamples*len(DefaultGrid()); i++ {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := tn.Best("probe", class); !ok {
		t.Fatal("site did not converge")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a converged Call allocates %v times, want 0", n)
	}
}

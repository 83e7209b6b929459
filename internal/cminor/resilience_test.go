package cminor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// resilienceSrc is the test kernel of the containment layer: it
// mutates file-scope globals (scalar and array) AND its argument array,
// so a faulted attempt leaves observable damage unless rollback
// restores every bit of it.
const resilienceSrc = `
int gcalls;
double gacc;
double gbuf[4];

double k(int n, double a[n]) {
  gcalls = gcalls + 1;
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    a[i] = a[i] * 1.5 + 0.25;
    s = s + a[i];
  }
  gacc = gacc + s;
  gbuf[0] = gbuf[0] + 1.0;
  gbuf[3] = s;
  return s;
}
`

func resilienceArgs() []any {
	a := NewArray(8)
	for i := range a.Data {
		a.Data[i] = float64(i) * 0.375
	}
	return []any{IntV(8), a}
}

// mustVariant compiles resilienceSrc under opts.
func mustProgram(t *testing.T, src string, opts ...Option) *Program {
	t.Helper()
	prog, err := Compile(MustParse("res.c", src), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func sameBits(a, b Value) bool {
	return a.IsInt == b.IsInt && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F)
}

// checkGlobalsEqual asserts the named globals match bit-for-bit between
// two sessions.
func checkGlobalsEqual(t *testing.T, want, got *Instance, label string) {
	t.Helper()
	for _, name := range []string{"gcalls", "gacc"} {
		wv, ok1 := want.GlobalScalar(name)
		gv, ok2 := got.GlobalScalar(name)
		if !ok1 || !ok2 {
			t.Fatalf("%s: global %s not found (%v, %v)", label, name, ok1, ok2)
		}
		if !sameBits(wv, gv) {
			t.Errorf("%s: global %s = %+v, want %+v", label, name, gv, wv)
		}
	}
	wa, _ := want.GlobalArray("gbuf")
	ga, _ := got.GlobalArray("gbuf")
	for i := range wa.Data {
		if math.Float64bits(wa.Data[i]) != math.Float64bits(ga.Data[i]) {
			t.Errorf("%s: gbuf[%d] = %g, want %g", label, i, ga.Data[i], wa.Data[i])
		}
	}
}

// Without fallback, an injected internal panic must surface as a
// structured *InternalFault carrying the variant's knob coordinates,
// poison the session, and leave the process alive and the session
// callable.
func TestInternalFaultContainedWithoutFallback(t *testing.T) {
	for _, backend := range []Backend{BackendCompiled, BackendBytecode} {
		t.Run(backend.String(), func(t *testing.T) {
			inj := NewScriptedInjector(FaultRule{
				Backend: backend, AnyOpt: true, Fn: "k", Call: 1,
				Kind: FaultPanic, Point: FaultAtExit,
			})
			prog := mustProgram(t, resilienceSrc,
				WithBackend(backend), WithOptLevel(O3), WithFaultInjector(inj))
			inst := prog.NewInstance()
			_, err := inst.Call("k", resilienceArgs()...)
			if err == nil {
				t.Fatal("expected an InternalFault error")
			}
			var fault *InternalFault
			if !errors.As(err, &fault) {
				t.Fatalf("error is %T (%v), want *InternalFault", err, err)
			}
			if fault.Backend != backend || fault.Opt != O3 || fault.Fn != "k" {
				t.Errorf("fault coordinates = %s/%s/%s", fault.Backend, fault.Opt, fault.Fn)
			}
			if fault.Passes != AllPasses {
				t.Errorf("fault passes = %s, want %s", fault.Passes, AllPasses)
			}
			if len(fault.Stack) == 0 {
				t.Error("fault carries no stack")
			}
			if !strings.Contains(err.Error(), "internal fault in k") {
				t.Errorf("unexpected error text: %v", err)
			}
			if !inst.Poisoned() {
				t.Error("session not poisoned after unrecovered fault")
			}
			if inst.LastCallFault() != fault {
				t.Error("LastCallFault does not report the fault")
			}
			if inst.LastCallDegraded() {
				t.Error("degraded flag set without fallback")
			}
			if inj.Fired(0) != 1 {
				t.Errorf("injector fired %d times, want 1", inj.Fired(0))
			}
			// The session remains callable — the exit-point fault committed
			// the body's writes, so gcalls reflects both calls.
			if _, err := inst.Call("k", resilienceArgs()...); err != nil {
				t.Fatalf("post-fault call: %v", err)
			}
			if v, _ := inst.GlobalScalar("gcalls"); v.Int() != 2 {
				t.Errorf("gcalls = %d, want 2 (poisoned attempt committed)", v.Int())
			}
		})
	}
}

// With fallback, an injected panic must be invisible apart from the
// degraded flag: returned value, argument array, globals, and the step
// accounting all bit-exact with a clean session.
func TestFallbackReExecutionBitExact(t *testing.T) {
	for _, point := range []FaultPoint{FaultAtEntry, FaultAtExit} {
		for _, backend := range []Backend{BackendCompiled, BackendBytecode} {
			t.Run(backend.String()+"_"+point.String(), func(t *testing.T) {
				inj := NewScriptedInjector(FaultRule{
					Backend: backend, AnyOpt: true, Fn: "k", Call: 2,
					Kind: FaultPanic, Point: point,
				})
				clean := mustProgram(t, resilienceSrc,
					WithBackend(backend), WithOptLevel(O3)).NewInstance()
				faulty := mustProgram(t, resilienceSrc,
					WithBackend(backend), WithOptLevel(O3),
					WithFaultInjector(inj), WithFallback(true)).NewInstance()
				cleanArgs, faultyArgs := resilienceArgs(), resilienceArgs()
				for call := 1; call <= 3; call++ {
					cv, cerr := clean.Call("k", cleanArgs...)
					fv, ferr := faulty.Call("k", faultyArgs...)
					if cerr != nil || ferr != nil {
						t.Fatalf("call %d: clean=%v faulty=%v", call, cerr, ferr)
					}
					if !sameBits(cv, fv) {
						t.Fatalf("call %d: value %+v, want %+v", call, fv, cv)
					}
					wantDegraded := call == 2
					if faulty.LastCallDegraded() != wantDegraded {
						t.Errorf("call %d: degraded = %v, want %v",
							call, faulty.LastCallDegraded(), wantDegraded)
					}
					if (faulty.LastCallFault() != nil) != wantDegraded {
						t.Errorf("call %d: fault tap = %v", call, faulty.LastCallFault())
					}
					if clean.LastCallSteps() != faulty.LastCallSteps() {
						t.Errorf("call %d: steps %d, want %d (attempt not rolled back?)",
							call, faulty.LastCallSteps(), clean.LastCallSteps())
					}
					ca, fa := cleanArgs[1].(*Array), faultyArgs[1].(*Array)
					for i := range ca.Data {
						if math.Float64bits(ca.Data[i]) != math.Float64bits(fa.Data[i]) {
							t.Fatalf("call %d: a[%d] = %g, want %g", call, i, fa.Data[i], ca.Data[i])
						}
					}
				}
				if clean.Steps() != faulty.Steps() {
					t.Errorf("session steps %d, want %d", faulty.Steps(), clean.Steps())
				}
				if faulty.Poisoned() {
					t.Error("fallback session must not be poisoned")
				}
				checkGlobalsEqual(t, clean, faulty, "after 3 calls")
				if inj.TotalFired() != 1 {
					t.Errorf("injector fired %d, want 1", inj.TotalFired())
				}
			})
		}
	}
}

// CallAudited must catch an injected wrong result (a silent
// miscompile): the caller receives the reference outcome and the
// divergence is reported.
func TestCallAuditedCatchesWrongResult(t *testing.T) {
	inj := NewScriptedInjector(FaultRule{
		Backend: BackendBytecode, AnyOpt: true, Fn: "k", Call: 1,
		Kind: FaultWrongResult,
	})
	clean := mustProgram(t, resilienceSrc,
		WithBackend(BackendBytecode), WithOptLevel(O3)).NewInstance()
	audited := mustProgram(t, resilienceSrc,
		WithBackend(BackendBytecode), WithOptLevel(O3),
		WithFaultInjector(inj), WithFallback(true)).NewInstance()
	cv, _ := clean.Call("k", resilienceArgs()...)
	av, diverged, err := audited.CallAudited(context.Background(), "k", resilienceArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	if !diverged {
		t.Fatal("audit did not catch the injected wrong result")
	}
	if !sameBits(cv, av) {
		t.Fatalf("audited call returned %+v, want reference %+v", av, cv)
	}
	if !audited.LastCallDegraded() {
		t.Error("divergent audit should report degraded")
	}
	// Clean second call: no divergence, same value, state identical to a
	// clean two-call session.
	av2, diverged2, err := audited.CallAudited(context.Background(), "k", resilienceArgs()...)
	cv2, _ := clean.Call("k", resilienceArgs()...)
	if err != nil || diverged2 {
		t.Fatalf("clean audit: err=%v diverged=%v", err, diverged2)
	}
	if !sameBits(cv2, av2) {
		t.Fatalf("clean audit returned %+v, want %+v", av2, cv2)
	}
	checkGlobalsEqual(t, clean, audited, "after audits")
}

// An audited call that hits a contained panic is degraded-and-served,
// not reported as a divergence: the fault tap already carries the
// quarantine signal.
func TestCallAuditedContainedFaultIsNotDivergence(t *testing.T) {
	inj := NewScriptedInjector(FaultRule{
		Backend: BackendCompiled, AnyOpt: true, Fn: "k", Call: 1,
		Kind: FaultPanic, Point: FaultAtExit,
	})
	clean := mustProgram(t, resilienceSrc).NewInstance()
	audited := mustProgram(t, resilienceSrc,
		WithFaultInjector(inj), WithFallback(true)).NewInstance()
	cv, _ := clean.Call("k", resilienceArgs()...)
	av, diverged, err := audited.CallAudited(context.Background(), "k", resilienceArgs()...)
	if err != nil || diverged {
		t.Fatalf("audited faulted call: err=%v diverged=%v", err, diverged)
	}
	if !sameBits(cv, av) {
		t.Fatalf("audited faulted call returned %+v, want %+v", av, cv)
	}
	if audited.LastCallFault() == nil || !audited.LastCallDegraded() {
		t.Error("contained fault must show on the taps")
	}
}

// Satellite pin: InstancePool.Put must rebuild a poisoned session's
// globals, so state half-written by a faulted call never leaks into the
// next checkout.
func TestPoolDiscardsPoisonedState(t *testing.T) {
	inj := NewScriptedInjector(FaultRule{
		Backend: BackendCompiled, AnyOpt: true, Fn: "k", Call: 1,
		Kind: FaultPanic, Point: FaultAtExit,
	})
	// No fallback: the fault leaves the session poisoned with the
	// attempt's global writes (gcalls=1 etc) in place.
	prog := mustProgram(t, resilienceSrc, WithFaultInjector(inj))
	pool := prog.NewPool()
	inst := pool.Get()
	if _, err := inst.Call("k", resilienceArgs()...); err == nil {
		t.Fatal("expected the injected fault")
	}
	if !inst.Poisoned() {
		t.Fatal("session should be poisoned")
	}
	pool.Put(inst)
	re := pool.Get()
	if re != inst {
		t.Fatal("pool did not recycle the instance (test premise broken)")
	}
	if re.Poisoned() {
		t.Error("recycled session still flagged poisoned")
	}
	if v, ok := re.GlobalScalar("gcalls"); !ok || v.Int() != 0 {
		t.Errorf("recycled gcalls = %v, want fresh 0", v)
	}
	if a, _ := re.GlobalArray("gbuf"); a.Data[0] != 0 {
		t.Errorf("recycled gbuf[0] = %g, want fresh 0", a.Data[0])
	}
	// And the recycled session behaves like a brand-new one.
	fresh := mustProgram(t, resilienceSrc).NewInstance()
	fv, _ := fresh.Call("k", resilienceArgs()...)
	rv, err := re.Call("k", resilienceArgs()...)
	if err != nil || !sameBits(fv, rv) {
		t.Fatalf("recycled call: v=%+v err=%v, want %+v", rv, err, fv)
	}
	checkGlobalsEqual(t, fresh, re, "recycled vs fresh")
}

// A non-poisoned session keeps its globals across Put — the documented
// session semantics are unchanged for clean instances.
func TestPoolKeepsCleanState(t *testing.T) {
	prog := mustProgram(t, resilienceSrc)
	pool := prog.NewPool()
	inst := pool.Get()
	if _, err := inst.Call("k", resilienceArgs()...); err != nil {
		t.Fatal(err)
	}
	pool.Put(inst)
	re := pool.Get()
	if v, _ := re.GlobalScalar("gcalls"); v.Int() != 1 {
		t.Errorf("clean recycle reset globals: gcalls = %d, want 1", v.Int())
	}
}

// An injected panic at the walker's exit — after the body wrote its
// globals, under a cancellable context whose watcher the teardown must
// drain — comes back as a contained *InternalFault, never an escaped
// panic. The walker is the reference, so even with WithFallback it has
// no snapshot to roll back to: the session is poisoned, and the pool
// rebuilds its globals.
func TestWalkerExitPanicContained(t *testing.T) {
	src := `
int gticks;
int spin(int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s = s + 1;
    gticks = gticks + 1;
  }
  return s;
}
`
	inj := NewScriptedInjector(FaultRule{
		Backend: BackendWalker, AnyOpt: true, Fn: "spin", Call: 1,
		Kind: FaultPanic, Point: FaultAtExit,
	})
	prog := mustProgram(t, src, WithBackend(BackendWalker), WithFaultInjector(inj), WithFallback(true))
	inst := prog.NewInstance()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := inst.CallContext(ctx, "spin", IntV(100000))
	if err == nil {
		t.Fatal("expected the injected exit-point fault")
	}
	var fault *InternalFault
	if !errors.As(err, &fault) {
		t.Fatalf("error is %T (%v), want *InternalFault", err, err)
	}
	if fault.Backend != BackendWalker {
		t.Errorf("fault backend = %s, want walker", fault.Backend)
	}
	injf, ok := fault.Recovered.(*injectedFault)
	if !ok || injf.point != FaultAtExit {
		t.Errorf("recovered = %#v, want exit-point injectedFault", fault.Recovered)
	}
	if inst.LastCallDegraded() || inst.LastCallFault() != fault {
		t.Errorf("degraded=%v fault=%v, want a surfaced, undegraded fault", inst.LastCallDegraded(), inst.LastCallFault())
	}
	if v, _ := inst.GlobalScalar("gticks"); !inst.Poisoned() || v.Int() != 100000 {
		t.Errorf("poisoned=%v gticks=%d, want a poisoned walker session holding the attempt's writes", inst.Poisoned(), v.Int())
	}
	// The session recovers through the pool: the next checkout starts
	// from the initializers.
	pool := prog.NewPool()
	pool.Put(inst)
	re := pool.Get()
	if v, ok := re.GlobalScalar("gticks"); !ok || v.Int() != 0 {
		t.Errorf("recycled walker gticks = %v, want fresh 0", v)
	}
	if v, err := re.CallContext(context.Background(), "spin", IntV(100000)); err != nil || v.Int() != 100000 {
		t.Fatalf("post-fault walker call: v=%v err=%v", v, err)
	}
	if pool.Stats().Repaired != 1 {
		t.Errorf("pool repaired %d sessions, want 1", pool.Stats().Repaired)
	}
}

// Calls whose mutable state exceeds the snapshot bound run
// uncontained-state: the fault surfaces and the session poisons rather
// than silently half-protecting.
func TestOversizedSnapshotSkipsFallback(t *testing.T) {
	old := MaxSnapshotElems
	MaxSnapshotElems = 4 // gbuf[4] + a[8] = 12 elems > 4
	defer func() { MaxSnapshotElems = old }()
	inj := NewScriptedInjector(FaultRule{
		Backend: BackendCompiled, AnyOpt: true, Fn: "k", Call: 1,
		Kind: FaultPanic, Point: FaultAtExit,
	})
	inst := mustProgram(t, resilienceSrc,
		WithFaultInjector(inj), WithFallback(true)).NewInstance()
	_, err := inst.Call("k", resilienceArgs()...)
	var fault *InternalFault
	if !errors.As(err, &fault) {
		t.Fatalf("error is %T (%v), want *InternalFault (snapshot skipped)", err, err)
	}
	if !inst.Poisoned() || inst.LastCallDegraded() {
		t.Errorf("poisoned=%v degraded=%v, want true/false", inst.Poisoned(), inst.LastCallDegraded())
	}
}

// ScriptedInjector fires rules at exact per-rule call counts, first
// match wins, and counters are exact.
func TestScriptedInjectorCounting(t *testing.T) {
	si := NewScriptedInjector(
		FaultRule{Backend: BackendCompiled, Opt: O2, Fn: "k", Call: 2, Kind: FaultPanic},
		FaultRule{Backend: BackendCompiled, AnyOpt: true, Kind: FaultWrongResult, Call: 0},
		FaultRule{Backend: BackendBytecode, AnyOpt: true, Fn: "other", Call: 1, Kind: FaultWrongResult},
	)
	// Call 1 on compiled/O2/k: rule 0 not yet (call 2), rule 1 fires.
	if f := si.Decide(BackendCompiled, O2, "k"); f == nil || f.Kind != FaultWrongResult {
		t.Fatalf("call 1: %+v, want wrong-result", f)
	}
	// Call 2: rule 0 fires first (rule order wins); rule 1 counts the
	// match but does not also fire.
	if f := si.Decide(BackendCompiled, O2, "k"); f == nil || f.Kind != FaultPanic {
		t.Fatalf("call 2: %+v, want panic", f)
	}
	// Wrong backend/function: no rule.
	if f := si.Decide(BackendBytecode, O3, "k"); f != nil {
		t.Fatalf("bytecode k: %+v, want nil", f)
	}
	if f := si.Decide(BackendBytecode, O3, "other"); f == nil || f.Kind != FaultWrongResult {
		t.Fatalf("bytecode other: %+v, want wrong-result", f)
	}
	if si.Fired(0) != 1 || si.Fired(1) != 1 || si.Fired(2) != 1 {
		t.Errorf("fired = %d/%d/%d, want 1/1/1", si.Fired(0), si.Fired(1), si.Fired(2))
	}
	if si.TotalFired() != 3 {
		t.Errorf("total fired = %d, want 3", si.TotalFired())
	}
}

// The bytecode dispatch loop annotates internal faults with the
// function whose flat code was executing.
func TestBytecodeFaultAnnotation(t *testing.T) {
	inj := NewScriptedInjector(FaultRule{
		Backend: BackendBytecode, AnyOpt: true, Fn: "k", Call: 1,
		Kind: FaultPanic, Point: FaultAtEntry,
	})
	// Entry-point injection fires in attempt(), outside the dispatch
	// loop — so exercise annotation via a genuine runtime fault instead:
	// a VLA allocation overflow inside a bytecode-backed program.
	_ = inj
	src := "void f(int n) {\n  double t[n][n];\n  t[0][0] = 1.0;\n}"
	prog := mustProgram(t, src, WithBackend(BackendBytecode), WithOptLevel(O3))
	inst := prog.NewInstance()
	_, err := inst.Call("f", IntV(1<<31))
	var fault *InternalFault
	if !errors.As(err, &fault) {
		t.Fatalf("error is %T (%v), want *InternalFault", err, err)
	}
	if fault.Backend != BackendBytecode {
		t.Errorf("fault backend = %s, want bytecode", fault.Backend)
	}
}

// TestCallContractAcrossBackends: every backend, the walker included,
// runs under the one call contract of Instance.run. On resilienceSrc,
// whose kernel writes globals and its argument array, each backend
// matches the walker's value, steps and globals; a trial slice shorter
// than the call is rolled back where a snapshot exists and runs in full
// on the walker, which never snapshots; an audit never diverges on the
// walker and catches a wrong result elsewhere; injected panics are
// contained with the backend named; and a poisoned session comes back
// from the pool with fresh globals.
func TestCallContractAcrossBackends(t *testing.T) {
	backends := []struct {
		name string
		opts []Option
	}{
		{"walker", []Option{WithBackend(BackendWalker)}},
		{"O0", []Option{WithOptLevel(O0)}},
		{"O3", []Option{WithOptLevel(O3)}},
		{"bytecode", []Option{WithBackend(BackendBytecode), WithOptLevel(O3)}},
	}
	ref := mustProgram(t, resilienceSrc, WithBackend(BackendWalker)).NewInstance()
	want, err := ref.Call("k", resilienceArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := ref.LastCallSteps()
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			// Fallback is on everywhere; the walker ignores it.
			prog := mustProgram(t, resilienceSrc, append(be.opts, WithFallback(true))...)
			walker := prog.Backend() == BackendWalker
			// variant is prog with rule injected on this backend.
			variant := func(rule FaultRule, opts ...Option) *Program {
				rule.Backend, rule.Opt = prog.Backend(), prog.OptLevel()
				p, err := prog.Variant(append(opts, WithFaultInjector(NewScriptedInjector(rule)))...)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}

			s := prog.NewInstance()
			v, err := s.Call("k", resilienceArgs()...)
			if err != nil || !sameBits(v, want) || s.LastCallSteps() != wantSteps {
				t.Fatalf("Call = %+v, %v in %d steps; want %+v in %d", v, err, s.LastCallSteps(), want, wantSteps)
			}
			checkGlobalsEqual(t, ref, s, "after one call")

			s = prog.NewInstance()
			v, done, err := s.CallTrial(nil, 5, "k", resilienceArgs()...)
			switch {
			case err != nil:
				t.Fatalf("CallTrial: %v", err)
			case walker && (!done || !sameBits(v, want) || s.LastCallSteps() != wantSteps):
				t.Fatalf("walker trial = %+v, done=%v in %d steps; want the full call", v, done, s.LastCallSteps())
			case !walker && (done || s.Steps() != 0):
				t.Fatalf("5-step trial finished=%v after %d steps; want it rolled back", done, s.Steps())
			}
			wantCalls := int64(0)
			if walker {
				wantCalls = 1
			}
			if g, _ := s.GlobalScalar("gcalls"); g.Int() != wantCalls {
				t.Fatalf("after the trial gcalls = %d, want %d", g.Int(), wantCalls)
			}

			s = prog.NewInstance()
			v, diverged, err := s.CallAudited(context.Background(), "k", resilienceArgs()...)
			if err != nil || diverged || !sameBits(v, want) || s.LastCallDegraded() {
				t.Fatalf("clean audit = %+v, diverged=%v, %v, degraded=%v", v, diverged, err, s.LastCallDegraded())
			}
			checkGlobalsEqual(t, ref, s, "after a clean audit")
			s = variant(FaultRule{Call: 1, Kind: FaultWrongResult}).NewInstance()
			v, diverged, err = s.CallAudited(context.Background(), "k", resilienceArgs()...)
			switch {
			case err != nil:
				t.Fatalf("audit of a wrong result: %v", err)
			case walker && (diverged || !sameBits(v, corruptValue(want))):
				t.Fatalf("walker audit = %+v, diverged=%v; want its own value, never a divergence", v, diverged)
			case !walker && (!diverged || !sameBits(v, want)):
				t.Fatalf("audit = %+v, diverged=%v; want the reference %+v and a divergence", v, diverged, want)
			}

			for _, point := range []FaultPoint{FaultAtEntry, FaultAtExit} {
				s = variant(FaultRule{Call: 1, Kind: FaultPanic, Point: point}).NewInstance()
				v, err := s.Call("k", resilienceArgs()...)
				fault := s.LastCallFault()
				if fault == nil || fault.Backend != prog.Backend() || fault.Opt != prog.OptLevel() {
					t.Fatalf("%v: fault %v, want one naming %s %s", point, fault, prog.Backend(), prog.OptLevel())
				}
				if walker {
					if !errors.Is(err, fault) || !s.Poisoned() || s.LastCallDegraded() {
						t.Fatalf("%v: walker err=%v poisoned=%v degraded=%v; want the fault surfaced and the session poisoned",
							point, err, s.Poisoned(), s.LastCallDegraded())
					}
				} else if err != nil || !sameBits(v, want) || !s.LastCallDegraded() || s.Poisoned() {
					t.Fatalf("%v: %+v, %v, degraded=%v poisoned=%v; want the degraded reference result",
						point, v, err, s.LastCallDegraded(), s.Poisoned())
				}
			}

			poisoning := variant(FaultRule{Call: 1, Kind: FaultPanic, Point: FaultAtExit}, WithFallback(false))
			pool := poisoning.NewPool()
			s = pool.Get()
			if _, err := s.Call("k", resilienceArgs()...); err == nil || !s.Poisoned() {
				t.Fatalf("exit fault without fallback: err=%v poisoned=%v", err, s.Poisoned())
			}
			if g, _ := s.GlobalScalar("gcalls"); g.Int() != 1 {
				t.Fatalf("the faulted attempt left gcalls = %d, want its write", g.Int())
			}
			pool.Put(s)
			if re := pool.Get(); re != s || re.Poisoned() || pool.Stats().Repaired != 1 {
				t.Fatalf("pool handed back %p (put %p), poisoned=%v, repaired=%d", re, s, re.Poisoned(), pool.Stats().Repaired)
			}
			checkGlobalsEqual(t, prog.NewInstance(), s, "recycled poisoned session")
			if v, err := s.Call("k", resilienceArgs()...); err != nil || !sameBits(v, want) {
				t.Fatalf("call on the repaired session = %+v, %v", v, err)
			}
			checkGlobalsEqual(t, ref, s, "one call after the repair")
		})
	}
}

// TestAuditedCallAllocatesNothing: an audit captures the pre-call and
// post-call state into snapshots borrowed from the process-wide free
// list and returned when the call ends, so a warm session audits
// without allocating, like a plain call.
func TestAuditedCallAllocatesNothing(t *testing.T) {
	for _, opts := range [][]Option{
		{WithOptLevel(O3)},
		{WithBackend(BackendBytecode), WithOptLevel(O3)},
	} {
		prog, err := Compile(MustParse("t.c", engineDotSrc), append(opts, WithMaxSteps(1<<60))...)
		if err != nil {
			t.Fatal(err)
		}
		s := prog.NewInstance()
		args, want := dotArgs(32)
		audit := func() {
			v, diverged, err := s.CallAudited(nil, "dot", args...)
			if err != nil || diverged || v.F != want {
				t.Fatalf("audit = %v, diverged=%v, %v; want %v", v, diverged, err, want)
			}
		}
		audit()
		if n := testing.AllocsPerRun(50, audit); n != 0 {
			t.Errorf("%s: a warm audited call allocates %v objects, want 0", prog.Backend(), n)
		}
	}
}

// TestWarmFallbackCallAllocatesNothingAfterGC: the snapshot free list
// survives garbage collection, so a warm fallback call borrows and
// returns its snapshot without allocating even right after a GC (a
// sync.Pool would be emptied by two, and the next call would allocate
// its buffers again).
func TestWarmFallbackCallAllocatesNothingAfterGC(t *testing.T) {
	for _, opts := range [][]Option{
		{WithOptLevel(O3)},
		{WithBackend(BackendBytecode)},
	} {
		prog, err := Compile(MustParse("t.c", engineDotSrc), append(opts, WithFallback(true), WithMaxSteps(1<<60))...)
		if err != nil {
			t.Fatal(err)
		}
		s := prog.NewInstance()
		args, want := dotArgs(32)
		call := func() {
			if v, err := s.Call("dot", args...); err != nil || v.F != want {
				t.Fatalf("dot = %v, %v; want %v", v, err, want)
			}
		}
		call()
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		call()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n != 0 {
			t.Errorf("%s: a warm fallback call after a GC allocated %d objects, want 0", prog.Backend(), n)
		}
	}
}

// TestFallbackSnapshotStorageIsPerCall: snapshot storage belongs to the
// running call, not to the Instance, and holds only what the call can
// write. Five fallback-on variants of axpy (O0–O3 and the bytecode) each
// get one fresh Instance, and one call runs on each in turn with the
// canonical arguments: two 4096-element arrays, of which axpy writes
// only y, 32 KiB of state to snapshot. The calls run one after another,
// so they can reuse one snapshot's buffers: together they allocate less
// than two copies of the written state, where a snapshot of x too would
// allocate two such copies at once, and an Instance that kept its own
// snapshot one per Instance, five in all.
func TestFallbackSnapshotStorageIsPerCall(t *testing.T) {
	var axpy BenchKernel
	for _, k := range BenchKernels {
		if k.Name == "axpy" {
			axpy = k
		}
	}
	f := MustParse(axpy.File, axpy.Src)
	var insts []*Instance
	for _, opts := range [][]Option{
		{WithOptLevel(O0)}, {WithOptLevel(O1)}, {WithOptLevel(O2)}, {WithOptLevel(O3)},
		{WithBackend(BackendBytecode)},
	} {
		prog, err := Compile(f, append(opts, WithFallback(true))...)
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, prog.NewInstance())
	}
	args := axpy.Args()
	writes := insts[0].prog.res.Funcs[axpy.Fn].Writes
	state := 0
	for i, a := range args {
		if arr, ok := a.(*Array); ok && writes[i] {
			state += 8 * len(arr.Data)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, s := range insts {
		if _, err := s.Call(axpy.Fn, args...); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(2*state) {
		t.Fatalf("one call on each of %d fresh Instances allocated %d bytes, want < %d (twice the %d-byte written state)",
			len(insts), grew, 2*state, state)
	}
}

// aliasSrc is axpy with a second read-only input: it writes y only.
const aliasSrc = `
double axpz(int n, double alpha, double x[n], double z[n], double y[n]) {
  double s = 0.0;
  for (int i = 0; i < n; i++) {
    y[i] = y[i] + alpha * x[i] * z[i];
    s = s + y[i];
  }
  return s;
}
`

// TestAliasedArgumentsRollBack: the snapshot copies each array bound to
// a written parameter, matched by identity, so one array bound to the
// read-only x and the written y is copied for y, and one bound to the
// read-only x and z is not copied at all. On O3 and the bytecode, a
// call whose attempt panics at exit must come back degraded with the
// reference's value and arrays, and a trial cut after one statement
// must roll every array back to its pre-call bits.
func TestAliasedArgumentsRollBack(t *testing.T) {
	const n = 40
	fill := func(seed float64) *Array {
		a := NewArray(n)
		for i := range a.Data {
			a.Data[i] = seed + float64(i%9)*0.375
		}
		return a
	}
	cases := map[string]func() []any{
		"x is y": func() []any { a := fill(1); return []any{IntV(n), FloatV(1.5), a, fill(2), a} },
		"x is z": func() []any { a := fill(1); return []any{IntV(n), FloatV(1.5), a, a, fill(2)} },
	}
	clean := mustProgram(t, aliasSrc)
	for name, mk := range cases {
		refArgs := mk()
		want, err := clean.NewInstance().Call("axpz", refArgs...)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []Backend{BackendCompiled, BackendBytecode} {
			label := fmt.Sprintf("%s, %s", name, b)
			inj := NewScriptedInjector(FaultRule{Backend: b, AnyOpt: true, Fn: "axpz", Kind: FaultPanic, Point: FaultAtExit})
			faulty := mustProgram(t, aliasSrc, WithBackend(b), WithOptLevel(O3), WithFallback(true), WithFaultInjector(inj))
			s := faulty.NewInstance()
			args := mk()
			v, err := s.Call("axpz", args...)
			if err != nil || !s.LastCallDegraded() || !sameBits(v, want) {
				t.Fatalf("%s: faulted call = %+v, %v, degraded %v; want the degraded reference %+v", label, v, err, s.LastCallDegraded(), want)
			}
			checkArgArrays(t, label+": degraded call", args, refArgs)

			s = mustProgram(t, aliasSrc, WithBackend(b), WithOptLevel(O3), WithFallback(true)).NewInstance()
			args = mk()
			v, done, err := s.CallTrial(nil, 1, "axpz", args...)
			if err != nil || done || s.Steps() != 0 {
				t.Fatalf("%s: one-statement trial = %+v, done=%v, %v after %d steps; want it rolled back", label, v, done, err, s.Steps())
			}
			checkArgArrays(t, label+": rolled-back trial", args, mk())
		}
	}
}

// checkArgArrays fails t unless every array argument of got holds the
// bits of the array at the same position of want.
func checkArgArrays(t *testing.T, label string, got, want []any) {
	t.Helper()
	for i, a := range got {
		arr, ok := a.(*Array)
		if !ok {
			continue
		}
		for j, x := range want[i].(*Array).Data {
			if math.Float64bits(arr.Data[j]) != math.Float64bits(x) {
				t.Fatalf("%s: argument %d [%d] = %g, want %g", label, i, j, arr.Data[j], x)
			}
		}
	}
}

// TestSnapshotBoundCountsCopiedElems: MaxSnapshotElems counts the
// elements a snapshot copies. norms reads a 64×64 matrix and writes a
// 64-element vector: 4 160 elements would be over a bound of 1 000, the
// 64 written ones are under it, so an exit-point panic degrades instead
// of poisoning. An audit copies every array, so under the same bound it
// runs as a plain call and cannot see a wrong result that it catches
// under a bound of 5 000.
func TestSnapshotBoundCountsCopiedElems(t *testing.T) {
	defer func(n int) { MaxSnapshotElems = n }(MaxSnapshotElems)
	MaxSnapshotElems = 1000
	f := MustParse("norms.c", benchNormsSrc)
	clean, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	refArgs := benchNormsArgs(64)
	want, err := clean.NewInstance().Call("norms", refArgs...)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Backend{BackendCompiled, BackendBytecode} {
		inj := NewScriptedInjector(FaultRule{Backend: b, AnyOpt: true, Fn: "norms", Kind: FaultPanic, Point: FaultAtExit})
		prog, err := Compile(f, WithBackend(b), WithOptLevel(O3), WithFallback(true), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		s := prog.NewInstance()
		args := benchNormsArgs(64)
		v, err := s.Call("norms", args...)
		if err != nil || !s.LastCallDegraded() || s.Poisoned() || !sameBits(v, want) {
			t.Fatalf("%s: faulted call = %+v, %v, degraded %v, poisoned %v; want the degraded reference",
				b, v, err, s.LastCallDegraded(), s.Poisoned())
		}
		checkArgArrays(t, b.String(), args, refArgs)

		inj = NewScriptedInjector(FaultRule{Backend: b, AnyOpt: true, Fn: "norms", Kind: FaultWrongResult})
		prog, err = Compile(f, WithBackend(b), WithOptLevel(O3), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		for bound, caught := range map[int]bool{1000: false, 5000: true} {
			MaxSnapshotElems = bound
			if _, diverged, err := prog.NewInstance().CallAudited(nil, "norms", benchNormsArgs(64)...); err != nil || diverged != caught {
				t.Fatalf("%s: audit under a bound of %d: diverged=%v, %v; want %v", b, bound, diverged, err, caught)
			}
		}
		MaxSnapshotElems = 1000
	}
}

// TestConcurrentRollbacksRestoreOwnArrays: goroutines make fallback
// calls at the same time, every attempt faulting at exit after writing
// its argument array and the session's globals, each goroutine on its
// own Instance and its own argument set of its own length. Every
// rollback must restore the arrays of its own call and no other, so
// each goroutine sees the clean result on every call: the reference's
// return value and array, and gcalls counting each call once. Run under
// -race by make chaos, where snapshot storage shared between running
// calls would also show as a data race.
func TestConcurrentRollbacksRestoreOwnArrays(t *testing.T) {
	const workers, calls = 6, 40
	progs := map[Backend]*Program{}
	for _, b := range []Backend{BackendCompiled, BackendBytecode} {
		inj := NewScriptedInjector(FaultRule{
			Backend: b, AnyOpt: true, Fn: "k", Kind: FaultPanic, Point: FaultAtExit,
		})
		progs[b] = mustProgram(t, resilienceSrc, WithBackend(b), WithOptLevel(O3),
			WithFallback(true), WithFaultInjector(inj))
	}
	clean := mustProgram(t, resilienceSrc)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		n := 8 + 5*w
		in := make([]float64, n)
		for i := range in {
			in[i] = float64(w*100+i) * 0.375
		}
		ref := NewArray(n)
		copy(ref.Data, in)
		want, err := clean.NewInstance().Call("k", IntV(int64(n)), ref)
		if err != nil {
			t.Fatal(err)
		}
		prog := progs[[]Backend{BackendCompiled, BackendBytecode}[w%2]]
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := prog.NewInstance()
			a := NewArray(n)
			for c := 1; c <= calls; c++ {
				copy(a.Data, in)
				v, err := s.Call("k", IntV(int64(n)), a)
				if err == nil && !s.LastCallDegraded() {
					err = errors.New("the faulted call was not degraded")
				}
				if err == nil && !sameBits(v, want) {
					err = fmt.Errorf("returned %v, want %v", v, want)
				}
				for i := range a.Data {
					if err == nil && math.Float64bits(a.Data[i]) != math.Float64bits(ref.Data[i]) {
						err = fmt.Errorf("a[%d] = %g, want %g", i, a.Data[i], ref.Data[i])
					}
				}
				if g, _ := s.GlobalScalar("gcalls"); err == nil && g.Int() != int64(c) {
					err = fmt.Errorf("gcalls = %d, want %d", g.Int(), c)
				}
				if err != nil {
					errs <- fmt.Errorf("worker %d (%s), call %d: %w", w, prog.Backend(), c, err)
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
}

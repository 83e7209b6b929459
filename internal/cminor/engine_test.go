package cminor

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

const engineDotSrc = `
double dot(int n, double a[n], double b[n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s += a[i] * b[i];
  }
  return s;
}
`

func dotArgs(n int) (args []any, want float64) {
	a, b := NewArray(n), NewArray(n)
	for i := 0; i < n; i++ {
		a.Data[i] = float64(i) * 0.5
		b.Data[i] = float64(i%7) + 1.0
		want += a.Data[i] * b.Data[i]
	}
	return []any{IntV(int64(n)), a, b}, want
}

// TestCompileDoesNotMutateAST pins the immutability contract: compiling
// (twice, plus variants at every opt level and backend) leaves the
// input *File bit-identical to a freshly parsed one.
func TestCompileDoesNotMutateAST(t *testing.T) {
	src := engineDotSrc + `
int g = 3;
double withGlobals(int n, double a[n]) {
  int i;
  for (i = 0; i < n; i++) { a[i] += sqrt((double)g); }
  return a[0];
}`
	f := MustParse("t.c", src)
	pristine := MustParse("t.c", src)
	if !reflect.DeepEqual(f, pristine) {
		t.Fatal("parser is not deterministic; immutability check is void")
	}
	p1, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(f); err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]Option{
		{WithOptLevel(O0)},
		{WithOptLevel(O1)},
		{WithOptLevel(O3)},
		{WithBackend(BackendWalker)},
		{WithMaxSteps(123)},
	} {
		if _, err := p1.Variant(opts...); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(f, pristine) {
		t.Error("Compile/Variant modified the input AST")
	}
	// And both compilations of the same *File actually execute.
	args, want := dotArgs(8)
	v, err := p1.NewInstance().Call("dot", args...)
	if err != nil || v.Float() != want {
		t.Errorf("dot = %v (%v), want %g", v, err, want)
	}
}

// TestConcurrentInstancesShareProgram runs many goroutines over one
// Program (each with its own Instance) and requires every call to agree
// with the sequential result. Run under -race this also proves the
// Program is read-only after Compile.
func TestConcurrentInstancesShareProgram(t *testing.T) {
	src := engineDotSrc + `
int calls = 0;
int count() {
  calls = calls + 1;
  return calls;
}`
	prog, err := Compile(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	_, want := dotArgs(64)
	const goroutines = 12
	const callsPer = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst := prog.NewInstance()
			args, _ := dotArgs(64)
			for k := 0; k < callsPer; k++ {
				v, err := inst.Call("dot", args...)
				if err != nil {
					errs <- err
					return
				}
				if v.Float() != want {
					errs <- fmt.Errorf("dot = %g, want %g", v.Float(), want)
					return
				}
			}
			// Globals are per-instance: this session's counter counts
			// only its own calls.
			for k := int64(1); k <= 3; k++ {
				v, err := inst.Call("count")
				if err != nil || v.Int() != k {
					errs <- fmt.Errorf("count = %v (%v), want %d", v, err, k)
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

// spinSrc runs far past any reasonable budget so cancellation tests
// have something to interrupt.
const spinSrc = `
double spin() {
  double acc = 0.0;
  while (1) { acc += 1.0; }
  return acc;
}`

func TestCallContextCancelMidKernel(t *testing.T) {
	prog, err := Compile(MustParse("spin.c", spinSrc), WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = prog.NewInstance().CallContext(ctx, "spin")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; checkpoints are not being polled", elapsed)
	}
}

func TestCallContextDeadline(t *testing.T) {
	prog, err := Compile(MustParse("spin.c", spinSrc), WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := prog.NewInstance().CallContext(ctx, "spin"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

func TestCallContextAlreadyCancelled(t *testing.T) {
	prog, err := Compile(MustParse("t.c", engineDotSrc))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	args, _ := dotArgs(4)
	inst := prog.NewInstance()
	if _, err := inst.CallContext(ctx, "dot", args...); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if inst.Steps() != 0 {
		t.Errorf("a pre-cancelled context must not execute anything (ran %d steps)", inst.Steps())
	}
	// The same instance stays usable with a live context afterwards.
	v, err := inst.CallContext(context.Background(), "dot", args...)
	if err != nil {
		t.Fatal(err)
	}
	if _, want := dotArgs(4); v.Float() != want {
		t.Errorf("dot = %g, want %g", v.Float(), want)
	}
}

// TestVariantsAgree compiles one source into every knob combination and
// requires identical results — the SOCRATES premise that variants trade
// speed, not semantics. The source includes a file-scope global so the
// walker backend's global support is exercised too.
func TestVariantsAgree(t *testing.T) {
	src := engineDotSrc + `
double bias = 0.5;
double biasedDot(int n, double a[n], double b[n]) {
  bias = bias * 2.0;
  return dot(n, a, b) + bias;
}`
	prog, err := Compile(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Backend() != BackendCompiled || prog.OptLevel() != O2 {
		t.Fatalf("default variant = %s/%s, want compiled/O2", prog.Backend(), prog.OptLevel())
	}
	variants := []*Program{
		prog,
		mustVariant(t, prog, WithOptLevel(O3)),
		mustVariant(t, prog, WithOptLevel(O1)),
		mustVariant(t, prog, WithOptLevel(O0)),
		mustVariant(t, prog, WithBackend(BackendWalker)),
		mustVariant(t, prog, WithBackend(BackendBytecode), WithOptLevel(O3)),
	}
	_, want := dotArgs(16)
	for _, p := range variants {
		name := fmt.Sprintf("%s-%s", p.Backend(), p.OptLevel())
		inst := p.NewInstance()
		args, _ := dotArgs(16)
		v, err := inst.CallContext(context.Background(), "dot", args...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if v.Float() != want {
			t.Errorf("%s: dot = %g, want %g", name, v.Float(), want)
		}
		// Globals behave identically on every backend: per-session
		// storage, persisting across calls (bias doubles each call).
		for k, wantBias := range []float64{1.0, 2.0} {
			args, _ := dotArgs(16)
			v, err := inst.CallContext(context.Background(), "biasedDot", args...)
			if err != nil {
				t.Errorf("%s: biasedDot: %v", name, err)
				break
			}
			if v.Float() != want+wantBias {
				t.Errorf("%s: biasedDot call %d = %g, want %g", name, k, v.Float(), want+wantBias)
			}
		}
	}
}

// TestWithOptLevelRejectsUnknown pins the option-validation contract:
// an out-of-range level is a diagnostic at Compile/Variant time, not a
// silent clamp to the nearest supported level.
func TestWithOptLevelRejectsUnknown(t *testing.T) {
	f := MustParse("opt.c", engineDotSrc)
	if _, err := Compile(f, WithOptLevel(OptLevel(7))); err == nil ||
		!strings.Contains(err.Error(), "unknown optimization level O7") {
		t.Errorf("Compile err = %v, want unknown-level diagnostic", err)
	}
	prog, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	_, verr := prog.Variant(WithOptLevel(maxOptLevel + 1))
	if verr == nil || !strings.Contains(verr.Error(), "unknown optimization level") {
		t.Errorf("Variant err = %v, want unknown-level diagnostic", verr)
	}
	var d *Diag
	if !errors.As(verr, &d) || !strings.Contains(verr.Error(), "opt.c") {
		t.Errorf("Variant err = %v, want a *Diag positioned at the translation unit", verr)
	}
	// Every supported level still works.
	for lvl := O0; lvl <= maxOptLevel; lvl++ {
		if _, err := prog.Variant(WithOptLevel(lvl)); err != nil {
			t.Errorf("Variant(%s): %v", lvl, err)
		}
	}
}

func TestWithMaxStepsOption(t *testing.T) {
	prog, err := Compile(MustParse("spin.c", spinSrc), WithMaxSteps(1000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.NewInstance().Call("spin"); err == nil ||
		!strings.Contains(err.Error(), "step budget") {
		t.Errorf("err = %v, want step-budget fault from WithMaxSteps", err)
	}
	// Per-instance override.
	inst := prog.NewInstance()
	inst.SetMaxSteps(0) // restores DefaultMaxSteps; way more than 1000 spins
	done := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		inst.CallContext(ctx, "spin")
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("SetMaxSteps(0) instance neither finished nor honoured its context")
	}
}

// TestWalkerBackendContext proves the cancellation checkpoints reach
// the oracle backend too.
func TestWalkerBackendContext(t *testing.T) {
	prog, err := Compile(MustParse("spin.c", spinSrc),
		WithBackend(BackendWalker), WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	if _, err := prog.NewInstance().CallContext(ctx, "spin"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
}

// TestSteadyStateCallsAllocationFree pins the frame-pooling goal: after
// warm-up, repeated calls on one Instance allocate nothing.
func TestSteadyStateCallsAllocationFree(t *testing.T) {
	src := engineDotSrc + `
double wrap(int n, double a[n], double b[n]) { return dot(n, a, b) * 2.0; }`
	prog, err := Compile(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance()
	inst.SetMaxSteps(1 << 60)
	args, _ := dotArgs(32)
	// Warm the frame pools (entry frame + internal call frame).
	if _, err := inst.Call("wrap", args...); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := inst.Call("wrap", args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state Call allocates %.1f objects/op, want 0", avg)
	}
	// The bytecode backend pools its register files with the frames, so
	// the same guarantee holds there.
	bp, err := prog.Variant(WithBackend(BackendBytecode), WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	binst := bp.NewInstance()
	binst.SetMaxSteps(1 << 60)
	if _, err := binst.Call("wrap", args...); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(50, func() {
		if _, err := binst.Call("wrap", args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("bytecode steady-state Call allocates %.1f objects/op, want 0", avg)
	}
	// A context that can never be cancelled arms no cancellation
	// watcher, so it costs what a nil one does.
	ctx := context.Background()
	for _, in := range []*Instance{inst, binst} {
		avg = testing.AllocsPerRun(50, func() {
			if _, err := in.CallContext(ctx, "wrap", args...); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Errorf("%v steady-state CallContext(Background) allocates %.1f objects/op, want 0", in.prog.cfg.backend, avg)
		}
	}
}

// TestInstancePoolBudgetPerCheckout is the SetMaxSteps / pool
// interaction pin: budgets are per-Instance and per-checkout. A
// SetMaxSteps applied during one checkout must not leak into the next,
// and the step count accumulated by one checkout must not starve later
// ones — the two ways a shared pool could silently corrupt the
// runaway guard.
func TestInstancePoolBudgetPerCheckout(t *testing.T) {
	prog, err := Compile(MustParse("t.c", engineDotSrc), WithMaxSteps(5000))
	if err != nil {
		t.Fatal(err)
	}
	pool := prog.NewPool()
	args, want := dotArgs(32)

	// Checkout 1 shrinks its budget below one call's need and faults.
	inst := pool.Get()
	inst.SetMaxSteps(10)
	if _, err := inst.Call("dot", args...); err == nil {
		t.Fatal("10-step budget did not fault")
	}
	pool.Put(inst)

	// Checkout 2 gets the SAME object back with the program's budget
	// restored: the override must not leak.
	inst2 := pool.Get()
	if inst2 != inst {
		t.Fatal("pool did not recycle the instance")
	}
	if v, err := inst2.Call("dot", args...); err != nil {
		t.Fatalf("restored budget still faults: %v", err)
	} else if v.F != want {
		t.Fatalf("dot = %v, want %v", v.F, want)
	}
	pool.Put(inst2)

	// Many checkouts, each consuming a fair fraction of the budget:
	// without the per-checkout reset the accumulated steps would trip
	// the guard after a handful of cycles.
	for i := 0; i < 200; i++ {
		inst := pool.Get()
		if _, err := inst.Call("dot", args...); err != nil {
			t.Fatalf("checkout %d: accumulated steps leaked across the pool: %v", i, err)
		}
		pool.Put(inst)
	}

	// A foreign instance is dropped, not pooled.
	other, err := prog.Variant(WithOptLevel(O0))
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(other.NewInstance())
	if got := pool.Get(); got.prog != prog {
		t.Fatal("pool handed out an instance of a different program")
	}
}

// TestInstancePoolWalkerBackend: pooling works for the oracle backend
// too, including its budget restore.
func TestInstancePoolWalkerBackend(t *testing.T) {
	prog, err := Compile(MustParse("t.c", engineDotSrc),
		WithBackend(BackendWalker), WithMaxSteps(5000))
	if err != nil {
		t.Fatal(err)
	}
	pool := prog.NewPool()
	args, want := dotArgs(32)
	for i := 0; i < 50; i++ {
		inst := pool.Get()
		v, err := inst.Call("dot", args...)
		if err != nil {
			t.Fatalf("walker checkout %d: %v", i, err)
		}
		if v.F != want {
			t.Fatalf("walker checkout %d: dot = %v, want %v", i, v.F, want)
		}
		pool.Put(inst)
	}
}

// TestLastCallSteps pins the measurement tap: the per-call step count
// equals the Steps() delta, survives pooling, covers faulting calls,
// and agrees between backends (the step semantics are shared).
func TestLastCallSteps(t *testing.T) {
	prog, err := Compile(MustParse("t.c", engineDotSrc), WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance()
	args, _ := dotArgs(32)
	before := inst.Steps()
	if _, err := inst.Call("dot", args...); err != nil {
		t.Fatal(err)
	}
	first := inst.LastCallSteps()
	if first <= 0 || first != inst.Steps()-before {
		t.Fatalf("LastCallSteps = %d, Steps delta = %d", first, inst.Steps()-before)
	}
	// Steps are deterministic: a second identical call costs the same.
	if _, err := inst.Call("dot", args...); err != nil {
		t.Fatal(err)
	}
	if inst.LastCallSteps() != first {
		t.Fatalf("second call cost %d steps, first cost %d", inst.LastCallSteps(), first)
	}
	// The walker charges identical step counts (bit-exact parity).
	wv, err := prog.Variant(WithBackend(BackendWalker))
	if err != nil {
		t.Fatal(err)
	}
	winst := wv.NewInstance()
	if _, err := winst.Call("dot", args...); err != nil {
		t.Fatal(err)
	}
	if winst.LastCallSteps() != first {
		t.Fatalf("walker call cost %d steps, compiled cost %d", winst.LastCallSteps(), first)
	}
	// And so does the bytecode backend, fused back edges included.
	bv, err := prog.Variant(WithBackend(BackendBytecode), WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	binst := bv.NewInstance()
	if _, err := binst.Call("dot", args...); err != nil {
		t.Fatal(err)
	}
	if binst.LastCallSteps() != first {
		t.Fatalf("bytecode call cost %d steps, compiled cost %d", binst.LastCallSteps(), first)
	}
	// A faulting call still reports the steps it executed on the way in.
	tight := prog.NewInstance()
	tight.SetMaxSteps(7)
	if _, err := tight.Call("dot", args...); err == nil {
		t.Fatal("7-step budget did not fault")
	}
	if got := tight.LastCallSteps(); got != tight.Steps() {
		t.Fatalf("faulting call: LastCallSteps = %d, Steps = %d", got, tight.Steps())
	}
	// A call rejected before execution (unknown function) reports zero,
	// not the previous call's count — and a pooled recycle clears the
	// tap too, so no checkout sees the prior tenant's measurement.
	if _, err := inst.Call("no_such_fn"); err == nil {
		t.Fatal("unknown function did not error")
	}
	if got := inst.LastCallSteps(); got != 0 {
		t.Fatalf("failed lookup: LastCallSteps = %d, want 0", got)
	}
	pool := prog.NewPool()
	if _, err := inst.Call("dot", args...); err != nil {
		t.Fatal(err)
	}
	pool.Put(inst)
	if got := pool.Get().LastCallSteps(); got != 0 {
		t.Fatalf("recycled checkout: LastCallSteps = %d, want 0", got)
	}
}

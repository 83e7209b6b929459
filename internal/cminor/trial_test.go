package cminor

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// Trial calls (Instance.CallTrial): a call bounded to a slice of its
// statements either finishes inside the slice — and is then exactly the
// call — or rolls back bit-exactly and reports that it did not finish.

// trialLevels are the executors a trial can run on: the closure tiers
// and the bytecode machine, each with the snapshot a rollback needs.
var trialLevels = []struct {
	name string
	opts []Option
}{
	{"O0", []Option{WithOptLevel(O0)}},
	{"O1", []Option{WithOptLevel(O1)}},
	{"O2", []Option{WithOptLevel(O2)}},
	{"O3", []Option{WithOptLevel(O3)}},
	{"bytecode", []Option{WithBackend(BackendBytecode), WithOptLevel(O3)}},
}

// smallBenchArgs builds the ten benchmark kernels' arguments at sizes
// whose calls are a few hundred statements, so that every slice length
// can be swept.
var smallBenchArgs = map[string]func() []any{
	"gemm":   func() []any { return benchGemmArgs(4) },
	"jacobi": func() []any { return benchJacobiArgs(6) },
	"axpy": func() []any {
		return []any{IntV(16), FloatV(2.0), benchVector(16), benchVector(16)}
	},
	"2mm":      func() []any { return bench2mmArgs(3) },
	"seidel2d": func() []any { return benchSeidelArgs(6) },
	"atax":     func() []any { return benchAtaxArgs(5) },
	"mvt":      func() []any { return benchMvtArgs(5) },
	"trisolv":  func() []any { return benchTrisolvArgs(6) },
	"cholesky": func() []any { return benchCholeskyArgs(5) },
	"norms":    func() []any { return benchNormsArgs(6) },
}

// sessionState is a copy of everything a call can leave behind in a
// session and its arguments: the global frame and the argument arrays.
type sessionState struct {
	scalars []Value
	arrays  [][]float64
}

func stateOf(s *Instance, args []any) sessionState {
	st := sessionState{scalars: append([]Value(nil), s.g.scalars...)}
	for _, a := range s.g.arrays {
		st.arrays = append(st.arrays, append([]float64(nil), a.Data...))
	}
	for _, a := range args {
		if arr, ok := a.(*Array); ok {
			st.arrays = append(st.arrays, append([]float64(nil), arr.Data...))
		}
	}
	return st
}

func (st sessionState) diff(w sessionState) string {
	for i := range w.scalars {
		if !valueBitsEqual(st.scalars[i], w.scalars[i]) {
			return fmt.Sprintf("global scalar %d: %+v, want %+v", i, st.scalars[i], w.scalars[i])
		}
	}
	for i := range w.arrays {
		if !floatBitsEqual(st.arrays[i], w.arrays[i]) {
			return fmt.Sprintf("array %d differs", i)
		}
	}
	return ""
}

// checkTrials runs fn as a trial of every length in slices on one
// long-lived session. A trial of at least the
// call's statements must finish and equal a plain Call on a twin
// session that ran every finished call too — value, error, arguments,
// globals and steps; a shorter one must not finish, and must leave the
// arguments, the globals and Steps exactly as they were.
func checkTrials(t *testing.T, what string, prog *Program, fn string, mkArgs func() []any, slices func(total int) []int) {
	t.Helper()
	ref := prog.NewInstance()
	ref.Call(fn, mkArgs()...)
	total := ref.LastCallSteps()

	s, twin := prog.NewInstance(), prog.NewInstance()
	s.SetMaxSteps(1 << 40)
	twin.SetMaxSteps(1 << 40)
	// A rolled-back trial leaves its arguments as they were, so they
	// serve the next trial; a finished one takes fresh ones after it.
	args := mkArgs()
	before := stateOf(s, args)
	for _, k := range slices(total) {
		steps := s.Steps()
		v, done, err := s.CallTrial(nil, k, fn, args...)
		if done != (k >= total) {
			t.Fatalf("%s slice %d of %d: done = %v", what, k, total, done)
		}
		if !done {
			if err != nil || v != (Value{}) || s.Steps() != steps || s.LastCallSteps() != 0 {
				t.Fatalf("%s slice %d of %d: unfinished trial returned %+v, %v; steps %d -> %d, last %d",
					what, k, total, v, err, steps, s.Steps(), s.LastCallSteps())
			}
			if d := stateOf(s, args).diff(before); d != "" {
				t.Fatalf("%s slice %d of %d: rollback is not exact: %s", what, k, total, d)
			}
			continue
		}
		twinArgs := mkArgs()
		wv, werr := twin.Call(fn, twinArgs...)
		if errText(err) != errText(werr) || werr == nil && !sameValue(v, wv) {
			t.Fatalf("%s slice %d: %+v, %v; plain call %+v, %v", what, k, v, err, wv, werr)
		}
		if s.LastCallSteps() != twin.LastCallSteps() || s.Steps() != twin.Steps() {
			t.Fatalf("%s slice %d: %d steps (session %d), plain call %d (session %d)",
				what, k, s.LastCallSteps(), s.Steps(), twin.LastCallSteps(), twin.Steps())
		}
		if d := stateOf(s, args).diff(stateOf(twin, twinArgs)); d != "" {
			t.Fatalf("%s slice %d: %s", what, k, d)
		}
		args = mkArgs()
		before = stateOf(s, args)
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// everySlice is every slice length from one statement to one past the
// call.
func everySlice(total int) []int {
	ks := make([]int, 0, total+1)
	for k := 1; k <= total+1; k++ {
		ks = append(ks, k)
	}
	return ks
}

// TestCallTrialSweep sweeps trials over the ten benchmark kernels at
// every slice length, and over the 330 generated run kernels at the
// slices the budget sweep uses (every length up to 160 statements;
// beyond, both ends and the chunk boundaries), on every executor that
// can roll back.
func TestCallTrialSweep(t *testing.T) {
	for _, lv := range trialLevels {
		opts := append([]Option{WithFallback(true)}, lv.opts...)
		for _, k := range BenchKernels {
			prog, err := Compile(MustParse(k.File, k.Src), opts...)
			if err != nil {
				t.Fatal(err)
			}
			checkTrials(t, k.Name+"/"+lv.name, prog, k.Fn, smallBenchArgs[k.Name], everySlice)
		}
	}
	trips := []int{0, 1, 2, 3, 4, 5, 7, 9, 14, 23}
	for seed := int64(0); seed < 330; seed++ {
		n := trips[int(seed)%len(trips)]
		if seed%15 == 14 {
			n = bcRunChunk + int(seed/15)%4
		}
		f := MustParse(fmt.Sprintf("run%d.c", seed), generateRunKernel(seed, n))
		data := newRunData(seed, n)
		for _, lv := range trialLevels {
			prog, err := Compile(f, append([]Option{WithFallback(true)}, lv.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			// Alias 4 makes the call fault part-way: a slice that reaches
			// the fault finishes with it.
			for _, alias := range []int{0, 4} {
				rng := rand.New(rand.NewSource(seed))
				what := fmt.Sprintf("run%d/%s/alias%d", seed, lv.name, alias)
				checkTrials(t, what, prog, "k", func() []any { return data.args(alias) },
					func(total int) []int { return runBudgets(rng, total) })
			}
		}
	}
}

// TestCallTrialCancellation: a context cancelled during a trial of the
// never-ending spin (engine_test.go) ends the call as a cancellation — done, with the context's error — and
// not as an unfinished trial; the session then runs trials as before.
func TestCallTrialCancellation(t *testing.T) {
	for _, lv := range trialLevels {
		prog, err := Compile(MustParse("spin.c", spinSrc), append([]Option{WithFallback(true)}, lv.opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		s := prog.NewInstance()
		s.SetMaxSteps(1 << 50)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(2*time.Millisecond, cancel)
		_, done, err := s.CallTrial(ctx, 1<<49, "spin")
		if !done || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled trial returned done=%v err=%v, want a cancellation", lv.name, done, err)
		}
		steps := s.Steps()
		if _, done, err := s.CallTrial(context.Background(), 100, "spin"); done || err != nil || s.Steps() != steps {
			t.Fatalf("%s: trial after a cancellation: done=%v err=%v steps %d -> %d", lv.name, done, err, steps, s.Steps())
		}
	}
}

// TestCallTrialRunsInFullWithoutSnapshot: a trial has nothing to roll
// back to when the call's state is over MaxSnapshotElems (or fallback
// is off), so it runs the call in full and reports it done.
func TestCallTrialRunsInFullWithoutSnapshot(t *testing.T) {
	k := BenchKernels[0]
	f := MustParse(k.File, k.Src)
	plain, err := Compile(f, WithBackend(BackendBytecode))
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.NewInstance().Call(k.Fn, smallBenchArgs[k.Name]()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, fallback := range []bool{true, false} {
		prog, err := Compile(f, WithBackend(BackendBytecode), WithFallback(fallback))
		if err != nil {
			t.Fatal(err)
		}
		func() {
			if fallback {
				defer func(n int) { MaxSnapshotElems = n }(MaxSnapshotElems)
				MaxSnapshotElems = 1
			}
			v, done, err := prog.NewInstance().CallTrial(nil, 1, k.Fn, smallBenchArgs[k.Name]()...)
			if !done || err != nil || !sameValue(v, want) {
				t.Fatalf("fallback=%v: trial without a snapshot returned %+v, done=%v, %v; want the full call's %+v",
					fallback, v, done, err, want)
			}
		}()
	}
}

// TestCallTrialInjectedFaults: an injected panic degrades a trial as it
// degrades the full call — at entry before any statement, and at exit
// when the slice ends first — so the caller gets the reference
// result and the fault is reported. And a trial that ends unfinished
// keeps its injector decision for the call that runs in full after it:
// one call, one decision.
func TestCallTrialInjectedFaults(t *testing.T) {
	k := BenchKernels[0]
	f := MustParse(k.File, k.Src)
	plain, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.NewInstance().Call(k.Fn, smallBenchArgs[k.Name]()...)
	if err != nil {
		t.Fatal(err)
	}
	for _, point := range []FaultPoint{FaultAtEntry, FaultAtExit} {
		inj := NewScriptedInjector(FaultRule{Backend: BackendBytecode, AnyOpt: true, Call: 1, Kind: FaultPanic, Point: point})
		prog, err := Compile(f, WithBackend(BackendBytecode), WithFallback(true), WithFaultInjector(inj))
		if err != nil {
			t.Fatal(err)
		}
		s := prog.NewInstance()
		v, done, err := s.CallTrial(nil, 1, k.Fn, smallBenchArgs[k.Name]()...)
		if !done || err != nil || !sameValue(v, want) || !s.LastCallDegraded() || s.LastCallFault() == nil {
			t.Fatalf("%v: trial returned %+v, done=%v, %v, degraded %v, fault %v; want the degraded reference result %+v",
				point, v, done, err, s.LastCallDegraded(), s.LastCallFault(), want)
		}
	}

	inj := NewScriptedInjector(FaultRule{Backend: BackendBytecode, AnyOpt: true, Call: 2, Kind: FaultPanic, Point: FaultAtExit})
	prog, err := Compile(f, WithBackend(BackendBytecode), WithFallback(true), WithFaultInjector(inj))
	if err != nil {
		t.Fatal(err)
	}
	s := prog.NewInstance()
	if _, done, _ := s.CallTrial(nil, 1, k.Fn, smallBenchArgs[k.Name]()...); done {
		t.Fatal("a one-statement trial finished")
	}
	if _, err := s.Call(k.Fn, smallBenchArgs[k.Name]()...); err != nil || s.LastCallFault() != nil || inj.TotalFired() != 0 {
		t.Fatalf("the trial's full run drew a second decision: err %v, fault %v, fired %d", err, s.LastCallFault(), inj.TotalFired())
	}
	if _, err := s.Call(k.Fn, smallBenchArgs[k.Name]()...); err != nil || s.LastCallFault() == nil || inj.TotalFired() != 1 {
		t.Fatalf("the next call is the injector's second: err %v, fault %v, fired %d", err, s.LastCallFault(), inj.TotalFired())
	}
}

// TestCallTrialEndAllocatesNothing: ending a trial raises no formatted
// error and returns its frames to their pools — the callee's too, when
// the slice ends inside a call (norms' sq below O3) — so on a warm
// session unfinished trials allocate nothing.
func TestCallTrialEndAllocatesNothing(t *testing.T) {
	for _, lv := range trialLevels {
		for _, k := range []BenchKernel{BenchKernels[0], BenchKernels[9]} {
			prog, err := Compile(MustParse(k.File, k.Src), append([]Option{WithFallback(true)}, lv.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			s := prog.NewInstance()
			args := smallBenchArgs[k.Name]()
			if _, err := s.Call(k.Fn, args...); err != nil {
				t.Fatal(err)
			}
			trials := func() {
				for slice := 10; slice < 20; slice++ {
					if _, done, _ := s.CallTrial(nil, slice, k.Fn, args...); done {
						panic("a trial of under twenty statements finished")
					}
				}
			}
			trials()
			if n := testing.AllocsPerRun(20, trials); n != 0 {
				t.Fatalf("%s/%s: ten unfinished trials allocate %v times, want 0", k.Name, lv.name, n)
			}
		}
	}
}

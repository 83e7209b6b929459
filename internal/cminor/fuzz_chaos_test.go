package cminor_test

import (
	"fmt"
	"math"
	"testing"

	. "socrates/internal/cminor"
)

// Chaos leg of the differential fuzz corpus: the same generated kernels
// as fuzz_diff_test.go, but every optimized run is sabotaged by an
// injected panic — at the worst possible point (after the body fully
// committed its global and argument-array mutations) and at entry —
// and must still be bit-identical to the untouched walker oracle:
// same returned value, same argument arrays, and same file-scope
// globals (gtick/gacc/gbuf, restored by snapshot rollback before the
// trusted-fallback re-execution).
func TestChaosInjectedFaultsStayBitExact(t *testing.T) {
	const corpus = 60
	type leg struct {
		name    string
		backend Backend
		point   FaultPoint
	}
	legs := []leg{
		{"compiled_exit", BackendCompiled, FaultAtExit},
		{"compiled_entry", BackendCompiled, FaultAtEntry},
		{"bytecode_exit", BackendBytecode, FaultAtExit},
		{"bytecode_entry", BackendBytecode, FaultAtEntry},
	}
	for seed := int64(0); seed < corpus; seed++ {
		src := generateDiffKernel(seed)
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			f, err := Parse(fmt.Sprintf("chaos%d.c", seed), src)
			if err != nil {
				t.Fatalf("unparsable kernel:\n%s\n%v", src, err)
			}
			if _, err := Compile(f); err != nil {
				// Unresolvable kernels never reach the injection point; the
				// plain differential test already skips them.
				return
			}
			w := WalkerInst(t, f)
			w.SetMaxSteps(1 << 30)
			wArgs := diffArgs(8, seed)
			wv, werr := w.Call("k", wArgs...)
			if werr != nil {
				// Erroring kernels never reach the injection point; the
				// plain differential test already pins their error parity.
				return
			}
			for _, lg := range legs {
				inj := NewScriptedInjector(FaultRule{
					Backend: lg.backend, AnyOpt: true, Fn: "k", Call: 1,
					Kind: FaultPanic, Point: lg.point,
				})
				prog, perr := Compile(f,
					WithMaxSteps(1<<30),
					WithBackend(lg.backend), WithOptLevel(O3),
					WithFaultInjector(inj), WithFallback(true))
				if perr != nil {
					t.Fatalf("%s: Compile: %v", lg.name, perr)
				}
				inst := prog.NewInstance()
				args := diffArgs(8, seed)
				v, err := inst.Call("k", args...)
				if err != nil {
					t.Fatalf("%s: faulted call escaped containment on:\n%s\n%v", lg.name, src, err)
				}
				if inj.TotalFired() != 1 {
					t.Fatalf("%s: injector fired %d times, want 1", lg.name, inj.TotalFired())
				}
				if !inst.LastCallDegraded() || inst.LastCallFault() == nil {
					t.Fatalf("%s: fallback taps not set (degraded=%v fault=%v)",
						lg.name, inst.LastCallDegraded(), inst.LastCallFault())
				}
				if inst.Poisoned() {
					t.Fatalf("%s: session poisoned despite successful fallback", lg.name)
				}
				if !sameValue(wv, v) {
					t.Fatalf("%s: return divergence on:\n%s\nwalker=%+v got=%+v", lg.name, src, wv, v)
				}
				for i := 1; i < len(wArgs); i++ {
					wa, ga := wArgs[i].(*Array), args[i].(*Array)
					for k := range wa.Data {
						if math.Float64bits(wa.Data[k]) != math.Float64bits(ga.Data[k]) {
							t.Fatalf("%s: array %d diverges at flat index %d on:\n%s\nwalker=%g got=%g",
								lg.name, i, k, src, wa.Data[k], ga.Data[k])
						}
					}
				}
				// Globals: the rolled-back-then-re-executed session must hold
				// exactly one committed execution's worth of mutations,
				// bit-identical to the oracle's.
				for _, name := range []string{"gtick", "gacc"} {
					wg, ok1 := w.GlobalScalar(name)
					gg, ok2 := inst.GlobalScalar(name)
					if !ok1 || !ok2 {
						t.Fatalf("%s: global %s missing (%v, %v)", lg.name, name, ok1, ok2)
					}
					if !sameValue(wg, gg) {
						t.Fatalf("%s: global %s diverges on:\n%s\nwalker=%+v got=%+v",
							lg.name, name, src, wg, gg)
					}
				}
				wb, _ := w.GlobalArray("gbuf")
				gb, _ := inst.GlobalArray("gbuf")
				for k := range wb.Data {
					if math.Float64bits(wb.Data[k]) != math.Float64bits(gb.Data[k]) {
						t.Fatalf("%s: gbuf[%d] diverges on:\n%s\nwalker=%g got=%g",
							lg.name, k, src, wb.Data[k], gb.Data[k])
					}
				}
			}
			// Silent-miscompile leg: a wrong-result injection must be caught
			// by the audit and the caller must still see the oracle value.
			inj := NewScriptedInjector(FaultRule{
				Backend: BackendBytecode, AnyOpt: true, Fn: "k", Call: 1,
				Kind: FaultWrongResult,
			})
			prog, perr := Compile(f,
				WithMaxSteps(1<<30),
				WithBackend(BackendBytecode), WithOptLevel(O3),
				WithFaultInjector(inj), WithFallback(true))
			if perr != nil {
				t.Fatalf("audit leg: Compile: %v", perr)
			}
			inst := prog.NewInstance()
			args := diffArgs(8, seed)
			v, diverged, err := inst.CallAudited(t.Context(), "k", args...)
			if err != nil {
				t.Fatalf("audit leg: %v", err)
			}
			if !diverged {
				t.Fatalf("audit leg: wrong result not detected on:\n%s", src)
			}
			if !sameValue(wv, v) {
				t.Fatalf("audit leg: returned corrupt value on:\n%s\nwalker=%+v got=%+v", src, wv, v)
			}
		})
	}
}

package cminor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Per-pass gate coverage: every O3 pass individually off and on (every
// subset) must keep golden walker parity — same return value,
// bit-identical arrays, identical step counts — on all ten corpus
// kernels. This is what makes the finer-than-four-points knob grid
// safe for the autotuner to explore blindly.

var passMaskSubsets = []PassMask{
	0,
	PassInline,
	AllPasses,
}

func TestPassMaskGoldenParity(t *testing.T) {
	for _, k := range BenchKernels {
		t.Run(k.Name, func(t *testing.T) {
			f := MustParse(k.File, k.Src)
			w := walkerInst(t, f)
			w.SetMaxSteps(1 << 40)
			wArgs := k.Args()
			wv, werr := w.Call(k.Fn, wArgs...)
			if werr != nil {
				t.Fatalf("walker: %v", werr)
			}
			prog, err := Compile(f, WithMaxSteps(1<<40))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range passMaskSubsets {
				vp, err := prog.Variant(WithOptLevel(O3), WithPasses(m))
				if err != nil {
					t.Fatalf("Variant(O3, %v): %v", m, err)
				}
				if vp.Passes() != m {
					t.Fatalf("Passes() = %v, want %v", vp.Passes(), m)
				}
				inst := vp.NewInstance()
				args := k.Args()
				v, err := inst.Call(k.Fn, args...)
				if err != nil {
					t.Fatalf("O3[%v]: %v", m, err)
				}
				if !sameValue(wv, v) {
					t.Fatalf("O3[%v]: return value diverged from walker", m)
				}
				if inst.Steps() != w.Steps() {
					t.Fatalf("O3[%v]: %d steps, walker charged %d", m, inst.Steps(), w.Steps())
				}
				for i := range wArgs {
					wa, ok := wArgs[i].(*Array)
					if !ok {
						continue
					}
					va := args[i].(*Array)
					for j := range wa.Data {
						if math.Float64bits(wa.Data[j]) != math.Float64bits(va.Data[j]) {
							t.Fatalf("O3[%v]: array %d diverges at flat index %d: walker=%g got=%g",
								m, i, j, wa.Data[j], va.Data[j])
						}
					}
				}
			}
		})
	}
}

// TestWithPassesValidation: unknown pass bits are a positioned
// diagnostic from Compile and Variant, like an unknown opt level —
// never silently masked off.
func TestWithPassesValidation(t *testing.T) {
	f := MustParse("t.c", `void f() { int x; x = 1; }`)
	if _, err := Compile(f, WithPasses(0x80)); err == nil {
		t.Fatal("Compile accepted unknown pass bits")
	}
	prog, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Variant(WithPasses(AllPasses | 0x40)); err == nil {
		t.Fatal("Variant accepted unknown pass bits")
	}
	if err := prog.CheckOptions(WithPasses(0x80)); err == nil {
		t.Fatal("CheckOptions accepted unknown pass bits")
	}
	if err := prog.CheckOptions(WithOptLevel(O3+1), WithPasses(PassInline)); err == nil {
		t.Fatal("CheckOptions accepted an unknown opt level")
	}
	if err := prog.CheckOptions(WithOptLevel(O3), WithPasses(PassInline)); err != nil {
		t.Fatalf("CheckOptions rejected a valid set: %v", err)
	}
	// Defaults: a plain Compile carries AllPasses (inert below O3).
	if prog.Passes() != AllPasses {
		t.Fatalf("default pass mask = %v, want AllPasses", prog.Passes())
	}
}

// TestWithPassesRejectsRetiredBit: bit 1 once gated value-range
// bounds-check elimination and bit 2 store-loop unrolling. Their
// deletion must narrow the knob, not leave a bit that is accepted and
// silently does nothing.
func TestWithPassesRejectsRetiredBit(t *testing.T) {
	for _, retired := range []PassMask{1 << 1, 1 << 2} {
		if AllPasses&retired != 0 {
			t.Fatalf("AllPasses = %#x still carries the retired bit %#x", uint8(AllPasses), uint8(retired))
		}
		f := MustParse("t.c", `void f() { int x; x = 1; }`)
		want := fmt.Sprintf("t.c: unknown O3 pass bits 0x%x", uint8(retired))
		check := func(who string, err error) {
			t.Helper()
			if err == nil || !strings.HasPrefix(err.Error(), want) {
				t.Errorf("%s: err = %v, want the positioned unknown-pass-bits diagnostic %q", who, err, want)
			}
		}
		_, err := Compile(f, WithOptLevel(O3), WithPasses(retired))
		check("Compile", err)
		prog, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, err = prog.Variant(WithOptLevel(O3), WithPasses(AllPasses|retired))
		check("Variant", err)
		check("CheckOptions", prog.CheckOptions(WithOptLevel(O3), WithPasses(retired)))
	}
}

// TestPassMaskString pins the names used in variant labels.
func TestPassMaskString(t *testing.T) {
	cases := []struct {
		m    PassMask
		want string
	}{
		{0, "none"},
		{PassInline, "inline"},
		{AllPasses, "inline"},
		// The retired bits name no pass.
		{1 << 1, "none"},
		{1 << 2, "none"},
		{PassInline | 1<<2, "inline"},
	}
	for _, tc := range cases {
		if got := tc.m.String(); got != tc.want {
			t.Fatalf("PassMask(%#x).String() = %q, want %q", uint8(tc.m), got, tc.want)
		}
	}
}

// TestPassMaskNoneMatchesO2 spot-checks that O3 with every pass gated
// off behaves like O2 where it is observable: the norms kernel's leaf
// call only inlines (and its loop only fast-paths) when PassInline is
// on, so allocation/step profiles differ — but results never do.
func TestPassMaskNoneMatchesO2(t *testing.T) {
	k := BenchKernels[len(BenchKernels)-1] // norms, the inliner showcase
	if k.Name != "norms" {
		t.Fatal("corpus order changed; update the test")
	}
	f := MustParse(k.File, k.Src)
	prog, err := Compile(f, WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	o2, err := prog.Variant(WithOptLevel(O2))
	if err != nil {
		t.Fatal(err)
	}
	bare, err := prog.Variant(WithOptLevel(O3), WithPasses(0))
	if err != nil {
		t.Fatal(err)
	}
	i2, ib := o2.NewInstance(), bare.NewInstance()
	a2, ab := k.Args(), k.Args()
	if _, err := i2.Call(k.Fn, a2...); err != nil {
		t.Fatal(err)
	}
	if _, err := ib.Call(k.Fn, ab...); err != nil {
		t.Fatal(err)
	}
	if i2.Steps() != ib.Steps() {
		t.Fatalf("O3[none] charged %d steps, O2 charged %d", ib.Steps(), i2.Steps())
	}
	out2, outb := a2[2].(*Array), ab[2].(*Array)
	for j := range out2.Data {
		if math.Float64bits(out2.Data[j]) != math.Float64bits(outb.Data[j]) {
			t.Fatalf("O3[none] diverges from O2 at %d", j)
		}
	}
}

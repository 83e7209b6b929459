package cminor

import (
	"strings"
	"testing"
)

// o3Prog compiles src at O3 or fails the test.
func o3Prog(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Compile(MustParse("t.c", src), WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// planFor resolves src and returns the O3 inline plan of one function
// (nil when nothing was inlined into it).
func planFor(t *testing.T, src, fn string) *inlinePlan {
	t.Helper()
	res, err := Resolve(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	return planInlining(res)[fn]
}

func TestInlinePlanEligibility(t *testing.T) {
	// sq is a small leaf: inlined. big is over the node budget. chain
	// calls another user function: not a leaf. loop calls itself: not a
	// leaf (recursion).
	var sb strings.Builder
	sb.WriteString("double sq(double x) { return x * x; }\n")
	sb.WriteString("double big(double x) {\n")
	for i := 0; i < 40; i++ {
		sb.WriteString("  x = x + 1.0;\n")
	}
	sb.WriteString("  return x;\n}\n")
	sb.WriteString("double chain(double x) { return sq(x) + 1.0; }\n")
	sb.WriteString("double loop(double x) { if (x > 0.0) { return loop(x - 1.0); } return x; }\n")
	sb.WriteString("double f(double x) { return sq(x) + big(x) + chain(x) + loop(x); }\n")
	src := sb.String()

	pl := planFor(t, src, "f")
	if pl == nil {
		t.Fatal("expected an inline plan for f (sq is a leaf under budget)")
	}
	got := map[string]int{}
	for _, site := range pl.sites {
		got[site.callee.Decl.Name]++
	}
	if got["sq"] != 1 || got["big"] != 0 || got["loop"] != 0 {
		t.Errorf("inlined callees = %v, want exactly the one sq site", got)
	}
	// chain itself receives its sq call as a site.
	if cpl := planFor(t, src, "chain"); cpl == nil || len(cpl.sites) != 1 {
		t.Errorf("chain should inline its sq call, plan = %+v", cpl)
	}
	// Semantics stay put regardless of which calls were inlined.
	diffCheck(t, "eligibility", src, "f", func() []any { return []any{FloatV(3.0)} })
}

// TestInlineSlotRenumbering pins the frame layout contract: the inlined
// callee's params and locals live in fresh slots appended to the
// caller's frame, so caller variables survive the splice bit-for-bit.
func TestInlineSlotRenumbering(t *testing.T) {
	src := `
double addmul(double a, double b) {
  double t = a * b;
  a = a + t;
  return a;
}
double f(double x, double y) {
  double u = 2.0;
  double v = 3.0;
  double r = addmul(u + x, v + y);
  return r * 10000.0 + u * 100.0 + v;
}`
	pl := planFor(t, src, "f")
	if pl == nil || len(pl.sites) != 1 {
		t.Fatalf("expected one inline site in f, plan = %+v", pl)
	}
	res, _ := Resolve(MustParse("t.c", src))
	caller := res.Funcs["f"]
	callee := res.Funcs["addmul"]
	for _, site := range pl.sites {
		if site.scalarOff != caller.NumScalars {
			t.Errorf("scalar offset = %d, want %d (first slot past the caller's)",
				site.scalarOff, caller.NumScalars)
		}
	}
	if pl.numScalars != caller.NumScalars+callee.NumScalars {
		t.Errorf("grown frame = %d scalars, want %d", pl.numScalars,
			caller.NumScalars+callee.NumScalars)
	}
	// addmul(1+2=3... a=3, b=6, t=18, a=21) → r=21; u and v untouched.
	v, err := o3Prog(t, src).NewInstance().Call("f", FloatV(1.0), FloatV(3.0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 21.0*10000+2.0*100+3.0 {
		t.Errorf("f = %g, want 210203", v.Float())
	}
	diffCheck(t, "renumbering", src, "f", func() []any { return []any{FloatV(1.0), FloatV(3.0)} })
}

// TestInlineByValueCopySemantics: assignments to a by-value parameter
// inside the inlined body must not reach the caller's argument.
func TestInlineByValueCopySemantics(t *testing.T) {
	src := `
double clobber(double a) {
  a = a + 100.0;
  return a;
}
double f() {
  double x = 1.0;
  double r = clobber(x);
  return x * 1000.0 + r;
}`
	v, err := o3Prog(t, src).NewInstance().Call("f")
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 1101.0 {
		t.Errorf("f = %g, want 1101 (x must stay 1)", v.Float())
	}
	diffCheck(t, "byvalue", src, "f", func() []any { return nil })
}

// TestInlinePointerParam: stores through an inlined pointer parameter
// still reach the caller's variable.
func TestInlinePointerParam(t *testing.T) {
	src := `
void bump(double *p, double d) { p = p + d; }
double f() {
  double x = 40.0;
  bump(&x, 2.0);
  return x;
}`
	if pl := planFor(t, src, "f"); pl == nil || len(pl.sites) != 1 {
		t.Fatalf("bump should be inlined into f, plan = %+v", pl)
	}
	v, err := o3Prog(t, src).NewInstance().Call("f")
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 42.0 {
		t.Errorf("f = %g, want 42", v.Float())
	}
	diffCheck(t, "ptrparam", src, "f", func() []any { return nil })
}

// TestInlineCallerFallsOffEnd: the caller's pending return value is
// saved around the splice — a caller that falls off its end must yield
// the zero Value even though the inlined callee wrote a return value.
func TestInlineCallerFallsOffEnd(t *testing.T) {
	src := `
double helper(double x) {
  if (x > 0.0) { return 5.0; }
  return 2.0;
}
double g() { helper(1.0); }`
	v, err := o3Prog(t, src).NewInstance().Call("g")
	if err != nil {
		t.Fatal(err)
	}
	if v.IsInt || v.F != 0.0 {
		t.Errorf("g = %+v, want the zero Value (callee's return must not leak)", v)
	}
	diffCheck(t, "falloff", src, "g", func() []any { return nil })
}

// TestInlineUnlocksCountedLoop: a loop body whose only call is inlined
// reaches the counted-loop fast path — pinned on the bytecode, where
// PassInline splices the call and the loop lowers to a proven run
// (forinit, prove, a run form), while with the pass off the same call
// makes the function bail to the closures.
func TestInlineUnlocksCountedLoop(t *testing.T) {
	src := `
double sq(double x) { return x * x; }
double f(int n, double a[n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + sq(a[i]);
  }
  return s;
}`
	bytecode := func(m PassMask) *Program {
		p, err := Compile(MustParse("t.c", src), WithBackend(BackendBytecode), WithOptLevel(O3), WithPasses(m))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := Disassemble(bytecode(0), "f"); err == nil || !strings.Contains(err.Error(), "call to sq") {
		t.Errorf("without PassInline: Disassemble err = %v, want a bail on the call to sq", err)
	}
	dis, err := Disassemble(bytecode(PassInline), "f")
	if err != nil {
		t.Fatalf("with PassInline: %v", err)
	}
	for _, op := range []string{"forinit", "prove", "run."} {
		if !strings.Contains(dis, op) {
			t.Errorf("with PassInline the loop lowered without %s:\n%s", op, dis)
		}
	}
	o3 := o3Prog(t, src)
	mk := func() []any {
		a := NewArray(9)
		for i := range a.Data {
			a.Data[i] = float64(i) * 0.75
		}
		return []any{IntV(9), a}
	}
	diffCheck(t, "unlock", src, "f", mk)
	args := mk()
	v, err := o3.NewInstance().Call("f", args...)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for i := 0; i < 9; i++ {
		x := float64(i) * 0.75
		want += x * x
	}
	if v.Float() != want {
		t.Errorf("f = %g, want %g", v.Float(), want)
	}
}

// TestInlineStepParity: inlining must charge exactly the statements the
// out-of-line call would, so step budgets fault identically on every
// variant.
func TestInlineStepParity(t *testing.T) {
	src := `
double sq(double x) { double t = x * x; return t; }
double f(int n) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + sq((double)i);
  }
  return s;
}`
	prog, err := Compile(MustParse("t.c", src), WithOptLevel(O0))
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]int{}
	for _, lvl := range []OptLevel{O0, O1, O2, O3} {
		vp, err := prog.Variant(WithOptLevel(lvl))
		if err != nil {
			t.Fatal(err)
		}
		inst := vp.NewInstance()
		if _, err := inst.Call("f", IntV(50)); err != nil {
			t.Fatal(err)
		}
		steps[lvl.String()] = inst.Steps()
	}
	for lvl, n := range steps {
		if n != steps["O0"] {
			t.Errorf("step divergence: %s ran %d steps, O0 ran %d", lvl, n, steps["O0"])
		}
	}
	// And the walker agrees, so budget faults stay bit-exact too.
	w := walkerInst(t, MustParse("t.c", src))
	if _, err := w.Call("f", IntV(50)); err != nil {
		t.Fatal(err)
	}
	if w.Steps() != steps["O0"] {
		t.Errorf("walker ran %d steps, compiled ran %d", w.Steps(), steps["O0"])
	}
}

// TestO3SteadyStateAllocFree extends the frame-pooling contract to O3:
// inlined calls, range proofs and the unrolled store loop must add no
// per-call allocations.
func TestO3SteadyStateAllocFree(t *testing.T) {
	src := `
double sq(double x) { return x * x; }
double f(int n, double a[n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) { s = s + sq(a[i]); }
  return s;
}`
	prog, err := Compile(MustParse("t.c", src), WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	inst := prog.NewInstance()
	inst.SetMaxSteps(1 << 60)
	args := []any{IntV(64), NewArray(64)} // built once: arg boxing is the caller's
	if _, err := inst.Call("f", args...); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := inst.Call("f", args...); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("O3 steady-state Call allocates %.1f objects/op, want 0", avg)
	}
}

// TestInlineFaultInCallee: a runtime fault inside an inlined body keeps
// its position and the partial state of everything before it.
func TestInlineFaultInCallee(t *testing.T) {
	src := `
double pick(int n, double a[n], int k) { return a[k]; }
double f(int n, double a[n]) {
  int i;
  double s = 0.0;
  for (i = 0; i <= n; i++) {
    a[0] = a[0] + 1.0;
    s = s + pick(n, a, i);
  }
  return s;
}`
	mk := func() []any {
		a := NewArray(4)
		for i := range a.Data {
			a.Data[i] = float64(i)
		}
		return []any{IntV(4), a}
	}
	f := MustParse("t.c", src)
	wArgs, cArgs := mk(), mk()
	_, werr := walkerInst(t, f).Call("f", wArgs...)
	prog, err := Compile(f, WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := prog.NewInstance().Call("f", cArgs...)
	if werr == nil || cerr == nil {
		t.Fatalf("expected out-of-bounds faults, walker=%v O3=%v", werr, cerr)
	}
	if !strings.Contains(cerr.Error(), "t.c:") {
		t.Errorf("O3 fault should be positioned, got %q", cerr)
	}
	wa, ca := wArgs[1].(*Array), cArgs[1].(*Array)
	for k := range wa.Data {
		if wa.Data[k] != ca.Data[k] {
			t.Fatalf("partial state diverges at %d: walker=%g O3=%g", k, wa.Data[k], ca.Data[k])
		}
	}
}

package cminor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// runBoth executes one program through the walker and the compiled
// pipeline with separately-built args and returns both outcomes.
func runBoth(t *testing.T, src, fn string, mkArgs func() []any) (wv, cv Value, werr, cerr error, wArgs, cArgs []any) {
	t.Helper()
	f := MustParse("t.c", src)
	wArgs, cArgs = mkArgs(), mkArgs()
	wv, werr = walkerInst(t, f).Call(fn, wArgs...)
	cv, cerr = newInst(t, f).Call(fn, cArgs...)
	return
}

// diffCheck asserts walker/compiled parity for one program across the
// default (O2) pipeline, the O3 inliner variant and the
// bytecode backend: same error-or-not outcome, same returned Value,
// bit-identical arrays.
func diffCheck(t *testing.T, name, src, fn string, mk func() []any) {
	t.Helper()
	f := MustParse("t.c", src)
	wArgs := mk()
	wv, werr := walkerInst(t, f).Call(fn, wArgs...)
	run := func(level string, call func(args []any) (Value, error)) {
		cArgs := mk()
		cv, cerr := call(cArgs)
		if (werr == nil) != (cerr == nil) {
			t.Fatalf("%s/%s: error divergence walker=%v compiled=%v", name, level, werr, cerr)
		}
		if werr == nil && !sameValue(wv, cv) {
			t.Fatalf("%s/%s: return divergence walker=%+v compiled=%+v", name, level, wv, cv)
		}
		for i := range wArgs {
			wa, ok := wArgs[i].(*Array)
			if !ok {
				continue
			}
			ca := cArgs[i].(*Array)
			for k := range wa.Data {
				if math.Float64bits(wa.Data[k]) != math.Float64bits(ca.Data[k]) {
					t.Fatalf("%s/%s: array %d diverges at %d: walker=%g compiled=%g",
						name, level, i, k, wa.Data[k], ca.Data[k])
				}
			}
		}
	}
	in := newInst(t, f)
	run("O2", func(args []any) (Value, error) { return in.Call(fn, args...) })
	o3, err := Compile(f, WithOptLevel(O3))
	if err != nil {
		if werr == nil {
			t.Fatalf("%s: O3 Compile rejected what the walker ran: %v", name, err)
		}
		return
	}
	inst := o3.NewInstance()
	run("O3", func(args []any) (Value, error) { return inst.Call(fn, args...) })
	bc, err := Compile(f, WithBackend(BackendBytecode), WithOptLevel(O3))
	if err != nil {
		t.Fatalf("%s: bytecode Compile rejected what O3 accepted: %v", name, err)
	}
	bi := bc.NewInstance()
	run("bytecode", func(args []any) (Value, error) { return bi.Call(fn, args...) })
}

// Inner loop's hoisted access fails preflight (a[j+off] out of range when
// off selected), while the outer loop's own hoists stay valid, so the
// outer fast body must drive the inner SAFE body with outer-registered
// hoists still live.
func TestLoopNestedInnerDeopt(t *testing.T) {
	src := `
double f(int n, int off, double a[n], double b[n][n], double out[n]) {
  int i; int j;
  double acc = 0.0;
  for (i = 0; i < n; i++) {
    out[i] = a[i] * 2.0;
    for (j = 0; j < n; j++) {
      b[i][j] = b[i][j] + a[j + off] + out[i];
      acc += b[i][j];
    }
  }
  return acc;
}`
	for _, off := range []int64{0, 1, 3} { // off=1,3 push a[j+off] out of range
		mk := func() []any {
			a, b, out := NewArray(6), NewArray(6, 6), NewArray(6)
			for i := range a.Data {
				a.Data[i] = float64(i) * 0.5
			}
			for i := range b.Data {
				b.Data[i] = float64(i) * 0.25
			}
			return []any{IntV(6), IntV(off), a, b, out}
		}
		diffCheck(t, "nested-deopt", src, "f", mk)
	}
}

// Row-striding (hRowIV) access nested under an outer loop, inner bound
// depends on outer-invariant expr; plus a diagonal access that must stay
// generic.
func TestLoopRowStrideAndDiagonal(t *testing.T) {
	src := `
double f(int n, double b[n][n]) {
  int i; int j;
  double acc = 0.0;
  for (i = 0; i < n; i++) {
    for (j = 1; j <= n - 1; j = j + 1) {
      b[j][i] = b[j - 1][i] * 0.5 + 1.0;
      b[j][j] += 0.125;
      acc += b[j][i];
    }
  }
  return acc;
}`
	mk := func() []any {
		b := NewArray(7, 7)
		for i := range b.Data {
			b.Data[i] = float64(i) * 0.125
		}
		return []any{IntV(7), b}
	}
	diffCheck(t, "rowstride", src, "f", mk)
}

// The loop bound is a double variable that an int store converts into:
// it stays double, so neither loop is a counted loop (its bound must be
// int), and every backend returns the double C computes: m = 7.0, seven
// a[i] += 1.0 and eight a[0] += 0.5 leave a[0] = 5.0.
func TestLoopDoubleBound(t *testing.T) {
	src := `
double f(int n, double a[n]) {
  int i;
  double m = 4.0;
  m = n - 1;
  for (i = 0; i < m; i++) {
    a[i] += 1.0;
  }
  for (i = 0; i <= m; i++) {
    a[0] += 0.5;
  }
  return a[0];
}`
	mk := func() []any {
		a := NewArray(8)
		for i := range a.Data {
			a.Data[i] = float64(i)
		}
		return []any{IntV(8), a}
	}
	diffCheck(t, "doublebound", src, "f", mk)
	f := MustParse("t.c", src)
	p, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	c := &compiler{prog: p, opt: O2}
	for _, st := range f.Funcs[0].Body.Stmts {
		switch st := st.(type) {
		case *ExprStmt:
			if k := p.res.kindOf(st.X); k != kFloat {
				t.Errorf("m = n - 1 has kind %d, want double", k)
			}
		case *ForStmt:
			if _, _, _, _, _, ok := c.countedShape(st); ok {
				t.Errorf("loop at %s with a double bound taken as counted", st.P)
			}
		}
	}
	if v, err := newInst(t, f).Call("f", mk()...); err != nil || !sameValue(v, FloatV(5)) {
		t.Errorf("f = %+v, %v; want 5.0", v, err)
	}
}

// Rank mismatch at loop entry (array param rebound with wrong rank):
// setup must bail to the safe body and fault exactly like the walker.
func TestLoopRankMismatchDeopt(t *testing.T) {
	src := `
double f(int n, double a[n]) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] += 1.0;
  }
  return a[0];
}`
	mk := func() []any { return []any{IntV(4), NewArray(4, 4)} }
	diffCheck(t, "rankmismatch", src, "f", mk)
}

// Negative affine offset out of range on iteration 0 plus partial-state
// parity: the fault happens mid-loop in the walker.
func TestLoopNegOffsetFault(t *testing.T) {
	src := `
double f(int n, double a[n]) {
  int i;
  for (i = 0; i < n; i++) {
    a[i - 2] = 1.0 * i;
  }
  return 0.0;
}`
	mk := func() []any { return []any{IntV(5), NewArray(5)} }
	diffCheck(t, "negoff", src, "f", mk)
}

// A loop bound read from a global that the body mutates is not
// invariant: the counted loop must refuse to hoist it and re-evaluate
// per iteration (a hoisted bound of 5 would yield 0+1+2+3+4 = 10).
// Also checked against the walker oracle, which gained file-scope
// globals alongside the walker backend.
func TestLoopGlobalBoundMutation(t *testing.T) {
	src := `
int g = 5;
double f() {
  int i;
  double acc = 0.0;
  for (i = 0; i < g; i++) {
    g = g - 1;
    acc += i;
  }
  return acc;
}`
	diffCheck(t, "globalbound", src, "f", func() []any { return nil })
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	// g shrinks while i grows: iterations i=0,1,2 run → acc = 3.
	if v.Float() != 3.0 {
		t.Errorf("got %g, want 3 (bound must be re-evaluated per iteration)", v.Float())
	}
}

// Induction variable read after a zero-trip inner loop; also "c + i"
// affine form and invariant float subscript truncation.
func TestLoopMiscShapes(t *testing.T) {
	src := `
double f(int n, double a[n], double b[n][n]) {
  int i; int j;
  double x = 1.9;
  double acc = 0.0;
  for (i = 0; i < n; i++) {
    for (j = n; j < n; j++) { acc += 100.0; }
    a[x] = a[x] + 1.0;
    b[i][1 + i] = 2.0;
    acc += b[i][1 + i] + a[x] + j;
  }
  return acc;
}`
	mk := func() []any {
		a, b := NewArray(9), NewArray(9, 9)
		return []any{IntV(8), a, b}
	}
	diffCheck(t, "misc", src, "f", mk)
}

func TestCountedLoopFinalInductionValue(t *testing.T) {
	src := `
int f(int n) {
  int i;
  for (i = 0; i < n; i++) { }
  return i;
}
int g(int n) {
  int i;
  for (i = 3; i <= n; i += 1) { }
  return i;
}`
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", IntV(7))
	if err != nil || v.I != 7 {
		t.Errorf("f(7) = %+v (%v), want i == 7 after the loop", v, err)
	}
	v, err = in.Call("g", IntV(7))
	if err != nil || v.I != 8 {
		t.Errorf("g(7) = %+v (%v), want i == 8 after the loop", v, err)
	}
	// Zero-trip loop: the induction variable keeps its initial value.
	v, err = in.Call("f", IntV(0))
	if err != nil || v.I != 0 {
		t.Errorf("f(0) = %+v (%v), want 0", v, err)
	}
}

// TestLoopVersioningPartialStateOnFault pins the loop-versioning
// contract: when a hoisted subscript's preflight range check fails, the
// loop must run the fully-checked body and fault at exactly the
// iteration the walker would — leaving bit-identical partial state.
func TestLoopVersioningPartialStateOnFault(t *testing.T) {
	src := `
void f(int n, double a[m]) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] = 1.0 + i;
  }
}`
	mk := func() []any { return []any{IntV(15), NewArray(10)} }
	_, _, werr, cerr, wArgs, cArgs := runBoth(t, src, "f", mk)
	if werr == nil || cerr == nil {
		t.Fatalf("expected out-of-bounds faults, walker=%v compiled=%v", werr, cerr)
	}
	if !strings.Contains(cerr.Error(), "t.c:") {
		t.Errorf("compiled fault should be positioned, got %q", cerr)
	}
	wa, ca := wArgs[1].(*Array), cArgs[1].(*Array)
	for k := range wa.Data {
		if math.Float64bits(wa.Data[k]) != math.Float64bits(ca.Data[k]) {
			t.Fatalf("partial state diverges at index %d: walker=%g compiled=%g",
				k, wa.Data[k], ca.Data[k])
		}
	}
	if wa.At(9) != 10.0 {
		t.Errorf("iterations before the fault should have run: a[9] = %g, want 10", wa.At(9))
	}
}

// TestLoopBoundMutatedInBody: a bound that the body modifies is not
// invariant, so the loop must stay on the generic (re-evaluating) path.
func TestLoopBoundMutatedInBody(t *testing.T) {
	src := `
int f(int n) {
  int i;
  int trips = 0;
  for (i = 0; i < n; i++) {
    n = n - 1;
    trips = trips + 1;
  }
  return trips * 100 + i * 10 + n;
}`
	wv, cv, werr, cerr, _, _ := runBoth(t, src, "f", func() []any { return []any{IntV(10)} })
	if werr != nil || cerr != nil {
		t.Fatalf("unexpected errors: walker=%v compiled=%v", werr, cerr)
	}
	if !sameValue(wv, cv) {
		t.Fatalf("divergence: walker=%+v compiled=%+v", wv, cv)
	}
}

// TestHoistedZeroTripLoop: a zero-iteration loop must not evaluate any
// hoisted subscript (the row index would be out of range).
func TestHoistedZeroTripLoop(t *testing.T) {
	src := `
double f(int n, int lim, double A[n][n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < lim; i++) {
    s += A[n + 5][i];
  }
  return s;
}`
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", IntV(4), IntV(0), NewArray(4, 4))
	if err != nil {
		t.Fatalf("zero-trip loop must not fault on hoisted row check: %v", err)
	}
	if v.Float() != 0 {
		t.Errorf("got %g, want 0", v.Float())
	}
	// With one iteration the same access must fault, positioned.
	_, err = in.Call("f", IntV(4), IntV(1), NewArray(4, 4))
	if err == nil || !strings.Contains(err.Error(), "t.c:") {
		t.Errorf("expected positioned out-of-range fault, got %v", err)
	}
}

// TestLoopBoundMutatedInVLADim: a scalar write hidden inside a local
// array's dimension expression still invalidates bound invariance (the
// AST walk must traverse declaration dims).
func TestLoopBoundMutatedInVLADim(t *testing.T) {
	src := `
double f() {
  int m = 5;
  int i;
  double s = 0.0;
  for (i = 0; i < m; i++) {
    double T[m = m - 1];
    s = s + 1.0;
  }
  return s;
}`
	wv, cv, werr, cerr, _, _ := runBoth(t, src, "f", func() []any { return nil })
	if werr != nil || cerr != nil {
		t.Fatalf("unexpected errors: walker=%v compiled=%v", werr, cerr)
	}
	if !sameValue(wv, cv) {
		t.Fatalf("divergence: walker=%+v compiled=%+v", wv, cv)
	}
	if cv.Float() != 3.0 {
		t.Errorf("got %g, want 3 (bound shrinks each iteration)", cv.Float())
	}
}

// TestHoistRangeCheckOverflow: a near-MaxInt64 loop bound must not wrap
// the preflight range check into accepting the fast path — the fault
// must stay a positioned Diag, exactly like the generic path.
func TestHoistRangeCheckOverflow(t *testing.T) {
	src := `
double f(double a[10]) {
  int i;
  double s = 0.0;
  for (i = 0; i < 9223372036854775807; i++) {
    s = s + a[i + 2];
  }
  return s;
}`
	_, _, werr, cerr, _, _ := runBoth(t, src, "f", func() []any { return []any{NewArray(10)} })
	if werr == nil || cerr == nil {
		t.Fatalf("expected out-of-range faults, walker=%v compiled=%v", werr, cerr)
	}
	if !strings.Contains(werr.Error(), "index 10 out of range") {
		t.Errorf("walker fault should be the range error, got %q", werr)
	}
	// The compiled fault must be the positioned Diag from the checked
	// subscript, not a raw Go slice panic out of the fast path.
	if !strings.Contains(cerr.Error(), "index 10 out of range") ||
		!strings.Contains(cerr.Error(), "t.c:") {
		t.Errorf("compiled fault should be the positioned range error, got %q", cerr)
	}
}

// TestUnrolledLoopBudgetExactness: the O3 unrolled store loop amortizes
// the budget *comparison* over 4-wide groups, but the statement charge
// stays exact — a budget that expires anywhere inside a would-be group
// must fault at the same statement (and leave the same Steps count) as
// the walker, for any alignment of budget vs group boundary.
func TestUnrolledLoopBudgetExactness(t *testing.T) {
	srcs := map[string]string{
		"plain": `
double f(int n, double a[n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + a[i];
  }
  return s;
}`,
		// An inlined callee charges its own statements inside the store
		// op, so a 4-wide group costs more than 8 steps — the loop must
		// not amortize the budget check there (it would fault late).
		"inlined-call": `
double sq(double x) { return x * x; }
double f(int n, double a[n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + sq(a[i]);
  }
  return s;
}`,
	}
	for name, src := range srcs {
		f := MustParse("t.c", src)
		for budget := 1; budget <= 230; budget++ {
			w := walkerInst(t, f)
			w.SetMaxSteps(budget)
			wv, werr := w.Call("f", IntV(64), NewArray(64))
			prog, err := Compile(f, WithOptLevel(O3), WithMaxSteps(budget))
			if err != nil {
				t.Fatal(err)
			}
			inst := prog.NewInstance()
			cv, cerr := inst.Call("f", IntV(64), NewArray(64))
			if (werr == nil) != (cerr == nil) {
				t.Fatalf("%s budget %d: error divergence walker=%v O3=%v", name, budget, werr, cerr)
			}
			if werr == nil && !sameValue(wv, cv) {
				t.Fatalf("%s budget %d: value divergence", name, budget)
			}
			if w.Steps() != inst.Steps() {
				t.Fatalf("%s budget %d: walker ran %d steps, O3 ran %d",
					name, budget, w.Steps(), inst.Steps())
			}
		}
	}
}

// TestUnrolledLoopCancellation: the cancellation watcher drops the step
// limit; the unrolled loop's group-entry check must notice within one
// group and abort with the wrapped context error.
func TestUnrolledLoopCancellation(t *testing.T) {
	src := `
double f(int n, double a[n]) {
  int t;
  int i;
  double s = 0.0;
  for (t = 0; t < 100000000; t++) {
    for (i = 0; i < n; i++) {
      s = s + a[i];
    }
  }
  return s;
}`
	prog, err := Compile(MustParse("t.c", src), WithOptLevel(O3), WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, cerr := prog.NewInstance().CallContext(ctx, "f", IntV(256), NewArray(256))
	if !errors.Is(cerr, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", cerr)
	}
}

// TestStrengthReducedPatternsParity exercises all three hoist patterns
// (column-affine, row-affine, fully invariant) plus negative-offset
// stencils against the walker.
func TestStrengthReducedPatternsParity(t *testing.T) {
	src := `
void f(int n, double A[n][n], double B[n][n], double v[n]) {
  int i, j, k;
  for (i = 1; i < n - 1; i++) {
    for (j = 1; j < n - 1; j++) {
      A[i][j] += B[i][j - 1] + B[i][j + 1];
      A[j][i] += B[j - 1][i];
      v[j] += A[i][i + 1];
    }
    v[i] = v[i - 1] + v[i + 1];
  }
  for (k = 0; k < n; k++) {
    A[0][k] += v[k];
    A[k][0] -= v[k];
  }
}`
	mk := func() []any {
		n := 9
		A, B, v := NewArray(n, n), NewArray(n, n), NewArray(n)
		for i := range A.Data {
			A.Data[i] = float64(i%7) * 0.5
		}
		for i := range B.Data {
			B.Data[i] = float64(i%5) * 1.25
		}
		for i := range v.Data {
			v.Data[i] = float64(i) * 0.75
		}
		return []any{IntV(9), A, B, v}
	}
	_, _, werr, cerr, wArgs, cArgs := runBoth(t, src, "f", mk)
	if werr != nil || cerr != nil {
		t.Fatalf("unexpected errors: walker=%v compiled=%v", werr, cerr)
	}
	for i := 1; i < len(wArgs); i++ {
		wa, ca := wArgs[i].(*Array), cArgs[i].(*Array)
		for k := range wa.Data {
			if math.Float64bits(wa.Data[k]) != math.Float64bits(ca.Data[k]) {
				t.Fatalf("array %d diverges at %d: walker=%g compiled=%g",
					i, k, wa.Data[k], ca.Data[k])
			}
		}
	}
}

// TestRangeDiagonalProven: diagonal accesses (both subscripts the
// induction variable, one of them not in the i+c form) must match the
// walker on the checked closures and the bytecode alike.
func TestRangeDiagonalProven(t *testing.T) {
	src := `
double f(int n, double A[n][n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + A[i][i] * A[i][i + 1 - 1];
  }
  return s;
}`
	mk := func() []any {
		A := NewArray(7, 7)
		for i := range A.Data {
			A.Data[i] = float64(i%5) * 0.5
		}
		return []any{IntV(7), A}
	}
	diffCheck(t, "diagonal", src, "f", mk)
}

// TestRangeGeneralAffineProven: an index combining the induction
// variable with an invariant scalar (i + j, 2 * i) is beyond the
// strength-reduction patterns; its checked accesses must match the
// walker.
func TestRangeGeneralAffineProven(t *testing.T) {
	src := `
double f(int n, int m, double a[n], double b[n]) {
  int i; int j;
  double s = 0.0;
  for (j = 0; j < m; j++) {
    for (i = 0; i < m; i++) {
      s = s + a[i + j] + b[2 * i];
    }
  }
  return s;
}`
	mk := func() []any {
		a, b := NewArray(10), NewArray(10)
		for i := range a.Data {
			a.Data[i] = float64(i) * 1.25
			b.Data[i] = float64(i%3) + 0.5
		}
		return []any{IntV(10), IntV(5), a, b}
	}
	diffCheck(t, "general-affine", src, "f", mk)
}

// TestRangeUnprovenFaultFallback: a diagonal that really walks out of
// bounds must fault at the walker's exact iteration with identical
// partial state. diffCheck compares partial arrays on the error path.
func TestRangeUnprovenFaultFallback(t *testing.T) {
	src := `
double f(int n, int m, double A[n][n]) {
  int i;
  double s = 0.0;
  for (i = 0; i < m; i++) {
    A[i][i] = A[i][i] + 1.0;
    s = s + A[i][i];
  }
  return s;
}`
	for _, m := range []int64{4, 9} { // m=9 walks the diagonal off a 4×4 array
		mk := func() []any {
			A := NewArray(4, 4)
			for i := range A.Data {
				A.Data[i] = float64(i) * 0.25
			}
			return []any{IntV(4), IntV(m), A}
		}
		diffCheck(t, "diag-fault", src, "f", mk)
	}
}

// TestRangeOverflowDeopt: a subscript whose per-iteration value
// overflows int64 must fault through the checked accessor with the
// positioned diagnostic, never wrap into a bogus "in bounds" access.
func TestRangeOverflowDeopt(t *testing.T) {
	src := `
double f(double a[8]) {
  int i;
  double s = 0.0;
  for (i = 1; i < 9223372036854775807; i++) {
    s = s + a[i * 4611686018427387904];
  }
  return s;
}`
	_, _, werr, cerr, _, _ := runBoth(t, src, "f", func() []any { return []any{NewArray(8)} })
	if werr == nil || cerr == nil {
		t.Fatalf("expected faults, walker=%v compiled=%v", werr, cerr)
	}
	prog, err := Compile(MustParse("t.c", src), WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	_, o3err := prog.NewInstance().Call("f", NewArray(8))
	if o3err == nil || !strings.Contains(o3err.Error(), "out of range") ||
		!strings.Contains(o3err.Error(), "t.c:") {
		t.Errorf("O3 fault should be the positioned range error, got %v", o3err)
	}
}

// TestRangeTriangularKernels: triangular loops (bound is the outer IV)
// with diagonal accesses — the trisolv/cholesky/mvt shapes — match the
// walker on every back end.
func TestRangeTriangularKernels(t *testing.T) {
	diffCheck(t, "trisolv", benchTrisolvSrc, "trisolv", func() []any {
		n := 9
		L, x, b := NewArray(n, n), NewArray(n), NewArray(n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				L.Set(float64(i+j)/4.0+1.0, i, j)
			}
			b.Data[i] = float64(i%5) + 0.5
		}
		return []any{IntV(int64(n)), L, x, b}
	})
	diffCheck(t, "cholesky", benchCholeskySrc, "cholesky", func() []any {
		n := 8
		A := NewArray(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				v := 0.1 * float64(i*j%7)
				if i == j {
					v = float64(n) + 2.0 // diagonally dominant → SPD-ish
				}
				A.Set(v, i, j)
			}
		}
		return []any{IntV(int64(n)), A}
	})
	diffCheck(t, "mvt", benchMvtSrc, "mvt", func() []any {
		n := 9
		vec := func() *Array {
			a := NewArray(n)
			for i := range a.Data {
				a.Data[i] = float64(i%4) * 0.75
			}
			return a
		}
		A := NewArray(n, n)
		for i := range A.Data {
			A.Data[i] = float64(i%6) * 0.3
		}
		return []any{IntV(int64(n)), vec(), vec(), vec(), vec(), A}
	})
}

// TestLoweringLinearInNestDepth: a counted nest lowers each level's body
// once, so lowering it at O2 costs about what O1's generic loops cost
// rather than doubling per level. The nest is six deep with an affine
// subscript at every level, the shape that once compiled a checked and
// an unchecked body per level (2^6 copies of the innermost statement).
func TestLoweringLinearInNestDepth(t *testing.T) {
	const depth = 6
	var src strings.Builder
	src.WriteString("void f(int n, double A[n]) {\n  int i0, i1, i2, i3, i4, i5;\n")
	for d := 0; d < depth; d++ {
		fmt.Fprintf(&src, "for (i%d = 0; i%d < n; i%d++) {\nA[i%d] = A[i%d] + 1.0;\n", d, d, d, d, d)
	}
	src.WriteString(strings.Repeat("}\n", depth) + "}\n")
	prog, err := Compile(MustParse("t.c", src.String()))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(l OptLevel) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := prog.Variant(WithOptLevel(l)); err != nil {
				t.Fatal(err)
			}
		})
	}
	o1, o2 := allocs(O1), allocs(O2)
	t.Logf("Variant allocations: O1 %.0f, O2 %.0f", o1, o2)
	// Each counted level adds its body analysis and loop closure, a few
	// allocations apiece; a body compiled twice per level adds hundreds.
	if o2 > o1+16*depth {
		t.Errorf("O2 lowering allocated %.0f, O1 %.0f: more than %d per nest level over O1", o2, o1, 16)
	}
}

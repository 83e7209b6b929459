package cminor

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// engine abstracts the two execution backends so parity cases run the
// exact same call against each.
type engine interface {
	Call(name string, args ...any) (Value, error)
}

// parityCase is one golden differential test: build fresh arguments, run
// the named function, and expose every output array for comparison.
type parityCase struct {
	name string
	src  string
	fn   string
	// args builds a fresh argument list (arrays are per-engine so
	// mutations don't leak across backends).
	args func() []any
}

func axpyArgs() []any {
	n := 8
	x, y := NewArray(n), NewArray(n)
	for i := 0; i < n; i++ {
		x.Set(float64(i)*1.25, i)
		y.Set(1.0/float64(i+1), i)
	}
	return []any{IntV(int64(n)), FloatV(2.5), x, y}
}

var parityCases = []parityCase{
	{"axpy", miniKernel, "kernel_axpy", axpyArgs},
	{
		"matmul",
		`void matmul(int n, double A[n][n], double B[n][n], double C[n][n]) {
  int i, j, k;
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      C[i][j] = 0.0;
      for (k = 0; k < n; k++) {
        C[i][j] += A[i][k] * B[k][j];
      }
    }
  }
}`,
		"matmul",
		func() []any {
			n := 5
			A, B, C := NewArray(n, n), NewArray(n, n), NewArray(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					A.Set(float64(i+j)/3.0, i, j)
					B.Set(float64(i*j+1)*0.7, i, j)
				}
			}
			return []any{IntV(int64(n)), A, B, C}
		},
	},
	{
		"int-division", "int f(int a, int b) { return a / b - a % b; }", "f",
		func() []any { return []any{IntV(-17), IntV(5)} },
	},
	{
		"ternary-max", "double f(double a, double b) { return a >= b ? a : b; }", "f",
		func() []any { return []any{FloatV(2.5), FloatV(9.0)} },
	},
	{
		"builtins",
		`double f(double x) { return sqrt(x) + fabs(0.0 - x) + pow(x, 2.0) + exp(x) + log(x) + floor(x) + ceil(x); }`,
		"f",
		func() []any { return []any{FloatV(1.75)} },
	},
	{
		"nested-call",
		`double square(double x) { return x * x; }
double f(double x) { return square(x) + square(2.0); }`,
		"f",
		func() []any { return []any{FloatV(3.0)} },
	},
	{
		"array-by-reference",
		`void fill(int n, double a[n], double v) {
  int i;
  for (i = 0; i < n; i++) { a[i] = v; }
}
void f(int n, double a[n]) { fill(n, a, 7.0); }`,
		"f",
		func() []any { return []any{IntV(3), NewArray(3)} },
	},
	{
		"while-compound",
		`int f(int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s += i;
    i++;
  }
  return s;
}`,
		"f",
		func() []any { return []any{IntV(10)} },
	},
	{
		"local-vla",
		`double f(int n) {
  double tmp[n];
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) { tmp[i] = (double)i * 1.5; }
  for (i = 0; i < n; i++) { s += tmp[i]; }
  return s;
}`,
		"f",
		func() []any { return []any{IntV(6)} },
	},
	{
		"incdec",
		`int f() {
  int i = 5;
  int a = i++;
  int b = i--;
  return a * 100 + b * 10 + i;
}`,
		"f",
		func() []any { return []any{} },
	},
	{
		"incdec-array",
		`void f(int n, double a[n]) {
  int i;
  for (i = 0; i < n; i++) { a[i]++; }
  a[0]--;
}`,
		"f",
		func() []any {
			a := NewArray(4)
			for i := 0; i < 4; i++ {
				a.Set(float64(i)*0.5, i)
			}
			return []any{IntV(4), a}
		},
	},
	{
		"compound-array-ops",
		`void f(int n, double a[n]) {
  int i;
  for (i = 0; i < n; i++) {
    a[i] += 1.5;
    a[i] *= 2.0;
    a[i] -= 0.25;
    a[i] /= 3.0;
  }
}`,
		"f",
		func() []any {
			a := NewArray(5)
			for i := 0; i < 5; i++ {
				a.Set(float64(i*i), i)
			}
			return []any{IntV(5), a}
		},
	},
	{
		"logic-and-not",
		`int f(int a, int b) {
  int r = 0;
  if (a > 0 && b > 0) { r = r + 1; }
  if (a > 0 || b > 0) { r = r + 2; }
  if (!a) { r = r + 4; }
  return r;
}`,
		"f",
		func() []any { return []any{IntV(0), IntV(3)} },
	},
	{
		"pointer-out-param",
		`void mean(int n, double a[n], double *out) {
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) { s += a[i]; }
  out = s / n;
}
void f(int n, double a[n], double *out) { mean(n, a, out); }`,
		"f",
		func() []any {
			a := NewArray(4)
			for i := 0; i < 4; i++ {
				a.Set(float64(i+1), i)
			}
			out := FloatV(0)
			return []any{IntV(4), a, &out}
		},
	},
	{
		"address-of-local",
		`void bump(double *p) { p = p + 1.0; }
double f() {
  double x = 41.0;
  bump(&x);
  return x;
}`,
		"f",
		func() []any { return []any{} },
	},
	{
		"stencil",
		`void jacobi(int n, int steps, double A[n][n], double B[n][n]) {
  int t, i, j;
  for (t = 0; t < steps; t++) {
    for (i = 1; i < n - 1; i++) {
      for (j = 1; j < n - 1; j++) {
        B[i][j] = 0.2 * (A[i][j] + A[i][j - 1] + A[i][j + 1] + A[i - 1][j] + A[i + 1][j]);
      }
    }
    for (i = 1; i < n - 1; i++) {
      for (j = 1; j < n - 1; j++) {
        A[i][j] = B[i][j];
      }
    }
  }
}`,
		"jacobi",
		func() []any {
			n := 8
			A, B := NewArray(n, n), NewArray(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					A.Set(float64(i*n+j)/7.0, i, j)
				}
			}
			return []any{IntV(int64(n)), IntV(3), A, B}
		},
	},
	{
		"2mm", bench2mmSrc, "mm2",
		func() []any {
			n := 6
			mk := func() *Array {
				a := NewArray(n, n)
				for i := range a.Data {
					a.Data[i] = float64(i%11) * 0.31
				}
				return a
			}
			return []any{IntV(int64(n)), IntV(int64(n)), IntV(int64(n)), IntV(int64(n)),
				FloatV(1.5), FloatV(0.5), mk(), mk(), mk(), mk(), mk()}
		},
	},
	{
		"seidel-2d", benchSeidelSrc, "seidel2d",
		func() []any {
			n := 10
			a := NewArray(n, n)
			for i := range a.Data {
				a.Data[i] = float64(i%17) * 0.5
			}
			return []any{IntV(3), IntV(int64(n)), a}
		},
	},
	{
		"atax", benchAtaxSrc, "atax",
		func() []any {
			n := 9
			a := NewArray(n, n)
			for i := range a.Data {
				a.Data[i] = float64(i%13) * 0.7
			}
			v := func() *Array {
				x := NewArray(n)
				for i := range x.Data {
					x.Data[i] = float64(i%5) * 1.3
				}
				return x
			}
			return []any{IntV(int64(n)), IntV(int64(n)), a, v(), v(), v()}
		},
	},
	{
		"mvt", benchMvtSrc, "mvt",
		func() []any {
			n := 9
			vec := func(s float64) *Array {
				x := NewArray(n)
				for i := range x.Data {
					x.Data[i] = float64(i%5)*s + 0.25
				}
				return x
			}
			A := NewArray(n, n)
			for i := range A.Data {
				A.Data[i] = float64(i%7) * 0.4
			}
			return []any{IntV(int64(n)), vec(1.1), vec(0.7), vec(1.3), vec(0.9), A}
		},
	},
	{
		"trisolv", benchTrisolvSrc, "trisolv",
		func() []any {
			n := 8
			L := NewArray(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j <= i; j++ {
					L.Set(float64(i+j)/5.0+1.0, i, j)
				}
			}
			b := NewArray(n)
			for i := range b.Data {
				b.Data[i] = float64(i%4) + 0.5
			}
			return []any{IntV(int64(n)), L, NewArray(n), b}
		},
	},
	{
		"cholesky", benchCholeskySrc, "cholesky",
		func() []any {
			n := 7
			A := NewArray(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := 0.05 * float64((i*j)%5)
					if i == j {
						v = float64(n) + 1.5
					}
					A.Set(v, i, j)
				}
			}
			return []any{IntV(int64(n)), A}
		},
	},
	{
		"mixed-int-float-assign",
		`double f(double z) {
  double s = 0.0;
  s = 1;
  s += 0.5;
  int k = 3.9;
  return s + k + z;
}`,
		"f",
		func() []any { return []any{FloatV(0.25)} },
	},
	{
		// The inner s shadows the outer one until its block ends.
		"shadowed-block",
		`double f() { double s = 1.0; if (1) { double s = 2.0; s = s + 1.0; } return s; }`,
		"f",
		func() []any { return nil },
	},
	{
		"shadowed-global",
		`int g = 5; int f() { for (int g = 0; g < 2; g++) { int g = 7; } if (1) { int g = 1; g = g + 1; } return g; }`,
		"f",
		func() []any { return nil },
	},
	{
		"cast-and-negate",
		`double f(int a) { return (double)(0 - a) / 4 + (int)2.75; }`,
		"f",
		func() []any { return []any{IntV(7)} },
	},
}

// mustVariant derives a Program variant or fails the test.
func mustVariant(t *testing.T, p *Program, opts ...Option) *Program {
	t.Helper()
	v, err := p.Variant(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func sameValue(a, b Value) bool {
	if a.IsInt != b.IsInt {
		return false
	}
	if a.IsInt {
		return a.I == b.I
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestCompiledParityWithWalker runs every golden program through the
// tree-walker and Instances of every Program variant and
// requires bit-identical results: same returned Value and same bits in
// every array argument.
func TestCompiledParityWithWalker(t *testing.T) {
	for _, tc := range parityCases {
		t.Run(tc.name, func(t *testing.T) {
			f := MustParse("t.c", tc.src)
			prog, perr := Compile(f)
			if perr != nil {
				t.Fatal(perr)
			}
			engines := []struct {
				name string
				e    engine
			}{
				{"instance-O2", prog.NewInstance()},
				{"variant-O3", mustVariant(t, prog, WithOptLevel(O3)).NewInstance()},
				{"variant-O1", mustVariant(t, prog, WithOptLevel(O1)).NewInstance()},
				{"variant-O0", mustVariant(t, prog, WithOptLevel(O0)).NewInstance()},
				{"variant-bc", mustVariant(t, prog, WithBackend(BackendBytecode), WithOptLevel(O3)).NewInstance()},
			}
			wArgs := tc.args()
			wv, werr := walkerInst(t, f).Call(tc.fn, wArgs...)
			for _, eng := range engines {
				cArgs := tc.args()
				cv, cerr := eng.e.Call(tc.fn, cArgs...)
				if (werr == nil) != (cerr == nil) {
					t.Fatalf("%s: error divergence: walker=%v compiled=%v", eng.name, werr, cerr)
				}
				if werr != nil {
					continue
				}
				if !sameValue(wv, cv) {
					t.Fatalf("%s: return value divergence: walker=%+v compiled=%+v", eng.name, wv, cv)
				}
				for i := range wArgs {
					wa, ok := wArgs[i].(*Array)
					if !ok {
						if wp, isPtr := wArgs[i].(*Value); isPtr {
							cp := cArgs[i].(*Value)
							if !sameValue(*wp, *cp) {
								t.Errorf("%s: out-param %d divergence: walker=%+v compiled=%+v",
									eng.name, i, *wp, *cp)
							}
						}
						continue
					}
					ca := cArgs[i].(*Array)
					for k := range wa.Data {
						if math.Float64bits(wa.Data[k]) != math.Float64bits(ca.Data[k]) {
							t.Fatalf("%s: array arg %d diverges at flat index %d: walker=%g compiled=%g",
								eng.name, i, k, wa.Data[k], ca.Data[k])
						}
					}
				}
			}
		})
	}
}

func TestCompiledOutOfBoundsPositioned(t *testing.T) {
	src := "void f(int n, double a[n]) {\n  a[n] = 1.0;\n}"
	in := newInst(t, MustParse("oob.c", src))
	_, err := in.Call("f", IntV(3), NewArray(3))
	if err == nil {
		t.Fatal("expected out-of-bounds error")
	}
	if !strings.Contains(err.Error(), "oob.c:2:") {
		t.Errorf("error should carry file:line position, got %q", err)
	}
}

func TestCompiledDivByZeroPositioned(t *testing.T) {
	in := newInst(t, MustParse("div.c", "int f(int a) { return 1 / a; }"))
	_, err := in.Call("f", IntV(0))
	if err == nil {
		t.Fatal("expected division-by-zero error")
	}
	if !strings.Contains(err.Error(), "div.c:1:") {
		t.Errorf("error should carry file:line position, got %q", err)
	}
}

// TestDivByZeroPositionedEverywhere pins the *Diag contract for integer
// division faults across every execution path: the tree-walker's
// arith/applyCompound (which used to panic with bare strings), the
// compiled compound-assignment path, and the compiled typed int path.
func TestDivByZeroPositionedEverywhere(t *testing.T) {
	cases := []struct {
		name, src, fn string
	}{
		{"binary-div", "int f(int a) { return 1 / a; }", "f"},
		{"binary-mod", "int f(int a) { return 1 % a; }", "f"},
		{"compound-div", "int f(int a) {\n  int s = 7;\n  s /= a;\n  return s;\n}", "f"},
		{"compound-mod", "int f(int a) {\n  int s = 7;\n  s %= a;\n  return s;\n}", "f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := MustParse("dz.c", tc.src)
			for _, eng := range []struct {
				name string
				e    engine
			}{{"walker", walkerInst(t, f)}, {"compiled", newInst(t, f)}} {
				_, err := eng.e.Call(tc.fn, IntV(0))
				if err == nil {
					t.Fatalf("%s: expected a division fault", eng.name)
				}
				if !strings.Contains(err.Error(), "dz.c:") {
					t.Errorf("%s: fault should carry file:line:col, got %q", eng.name, err)
				}
			}
		})
	}
}

func TestCompiledGlobals(t *testing.T) {
	src := `
int scale = 3;
double acc[4];
void f(int n) {
  int i;
  for (i = 0; i < n; i++) {
    acc[i] = (double)(i * scale);
  }
  scale = scale + 1;
}
double get(int i) { return acc[i]; }
`
	in := newInst(t, MustParse("g.c", src))
	if _, err := in.Call("f", IntV(4)); err != nil {
		t.Fatal(err)
	}
	// Globals persist across calls: the second call sees scale == 4.
	if _, err := in.Call("f", IntV(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		v, err := in.Call("get", IntV(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(i * 4); v.Float() != want {
			t.Errorf("acc[%d] = %g, want %g", i, v.Float(), want)
		}
	}
}

func TestCompiledGlobalPersistence(t *testing.T) {
	src := `
int counter = 0;
int next() {
  counter = counter + 1;
  return counter;
}
`
	in := newInst(t, MustParse("g.c", src))
	for want := int64(1); want <= 3; want++ {
		v, err := in.Call("next")
		if err != nil {
			t.Fatal(err)
		}
		if v.Int() != want {
			t.Fatalf("next() = %d, want %d", v.Int(), want)
		}
	}
	// A fresh Instance over the same program starts from scratch.
	prog, err := Compile(MustParse("g.c", src))
	if err != nil {
		t.Fatal(err)
	}
	v, err := prog.NewInstance().Call("next")
	if err != nil {
		t.Fatal(err)
	}
	if v.Int() != 1 {
		t.Errorf("fresh instance next() = %d, want 1", v.Int())
	}
}

func TestCompiledRuntimePanicBecomesError(t *testing.T) {
	// A VLA so large that allocation faults must surface as an error
	// from Call, never a process crash (the historical contract). Since
	// the containment layer (resilience.go) the error is a structured
	// *InternalFault carrying the variant's knob coordinates.
	src := "void f(int n) {\n  double t[n][n];\n  t[0][0] = 1.0;\n}"
	in := newInst(t, MustParse("big.c", src))
	_, err := in.Call("f", IntV(1<<31))
	if err == nil {
		t.Fatal("expected an allocation error")
	}
	var fault *InternalFault
	if !errors.As(err, &fault) {
		t.Fatalf("error is %T (%v), want *InternalFault", err, err)
	}
	if fault.Fn != "f" || fault.Backend != BackendCompiled {
		t.Errorf("fault coordinates = %s/%s, want compiled/f", fault.Backend, fault.Fn)
	}
	if !strings.Contains(err.Error(), "internal fault in f") {
		t.Errorf("unexpected error text: %v", err)
	}
}

// engineTiers are the two engine back ends checked against the walker.
var engineTiers = []struct {
	name string
	opts []Option
}{
	{"compiled", nil},
	{"bytecode", []Option{WithBackend(BackendBytecode)}},
}

// TestCompiledPtrValueToByValueParamCopiesBack pins the end of the
// by-value copy-back: a *Value binds only to a pointer parameter, so
// handing one to a by-value scalar is an argument error on the walker,
// the compiled engine and the bytecode engine alike — same text, no
// step charged, the caller's cell untouched.
func TestCompiledPtrValueToByValueParamCopiesBack(t *testing.T) {
	for _, c := range []struct {
		src, fn string
		cell    Value
	}{
		{"int bump(int n) {\n  n = n + 1;\n  return n;\n}", "bump", IntV(5)},
		// A kind-mismatched cell is rejected too, not shared unconverted.
		{"int id(int n) { return n; }", "id", FloatV(2.5)},
	} {
		f := MustParse("t.c", c.src)
		want := fmt.Sprintf(`cminor: %s: cannot bind *cminor.Value to parameter "int n"`, c.fn)
		wcell := c.cell
		if _, err := walkerInst(t, f).Call(c.fn, &wcell); err == nil || err.Error() != want {
			t.Errorf("%s on walker: err = %v, want %q", c.fn, err, want)
		}
		if !sameValue(wcell, c.cell) {
			t.Errorf("%s on walker: caller cell = %+v, want %+v untouched", c.fn, wcell, c.cell)
		}
		for _, tier := range engineTiers {
			inst := newInst(t, f, tier.opts...)
			cell := c.cell
			if _, err := inst.Call(c.fn, &cell); err == nil || err.Error() != want {
				t.Errorf("%s on %s: err = %v, want %q", c.fn, tier.name, err, want)
			}
			if !sameValue(cell, c.cell) || inst.LastCallSteps() != 0 {
				t.Errorf("%s on %s: caller cell = %+v after %d steps, want %+v untouched after 0",
					c.fn, tier.name, cell, inst.LastCallSteps(), c.cell)
			}
		}
	}
}

// TestSameValueTwoByValueParams pins that the walker/engine divergence
// over one *Value bound to two by-value parameters is gone: every tier
// rejects the binding with the same text, and the same cell bound to
// two pointer parameters is one aliased cell on every tier.
func TestSameValueTwoByValueParams(t *testing.T) {
	byValue := MustParse("t.c", "int f(int a, int b) {\n  a = a + 1;\n  b = b + 10;\n  return a * 100 + b;\n}")
	byPtr := MustParse("t.c", "double g(double *a, double *b) {\n  a = a + 1;\n  b = b + 10;\n  return a * 100 + b;\n}")
	want := `cminor: f: cannot bind *cminor.Value to parameter "int a"`

	wcell := IntV(0)
	if _, err := walkerInst(t, byValue).Call("f", &wcell, &wcell); err == nil || err.Error() != want {
		t.Errorf("walker by-value: err = %v, want %q", err, want)
	}
	if wcell.Int() != 0 {
		t.Errorf("walker by-value: caller cell = %d, want 0 untouched", wcell.Int())
	}
	pcell := FloatV(0)
	wv, err := walkerInst(t, byPtr).Call("g", &pcell, &pcell)
	if err != nil {
		t.Fatal(err)
	}
	// a and b alias one cell: a=a+1 → 1, b=b+10 → 11, a reads 11.
	if wv.Float() != 1111 || pcell.Float() != 11 {
		t.Errorf("walker by-pointer: ret=%v cell=%v, want 1111/11 (aliased cell)", wv.Float(), pcell.Float())
	}

	for _, tier := range engineTiers {
		inst := newInst(t, byValue, tier.opts...)
		ccell := IntV(0)
		if _, err := inst.Call("f", &ccell, &ccell); err == nil || err.Error() != want {
			t.Errorf("%s by-value: err = %v, want %q", tier.name, err, want)
		}
		if ccell.Int() != 0 || inst.LastCallSteps() != 0 {
			t.Errorf("%s by-value: caller cell = %d after %d steps, want 0 untouched after 0",
				tier.name, ccell.Int(), inst.LastCallSteps())
		}
		pinst := newInst(t, byPtr, tier.opts...)
		cell := FloatV(0)
		cv, err := pinst.Call("g", &cell, &cell)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValue(cv, wv) || !sameValue(cell, pcell) {
			t.Errorf("%s by-pointer: ret=%+v cell=%+v, walker ret=%+v cell=%+v",
				tier.name, cv, cell, wv, pcell)
		}
	}
}

// TestCallBoundaryParity is the entry-binding table: every argument
// form against every parameter shape, on every tier. All tiers share
// one binder (bindArg), so each cell of the table must agree on the
// returned value, the step count, the caller-visible cell or array and
// the exact error text; a rejected argument charges no step and leaves
// the caller's state untouched.
func TestCallBoundaryParity(t *testing.T) {
	src := `int bump(int n) { n = n + 1; return n; }
double half(double x) { return x / 2; }
double ptr(double *p) { p = p + 0.5; return p; }
double arr(double a[2]) { a[0] = a[0] + 0.5; return a[0]; }`
	prog, err := Compile(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	tiers := []struct {
		name string
		p    *Program
	}{
		{"walker", mustVariant(t, prog, WithBackend(BackendWalker))},
		{"O0", mustVariant(t, prog, WithOptLevel(O0))},
		{"O1", mustVariant(t, prog, WithOptLevel(O1))},
		{"O2", mustVariant(t, prog, WithOptLevel(O2))},
		{"O3", mustVariant(t, prog, WithOptLevel(O3))},
		{"bytecode", mustVariant(t, prog, WithBackend(BackendBytecode), WithOptLevel(O3))},
	}
	forms := []struct {
		name string
		arg  func() any
	}{
		{"int", func() any { return 3 }},
		{"float64", func() any { return 3.0 }},
		{"IntV", func() any { return IntV(3) }},
		{"FloatV", func() any { return FloatV(3) }},
		{"*IntV", func() any { v := IntV(3); return &v }},
		{"*FloatV", func() any { v := FloatV(3); return &v }},
		{"nil *Value", func() any { return (*Value)(nil) }},
		{"*Array", func() any { a := NewArray(2); a.Data[0] = 3; return a }},
		{"nil *Array", func() any { return (*Array)(nil) }},
	}
	// Pinned outcomes; every other cell is held to the walker's. A
	// shared cell must hold the pointee kind, so an *IntV cannot bind a
	// double *.
	want := map[string]string{
		"bump/int": "4", "bump/float64": "4", "bump/IntV": "4", "bump/FloatV": "4",
		"half/int": "1.5", "half/float64": "1.5", "half/IntV": "1.5", "half/FloatV": "1.5",
		"ptr/int": "3.5", "ptr/*FloatV": "3.5", "arr/*Array": "3.5",
		"ptr/*IntV":       `cminor: ptr: cannot bind *cminor.Value holding an int to parameter "double *p"`,
		"bump/*IntV":      `cminor: bump: cannot bind *cminor.Value to parameter "int n"`,
		"bump/nil *Value": `cminor: bump: cannot bind nil *cminor.Value to parameter "int n"`,
		"ptr/nil *Value":  `cminor: ptr: cannot bind nil *cminor.Value to parameter "double *p"`,
		"half/*Array":     `cminor: half: cannot bind *cminor.Array to parameter "double x"`,
		"arr/float64":     `cminor: arr: cannot bind float64 to parameter "double a[2]"`,
		"arr/IntV":        `cminor: arr: cannot bind cminor.Value to parameter "double a[2]"`,
		"arr/nil *Array":  `cminor: arr: cannot bind nil *cminor.Array to parameter "double a[2]"`,
	}
	// state renders what the caller can see through an argument.
	state := func(a any) string {
		switch a := a.(type) {
		case *Value:
			if a != nil {
				return fmt.Sprintf("%+v", *a)
			}
		case *Array:
			if a != nil {
				return fmt.Sprint(a.Data)
			}
		}
		return ""
	}
	// outcome renders one call: its value or error, its steps, and the
	// caller-visible state afterwards.
	outcome := func(p *Program, fn string, a any) (res string, steps int, after string) {
		inst := p.NewInstance()
		v, err := inst.Call(fn, a)
		switch {
		case err != nil:
			res = err.Error()
		case v.IsInt:
			res = fmt.Sprint(v.I)
		default:
			res = fmt.Sprint(v.F)
		}
		return res, inst.LastCallSteps(), state(a)
	}
	for _, fn := range []string{"bump", "half", "ptr", "arr"} {
		for _, form := range forms {
			key := fn + "/" + form.name
			wres, wsteps, wafter := outcome(tiers[0].p, fn, form.arg())
			if w, ok := want[key]; ok && wres != w {
				t.Errorf("%s: walker = %q, want %q", key, wres, w)
			}
			if before := state(form.arg()); strings.HasPrefix(wres, "cminor:") && (wsteps != 0 || wafter != before) {
				t.Errorf("%s: rejected call charged %d steps, left %q (was %q)", key, wsteps, wafter, before)
			}
			for _, tier := range tiers[1:] {
				res, steps, after := outcome(tier.p, fn, form.arg())
				if res != wres || steps != wsteps || after != wafter {
					t.Errorf("%s on %s: (%q, %d steps, caller sees %q); walker (%q, %d steps, caller sees %q)",
						key, tier.name, res, steps, after, wres, wsteps, wafter)
				}
			}
		}
	}
}

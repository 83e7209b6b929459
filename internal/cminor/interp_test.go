package cminor

import (
	"math"
	"testing"
	"testing/quick"
)

// newInst compiles f under opts and returns a fresh session over it,
// failing the test on a compile diagnostic.
func newInst(tb testing.TB, f *File, opts ...Option) *Instance {
	tb.Helper()
	prog, err := Compile(f, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return prog.NewInstance()
}

// walkerInst is a session on the walker backend: the oracle whose
// values, steps and faults every other backend is compared with.
func walkerInst(tb testing.TB, f *File) *Instance {
	tb.Helper()
	return newInst(tb, f, WithBackend(BackendWalker))
}

// WalkerInst is walkerInst for the external test package.
var WalkerInst = walkerInst

func TestInterpAxpy(t *testing.T) {
	f := MustParse("axpy.c", miniKernel)
	in := newInst(t, f)
	n := 8
	x := NewArray(n)
	y := NewArray(n)
	for i := 0; i < n; i++ {
		x.Set(float64(i), i)
		y.Set(1.0, i)
	}
	if _, err := in.Call("kernel_axpy", IntV(int64(n)), FloatV(2.0), x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 1.0 + 2.0*float64(i)
		if y.At(i) != want {
			t.Errorf("y[%d] = %g, want %g", i, y.At(i), want)
		}
	}
}

func TestInterpMatmul(t *testing.T) {
	src := `
void matmul(int n, double A[n][n], double B[n][n], double C[n][n]) {
  int i, j, k;
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      C[i][j] = 0.0;
      for (k = 0; k < n; k++) {
        C[i][j] += A[i][k] * B[k][j];
      }
    }
  }
}
`
	f := MustParse("mm.c", src)
	in := newInst(t, f)
	n := 4
	A, B, C := NewArray(n, n), NewArray(n, n), NewArray(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			A.Set(float64(i+j), i, j)
			B.Set(float64(i*j+1), i, j)
		}
	}
	if _, err := in.Call("matmul", IntV(int64(n)), A, B, C); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			for k := 0; k < n; k++ {
				want += A.At(i, k) * B.At(k, j)
			}
			if math.Abs(C.At(i, j)-want) > 1e-12 {
				t.Errorf("C[%d][%d] = %g, want %g", i, j, C.At(i, j), want)
			}
		}
	}
}

func TestInterpIntDivision(t *testing.T) {
	src := "int f(int a, int b) { return a / b; }"
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", IntV(7), IntV(2))
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsInt || v.I != 3 {
		t.Errorf("7/2 = %+v, want int 3", v)
	}
}

func TestInterpTernaryMax(t *testing.T) {
	src := "double f(double a, double b) { return a >= b ? a : b; }"
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", FloatV(2.5), FloatV(9.0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 9.0 {
		t.Errorf("max = %g, want 9", v.Float())
	}
}

func TestInterpBuiltinSqrt(t *testing.T) {
	src := "double f(double x) { return sqrt(x); }"
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", FloatV(16.0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 4.0 {
		t.Errorf("sqrt(16) = %g", v.Float())
	}
}

func TestInterpNestedCall(t *testing.T) {
	src := `
double square(double x) { return x * x; }
double f(double x) { return square(x) + square(2.0); }
`
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", FloatV(3.0))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 13.0 {
		t.Errorf("f(3) = %g, want 13", v.Float())
	}
}

func TestInterpArrayPassedByReference(t *testing.T) {
	src := `
void fill(int n, double a[n], double v) {
  int i;
  for (i = 0; i < n; i++) { a[i] = v; }
}
void f(int n, double a[n]) { fill(n, a, 7.0); }
`
	in := newInst(t, MustParse("t.c", src))
	a := NewArray(3)
	if _, err := in.Call("f", IntV(3), a); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if a.At(i) != 7.0 {
			t.Errorf("a[%d] = %g, want 7", i, a.At(i))
		}
	}
}

func TestInterpWhileAndCompound(t *testing.T) {
	src := `
int f(int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s += i;
    i++;
  }
  return s;
}
`
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", IntV(10))
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 45 {
		t.Errorf("sum = %d, want 45", v.I)
	}
}

func TestInterpLocalArray(t *testing.T) {
	src := `
double f(int n) {
  double tmp[n];
  int i;
  double s = 0.0;
  for (i = 0; i < n; i++) { tmp[i] = (double)i; }
  for (i = 0; i < n; i++) { s += tmp[i]; }
  return s;
}
`
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f", IntV(5))
	if err != nil {
		t.Fatal(err)
	}
	if v.Float() != 10.0 {
		t.Errorf("sum = %g, want 10", v.Float())
	}
}

func TestInterpOutOfBoundsCaught(t *testing.T) {
	src := "void f(int n, double a[n]) { a[n] = 1.0; }"
	in := newInst(t, MustParse("t.c", src))
	_, err := in.Call("f", IntV(3), NewArray(3))
	if err == nil {
		t.Fatal("expected out-of-bounds error")
	}
}

func TestInterpStepBudget(t *testing.T) {
	src := "void f() { while (1) { } }"
	in := newInst(t, MustParse("t.c", src))
	in.SetMaxSteps(1000)
	if _, err := in.Call("f"); err == nil {
		t.Fatal("expected step-budget error for infinite loop")
	}
}

// Property: the interpreter's integer arithmetic matches Go's for the
// operators C-minor shares with Go.
func TestInterpArithPropertyVsGo(t *testing.T) {
	src := `
int f(int a, int b, int op) {
  if (op == 0) { return a + b; }
  if (op == 1) { return a - b; }
  if (op == 2) { return a * b; }
  if (op == 3) { return a / b; }
  return a % b;
}
`
	in := newInst(t, MustParse("t.c", src))
	prop := func(a, b int16, op uint8) bool {
		bb := int64(b)
		if bb == 0 {
			bb = 1
		}
		o := int64(op % 5)
		got, err := in.Call("f", IntV(int64(a)), IntV(bb), IntV(o))
		if err != nil {
			return false
		}
		var want int64
		switch o {
		case 0:
			want = int64(a) + bb
		case 1:
			want = int64(a) - bb
		case 2:
			want = int64(a) * bb
		case 3:
			want = int64(a) / bb
		case 4:
			want = int64(a) % bb
		}
		return got.I == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInterpIncDecSemantics(t *testing.T) {
	src := `
int f() {
  int i = 5;
  int a = i++;
  int b = i--;
  return a * 100 + b * 10 + i;
}
`
	in := newInst(t, MustParse("t.c", src))
	v, err := in.Call("f")
	if err != nil {
		t.Fatal(err)
	}
	// a=5 (post-inc), b=6 (post-dec), i=5 → 565
	if v.I != 565 {
		t.Errorf("got %d, want 565", v.I)
	}
}

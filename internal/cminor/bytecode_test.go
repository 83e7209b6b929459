package cminor

import (
	"context"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// mustBytecode compiles src with the bytecode backend at O3 and fails the
// test if the frontend rejects it.
func mustBytecode(t *testing.T, file, src string) *Program {
	t.Helper()
	p, err := Compile(MustParse(file, src), WithBackend(BackendBytecode), WithOptLevel(O3))
	if err != nil {
		t.Fatalf("Compile(%s, bytecode): %v", file, err)
	}
	return p
}

// TestBytecodeKernelParity runs every benchmark kernel under the walker and
// the bytecode backend and demands bit-identical results: same return value,
// same step count, and the same Float64bits in every output array.
func TestBytecodeKernelParity(t *testing.T) {
	for _, k := range BenchKernels {
		t.Run(k.Name, func(t *testing.T) {
			f := MustParse(k.File, k.Src)
			p, err := Compile(f, WithBackend(BackendBytecode), WithOptLevel(O3))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			wArgs := k.Args()
			w := walkerInst(t, f)
			wv, werr := w.Call(k.Fn, wArgs...)
			bArgs := k.Args()
			ins := p.NewInstance()
			bv, berr := ins.Call(k.Fn, bArgs...)
			if (werr == nil) != (berr == nil) {
				t.Fatalf("error divergence: walker=%v bytecode=%v", werr, berr)
			}
			if !sameValue(wv, bv) {
				t.Fatalf("value divergence: walker=%+v bytecode=%+v", wv, bv)
			}
			if w.Steps() != ins.LastCallSteps() {
				t.Errorf("step divergence: walker=%d bytecode=%d", w.Steps(), ins.LastCallSteps())
			}
			for i := range wArgs {
				wa, ok := wArgs[i].(*Array)
				if !ok {
					continue
				}
				ba := bArgs[i].(*Array)
				for j := range wa.Data {
					if math.Float64bits(wa.Data[j]) != math.Float64bits(ba.Data[j]) {
						t.Fatalf("arg %d diverges at index %d: %g vs %g",
							i, j, wa.Data[j], ba.Data[j])
					}
				}
			}
		})
	}
}

// TestBytecodeFuncs checks the lowering introspection hook: in the norms
// program norms' one call is to the leaf sq, which the lowerer
// splices, so both functions must appear in the lowered set.
func TestBytecodeFuncs(t *testing.T) {
	var norms BenchKernel
	for _, k := range BenchKernels {
		if k.Name == "norms" {
			norms = k
		}
	}
	p := mustBytecode(t, norms.File, norms.Src)
	got := BytecodeFuncs(p)
	if strings.Join(got, " ") != "norms sq" {
		t.Fatalf("BytecodeFuncs = %v, want [norms sq] (norms splices its leaf call)", got)
	}

	if got := BytecodeFuncs(mustBytecode(t, "dot.c", disGoldenSrc)); len(got) != 1 || got[0] != "dot" {
		t.Fatalf("BytecodeFuncs(dot) = %v, want [dot]", got)
	}
}

// stepParitySrc exercises the fused back edge (loopnext2), two-version
// counted loops, a scalar accumulator, and array writes — the shapes whose
// step accounting is most delicate under a tight budget.
const stepParitySrc = `
double mv(int n, double A[n][n], double x[n], double y[n]) {
  int i; int j;
  for (i = 0; i < n; i++) {
    y[i] = 0.0;
    for (j = 0; j < n; j++) {
      y[i] = y[i] + A[i][j] * x[j];
    }
  }
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + y[i];
  }
  return s;
}
`

func stepParityArgs(n int) []any {
	a, x, y := NewArray(n, n), NewArray(n), NewArray(n)
	for i := range a.Data {
		a.Data[i] = float64(i%11)*0.25 - 1.0
	}
	for i := range x.Data {
		x.Data[i] = float64(i%5) + 0.5
	}
	return []any{IntV(int64(n)), a, x, y}
}

// TestBytecodeStepBudgetParity sweeps the statement budget across every
// possible fault point of a kernel and checks that the bytecode backend
// faults exactly where the walker does: same error text, same
// LastCallSteps, and the same partial argument-array state. The matvec
// kernel pins down the loopnext2 rollback: the fused back edge charges
// two steps at once and must report the budget-crossing count, not the
// fused one. The norms kernel's inner loop is a run over a spliced call,
// whose return charges a third step per iteration (k = 3): the run must
// stop where the budget covers no whole iteration more, and the moved
// step must fault where the callee's return does.
func TestBytecodeStepBudgetParity(t *testing.T) {
	const n = 6
	for _, tc := range []struct {
		file, src, fn, run string
		args               func() []any
	}{
		{"mv.c", stepParitySrc, "mv", "t += x*y", func() []any { return stepParityArgs(n) }},
		{"norms.c", benchNormsSrc, "norms", "t += x*y k=3", func() []any { return benchNormsArgs(n) }},
	} {
		t.Run(tc.fn, func(t *testing.T) {
			f := MustParse(tc.file, tc.src)
			p, err := Compile(f, WithBackend(BackendBytecode), WithOptLevel(O3))
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if dis, err := Disassemble(p, tc.fn); err != nil || !strings.Contains(dis, tc.run) {
				t.Fatalf("want a run %q: %v\n%s", tc.run, err, dis)
			}

			// Unbudgeted run to learn the total step count.
			w := walkerInst(t, f)
			if _, err := w.Call(tc.fn, tc.args()...); err != nil {
				t.Fatalf("reference run: %v", err)
			}
			total := w.Steps()

			for k := 1; k <= total+1; k++ {
				w := walkerInst(t, f)
				w.SetMaxSteps(k)
				wArgs := tc.args()
				wv, werr := w.Call(tc.fn, wArgs...)

				ins := p.NewInstance()
				ins.SetMaxSteps(k)
				bArgs := tc.args()
				bv, berr := ins.Call(tc.fn, bArgs...)

				if (werr == nil) != (berr == nil) {
					t.Fatalf("k=%d: error divergence: walker=%v bytecode=%v", k, werr, berr)
				}
				if werr != nil && werr.Error() != berr.Error() {
					t.Fatalf("k=%d: fault text divergence: %q vs %q", k, werr, berr)
				}
				if werr == nil && !sameValue(wv, bv) {
					t.Fatalf("k=%d: value divergence: %+v vs %+v", k, wv, bv)
				}
				if w.Steps() != ins.LastCallSteps() {
					t.Fatalf("k=%d: step divergence: walker=%d bytecode=%d", k, w.Steps(), ins.LastCallSteps())
				}
				for i := range wArgs {
					wa, ok := wArgs[i].(*Array)
					if !ok {
						continue
					}
					ba := bArgs[i].(*Array)
					for j := range wa.Data {
						if math.Float64bits(wa.Data[j]) != math.Float64bits(ba.Data[j]) {
							t.Fatalf("k=%d: partial arg %d diverges at %d: %g vs %g", k, i, j, wa.Data[j], ba.Data[j])
						}
					}
				}
			}
		})
	}
}

// TestBytecodeSafeBodyFaultParity calls the matvec kernel with arrays that
// are smaller than the loop bound, so the runtime proofs fail, the safe
// (bounds-checked) body runs, and the out-of-range access must fault
// exactly like the closure-tree backend (same positioned diagnostic) and
// like the walker (same step count and partial state; the walker's own
// diagnostic carries no position, so its text is compared by message).
func TestBytecodeSafeBodyFaultParity(t *testing.T) {
	const n = 6
	shortArgs := func() []any {
		a, x, y := NewArray(4, 4), NewArray(n), NewArray(n)
		for i := range a.Data {
			a.Data[i] = float64(i) * 0.5
		}
		for i := range x.Data {
			x.Data[i] = 1.0
		}
		return []any{IntV(int64(n)), a, x, y}
	}

	f := MustParse("mv.c", stepParitySrc)
	w := walkerInst(t, f)
	wArgs := shortArgs()
	_, werr := w.Call("mv", wArgs...)
	if werr == nil {
		t.Fatal("walker: expected out-of-range fault, got nil")
	}

	p, err := Compile(f, WithBackend(BackendBytecode), WithOptLevel(O3))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ins := p.NewInstance()
	bArgs := shortArgs()
	_, berr := ins.Call("mv", bArgs...)
	if berr == nil {
		t.Fatal("bytecode: expected out-of-range fault, got nil")
	}
	tree, err := Compile(f, WithOptLevel(O3))
	if err != nil {
		t.Fatalf("compile O3: %v", err)
	}
	_, cerr := tree.NewInstance().Call("mv", shortArgs()...)
	if cerr == nil {
		t.Fatal("closure tree: expected out-of-range fault, got nil")
	}
	if berr.Error() != cerr.Error() {
		t.Fatalf("fault divergence:\n  closure tree: %v\n  bytecode:     %v", cerr, berr)
	}
	const msg = "index 4 out of range [0,4) in dim 1"
	if !strings.Contains(werr.Error(), msg) || !strings.Contains(berr.Error(), msg) {
		t.Fatalf("fault message divergence:\n  walker:   %v\n  bytecode: %v", werr, berr)
	}
	if w.Steps() != ins.LastCallSteps() {
		t.Fatalf("fault step divergence: walker=%d bytecode=%d", w.Steps(), ins.LastCallSteps())
	}
	wy, by := wArgs[3].(*Array), bArgs[3].(*Array)
	for j := range wy.Data {
		if math.Float64bits(wy.Data[j]) != math.Float64bits(by.Data[j]) {
			t.Fatalf("partial y diverges at %d: %g vs %g", j, wy.Data[j], by.Data[j])
		}
	}
}

// TestBytecodeDivZeroFaultParity checks a second Diag class: integer
// division by zero inside a lowered loop body.
func TestBytecodeDivZeroFaultParity(t *testing.T) {
	src := `
int f(int n, double a[n]) {
  int i; int s = 0;
  for (i = 0; i < n; i++) {
    s = s + 100 / (2 - i);
  }
  return s;
}
`
	f := MustParse("div.c", src)
	w := walkerInst(t, f)
	_, werr := w.Call("f", IntV(8), NewArray(8))
	if werr == nil {
		t.Fatal("walker: expected division fault")
	}
	ins := mustBytecode(t, "div.c", src).NewInstance()
	_, berr := ins.Call("f", IntV(8), NewArray(8))
	if berr == nil {
		t.Fatal("bytecode: expected division fault")
	}
	if werr.Error() != berr.Error() {
		t.Fatalf("fault divergence:\n  walker:   %v\n  bytecode: %v", werr, berr)
	}
	if w.Steps() != ins.LastCallSteps() {
		t.Fatalf("fault step divergence: walker=%d bytecode=%d", w.Steps(), ins.LastCallSteps())
	}
}

// TestBytecodeCancellation checks that CallContext interrupts a bytecode
// loop when the context is cancelled mid-flight.
func TestBytecodeCancellation(t *testing.T) {
	src := `
double spin(int n, double a[n]) {
  double s = 0.0;
  int i; int r;
  for (r = 0; r < 1000000; r++) {
    for (i = 0; i < n; i++) {
      s = s + a[i];
    }
  }
  return s;
}
`
	ins := mustBytecode(t, "spin.c", src).NewInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ins.CallContext(ctx, "spin", IntV(64), NewArray(64)); err == nil {
		t.Fatal("expected cancellation error, got nil")
	} else if !strings.Contains(err.Error(), "cancel") {
		t.Fatalf("error does not mention cancellation: %v", err)
	}
}

// macKernel wraps one statement in a two-deep loop nest over j inside i.
func macKernel(stmt string) string {
	return `double k(int n, double c, double a[n], double x[n], double y[n], double A[n][n]) {
  double s = c; int i; int j;
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      ` + stmt + `
    }
  }
  return s;
}
`
}

// TestBytecodeMacRuns pins the multiply-accumulate run form. The flagship
// shapes — the gemm update, the atax matrix-vector products and the
// trisolv back-substitution — must each run whole as a run.mac riding the
// fused loopnext2 back edge. Each spelling formMac takes must lower its
// loop to exactly one run.mac, a scaled store to one run.sum; the two
// commuted spellings formMac refuses (the target on the right of the add,
// a coefficient on the right of its multiply) must stay plain code. All
// of them must agree bit for bit with the walker on inputs that carry two
// different NaN payloads — the coefficient one of them — so a commuted
// operand order shows as a payload the walker does not produce.
func TestBytecodeMacRuns(t *testing.T) {
	want := map[string]string{
		"gemm":    "t += f1*x*y",
		"atax":    "t += x*y",
		"trisolv": "t -= x*y",
	}
	for _, k := range BenchKernels {
		su, ok := want[k.Name]
		if !ok {
			continue
		}
		p := mustBytecode(t, k.File, k.Src)
		out, err := Disassemble(p, k.Fn)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		if !strings.Contains(out, "run.mac") || !strings.Contains(out, su) {
			t.Errorf("%s: disassembly lacks run.mac %q:\n%s", k.Name, su, out)
		}
		if !strings.Contains(out, "loopnext2") {
			t.Errorf("%s: disassembly lacks fused back edge loopnext2", k.Name)
		}
	}

	const n = 5
	nan1, nan2 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002)
	args := func() []any {
		a, x, y, A := NewArray(n), NewArray(n), NewArray(n), NewArray(n, n)
		for i := range n {
			a.Data[i], x.Data[i], y.Data[i] = float64(i)-1.5, 0.5*float64(i)+1, 2-float64(i)
		}
		for i := range A.Data {
			A.Data[i] = float64(i%7) - 3
		}
		a.Data[1], A.Data[1], A.Data[n] = nan2, nan2, nan2
		y.Data[0], y.Data[2] = nan1, nan1
		return []any{IntV(n), FloatV(nan1), a, x, y, A}
	}
	for _, tc := range []struct {
		stmt string
		run  string // the one run form the loop becomes, "" for none
	}{
		{"s += a[j] * x[j];", "mac"},
		{"s = s + a[j] * x[j];", "mac"},
		{"y[i] += A[i][j] * x[j];", "mac"},
		{"y[i] = y[i] - A[i][j] * x[j];", "mac"},
		{"y[i] -= c * A[i][j] * x[j];", "mac"},
		{"y[j] = c * a[j];", "sum"},
		{"y[j] = c * (a[j] + x[j]);", "sum"},
		{"s = a[j] * x[j] + s;", ""},
		{"y[i] = y[i] + A[i][j] * c * x[j];", ""},
	} {
		src := macKernel(tc.stmt)
		f := MustParse("mac.c", src)
		p := mustBytecode(t, "mac.c", src)
		dis, err := Disassemble(p, "k")
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		var forms []string
		for _, h := range runHeads(dis) {
			form, _, _ := strings.Cut(h, "@")
			forms = append(forms, form)
		}
		if strings.Join(forms, " ") != tc.run {
			t.Errorf("%s: run forms %v, want %q:\n%s", tc.stmt, forms, tc.run, dis)
		}
		wArgs, bArgs := args(), args()
		w := walkerInst(t, f)
		wv, werr := w.Call("k", wArgs...)
		ins := p.NewInstance()
		bv, berr := ins.Call("k", bArgs...)
		walker := runOutcomeOf(wv, werr, w.Steps(), wArgs)
		if d := runOutcomeOf(bv, berr, ins.LastCallSteps(), bArgs).diff(walker); d != "" {
			t.Errorf("%s: %s", tc.stmt, d)
		}
	}
}

// runPathKernel wraps one statement in a loop over j in [1, n-1) inside
// one over i, so j-1 and j+1 are in range.
func runPathKernel(stmt string) string {
	return `double k(int n, double c, double a[n], double x[n], double y[n], double A[n][n]) {
  double s = c; int i; int j;
  for (i = 0; i < n; i++) {
    for (j = 1; j < n - 1; j++) {
      ` + stmt + `
    }
  }
  return s;
}
`
}

// TestBytecodeRunPaths is the parity table of the loops a run head picks
// by the walks it resolves (bcRunMac, bcRunMap), of run.sum's loop, and
// of the guards that refuse one: a stride-0 factor the run itself
// overwrites, a copy whose target starts one past its source. Each
// statement must lower to the one run form named and agree with the
// walker on value, arrays, steps and fault text at every budget that can
// stop it, on three argument sets: a finite coefficient, a NaN one, and
// arrays holding two NaN payloads, so a commuted operand shows as a
// payload the walker does not produce.
func TestBytecodeRunPaths(t *testing.T) {
	const n = 7
	nan1, nan2, nan3 := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002), math.Float64frombits(0x7ff8000000000003)
	args := func(set int) []any {
		a, x, y, A := NewArray(n), NewArray(n), NewArray(n), NewArray(n, n)
		for i := range n {
			a.Data[i], x.Data[i], y.Data[i] = 0.25*float64(i)-0.5, 0.5*float64(i)+1, 1.5-0.375*float64(i)
		}
		for i := range A.Data {
			A.Data[i] = float64(i%5)*0.5 - 1
		}
		c := 1.25
		switch set {
		case 1:
			c = nan1
		case 2:
			// One payload in a, another in y, the arrays the statements
			// take their targets from: the target's element meets a
			// factor's payload. (Where two sources meet, the order is Go's
			// to pick, on every back end: see ROADMAP.)
			for i := range n {
				if i%3 != 0 {
					a.Data[i] = nan2
				}
				if i%3 != 1 {
					y.Data[i] = nan3
				}
			}
		}
		return []any{IntV(n), FloatV(c), a, x, y, A}
	}
	for _, tc := range []struct{ stmt, run string }{
		// run.mac, a memory target: both signs, both coefficient settings.
		{"y[j] -= A[i][j] * x[j];", "mac"},
		{"y[j] += c * A[i][j] * x[j];", "mac"},
		{"y[j] = y[j] - c * a[j] * x[j];", "mac"},
		// A stride-0 factor no store reaches, read once (c·x0 folded).
		{"y[j] = y[j] + c * x[j];", "mac"},
		{"y[j] -= c * a[i] * x[j];", "mac"},
		{"y[j] += A[i][j] * a[i];", "mac"},
		{"y[j] += c * A[i][j] * a[i];", "mac"},
		{"y[j] -= c * A[i][j] * a[i];", "mac"},
		// The stride-0 factor is overwritten mid-run: read every iteration.
		{"a[j] = a[j] + x[j] * a[3];", "mac"},
		{"a[j] = a[j] - a[3] * x[j];", "mac"},
		{"a[j] += c * a[3] * x[j];", "mac"},
		// A strided target, and a held one with both flags.
		{"A[j][i] -= c * x[j] * a[j];", "mac"},
		{"A[j][i] += x[j] * a[j];", "mac"},
		{"s -= c * a[j] * A[j][i];", "mac"},
		// run.map: a copy the target must propagate, a memmove, a fill.
		{"a[j + 1] = a[j];", "map"},
		{"a[j] = a[j + 1];", "map"},
		{"y[j] = A[i][j];", "map"},
		{"a[j] = a[2];", "map"},
		{"y[j] = c;", "map"},
		// run.sum over unit strides: the target overlaps a source.
		{"a[j] = (a[j - 1] + a[j] + a[j + 1]) / 3.0;", "sum"},
		{"A[i][j] = c * (A[i][j - 1] + x[j] + A[i][j + 1]);", "sum"},
		{"y[j] = (x[j] + y[j - 1]) * c;", "sum"},
	} {
		src := runPathKernel(tc.stmt)
		f := MustParse("path.c", src)
		p := mustBytecode(t, "path.c", src)
		dis, err := Disassemble(p, "k")
		if err != nil {
			t.Fatalf("%s: %v", tc.stmt, err)
		}
		var forms []string
		for _, h := range runHeads(dis) {
			form, _, _ := strings.Cut(h, "@")
			forms = append(forms, form)
		}
		if strings.Join(forms, " ") != tc.run {
			t.Errorf("%s: run forms %v, want %q:\n%s", tc.stmt, forms, tc.run, dis)
			continue
		}
		for set := range 3 {
			w := walkerInst(t, f)
			if _, err := w.Call("k", args(set)...); err != nil {
				t.Fatalf("%s: reference run: %v", tc.stmt, err)
			}
			for k := 1; k <= w.Steps()+1; k++ {
				w := walkerInst(t, f)
				w.SetMaxSteps(k)
				wArgs, bArgs := args(set), args(set)
				wv, werr := w.Call("k", wArgs...)
				ins := p.NewInstance()
				ins.SetMaxSteps(k)
				bv, berr := ins.Call("k", bArgs...)
				walker := runOutcomeOf(wv, werr, w.Steps(), wArgs)
				if d := runOutcomeOf(bv, berr, ins.LastCallSteps(), bArgs).diff(walker); d != "" {
					t.Fatalf("%s: argument set %d, budget %d: %s", tc.stmt, set, k, d)
				}
			}
		}
	}
}

// spliceHelpers are leaves of every shape the bytecode lowerer splices:
// nested in an argument, int results and parameters, a parameter the
// body assigns, a loop, several returns, a bare return, falling off the
// end, no result at all, a result of no static kind (called only in
// statement position) and a global write.
const spliceHelpers = `int gi; double gd;
double sq(double x) { return x * x; }
int hint(int p) { return (p * 3 + 2) % 5; }
int twice(int k) { k = k * 2; return k; }
double sum3(double x) { double s = 0.0; int i; for (i = 0; i < 3; i++) { s = s + x; } return s; }
double sgn(double x) { if (x < 0.0) { return -1.0; } if (x > 0.0) { return 1.0; } return 0.0; }
double maybe(double x) { if (x > 1.0) { return x; } }
double bare(double x) { if (x > 1.0) { return; } return x; }
void put(double x) { gd = gd + x; }
double mix(int p, double q) { if (p > 2) { gi = p; return p; } return q * 0.5; }
`

// TestBytecodeSpliceParity lowers one loop body per spliced-call shape
// and checks that the function lowers and agrees with the walker on
// value, steps, fault text and arrays at every budget that can stop it.
func TestBytecodeSpliceParity(t *testing.T) {
	const n = 5
	args := func() []any {
		a, b := NewArray(n), NewArray(n)
		for i := range n {
			a.Data[i], b.Data[i] = float64(i)*0.75-1, 2-float64(i)*0.5
		}
		return []any{IntV(n), a, b}
	}
	for _, stmt := range []string{
		"s = s + sq(sq(a[i]));",
		"m = m + hint(i) + twice(m);",
		"b[i] = sum3(a[i]) + sgn(a[i] - 1.0);",
		"put(b[i]); mix(i, a[i]);",
		"if (maybe(a[i]) > 0.5) { s = s + bare(a[i]); }",
		"gi = gi + hint(twice(i)); s += gd + gi;",
		"b[i] = b[i] + sq(b[i]); s = s + sq(s);",
		"s = s + sq(s) + sq((double)m) + sq(2.0);",
	} {
		src := spliceHelpers + `double k(int n, double a[n], double b[n]) {
  double s = 0.25; int i; int m = 1;
  for (i = 0; i < n; i++) {
    ` + stmt + `
  }
  return s + m + gd + gi;
}
`
		f := MustParse("splice.c", src)
		p := mustBytecode(t, "splice.c", src)
		if _, err := Disassemble(p, "k"); err != nil {
			t.Errorf("%s: %v", stmt, err)
			continue
		}
		w := walkerInst(t, f)
		if _, err := w.Call("k", args()...); err != nil {
			t.Fatalf("%s: reference run: %v", stmt, err)
		}
		for k := 1; k <= w.Steps()+1; k++ {
			w := walkerInst(t, f)
			w.SetMaxSteps(k)
			wArgs, bArgs := args(), args()
			wv, werr := w.Call("k", wArgs...)
			ins := p.NewInstance()
			ins.SetMaxSteps(k)
			bv, berr := ins.Call("k", bArgs...)
			walker := runOutcomeOf(wv, werr, w.Steps(), wArgs)
			if d := runOutcomeOf(bv, berr, ins.LastCallSteps(), bArgs).diff(walker); d != "" {
				t.Fatalf("%s: budget %d: %s", stmt, k, d)
			}
		}
	}
}

// runHeads returns the run heads of a disassembly as "form@line" of the
// statement each replaced, sorted and without repeats (an inner loop is
// lowered once per version of the loops around it).
func runHeads(dis string) []string {
	seen := map[string]bool{}
	var out []string
	for _, row := range strings.Split(dis, "\n") {
		f := strings.Fields(row)
		if len(f) < 2 || !strings.HasPrefix(f[1], "run.") {
			continue
		}
		line, _, _ := strings.Cut(f[len(f)-1], ":")
		if h := f[1][len("run."):] + "@" + line; !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	sort.Strings(out)
	return out
}

// TestBytecodeRunCoverage is the table of the sixteen innermost loops of
// the ten kernels: each must become a run form, so coverage cannot
// regress silently (norms' loop is one only with its sq call spliced).
func TestBytecodeRunCoverage(t *testing.T) {
	want := map[string][]string{
		"gemm":     {"mac@8"},
		"jacobi":   {"map@12", "sum@7"},
		"axpy":     {"mac@5"},
		"2mm":      {"mac@10", "mac@18"},
		"seidel2d": {"sum@7"},
		"atax":     {"mac@10", "mac@13", "map@5"},
		"mvt":      {"mac@11", "mac@6"},
		"trisolv":  {"mac@7"},
		"cholesky": {"mac@12", "mac@7"},
		"norms":    {"mac@8"},
	}
	loops := 0
	for _, k := range BenchKernels {
		out, err := Disassemble(mustBytecode(t, k.File, k.Src), k.Fn)
		if err != nil {
			t.Fatalf("%s: %v", k.Name, err)
		}
		got := runHeads(out)
		if strings.Join(got, " ") != strings.Join(want[k.Name], " ") {
			t.Errorf("%s: run forms %v, want %v:\n%s", k.Name, got, want[k.Name], out)
		}
		loops += len(got)
	}
	if loops != 16 {
		t.Errorf("%d loops run whole, want 16", loops)
	}
}

// opcodeHistogram is the op column of every lowered function of p
// counted, registers and operands ignored, as "op:count" in byte order.
func opcodeHistogram(t *testing.T, p *Program) string {
	t.Helper()
	count := map[string]int{}
	for _, fn := range BytecodeFuncs(p) {
		dis, err := Disassemble(p, fn)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range strings.Split(dis, "\n")[1:] {
			if f := strings.Fields(row); len(f) >= 2 {
				count[f[1]]++
			}
		}
	}
	var out []string
	for op, c := range count {
		out = append(out, op+":"+strconv.Itoa(c))
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// TestBytecodeKernelOpcodes pins the code every benchmark kernel executes
// at bytecode/O3: the opcode histogram of its lowered functions (norms'
// counts its leaf sq and norms itself, which splices it). A lowering
// change that leaves this table alone cannot have changed what a
// benchmark runs; one that changes it must say why.
func TestBytecodeKernelOpcodes(t *testing.T) {
	want := map[string]string{
		"gemm":     ".addr:7 .opnd:6 cme2:2 forinit:4 jmp:3 ldc.i:4 lde2:5 ldu1:1 loopnext2:6 loopnext:1 mul.f:6 prove:3 ret:1 run.mac:2 ste2:1 step:9 stu1:1",
		"jacobi":   ".addr:8 .opnd:8 add.f:4 add.i:3 forinit:5 jmp:2 ldc.f:1 ldc.i:5 lde2:6 loopnext2:4 loopnext:3 mul.f:1 prove:2 ret:1 run.map:1 run.sum:1 ste2:2 step2:4 step:7 sub.i:7",
		"axpy":     ".addr:3 .opnd:3 add.f:1 forinit:1 jmp:1 ldc.i:2 lde1:2 loopnext2:2 mul.f:1 prove:1 ret:1 run.mac:1 ste1:1 step:3",
		"2mm":      ".addr:14 .opnd:12 cme2:5 cmu1:1 forinit:8 jmp:6 ldc.f:1 ldc.i:4 lde2:8 loopnext2:12 loopnext:2 mul.f:6 prove:6 ret:1 run.mac:4 ste2:1 step:15 stu1:1",
		"seidel2d": ".addr:9 .opnd:10 add.f:8 add.i:9 div.f:1 forinit:3 jmp:1 ldc.f:1 ldc.i:5 lde2:9 loopnext2:2 loopnext:2 prove:1 ret:1 run.sum:1 ste2:1 step2:2 step:5 sub.i:11",
		"atax":     ".addr:16 .opnd:14 add.f:4 forinit:6 jmp:6 ldc.f:1 ldc.i:3 lde1:8 lde2:4 loopnext2:12 mul.f:4 prove:6 ret:1 run.mac:4 run.map:1 ste1:6 step:14 stu0:1",
		"mvt":      ".addr:6 .opnd:6 add.f:2 forinit:4 jmp:2 ldc.i:3 lde1:4 lde2:2 loopnext2:4 loopnext:2 mul.f:2 prove:2 ret:1 run.mac:2 ste1:2 step:6",
		"trisolv":  ".addr:11 .opnd:6 div.f:2 forinit:3 jmp:3 ldc.i:3 lde1:6 lde2:3 ldu0:2 ldu2:1 loopnext2:6 mul.f:2 prove:3 ret:1 run.mac:2 ste1:4 step:10 stu0:2 sub.f:2",
		"cholesky": ".addr:22 .opnd:18 cme2:8 cmu1:2 forinit:9 jmp:9 ldc.i:4 lde2:15 ldu2:3 loopnext2:12 loopnext:6 math1:2 mul.f:6 prove:9 ret:1 run.mac:6 ste2:1 step:21 stu2:1",
		"norms":    ".addr:5 .opnd:6 add.f:2 forinit:3 jmp:3 ldc.f:1 ldc.i:3 lde1:2 lde2:2 loopnext2:6 mul.f:3 prove:3 ret.f:1 ret:2 run.mac:2 ste1:3 step:13 stu0:1",
	}
	for _, k := range BenchKernels {
		if got := opcodeHistogram(t, mustBytecode(t, k.File, k.Src)); got != want[k.Name] {
			t.Errorf("%s: opcodes\n  got  %s\n  want %s", k.Name, got, want[k.Name])
		}
	}
}

// TestBytecodeCancellationMidRun cancels a call that is inside one long
// run: the run looks at the limit once per chunk, so the context error
// must come back well within 50 ms. The axpy case is a single 1<<24-trip
// loop; the spliced case repeats a 4096-trip loop whose body calls a
// leaf, so most of the call is spent in runs of k = 3.
func TestBytecodeCancellationMidRun(t *testing.T) {
	const spliced = `
double sq(double x) { return x * x; }
double k(int n, double x[n]) {
  double s = 0.0;
  int r; int i;
  for (r = 0; r < 1000000; r++) {
    for (i = 0; i < n; i++) {
      s = s + sq(x[i]);
    }
  }
  return s;
}
`
	for _, tc := range []struct {
		name, src, fn string
		args          func() []any
	}{
		{"axpy", benchAxpySrc, "axpy", func() []any {
			xy := NewArray(1 << 24) // x and y both: one 128 MB array, barely touched
			return []any{IntV(1 << 24), FloatV(2.0), xy, xy}
		}},
		{"spliced", spliced, "k", func() []any { return []any{IntV(4096), NewArray(4096)} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Compile(MustParse(tc.name+".c", tc.src), WithBackend(BackendBytecode), WithOptLevel(O3), WithMaxSteps(1<<40))
			if err != nil {
				t.Fatal(err)
			}
			if dis, err := Disassemble(p, tc.fn); err != nil || !strings.Contains(dis, "run.") {
				t.Fatalf("want a run: %v\n%s", err, dis)
			}
			args := tc.args()
			ctx, cancel := context.WithCancel(context.Background())
			var cancelled time.Time
			time.AfterFunc(time.Millisecond, func() {
				cancelled = time.Now()
				cancel()
			})
			_, err = p.NewInstance().CallContext(ctx, tc.fn, args...)
			returned := time.Now()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled (a finished call means the loop is too short to cancel)", err)
			}
			if late := returned.Sub(cancelled); late > 50*time.Millisecond {
				t.Fatalf("the call returned %v after the cancellation, want within 50ms", late)
			}
		})
	}
}

const disGoldenSrc = `
double dot(int n, double a[n], double x[n]) {
  double s = 0.0;
  int i;
  for (i = 0; i < n; i++) {
    s = s + a[i] * x[i];
  }
  return s;
}
`

// disGolden is the full Disassemble output for disGoldenSrc. It documents
// the two-version loop layout end to end: loop set-up (forinit), the proof
// preamble (prove and one .addr row per address) falling into the
// unchecked fast body — here one multiply-accumulate run over a scalar
// target (run.mac and its .opnd rows, then loopnext2) — or jumping to the
// checked safe body (lde1, mul.f, add.f, mov.f + loopnext2: the plain
// instructions the run was formed from). Update deliberately when
// the lowering changes.
const disGolden = `func dot: 27 instrs, 5 int regs, 12 float regs, 2 data regs
   0  ldc.f      f3 = 0
   1  ldc.i      i3 = 0
   2  step                                    ; 3:10
   3  mov.f      f1 f3
   4  step                                    ; 4:7
   5  ldc.i      i2 = 0
   6  forinit    i2=i3 i4=i0-1 step2 else @24 ; 5:3
   7  prove      i2..i4 rows=2 else @17
   8  .addr      d0 = a0[i2+0]
   9  .addr      d1 = a1[i2+0]
  10  step                                    ; 6:7
  11  run.mac    i2<=i4 t += x*y
  12  .opnd      f1 stride 0
  13  .opnd      d0[i2] stride 1              ; 6:14
  14  .opnd      d1[i2] stride 1              ; 6:21
  15  loopnext2  i2<=i4 @11                   ; 5:3
  16  jmp        @24
  17  step                                    ; 6:7
  18  lde1       f8 a0[i2]                    ; 6:14
  19  lde1       f9 a1[i2]                    ; 6:21
  20  mul.f      f10 f8 f9
  21  add.f      f11 f1 f10
  22  mov.f      f1 f11
  23  loopnext2  i2<=i4 @18                   ; 5:3
  24  step                                    ; 8:3
  25  ret.f      f1
  26  ret
`

func TestDisassembleGolden(t *testing.T) {
	p := mustBytecode(t, "dot.c", disGoldenSrc)
	out, err := Disassemble(p, "dot")
	if err != nil {
		t.Fatal(err)
	}
	if out != disGolden {
		t.Fatalf("disassembly drifted from golden.\n--- got ---\n%s--- want ---\n%s", out, disGolden)
	}
}

func TestDisassembleErrors(t *testing.T) {
	bc := mustBytecode(t, "dot.c", disGoldenSrc)

	if _, err := Disassemble(bc, "nosuch"); err == nil {
		t.Fatal("unknown function: expected error")
	} else if got, want := err.Error(), `cminor: Disassemble: no function "nosuch"`; got != want {
		t.Fatalf("unknown function: got %q, want %q", got, want)
	}

	tree, err := Compile(MustParse("dot.c", disGoldenSrc), WithOptLevel(O3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Disassemble(tree, "dot"); err == nil {
		t.Fatal("closure-tree program: expected error")
	} else if !strings.Contains(err.Error(), "not bytecode") {
		t.Fatalf("closure-tree program: got %q, want a backend mismatch error", err)
	}

	// f's call to the leaf h is spliced; its call to g, which is no leaf,
	// is not, so f bails, naming the call.
	bailed := mustBytecode(t, "call.c", `
double h(double x) { return x + 1.0; }
double g(double x) { return h(x) + 1.0; }
double f(double x) { return h(x) * g(x); }
`)
	if _, err := Disassemble(bailed, "f"); err == nil {
		t.Fatal("bailed function: expected error")
	} else if got, want := err.Error(), "cminor: Disassemble: f bailed to the closure fallback: call to g (not a leaf) at 4:36"; got != want {
		t.Fatalf("bailed function: got %q, want %q", got, want)
	}
	if got := BytecodeFuncs(bailed); strings.Join(got, " ") != "g h" {
		t.Fatalf("BytecodeFuncs = %v, want [g h] (g splices h; f calls g)", got)
	}
}

package cminor

import (
	"context"
	"errors"
	"math"
	"sort"
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
			w := NewWalker(f)
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
			if w.Steps != ins.LastCallSteps() {
				t.Errorf("step divergence: walker=%d bytecode=%d", w.Steps, ins.LastCallSteps())
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
// program the driver calls a user function, which the lowerer does not
// support, so only the leaf sq must appear in the lowered set.
func TestBytecodeFuncs(t *testing.T) {
	var norms BenchKernel
	for _, k := range BenchKernels {
		if k.Name == "norms" {
			norms = k
		}
	}
	p := mustBytecode(t, norms.File, norms.Src)
	got := BytecodeFuncs(p)
	if len(got) != 1 || got[0] != "sq" {
		t.Fatalf("BytecodeFuncs = %v, want [sq] (driver has user calls and must bail)", got)
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
// possible fault point of a matvec kernel and checks that the bytecode
// backend faults exactly where the walker does: same error text, same
// LastCallSteps, and the same partial output-array state. This pins down
// the loopnext2 rollback: the fused back edge charges two steps at once
// and must report the budget-crossing count, not the fused one.
func TestBytecodeStepBudgetParity(t *testing.T) {
	const n = 6
	f := MustParse("mv.c", stepParitySrc)
	p, err := Compile(f, WithBackend(BackendBytecode), WithOptLevel(O3))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	// Unbudgeted run to learn the total step count.
	w := NewWalker(f)
	if _, err := w.Call("mv", stepParityArgs(n)...); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	total := w.Steps

	for k := 1; k <= total+1; k++ {
		w := NewWalker(f)
		w.MaxSteps = k
		wArgs := stepParityArgs(n)
		wv, werr := w.Call("mv", wArgs...)

		ins := p.NewInstance()
		ins.SetMaxSteps(k)
		bArgs := stepParityArgs(n)
		bv, berr := ins.Call("mv", bArgs...)

		if (werr == nil) != (berr == nil) {
			t.Fatalf("k=%d: error divergence: walker=%v bytecode=%v", k, werr, berr)
		}
		if werr != nil && werr.Error() != berr.Error() {
			t.Fatalf("k=%d: fault text divergence: %q vs %q", k, werr, berr)
		}
		if werr == nil && !sameValue(wv, bv) {
			t.Fatalf("k=%d: value divergence: %+v vs %+v", k, wv, bv)
		}
		if w.Steps != ins.LastCallSteps() {
			t.Fatalf("k=%d: step divergence: walker=%d bytecode=%d", k, w.Steps, ins.LastCallSteps())
		}
		wy, by := wArgs[3].(*Array), bArgs[3].(*Array)
		for j := range wy.Data {
			if math.Float64bits(wy.Data[j]) != math.Float64bits(by.Data[j]) {
				t.Fatalf("k=%d: partial y diverges at %d: %g vs %g", k, j, wy.Data[j], by.Data[j])
			}
		}
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
	w := NewWalker(f)
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
	if w.Steps != ins.LastCallSteps() {
		t.Fatalf("fault step divergence: walker=%d bytecode=%d", w.Steps, ins.LastCallSteps())
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
	w := NewWalker(f)
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
	if w.Steps != ins.LastCallSteps() {
		t.Fatalf("fault step divergence: walker=%d bytecode=%d", w.Steps, ins.LastCallSteps())
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

// TestBytecodeSuperinstructions pins the run-form coverage on the
// flagship shapes: the gemm update, the atax matrix-vector products and
// the trisolv back-substitution must each run whole as a multiply-
// accumulate, all riding the fused loopnext2 back edge.
func TestBytecodeSuperinstructions(t *testing.T) {
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

// TestBytecodeRunCoverage is the table of the fifteen innermost loops of
// the nine kernels that lower: each must become a run form, so coverage
// cannot regress silently (norms bails on its user call).
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
	}
	loops := 0
	for _, k := range BenchKernels {
		if k.Name == "norms" {
			continue
		}
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
	if loops != 15 {
		t.Errorf("%d loops run whole, want 15", loops)
	}
}

// TestBytecodeCancellationMidRun cancels a call that is inside one long
// run (a single 1<<24-trip axpy loop): the run looks at the limit once
// per chunk, so the context error must come back well within 50 ms.
func TestBytecodeCancellationMidRun(t *testing.T) {
	const n = 1 << 24
	p, err := Compile(MustParse("axpy.c", benchAxpySrc), WithBackend(BackendBytecode), WithOptLevel(O3), WithMaxSteps(1<<40))
	if err != nil {
		t.Fatal(err)
	}
	xy := NewArray(n) // x and y both: one 128 MB array, barely touched
	ctx, cancel := context.WithCancel(context.Background())
	var cancelled time.Time
	time.AfterFunc(time.Millisecond, func() {
		cancelled = time.Now()
		cancel()
	})
	_, err = p.NewInstance().CallContext(ctx, "axpy", IntV(n), FloatV(2.0), xy, xy)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (a finished call means the loop is too short to cancel)", err)
	}
	if late := returned.Sub(cancelled); late > 50*time.Millisecond {
		t.Fatalf("the call returned %v after the cancellation, want within 50ms", late)
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
// checked safe body (lde1 + fmas + loopnext2). Update deliberately when
// the lowering changes.
const disGolden = `func dot: 25 instrs, 5 int regs, 8 float regs, 2 data regs
   0  ldc.f      f3 = 0
   1  ldc.i      i3 = 0
   2  step                                    ; 3:10
   3  mov.f      f1 f3
   4  step                                    ; 4:7
   5  ldc.i      i2 = 0
   6  forinit    i2=i3 i4=i0-1 step2 else @22 ; 5:3
   7  prove      i2..i4 rows=2 else @17
   8  .addr      d0 = a0[i2+0]
   9  .addr      d1 = a1[i2+0]
  10  step                                    ; 6:7
  11  run.mac    i2<=i4 t += x*y
  12  .opnd      f1 stride 0
  13  .opnd      d0[i2] stride 1              ; 6:14
  14  .opnd      d1[i2] stride 1              ; 6:21
  15  loopnext2  i2<=i4 @11                   ; 5:3
  16  jmp        @22
  17  step                                    ; 6:7
  18  lde1       f6 a0[i2]                    ; 6:14
  19  lde1       f7 a1[i2]                    ; 6:21
  20  fmas       f1 += f6*f7
  21  loopnext2  i2<=i4 @18                   ; 5:3
  22  step                                    ; 8:3
  23  ret.f      f1
  24  ret
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

	bailed := mustBytecode(t, "call.c", `
double g(double x) { return x + 1.0; }
double f(double x) { return g(x) * 2.0; }
`)
	if _, err := Disassemble(bailed, "f"); err == nil {
		t.Fatal("bailed function: expected error")
	} else if !strings.Contains(err.Error(), "bailed to the closure fallback") {
		t.Fatalf("bailed function: got %q, want a bail error", err)
	}
}

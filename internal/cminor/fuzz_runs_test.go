package cminor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// A differential corpus aimed at the bytecode back end's run forms: the
// generateDiffKernel kernels (fuzz_diff_test.go) lower only when they
// call no pointer helper, and are not built around run forms. The
// kernels here
// are loop nests whose innermost bodies are the three run forms
// (bytecode.go) and their near-misses, at the trip counts where a run's
// length is decided — zero, one, two and either side of bcRunChunk —
// over argument arrays that may be one array twice or views of one
// backing store. The last nests call leaf helpers (runHelpers) that the
// lowerer splices: norms' sq, a run form whose inner step makes k = 3,
// and the near-misses of one. Each kernel is compared with the walker on
// value, argument arrays, steps and error text, at the full budget and at
// the budgets where a run must stop short, and every call, the walker's
// too, must leave the arrays outside k's write set as it found them
// (guardReadOnly).

const (
	runGenRows  = 4  // rows of A, columns of C, and the range of the outer variable j
	runGenSmall = 40 // Q, the square array, exists only up to this n
)

// runGen generates one kernel
//
//	double k(int n, int m, double c, double a[], double b[], double A[R][], double C[][R], double Q[][])
//
// whose inner loops run i over [lo, n+d) for small lo and d, so every
// subscript i+off with -lo <= off <= 2 — and 2*i, and n+3-i — stays inside
// arrays of length 2n+8 (runData).
type runGen struct {
	rng   *rand.Rand
	sb    strings.Builder
	small bool // n <= runGenSmall: Q may be used
	outer bool // inside a loop over j
	lo    int  // the current inner loop's lower bound
}

func (g *runGen) pick(opts ...string) string { return opts[g.rng.Intn(len(opts))] }

// iv is a subscript that follows the inner induction variable.
func (g *runGen) iv() string {
	switch off := g.rng.Intn(g.lo+3) - g.lo; {
	case off < 0:
		return fmt.Sprintf("i - %d", -off)
	case off > 0:
		return g.pick(fmt.Sprintf("i + %d", off), fmt.Sprintf("%d + i", off))
	}
	return "i"
}

// inv is a loop-invariant subscript below runGenRows.
func (g *runGen) inv() string {
	if g.outer && g.rng.Intn(2) == 0 {
		return "j"
	}
	return g.pick("0", "1", "2", "3", "m", "m + 1", "(m)")
}

// elem is an array element whose address the lowerer can classify.
func (g *runGen) elem() string {
	n := 8
	if g.small {
		n = 12
	}
	switch g.rng.Intn(n) {
	case 0, 1:
		return fmt.Sprintf("%s[%s]", g.pick("a", "b"), g.iv())
	case 2:
		return fmt.Sprintf("%s[%s]", g.pick("a", "b"), g.inv())
	case 3, 4:
		return fmt.Sprintf("A[%s][%s]", g.inv(), g.iv())
	case 5, 6:
		return fmt.Sprintf("C[%s][%s]", g.iv(), g.inv())
	case 7:
		return fmt.Sprintf("A[%s][%s]", g.inv(), g.inv())
	case 8:
		return fmt.Sprintf("Q[%s][%s]", g.iv(), g.iv())
	case 9:
		return fmt.Sprintf("Q[%s][%s]", g.inv(), g.iv())
	case 10:
		return fmt.Sprintf("Q[%s][%s]", g.iv(), g.inv())
	default:
		return fmt.Sprintf("Q[%s][%s]", g.inv(), g.inv())
	}
}

// odd is an element whose subscript is neither affine in i nor invariant:
// non-unit stride, reversed, or an int division.
func (g *runGen) odd() string {
	return fmt.Sprintf("%s[%s]", g.pick("a", "b"), g.pick("2 * i", "i + i", "n + 3 - i", "i / 2", "i % 3"))
}

// runHelpers are the leaves the call-bearing loops call; the O3 inliner
// plans every call, so the bytecode lowerer splices each. sq is norms'
// helper; half reassigns its parameter (so it is copied, not renamed)
// over three statements; clip returns early; tri takes an int, fed a
// double; tick writes a global before its return's step.
const runHelpers = `double gs;
double sq(double x) { return x * x; }
double half(double x) { x = x * 0.5; double y = x + 1.0; return x * y; }
double clip(double x) { if (x > 2.0) { return 2.0; } return x; }
double tri(int k) { return k * 0.5; }
double tick(double x) { gs = gs + x; return x; }
`

// callForm emits one statement that calls a helper: a run form once the
// call is spliced, or a near-miss of one.
func (g *runGen) callForm() string {
	t := g.elem()
	switch g.rng.Intn(9) {
	case 0, 1: // norms' shape: the plain mac form over sq
		return fmt.Sprintf("%s = %s %s sq(%s);", t, t, g.pick("+", "-"), g.elem())
	case 2: // compound, into an element or the scalar
		return fmt.Sprintf("%s %s sq(%s);", g.pick(t, "s"), g.pick("+=", "-="), g.elem())
	case 3: // the argument is a caller slot, not a temporary
		return fmt.Sprintf("%s += sq(%s) * %s;", t, g.pick("s", "c"), g.elem())
	case 4: // the call's value stored: no run form
		return fmt.Sprintf("%s = sq(%s);", t, g.elem())
	case 5:
		return fmt.Sprintf("%s += half(%s);", t, g.elem())
	case 6:
		return fmt.Sprintf("%s = %s + clip(%s);", t, t, g.elem())
	case 7:
		return fmt.Sprintf("%s += tri(%s);", t, g.elem())
	default:
		return fmt.Sprintf("%s += tick(%s);", t, g.elem())
	}
}

// form emits one statement: a run form or a near-miss of one.
func (g *runGen) form() string {
	t := g.elem()
	switch g.rng.Intn(14) {
	case 0: // mac, compound
		return fmt.Sprintf("%s %s %s * %s;", t, g.pick("+=", "-="), g.elem(), g.elem())
	case 1: // mac with a coefficient
		return fmt.Sprintf("%s %s %s * %s * %s;", t, g.pick("+=", "-="), g.pick("c", "s", "1.5"), g.elem(), g.elem())
	case 2: // mac, plain form
		return fmt.Sprintf("%s = %s %s %s * %s;", t, t, g.pick("+", "-"), g.elem(), g.pick(g.elem(), "c"))
	case 3: // mac over a register operand
		return fmt.Sprintf("%s %s %s * %s;", t, g.pick("+=", "-="), g.pick("c", "s", g.elem()), g.pick("c", g.elem()))
	case 4: // mac into a scalar
		return fmt.Sprintf("s %s %s * %s;", g.pick("+=", "= s +", "-="), g.pick(g.elem(), "c * "+g.elem(), "s"), g.elem())
	case 5, 6: // sum
		terms := make([]string, 1+g.rng.Intn(10))
		for i := range terms {
			terms[i] = g.elem()
		}
		sum := "(" + strings.Join(terms, " + ") + ")"
		return fmt.Sprintf("%s = %s;", t, g.pick(sum, "0.2 * "+sum, sum+" * c", sum+" / 9.0", sum+" / c"))
	case 7: // map
		return fmt.Sprintf("%s = %s;", t, g.pick(g.elem(), g.elem(), "c", "0.0", "s"))
	case 8: // compound and increment on an element
		return fmt.Sprintf("%s%s;", t, g.pick(" /= 2.0", " *= c", "++", "--", " += c"))
	case 9: // an operand the lowerer must keep checked
		return fmt.Sprintf("%s = %s;", g.pick(t, g.odd()), g.pick(g.odd(), g.odd()+" + "+g.elem()))
	case 10: // a sum that is not a left-to-right chain, or not only adds
		return fmt.Sprintf("%s = %s + (%s + %s) - %s;", t, g.elem(), g.elem(), g.elem(), g.elem())
	case 11: // the value of a store is used
		return fmt.Sprintf("s = (%s = %s);", t, g.elem())
	case 12:
		return fmt.Sprintf("if (i %% 2 == 0) { %s = %s; }", t, g.elem())
	default: // product of loads without a target
		return fmt.Sprintf("s = %s * %s;", g.elem(), g.elem())
	}
}

// loop emits one inner loop over i whose statements form makes.
func (g *runGen) loop(indent string, form func() string) {
	g.lo = g.rng.Intn(3)
	bound := g.pick("n", "n", "n - 1", "n + 1")
	cond := "i < " + bound
	if g.rng.Intn(4) == 0 {
		cond = "i <= " + bound + " - 1"
	}
	body := []string{form()}
	switch g.rng.Intn(8) {
	case 0: // two statements
		body = append(body, form())
	case 1: // the bound is written in the body: not a counted loop
		fmt.Fprintf(&g.sb, "%sw = 4;\n", indent)
		cond = "i < w"
		body = append(body, "w = w - 1;")
	}
	fmt.Fprintf(&g.sb, "%sfor (i = %d; %s; %s) {\n", indent, g.lo, cond, g.pick("i++", "i += 1", "i = i + 1"))
	for _, st := range body {
		fmt.Fprintf(&g.sb, "%s  %s\n", indent, st)
	}
	fmt.Fprintf(&g.sb, "%s}\n", indent)
}

func generateRunKernel(seed int64, n int) string {
	g := &runGen{rng: rand.New(rand.NewSource(seed)), small: n <= runGenSmall}
	g.sb.WriteString(runHelpers)
	g.sb.WriteString("double k(int n, int m, double c, double a[n], double b[n], double A[4][n], double C[n][4], double Q[n][n]) {\n")
	g.sb.WriteString("  int i; int j; int w;\n  double s = 0.25;\n")
	nest := func(form func() string) {
		if g.outer = g.rng.Intn(3) == 0; g.outer {
			fmt.Fprintf(&g.sb, "  for (j = 0; j < %d; j++) {\n", 1+g.rng.Intn(runGenRows))
			g.loop("    ", form)
			g.sb.WriteString("  }\n")
		} else {
			g.loop("  ", form)
		}
	}
	for nests := 2 + g.rng.Intn(3); nests > 0; nests-- {
		nest(g.form)
	}
	for calls := g.rng.Intn(3); calls > 0; calls-- {
		nest(g.callForm)
	}
	g.sb.WriteString("  return s + a[1] + b[2];\n}\n")
	return g.sb.String()
}

// runData is the random content of one seed's argument arrays, drawn
// once and copied into every argument set built from it.
type runData struct {
	n, m       int
	c          float64
	a, b, A, C []float64 // 2n+8 elements, and runGenRows times that
	Q          []float64 // n+8 squared, only up to runGenSmall
}

func newRunData(seed int64, n int) *runData {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	fill := func(size int) []float64 {
		d := make([]float64, size)
		for i := range d {
			switch v := rng.Intn(64); v {
			case 0:
				d[i] = math.Inf(1)
			case 1:
				d[i] = math.Copysign(0, -1)
			default:
				d[i] = float64(v)*0.125 - 3
			}
		}
		return d
	}
	length := 2*n + 8
	d := &runData{n: n, m: rng.Intn(2), c: float64(rng.Intn(9))*0.25 - 0.5,
		a: fill(length), b: fill(length), A: fill(runGenRows * length), C: fill(runGenRows * length)}
	if n <= runGenSmall {
		d.Q = fill((n + 8) * (n + 8))
	}
	return d
}

// args builds one fresh argument set. alias picks how the arrays share
// storage: 0 not at all; 1 b is a; 2 b is a view of a, one element on;
// 3 C is A's storage under its own shape; 4 everything is too short, so
// the preamble's proofs fail and the checked body faults.
func (d *runData) args(alias int) []any {
	length, side := 2*d.n+8, d.n+8
	if alias == 4 {
		length = max(d.n-1, 1)
		side = length
	}
	arr := func(data []float64, dims ...int) *Array {
		size := 1
		for _, dim := range dims {
			size *= dim
		}
		return &Array{Dims: dims, Data: append([]float64(nil), data[:size]...)}
	}
	a, b := arr(d.a, length), arr(d.b, length)
	A, C := arr(d.A, runGenRows, length), arr(d.C, length, runGenRows)
	Q := NewArray(1, 1)
	if d.Q != nil {
		Q = arr(d.Q, side, side)
	}
	switch alias {
	case 1:
		b = a
	case 2:
		b = &Array{Dims: []int{length - 1}, Data: a.Data[1:]}
	case 3:
		C = &Array{Dims: C.Dims, Data: A.Data}
	}
	return []any{IntV(int64(d.n)), IntV(int64(d.m)), FloatV(d.c), a, b, A, C, Q}
}

// runOutcome is everything one call leaves behind.
type runOutcome struct {
	v      Value
	err    error
	steps  int
	arrays [][]float64
}

func runOutcomeOf(v Value, err error, steps int, args []any) runOutcome {
	o := runOutcome{v: v, err: err, steps: steps}
	for _, a := range args {
		if arr, ok := a.(*Array); ok {
			o.arrays = append(o.arrays, arr.Data)
		}
	}
	return o
}

// faultText is the part of an error the back ends agree on: the walker
// reports a bad subscript without a position and as its own fault kind,
// so those compare by message (against the closure back end they compare
// whole, below); everything else — the step budget — compares whole.
func faultText(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.Index(s, "index "); i >= 0 {
		return strings.TrimSuffix(s[i:], " in dim 0")
	}
	return s
}

func (o runOutcome) diff(w runOutcome) string {
	switch {
	case faultText(o.err) != faultText(w.err):
		return fmt.Sprintf("error %v, walker %v", o.err, w.err)
	case o.err == nil && !sameValue(o.v, w.v):
		return fmt.Sprintf("value %+v, walker %+v", o.v, w.v)
	case o.steps != w.steps:
		return fmt.Sprintf("steps %d, walker %d", o.steps, w.steps)
	}
	for i := range w.arrays {
		for j := range w.arrays[i] {
			if math.Float64bits(o.arrays[i][j]) != math.Float64bits(w.arrays[i][j]) {
				return fmt.Sprintf("array %d differs at %d: %g (%#x), walker %g (%#x)", i, j, o.arrays[i][j], math.Float64bits(o.arrays[i][j]), w.arrays[i][j], math.Float64bits(w.arrays[i][j]))
			}
		}
	}
	return ""
}

// runBudgets is the budgets one kernel of total steps is swept over: all
// of them when it is small; otherwise both ends, where loops are entered
// and left, and a sample that leans on the budgets just past each
// multiple of a chunk's steps, where a run that was cut by the chunk
// resumes (loops start a few steps in, at a different place per seed).
func runBudgets(rng *rand.Rand, total int) []int {
	var ks []int
	if total <= 160 {
		for k := 1; k <= total+1; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	for k := 1; k <= 16; k++ {
		ks = append(ks, k, total+2-k)
	}
	for i := 0; i < 32; i++ {
		k := 1 + rng.Intn(total)
		if i%2 == 0 && total > 2*bcRunChunk {
			k = (1+rng.Intn(total/(2*bcRunChunk)))*2*bcRunChunk + rng.Intn(64) - 8
		}
		ks = append(ks, k)
	}
	return ks
}

// callsHelper reports whether the kernel of src calls a runHelpers leaf.
func callsHelper(src string) bool {
	for _, h := range []string{"sq(", "half(", "clip(", "tri(", "tick("} {
		if strings.Contains(src[len(runHelpers):], h) {
			return true
		}
	}
	return false
}

func TestBytecodeRunCorpus(t *testing.T) {
	const seeds = 330
	trips := []int{0, 1, 2, 3, 4, 5, 7, 9, 14, 23}
	lowered, withRun := 0, 0
	calling, callLowered, withK := 0, 0, 0 // kernels with a call loop; those lowered; those with a run of k > 2
	heads := map[string]int{}              // distinct run heads per form
	for seed := int64(0); seed < seeds; seed++ {
		// The trip count of a loop is n less its small lower bound, give or
		// take one: every fifteenth kernel has its loops on either side of
		// the chunk, the rest are short.
		n := trips[int(seed)%len(trips)]
		if seed%15 == 14 {
			n = bcRunChunk + int(seed/15)%4
		}
		rng := rand.New(rand.NewSource(seed))
		src := generateRunKernel(seed, n)
		f, err := Parse(fmt.Sprintf("run%d.c", seed), src)
		if err != nil {
			t.Fatalf("seed %d: generator produced an unparsable kernel:\n%s\n%v", seed, src, err)
		}
		bp, err := Compile(f, WithBackend(BackendBytecode), WithOptLevel(O3))
		if err != nil {
			t.Fatalf("seed %d: Compile:\n%s\n%v", seed, src, err)
		}
		o0, err := Compile(f, WithOptLevel(O0))
		if err != nil {
			t.Fatal(err)
		}
		dis, derr := Disassemble(bp, "k")
		if callsHelper(src) {
			calling++
			if derr == nil {
				callLowered++
				if strings.Contains(dis, " k=") {
					withK++
				}
			}
		}
		if derr == nil {
			lowered++
			if h := runHeads(dis); len(h) > 0 {
				withRun++
				for _, head := range h {
					form, _, _ := strings.Cut(head, "@")
					heads[form]++
				}
			}
		}
		data := newRunData(seed, n)
		call := func(alias, budget int) (walker, bytecode runOutcome) {
			w := walkerInst(t, f)
			w.SetMaxSteps(budget)
			wArgs := data.args(alias)
			unchanged := guardReadOnly(t, w, "k", wArgs)
			wv, werr := w.Call("k", wArgs...)
			unchanged("walker")
			ins := bp.NewInstance()
			ins.SetMaxSteps(budget)
			bArgs := data.args(alias)
			unchanged = guardReadOnly(t, ins, "k", bArgs)
			bv, berr := ins.Call("k", bArgs...)
			unchanged("bytecode")
			if berr != nil && strings.Contains(berr.Error(), "index ") {
				// A positioned fault: the closure back end is the reference
				// for its text.
				ci := o0.NewInstance()
				ci.SetMaxSteps(budget)
				cArgs := data.args(alias)
				unchanged = guardReadOnly(t, ci, "k", cArgs)
				if _, cerr := ci.Call("k", cArgs...); cerr == nil || cerr.Error() != berr.Error() {
					t.Fatalf("seed %d alias %d budget %d: fault %v, closure back end %v\n%s", seed, alias, budget, berr, cerr, src)
				}
				unchanged("O0")
			}
			return runOutcomeOf(wv, werr, w.Steps(), wArgs), runOutcomeOf(bv, berr, ins.LastCallSteps(), bArgs)
		}
		for alias := 0; alias <= 4; alias++ {
			w, b := call(alias, 1<<40)
			if d := b.diff(w); d != "" {
				t.Fatalf("seed %d n %d alias %d: %s\n%s\n%s", seed, n, alias, d, src, dis)
			}
			if alias != 0 && alias != 1+int(seed)%3 {
				continue
			}
			for _, k := range runBudgets(rng, w.steps) {
				w, b := call(alias, k)
				if d := b.diff(w); d != "" {
					t.Fatalf("seed %d n %d alias %d budget %d: %s\n%s\n%s", seed, n, alias, k, d, src, dis)
				}
			}
		}
	}
	t.Logf("%d of %d kernels lowered, %d with a run form; distinct run heads %v", lowered, seeds, withRun, heads)
	t.Logf("%d kernels call helpers: %d lowered, %d with a run of k > 2", calling, callLowered, withK)
	if lowered*10 < seeds*9 {
		t.Errorf("only %d of %d kernels lowered, want at least 90%%", lowered, seeds)
	}
	// Run coverage may only grow: these are the counts formRun reaches now
	// (455 distinct heads in all, 59 of them over spliced calls).
	if withRun < 262 {
		t.Errorf("only %d of %d kernels contain a run form, want at least 262", withRun, seeds)
	}
	if callLowered < calling {
		t.Errorf("only %d of %d kernels that call leaves lowered, want all", callLowered, calling)
	}
	if withK < 57 {
		t.Errorf("only %d kernels contain a run over a spliced call (k > 2), want at least 57", withK)
	}
	for form, floor := range map[string]int{"mac": 288, "map": 59, "sum": 108} {
		if heads[form] < floor {
			t.Errorf("%d distinct run.%s heads, want at least %d", heads[form], form, floor)
		}
	}
}

// FuzzBytecodeRuns opens the run corpus to the fuzzer: the kernel
// generateRunKernel makes for any seed, at any trip count (up to either
// side of two chunks) and argument aliasing, must agree with the walker
// on value, arrays, steps and error text at the full budget and at one
// budget the fuzzer picks, and leave the arrays outside k's write set
// untouched. Its seed corpus is TestBytecodeRunCorpus's
// 330 kernels, at the n and one of the aliasings that test gives them.
func FuzzBytecodeRuns(f *testing.F) {
	trips := []int{0, 1, 2, 3, 4, 5, 7, 9, 14, 23}
	for seed := int64(0); seed < 330; seed++ {
		n := trips[int(seed)%len(trips)]
		if seed%15 == 14 {
			n = bcRunChunk + int(seed/15)%4
		}
		f.Add(seed, uint16(n), uint8(seed%5), uint64(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, alias uint8, budget uint64) {
		trip := int(n) % (2*bcRunChunk + 8)
		src := generateRunKernel(seed, trip)
		file, err := Parse("run.c", src)
		if err != nil {
			t.Fatalf("generator produced an unparsable kernel:\n%s\n%v", src, err)
		}
		bp, err := Compile(file, WithBackend(BackendBytecode), WithOptLevel(O3))
		if err != nil {
			t.Fatalf("Compile:\n%s\n%v", src, err)
		}
		data := newRunData(seed, trip)
		check := func(budget int) int {
			w := walkerInst(t, file)
			w.SetMaxSteps(budget)
			wArgs, bArgs := data.args(int(alias%5)), data.args(int(alias%5))
			unchanged := guardReadOnly(t, w, "k", wArgs)
			wv, werr := w.Call("k", wArgs...)
			unchanged("walker")
			ins := bp.NewInstance()
			ins.SetMaxSteps(budget)
			unchanged = guardReadOnly(t, ins, "k", bArgs)
			bv, berr := ins.Call("k", bArgs...)
			unchanged("bytecode")
			walker := runOutcomeOf(wv, werr, w.Steps(), wArgs)
			if d := runOutcomeOf(bv, berr, ins.LastCallSteps(), bArgs).diff(walker); d != "" {
				t.Fatalf("budget %d: %s\n%s", budget, d, src)
			}
			return w.Steps()
		}
		steps := check(1 << 40)
		check(1 + int(budget%uint64(steps+1)))
	})
}

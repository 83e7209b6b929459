package cminor_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	// The corpus runs against every execution engine, including the
	// autotuner's routed path, so this file lives in the external test
	// package (cminor itself cannot import autotune).
	. "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// Differential fuzz-style test: a deterministic generator produces a
// corpus of small kernels — mixed int/double arithmetic, nested counted
// loops (including shapes that hit and miss the loop optimizer's fast
// paths), compound assignments, casts, builtins, and stores that convert
// between int and double, directly and through pointer cells — and
// every program is run through both the tree-walking oracle and the
// optimized compiled pipeline. Results
// must be bit-identical: same returned Value and same bits in every
// array. This guards the typed specialization and the strength-reduced
// subscripts against silent numeric drift.

// diffGen generates one random kernel. Loop variables carry the index
// offsets that are provably in range for the loop bounds chosen, so
// generated programs never fault and array contents stay comparable.
type diffGen struct {
	rng *rand.Rand
	sb  strings.Builder
	// declaring is the variable whose initialiser is being generated,
	// which the initialiser must not name.
	declaring string
	// loopVars are the loop variables currently in scope, with
	// wide=true when the loop runs [1, n-1) so ±1 offsets are safe.
	loopVars []struct {
		name string
		wide bool
	}
}

func (g *diffGen) pick(opts ...string) string {
	return opts[g.rng.Intn(len(opts))]
}

// intExpr emits a side-effect-free int expression over in-scope ints.
func (g *diffGen) intExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(4) {
		case 0:
			return fmt.Sprint(g.rng.Intn(10))
		case 1:
			return "n"
		case 2:
			if g.declaring == "s" {
				return "n"
			}
			return "s"
		default:
			if len(g.loopVars) > 0 {
				return g.loopVars[g.rng.Intn(len(g.loopVars))].name
			}
			return fmt.Sprint(g.rng.Intn(10))
		}
	}
	switch g.rng.Intn(6) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.intExpr(depth-1), g.intExpr(depth-1))
	case 3:
		// Constant divisors only: faults would end the comparison early.
		return fmt.Sprintf("(%s %% %d)", g.intExpr(depth-1), 1+g.rng.Intn(7))
	case 4:
		// User call with a statically-int result.
		return fmt.Sprintf("hint(%s)", g.intExpr(depth-1))
	default:
		return fmt.Sprintf("(%s / %d)", g.intExpr(depth-1), 1+g.rng.Intn(5))
	}
}

// index emits a subscript that is in range for every generated loop:
// a loop variable (±1 when its range allows), or a small invariant.
func (g *diffGen) index() string {
	if len(g.loopVars) > 0 && g.rng.Intn(4) != 0 {
		v := g.loopVars[g.rng.Intn(len(g.loopVars))]
		if v.wide {
			return g.pick(v.name, v.name+" - 1", v.name+" + 1", "1 + "+v.name)
		}
		return v.name
	}
	return g.pick("0", "1", "n - 1", "n / 2")
}

// floatExpr emits a side-effect-free double expression.
func (g *diffGen) floatExpr(depth int) string {
	if depth <= 0 || g.rng.Intn(3) == 0 {
		switch g.rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%g", float64(g.rng.Intn(40))*0.25)
		case 1:
			if g.declaring == "acc" {
				return "a[0]"
			}
			return "acc"
		case 2:
			return fmt.Sprintf("a[%s]", g.index())
		case 3:
			return fmt.Sprintf("b[%s][%s]", g.index(), g.index())
		default:
			return fmt.Sprintf("(double)(%s)", g.intExpr(depth-1))
		}
	}
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("(%s + %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 1:
		return fmt.Sprintf("(%s - %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 2:
		return fmt.Sprintf("(%s * %s)", g.floatExpr(depth-1), g.floatExpr(depth-1))
	case 3:
		return fmt.Sprintf("(%s / 2.5)", g.floatExpr(depth-1))
	case 4:
		return fmt.Sprintf("sqrt(fabs(%s))", g.floatExpr(depth-1))
	case 5:
		// hmix returns its int parameter on one path, converted to its
		// declared double.
		return fmt.Sprintf("(hmix(%s, %s) + 0.0)", g.intExpr(depth-1), g.floatExpr(depth-1))
	default:
		// Mixed arithmetic: the int operand converts to double.
		return fmt.Sprintf("(%s + %s)", g.floatExpr(depth-1), g.intExpr(depth-1))
	}
}

func (g *diffGen) stmt(indent string, depth int) {
	switch g.rng.Intn(10) {
	case 8:
		// Stores through a pointer cell convert to its pointee kind:
		// punch stores an int into the double acc, tally a double into
		// the int s.
		if g.rng.Intn(2) == 0 {
			fmt.Fprintf(&g.sb, "%spunch(&acc, %s);\n", indent, g.intExpr(1))
		} else {
			fmt.Fprintf(&g.sb, "%stally(&s, %s);\n", indent, g.floatExpr(1))
		}
	case 9:
		fmt.Fprintf(&g.sb, "%sbump(&acc, %s);\n", indent, g.floatExpr(1))
	case 0:
		fmt.Fprintf(&g.sb, "%ss %s %s;\n", indent,
			g.pick("=", "+=", "-=", "*="), g.intExpr(2))
	case 1:
		fmt.Fprintf(&g.sb, "%sacc %s %s;\n", indent,
			g.pick("+=", "-=", "*="), g.floatExpr(2))
	case 2:
		// Plain int store into a double variable: converts to double.
		fmt.Fprintf(&g.sb, "%sacc = %s;\n", indent, g.intExpr(2))
	case 3:
		fmt.Fprintf(&g.sb, "%sout[%s] %s %s;\n", indent, g.index(),
			g.pick("=", "+=", "*=", "/="), g.floatExpr(2))
	case 4:
		fmt.Fprintf(&g.sb, "%sb[%s][%s] %s %s;\n", indent, g.index(), g.index(),
			g.pick("=", "+=", "-=", "*="), g.floatExpr(2))
	case 5:
		fmt.Fprintf(&g.sb, "%sif (%s %s %s) {\n", indent, g.intExpr(1),
			g.pick("<", "<=", ">", "==", "!="), g.intExpr(1))
		g.stmt(indent+"  ", depth-1)
		fmt.Fprintf(&g.sb, "%s}\n", indent)
	case 6:
		fmt.Fprintf(&g.sb, "%sa[%s] %s %s;\n", indent, g.index(),
			g.pick("=", "+=", "-="), g.floatExpr(2))
	default:
		if depth > 0 {
			g.loop(indent, depth)
			return
		}
		fmt.Fprintf(&g.sb, "%sout[%s]++;\n", indent, g.index())
	}
}

func (g *diffGen) loop(indent string, depth int) {
	name := fmt.Sprintf("i%d", len(g.loopVars))
	wide := g.rng.Intn(2) == 0
	lo, hi := "0", "n"
	if wide {
		lo, hi = "1", "n - 1"
	}
	// Mix post shapes so both the recognized counted forms and the
	// generic loop compile path stay covered.
	post := g.pick(name+"++", name+" += 1", name+" = "+name+" + 1")
	fmt.Fprintf(&g.sb, "%sfor (%s = %s; %s < %s; %s) {\n",
		indent, name, lo, name, hi, post)
	g.loopVars = append(g.loopVars, struct {
		name string
		wide bool
	}{name, wide})
	for k := 0; k <= g.rng.Intn(3); k++ {
		g.stmt(indent+"  ", depth-1)
	}
	g.loopVars = g.loopVars[:len(g.loopVars)-1]
	fmt.Fprintf(&g.sb, "%s}\n", indent)
}

// generate returns the source of one random kernel, preceded by helper
// functions that exercise the conversion rules across calls: hint has an
// int result, hmix returns an int on one path from a double function,
// and punch/bump/tally store through pointer parameters of either kind.
func generateDiffKernel(seed int64) string {
	g := &diffGen{rng: rand.New(rand.NewSource(seed))}
	// File-scope state: every kernel updates the globals from its
	// computed results, so the rollback machinery of the fault-injection
	// leg (fuzz_chaos_test.go) has real mutable global state to restore
	// bit-exactly. The globals are pure sinks — they never feed the
	// return value or the argument arrays — so the no-fault differential
	// comparisons below are unaffected by per-instance global histories
	// (the tuner-routed rounds run on pooled instances whose globals
	// persist across checkouts).
	g.sb.WriteString("int gtick;\ndouble gacc;\ndouble gbuf[8];\n")
	fmt.Fprintf(&g.sb, "int hint(int p) { return (p * %d + %d) %% %d; }\n",
		1+g.rng.Intn(5), g.rng.Intn(7), 1+g.rng.Intn(9))
	fmt.Fprintf(&g.sb,
		"double hmix(int p, double q) {\n  if (p > %d) { return p; }\n  return q * %g;\n}\n",
		g.rng.Intn(6), 0.25*float64(1+g.rng.Intn(8)))
	g.sb.WriteString("void punch(double *p, int v) { p = v; }\n")
	g.sb.WriteString("void bump(double *p, double d) { p = p + d; }\n")
	g.sb.WriteString("void tally(int *p, double d) { p = p + d; }\n")
	g.sb.WriteString("double k(int n, double a[n], double b[n][n], double out[n]) {\n")
	g.sb.WriteString("  int i0; int i1; int i2;\n")
	g.declaring = "s"
	fmt.Fprintf(&g.sb, "  int s = %s;\n", g.intExpr(1))
	g.declaring = "acc"
	fmt.Fprintf(&g.sb, "  double acc = %s;\n", g.floatExpr(1))
	g.declaring = ""
	g.sb.WriteString("  gtick = gtick + 1;\n")
	for k := 0; k <= g.rng.Intn(3); k++ {
		g.loop("  ", 2+g.rng.Intn(2))
	}
	g.sb.WriteString("  gacc = gacc + acc + s;\n")
	g.sb.WriteString("  gbuf[0] = gacc;\n")
	g.sb.WriteString("  gbuf[n - 1] = gbuf[n - 1] + acc;\n")
	g.sb.WriteString("  return acc + s;\n}\n")
	return g.sb.String()
}

func diffArgs(n int, seed int64) []any {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	a, b, out := NewArray(n), NewArray(n, n), NewArray(n)
	for i := range a.Data {
		a.Data[i] = float64(rng.Intn(100)) * 0.125
	}
	for i := range b.Data {
		b.Data[i] = float64(rng.Intn(100)) * 0.375
	}
	for i := range out.Data {
		out.Data[i] = float64(rng.Intn(100)) * 0.0625
	}
	return []any{IntV(int64(n)), a, b, out}
}

// sameValue mirrors the in-package helper (this file is external so it
// can route the corpus through the autotuner).
func sameValue(a, b Value) bool {
	if a.IsInt != b.IsInt {
		return false
	}
	if a.IsInt {
		return a.I == b.I
	}
	return math.Float64bits(a.F) == math.Float64bits(b.F)
}

// usesPointerHelper reports whether a generated kernel calls a helper
// with a pointer parameter, the one call the bytecode does not splice.
func usesPointerHelper(src string) bool {
	return strings.Contains(src, "punch(&") || strings.Contains(src, "bump(&") ||
		strings.Contains(src, "tally(&")
}

func TestDifferentialGeneratedKernels(t *testing.T) {
	const corpus = 60
	compiled, lowered := 0, 0
	defer func() {
		if compiled != corpus {
			t.Errorf("%d of %d generated kernels compiled", compiled, corpus)
		}
		t.Logf("%d kernels compiled, %d of k lowered to bytecode", compiled, lowered)
	}()
	for seed := int64(0); seed < corpus; seed++ {
		src := generateDiffKernel(seed)
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			f, err := Parse(fmt.Sprintf("gen%d.c", seed), src)
			if err != nil {
				t.Fatalf("generator produced an unparsable kernel:\n%s\n%v", src, err)
			}
			prog, perr := Compile(f, WithMaxSteps(1<<30))
			if perr != nil {
				t.Fatalf("generated kernel rejected:\n%s\n%v", src, perr)
			}
			compiled++
			w := WalkerInst(t, f)
			w.SetMaxSteps(1 << 30)
			wArgs, cArgs, iArgs := diffArgs(8, seed), diffArgs(8, seed), diffArgs(8, seed)
			// After every call, each array outside k's write set must be as
			// the call found it: the fallback snapshot does not copy those.
			unchanged := GuardReadOnly(t, w, "k", wArgs)
			wv, werr := w.Call("k", wArgs...)
			unchanged("walker")
			// The engine path proper, through both entry points: Call on
			// one Instance, CallContext on another.
			ci := prog.NewInstance()
			unchanged = GuardReadOnly(t, ci, "k", cArgs)
			cv, cerr := ci.Call("k", cArgs...)
			unchanged("compiled")
			inst := prog.NewInstance()
			unchanged = GuardReadOnly(t, inst, "k", iArgs)
			iv, ierr := inst.CallContext(context.Background(), "k", iArgs...)
			unchanged("instance")
			if (werr == nil) != (cerr == nil) || (werr == nil) != (ierr == nil) {
				t.Fatalf("error divergence on:\n%s\nwalker=%v compiled=%v instance=%v",
					src, werr, cerr, ierr)
			}
			// The full opt-level axis: every variant from the generic
			// closures up through the O3 inliner/unroller must be
			// bit-identical to the oracle, faults included. The generated
			// helper calls (hint/hmix/punch/bump) are all inline
			// candidates, so O3 exercises slot relocation on every seed.
			type variantRun struct {
				name string
				args []any
				v    Value
				err  error
			}
			var variants []variantRun
			for _, lvl := range []OptLevel{O0, O1, O3} {
				vp, verr := prog.Variant(WithOptLevel(lvl))
				if verr != nil {
					t.Fatalf("Variant(%s): %v", lvl, verr)
				}
				args := diffArgs(8, seed)
				vi := vp.NewInstance()
				unchanged := GuardReadOnly(t, vi, "k", args)
				v, err := vi.Call("k", args...)
				unchanged(lvl.String())
				variants = append(variants, variantRun{lvl.String(), args, v, err})
			}
			// The flat-bytecode backend: lowered functions run the
			// register-machine dispatch loop, bailed ones their closure
			// fallback — both must match the oracle bit for bit, and the
			// step counter must agree exactly (the fused back edge and
			// the run forms' batched charges are the risky part).
			bp, bperr := prog.Variant(WithBackend(BackendBytecode), WithOptLevel(O3))
			if bperr != nil {
				t.Fatalf("Variant(bytecode): %v", bperr)
			}
			// Every kind is static, so k lowers unless it calls a helper
			// through a pointer parameter.
			if _, derr := Disassemble(bp, "k"); derr == nil {
				lowered++
			} else if !usesPointerHelper(src) {
				t.Fatalf("k calls no pointer helper but did not lower:\n%s\n%v", src, derr)
			}
			bArgs := diffArgs(8, seed)
			bi := bp.NewInstance()
			unchanged = GuardReadOnly(t, bi, "k", bArgs)
			bv, berr := bi.Call("k", bArgs...)
			unchanged("bytecode")
			variants = append(variants, variantRun{"bytecode", bArgs, bv, berr})
			if werr == nil && berr == nil && bi.LastCallSteps() != w.Steps() {
				t.Fatalf("bytecode step divergence on:\n%s\nwalker=%d bytecode=%d",
					src, w.Steps(), bi.LastCallSteps())
			}
			for _, vr := range variants {
				if (werr == nil) != (vr.err == nil) {
					t.Fatalf("%s error divergence on:\n%s\nwalker=%v variant=%v",
						vr.name, src, werr, vr.err)
				}
			}
			// The tuner-routed path: every arm of the default grid, each
			// behind a single-arm tuner, runs a batch of the seed through
			// CallBatch — the leader and its riders on one pooled session —
			// and every entry must stay bit-exact with the walker, error
			// outcomes included.
			for _, spec := range autotune.DefaultGrid() {
				tn, tnerr := autotune.New(prog, autotune.WithGrid(spec), autotune.WithSeed(uint64(seed)+1))
				if tnerr != nil {
					t.Fatalf("autotune.New(%v): %v", spec, tnerr)
				}
				batch := make([]autotune.BatchCall, 3)
				for i := range batch {
					batch[i].Args = diffArgs(8, seed)
				}
				if err := tn.CallBatch("k", batch); err != nil {
					t.Fatalf("%v CallBatch: %v", spec, err)
				}
				for e, b := range batch {
					if (werr == nil) != (b.Err == nil) {
						t.Fatalf("tuner %v entry %d error divergence on:\n%s\nwalker=%v tuner=%v",
							spec, e, src, werr, b.Err)
					}
					if werr != nil {
						continue
					}
					if !sameValue(wv, b.Ret) {
						t.Fatalf("tuner %v entry %d return divergence on:\n%s\nwalker=%+v tuner=%+v",
							spec, e, src, wv, b.Ret)
					}
					for i := 1; i < len(wArgs); i++ {
						wa, ta := wArgs[i].(*Array), b.Args[i].(*Array)
						for k := range wa.Data {
							if math.Float64bits(wa.Data[k]) != math.Float64bits(ta.Data[k]) {
								t.Fatalf("tuner %v entry %d array %d diverges at flat index %d on:\n%s\nwalker=%g tuner=%g",
									spec, e, i, k, src, wa.Data[k], ta.Data[k])
							}
						}
					}
				}
			}
			if werr != nil {
				return
			}
			if !sameValue(wv, cv) || !sameValue(wv, iv) {
				t.Fatalf("return divergence on:\n%s\nwalker=%+v compiled=%+v instance=%+v",
					src, wv, cv, iv)
			}
			for _, vr := range variants {
				if !sameValue(wv, vr.v) {
					t.Fatalf("%s return divergence on:\n%s\nwalker=%+v variant=%+v",
						vr.name, src, wv, vr.v)
				}
			}
			for i := 1; i < len(wArgs); i++ {
				wa, ca, ia := wArgs[i].(*Array), cArgs[i].(*Array), iArgs[i].(*Array)
				for k := range wa.Data {
					if math.Float64bits(wa.Data[k]) != math.Float64bits(ca.Data[k]) {
						t.Fatalf("array %d diverges at flat index %d on:\n%s\nwalker=%g compiled=%g",
							i, k, src, wa.Data[k], ca.Data[k])
					}
					if math.Float64bits(wa.Data[k]) != math.Float64bits(ia.Data[k]) {
						t.Fatalf("array %d diverges at flat index %d on:\n%s\nwalker=%g instance=%g",
							i, k, src, wa.Data[k], ia.Data[k])
					}
					for _, vr := range variants {
						va := vr.args[i].(*Array)
						if math.Float64bits(wa.Data[k]) != math.Float64bits(va.Data[k]) {
							t.Fatalf("%s array %d diverges at flat index %d on:\n%s\nwalker=%g variant=%g",
								vr.name, i, k, src, wa.Data[k], va.Data[k])
						}
					}
				}
			}
		})
	}
}

package cminor

import (
	"slices"
	"sync"
	"testing"
)

// Cold-path pins: what building a kernel allocates before its first
// call. Compile resolves and builds function shells, and lowers nothing
// until the program is first used; Variant lowers at once; the
// lowerers' scratch (subscript chains, loop sets, the bytecode's
// buffers) allocates nothing per access.

// compileShellAllocs is what Compile allocates beyond Resolve: the
// option set, the Program, its function map (header and one group) and
// one array of function shells.
const compileShellAllocs = 5

// TestCompileAllocatesOnlyShells pins that Compile lowers nothing: on
// every benchmark kernel it allocates at most what Resolve does, plus
// the function shells.
func TestCompileAllocatesOnlyShells(t *testing.T) {
	for _, k := range BenchKernels {
		f := MustParse(k.File, k.Src)
		resolve := testing.AllocsPerRun(20, func() {
			if _, err := Resolve(f); err != nil {
				t.Fatal(err)
			}
		})
		compile := testing.AllocsPerRun(20, func() {
			if _, err := Compile(f); err != nil {
				t.Fatal(err)
			}
		})
		if compile > resolve+compileShellAllocs {
			t.Errorf("%s: Compile allocates %.0f, want at most Resolve's %.0f + %d shells",
				k.Name, compile, resolve, compileShellAllocs)
		}
	}
}

// TestCompiledProgramLowersOnFirstUse pins when a compiled program's
// bodies are lowered: none by Compile, all by the first NewInstance, and
// none again after — a later NewInstance costs what one of a program
// Variant lowered at once does, and Disassemble and BytecodeFuncs keep
// the very bytecode the first lowering made.
func TestCompiledProgramLowersOnFirstUse(t *testing.T) {
	arms := []struct {
		name string
		opts []Option
	}{
		{"O2", nil},
		{"bytecode", []Option{WithBackend(BackendBytecode), WithOptLevel(O3)}},
	}
	for _, k := range BenchKernels {
		f := MustParse(k.File, k.Src)
		for _, arm := range arms {
			prog, err := Compile(f, arm.opts...)
			if err != nil {
				t.Fatal(err)
			}
			for name, cf := range prog.funcs {
				if cf.body != nil {
					t.Errorf("%s/%s: Compile lowered %s", k.Name, arm.name, name)
				}
			}
			prog.NewInstance()
			first := map[string]*bcFunc{}
			for name, cf := range prog.funcs {
				if cf.body == nil {
					t.Errorf("%s/%s: the first NewInstance left %s unlowered", k.Name, arm.name, name)
				}
				first[name] = cf.bc
			}
			eager, err := prog.Variant()
			if err != nil {
				t.Fatal(err)
			}
			again := testing.AllocsPerRun(20, func() { prog.NewInstance() })
			want := testing.AllocsPerRun(20, func() { eager.NewInstance() })
			if again != want {
				t.Errorf("%s/%s: a second NewInstance allocates %.0f, want %.0f (a program lowered at once)",
					k.Name, arm.name, again, want)
			}
			if _, err := Disassemble(prog, k.Fn); arm.opts != nil && err != nil {
				t.Errorf("%s/%s: %v", k.Name, arm.name, err)
			}
			BytecodeFuncs(prog)
			for name, cf := range prog.funcs {
				if cf.bc != first[name] {
					t.Errorf("%s/%s: %s was lowered again", k.Name, arm.name, name)
				}
			}
		}
	}
}

// variantBytecodeAllocs bounds what building each benchmark kernel's
// bytecode arm allocates (Variant, with the lowerer's free list warm):
// the counts recorded when the lowerer's scratch stopped allocating,
// with about 10% headroom.
var variantBytecodeAllocs = map[string]float64{
	"gemm": 33, "jacobi": 32, "axpy": 17, "2mm": 56, "seidel2d": 25,
	"atax": 48, "mvt": 30, "trisolv": 32, "cholesky": 72, "norms": 55,
}

func TestVariantBytecodeAllocBound(t *testing.T) {
	for _, k := range BenchKernels {
		prog, err := Compile(MustParse(k.File, k.Src))
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if _, err := prog.Variant(WithBackend(BackendBytecode), WithOptLevel(O3)); err != nil {
				t.Fatal(err)
			}
		})
		if bound, ok := variantBytecodeAllocs[k.Name]; !ok || n > bound {
			t.Errorf("%s: Variant(bytecode) allocates %.0f, bound %.0f", k.Name, n, bound)
		}
	}
}

// TestElementAccessScratchAllocatesNothing pins that splitting a
// subscript chain of rank 1 or 2 fills the caller's room, and that the
// walker reads an element without allocating.
func TestElementAccessScratchAllocatesNothing(t *testing.T) {
	f := MustParse("e.c", `double f(int n, int i, int j, double a[n][n], double v[n]) { return a[i][j + 1] + v[(i)]; }`)
	res, err := Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	var ixs []*IndexExpr
	Walk(f.Funcs[0].Body, func(n Node) bool {
		if ix, ok := n.(*IndexExpr); ok {
			ixs = append(ixs, ix)
			return false
		}
		return true
	})
	if len(ixs) != 2 {
		t.Fatalf("found %d element accesses, want 2", len(ixs))
	}
	for _, ix := range ixs {
		if n := testing.AllocsPerRun(50, func() {
			var buf [2]Expr
			if root, _ := splitIndexChain(ix, &buf); root == nil {
				t.Fatal("no root")
			}
		}); n != 0 {
			t.Errorf("splitIndexChain at %s allocates %.0f, want 0", ix.P, n)
		}
	}

	prog, err := Compile(f, WithBackend(BackendWalker))
	if err != nil {
		t.Fatal(err)
	}
	w := newWalker(res)
	fr := newWFrame(prog.NewInstance(), f.Funcs[0])
	i, j := IntV(1), IntV(0)
	fr.vars["i"] = wbinding{scalar: &i}
	fr.vars["j"] = wbinding{scalar: &j}
	fr.vars["a"] = wbinding{arr: NewArray(3, 3)}
	fr.vars["v"] = wbinding{arr: NewArray(3)}
	for _, ix := range ixs {
		if n := testing.AllocsPerRun(50, func() { w.elem(ix, fr) }); n != 0 {
			t.Errorf("walker element read at %s allocates %.0f, want 0", ix.P, n)
		}
	}
}

// TestDeferredLoweringRace takes fresh compiled programs, closure and
// bytecode, through their first use from several goroutines at once:
// each goroutine makes an Instance and calls the kernel, and
// disassembles the program or lists its bytecode functions, in an order
// that depends on the goroutine, so the one lowering races every path
// that triggers it. Every result must be bit-exact against one
// sequential run. It runs in make chaos under -race.
func TestDeferredLoweringRace(t *testing.T) {
	type outcome struct {
		v      Value
		arrays [][]float64
		dis    string
		funcs  []string
	}
	run := func(prog *Program, k BenchKernel, disFirst bool) (out outcome, err error) {
		introspect := func() {
			out.funcs = BytecodeFuncs(prog)
			if prog.Backend() == BackendBytecode {
				out.dis, err = Disassemble(prog, k.Fn)
			}
		}
		if disFirst {
			introspect()
		}
		args := k.Args()
		inst := prog.NewInstance()
		inst.SetMaxSteps(1 << 60)
		v, cerr := inst.Call(k.Fn, args...)
		if cerr != nil {
			return out, cerr
		}
		out.v = v
		for _, a := range args {
			if arr, ok := a.(*Array); ok {
				out.arrays = append(out.arrays, arr.Data)
			}
		}
		if !disFirst {
			introspect()
		}
		return out, err
	}
	const goroutines = 4
	for _, k := range BenchKernels {
		f := MustParse(k.File, k.Src)
		for _, opts := range [][]Option{nil, {WithBackend(BackendBytecode), WithOptLevel(O3)}} {
			seq, err := Compile(f, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(seq, k, false)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := Compile(f, opts...)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]outcome, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := range goroutines {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[g], errs[g] = run(prog, k, g%2 == 1)
				}()
			}
			wg.Wait()
			for g, o := range got {
				if errs[g] != nil {
					t.Errorf("%s/%s goroutine %d: %v", k.Name, prog.Backend(), g, errs[g])
					continue
				}
				same := sameValue(o.v, want.v) && o.dis == want.dis && slices.Equal(o.funcs, want.funcs) &&
					slices.EqualFunc(o.arrays, want.arrays, floatBitsEqual)
				if !same {
					t.Errorf("%s/%s goroutine %d: result differs from the sequential run", k.Name, prog.Backend(), g)
				}
			}
		}
	}
}

package cminor

import (
	"slices"
	"testing"
	"time"
)

// Benchmarks comparing the original tree-walking interpreter (the
// walker backend) against the compiled resolve → compile → execute pipeline (an Instance
// of a default-compiled Program) on representative Polybench-shaped
// kernels. Run with:
//
//	go test ./internal/cminor -bench . -benchmem
//
// The kernel sources and canonical argument builders live in
// kernels.go (BenchKernels) so the autotuning layer's benchmarks can
// sweep the same corpus. The step budget is lifted so long benchmark
// runs never trip the runaway guard.

func BenchmarkGemmWalker(b *testing.B) {
	const n = 32
	w := walkerInst(b, MustParse("gemm.c", benchGemmSrc))
	w.SetMaxSteps(1 << 62)
	args := benchGemmArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Call("gemm", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGemmCompiled(b *testing.B) {
	const n = 32
	in := newInst(b, MustParse("gemm.c", benchGemmSrc), WithMaxSteps(1<<62))
	args := benchGemmArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("gemm", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiWalker(b *testing.B) {
	const n = 48
	w := walkerInst(b, MustParse("jacobi.c", benchJacobiSrc))
	w.SetMaxSteps(1 << 62)
	args := benchJacobiArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Call("jacobi", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJacobiCompiled(b *testing.B) {
	const n = 48
	in := newInst(b, MustParse("jacobi.c", benchJacobiSrc), WithMaxSteps(1<<62))
	args := benchJacobiArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("jacobi", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAxpyWalker(b *testing.B) {
	const n = 4096
	w := walkerInst(b, MustParse("axpy.c", benchAxpySrc))
	w.SetMaxSteps(1 << 62)
	x, y := benchVector(n), benchVector(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Call("axpy", IntV(n), FloatV(2.0), x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAxpyCompiled(b *testing.B) {
	const n = 4096
	in := newInst(b, MustParse("axpy.c", benchAxpySrc), WithMaxSteps(1<<62))
	x, y := benchVector(n), benchVector(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("axpy", IntV(n), FloatV(2.0), x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark2mmWalker(b *testing.B) {
	const n = 24
	w := walkerInst(b, MustParse("2mm.c", bench2mmSrc))
	w.SetMaxSteps(1 << 62)
	args := bench2mmArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Call("mm2", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func Benchmark2mmCompiled(b *testing.B) {
	const n = 24
	in := newInst(b, MustParse("2mm.c", bench2mmSrc), WithMaxSteps(1<<62))
	args := bench2mmArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("mm2", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeidel2dWalker(b *testing.B) {
	const n = 48
	w := walkerInst(b, MustParse("seidel.c", benchSeidelSrc))
	w.SetMaxSteps(1 << 62)
	args := benchSeidelArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Call("seidel2d", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeidel2dCompiled(b *testing.B) {
	const n = 48
	in := newInst(b, MustParse("seidel.c", benchSeidelSrc), WithMaxSteps(1<<62))
	args := benchSeidelArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("seidel2d", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtaxWalker(b *testing.B) {
	const n = 48
	w := walkerInst(b, MustParse("atax.c", benchAtaxSrc))
	w.SetMaxSteps(1 << 62)
	args := benchAtaxArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Call("atax", args...); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAtaxCompiled(b *testing.B) {
	const n = 48
	in := newInst(b, MustParse("atax.c", benchAtaxSrc), WithMaxSteps(1<<62))
	args := benchAtaxArgs(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Call("atax", args...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptLevels sweeps every corpus kernel across O0–O3 plus the
// O4 flat-bytecode backend, one benchmark per (kernel, variant) — the
// design-space sample SOCRATES' design-time exploration assumes, and the
// static baseline the autotuner's online selection starts from. The
// O3-noinline row clears PassInline: it is the evidence the PassMask
// doc comment cites for keeping that pass.
func BenchmarkOptLevels(b *testing.B) {
	variants := []struct {
		label string
		opts  []Option
	}{
		{"O0", []Option{WithOptLevel(O0)}},
		{"O1", []Option{WithOptLevel(O1)}},
		{"O2", []Option{WithOptLevel(O2)}},
		{"O3", []Option{WithOptLevel(O3)}},
		{"O3-noinline", []Option{WithOptLevel(O3), WithPasses(AllPasses &^ PassInline)}},
		{"O4", []Option{WithBackend(BackendBytecode), WithOptLevel(O3)}},
	}
	for _, k := range BenchKernels {
		prog, err := Compile(MustParse(k.File, k.Src), WithMaxSteps(1<<62))
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range variants {
			vp, err := prog.Variant(v.opts...)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(k.Name+"/"+v.label, func(b *testing.B) {
				inst := vp.NewInstance()
				pristine := k.Args()
				var sets [optLevelBatch][]any
				for i := range sets {
					sets[i] = k.Args()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%len(sets) == 0 {
						b.StopTimer()
						for _, args := range sets {
							restoreArrays(args, pristine)
						}
						b.StartTimer()
					}
					if _, err := inst.Call(k.Fn, sets[i%len(sets)]...); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for _, args := range sets {
					if i, j := nanElem(args); i >= 0 {
						b.Fatalf("argument %d holds NaN at %d after the last call", i, j)
					}
				}
			})
		}
	}
}

// BenchmarkFallbackTax prices the fallback snapshot on every corpus
// kernel. Each op is two calls of the O3 bytecode, one with WithFallback
// off and one with it on, in alternating order, each on an argument
// set restored just before it and timed on its own, so both sides see
// the same box at the same moment. It reports the median call of each side (off-ns, on-ns) and
// their difference (tax-ns): what containment costs a call, the copy
// of the global frame and of the arrays the kernel can write
// (FuncInfo.Writes).
func BenchmarkFallbackTax(b *testing.B) {
	for _, k := range BenchKernels {
		var insts [2]*Instance
		for i, on := range []bool{false, true} {
			prog, err := Compile(MustParse(k.File, k.Src), WithBackend(BackendBytecode), WithOptLevel(O3),
				WithFallback(on), WithMaxSteps(1<<62))
			if err != nil {
				b.Fatal(err)
			}
			insts[i] = prog.NewInstance()
		}
		b.Run(k.Name, func(b *testing.B) {
			pristine, args := k.Args(), k.Args()
			times := [2][]float64{make([]float64, b.N), make([]float64, b.N)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range insts {
					side := (i + j) % len(insts) // alternate which side goes first
					inst := insts[side]
					restoreArrays(args, pristine)
					start := time.Now()
					if _, err := inst.Call(k.Fn, args...); err != nil {
						b.Fatal(err)
					}
					times[side][i] = float64(time.Since(start).Nanoseconds())
				}
			}
			b.StopTimer()
			off, on := median(times[0]), median(times[1])
			b.ReportMetric(off, "off-ns")
			b.ReportMetric(on, "on-ns")
			b.ReportMetric(on-off, "tax-ns")
		})
	}
}

// median returns the middle value of xs, sorting it in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// optLevelBatch is how many argument sets BenchmarkOptLevels restores
// while its timer is stopped: each call runs on a set of its own, and the
// calls of one batch are timed as one block, so that stopping the timer
// (which reads the memory statistics, stopping the world) is paid once
// per batch, not once per sub-microsecond call.
const optLevelBatch = 16

// restoreArrays copies every array of pristine back into the array at
// the same position of args: the kernels write into their arguments, and
// a call on its own output (cholesky re-factoring its factor) computes on
// values no request sees.
func restoreArrays(args, pristine []any) {
	for i, a := range args {
		if arr, ok := a.(*Array); ok {
			copy(arr.Data, pristine[i].(*Array).Data)
		}
	}
}

// nanElem returns the position of the first NaN element in the arrays of
// args, or -1, -1.
func nanElem(args []any) (arg, elem int) {
	for i, a := range args {
		if arr, ok := a.(*Array); ok {
			for j, v := range arr.Data {
				if v != v {
					return i, j
				}
			}
		}
	}
	return -1, -1
}

// BenchmarkCompileGemm measures one-time pipeline cost: Compile
// (resolve) and the first NewInstance (closure lowering), paid once per
// program, not per call.
func BenchmarkCompileGemm(b *testing.B) {
	f := MustParse("gemm.c", benchGemmSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := Compile(f)
		if err != nil {
			b.Fatal(err)
		}
		prog.NewInstance()
	}
}

// Parallel benchmarks: one *Program (lowered once, on first use)
// shared by every goroutine, one pooled Instance (and argument set) per
// goroutine. Throughput should scale with GOMAXPROCS since instances
// share no mutable state.

func benchParallel(b *testing.B, src, file, fn string, mkArgs func() []any) {
	b.Helper()
	prog, err := Compile(MustParse(file, src), WithMaxSteps(1<<62))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		inst := prog.NewInstance()
		args := mkArgs()
		for pb.Next() {
			if _, err := inst.Call(fn, args...); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkGemmParallel(b *testing.B) {
	benchParallel(b, benchGemmSrc, "gemm.c", "gemm", func() []any { return benchGemmArgs(32) })
}

func BenchmarkJacobiParallel(b *testing.B) {
	benchParallel(b, benchJacobiSrc, "jacobi.c", "jacobi", func() []any { return benchJacobiArgs(48) })
}

func BenchmarkAxpyParallel(b *testing.B) {
	benchParallel(b, benchAxpySrc, "axpy.c", "axpy", func() []any {
		return []any{IntV(4096), FloatV(2.0), benchVector(4096), benchVector(4096)}
	})
}

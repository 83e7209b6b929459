package autotune

import (
	"path/filepath"
	"testing"

	cm "socrates/internal/cminor"
)

// coldStartCalls is how many calls each half of an episode makes, as in
// the startup workload of the benchmark harness (bench/startup.go):
// enough for the default grid's measure phase to finish.
const coldStartCalls = 60

// BenchmarkColdStart prices one start-up episode of each benchmark
// kernel, shaped like the startup workload: Parse → Compile → New → 60
// calls from cold → SaveTo, then Parse → Compile → New → LoadFrom → 60
// calls warm. Each call runs on the kernel's canonical arguments,
// restored before it. B/op and allocs/op are what one cold start plus
// its warm restart allocate.
func BenchmarkColdStart(b *testing.B) {
	for _, k := range cm.BenchKernels {
		b.Run(k.Name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), k.Name+".tune")
			args := k.Args()
			var arrays, pristine [][]float64
			for _, a := range args {
				if arr, ok := a.(*cm.Array); ok {
					arrays = append(arrays, arr.Data)
					pristine = append(pristine, append([]float64(nil), arr.Data...))
				}
			}
			half := func(seed uint64, load bool) *AutoTuner {
				f, err := cm.Parse(k.File, k.Src)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := cm.Compile(f)
				if err != nil {
					b.Fatal(err)
				}
				tn, err := New(prog, WithSeed(seed))
				if err != nil {
					b.Fatal(err)
				}
				if load {
					if _, err := tn.LoadFrom(path); err != nil {
						b.Fatal(err)
					}
				}
				for c := 0; c < coldStartCalls; c++ {
					for i, d := range arrays {
						copy(d, pristine[i])
					}
					if _, err := tn.Call(k.Fn, args...); err != nil {
						b.Fatal(err)
					}
				}
				return tn
			}
			b.ReportAllocs()
			for seed := uint64(0); b.Loop(); seed++ {
				if err := half(seed, false).SaveTo(path); err != nil {
					b.Fatal(err)
				}
				half(seed, true)
			}
		})
	}
}

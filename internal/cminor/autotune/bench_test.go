package autotune

import (
	"path/filepath"
	"runtime"
	"testing"

	cm "socrates/internal/cminor"
)

// coldStartCalls is how many calls each half of an episode makes, as in
// the startup workload of the benchmark harness (bench/startup.go):
// enough for the default grid's measure phase to finish.
const coldStartCalls = 60

// coldStages counts the heap allocations of an episode's stages: the
// front end (per half), the cold half after it (New and its calls, every
// arm lowered as the survey reaches it) and the warm half after it
// (New, LoadFrom and the calls, the winner's arm lowered).
type coldStages struct {
	parse, compile, cold, warm uint64
}

// BenchmarkColdStart prices one start-up episode of each benchmark
// kernel, shaped like the startup workload: Parse → Compile → New → 60
// calls from cold → SaveTo, then Parse → Compile → New → LoadFrom → 60
// calls warm. Each call runs on the kernel's canonical arguments,
// restored before it. B/op and allocs/op are what one cold start plus
// its warm restart allocate. parse-allocs, compile-allocs (each per
// half), cold-allocs and warm-allocs split the allocations by stage;
// they are counted on episodes run before the timed ones, since reading
// the counters stops the world.
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
			// count runs f, adding what it allocates to *n when n is not nil.
			count := func(n *uint64, f func()) {
				if n == nil {
					f()
					return
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				f()
				runtime.ReadMemStats(&after)
				*n += after.Mallocs - before.Mallocs
			}
			half := func(seed uint64, load bool, parse, compile, rest *uint64) *AutoTuner {
				var f *cm.File
				var prog *cm.Program
				var tn *AutoTuner
				var err error
				count(parse, func() { f, err = cm.Parse(k.File, k.Src) })
				if err != nil {
					b.Fatal(err)
				}
				count(compile, func() { prog, err = cm.Compile(f) })
				if err != nil {
					b.Fatal(err)
				}
				count(rest, func() {
					if tn, err = New(prog, WithSeed(seed)); err != nil {
						return
					}
					if load {
						if _, err = tn.LoadFrom(path); err != nil {
							return
						}
					}
					for c := 0; c < coldStartCalls; c++ {
						for i, d := range arrays {
							copy(d, pristine[i])
						}
						if _, err = tn.Call(k.Fn, args...); err != nil {
							return
						}
					}
				})
				if err != nil {
					b.Fatal(err)
				}
				return tn
			}
			episode := func(seed uint64, st *coldStages) {
				var parse, compile, cold, warm *uint64
				if st != nil {
					parse, compile, cold, warm = &st.parse, &st.compile, &st.cold, &st.warm
				}
				if err := half(seed, false, parse, compile, cold).SaveTo(path); err != nil {
					b.Fatal(err)
				}
				half(seed, true, parse, compile, warm)
			}
			// One episode first, uncounted: the runtime's first-use costs
			// are not the episode's.
			const counted = 5
			episode(0, nil)
			var st coldStages
			for seed := uint64(1); seed <= counted; seed++ {
				episode(seed, &st)
			}
			b.ReportAllocs()
			for seed := uint64(counted + 1); b.Loop(); seed++ {
				episode(seed, nil)
			}
			b.ReportMetric(float64(st.parse)/(2*counted), "parse-allocs")
			b.ReportMetric(float64(st.compile)/(2*counted), "compile-allocs")
			b.ReportMetric(float64(st.cold)/counted, "cold-allocs")
			b.ReportMetric(float64(st.warm)/counted, "warm-allocs")
		})
	}
}

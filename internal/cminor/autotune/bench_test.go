package autotune_test

import (
	"testing"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// BenchmarkAutotuned records, for every corpus kernel, the tuner's
// steady-state throughput next to the best and worst static variants
// of the same grid — the headline claim of the runtime layer: tuned ≈
// best-static (within the residual exploration tax), while a wrong
// static choice is measurably slower.
func BenchmarkAutotuned(b *testing.B) {
	grid := autotune.DefaultGrid()
	for _, k := range cm.BenchKernels {
		prog, err := cm.Compile(cm.MustParse(k.File, k.Src), cm.WithMaxSteps(1<<62))
		if err != nil {
			b.Fatal(err)
		}
		// Rank the static variants with a quick pre-measurement (outside
		// any timed region): 1 warm-up + best-of-3 per grid arm.
		insts := make([]*cm.Instance, len(grid))
		costs := make([]time.Duration, len(grid))
		for i, spec := range grid {
			vp, err := prog.Variant(cm.WithBackend(spec.Backend),
				cm.WithOptLevel(spec.Opt), cm.WithPasses(spec.Passes))
			if err != nil {
				b.Fatal(err)
			}
			insts[i] = vp.NewInstance()
			args := k.Args()
			if _, err := insts[i].Call(k.Fn, args...); err != nil {
				b.Fatal(err)
			}
			best := time.Duration(1 << 62)
			for r := 0; r < 3; r++ {
				t0 := time.Now()
				if _, err := insts[i].Call(k.Fn, args...); err != nil {
					b.Fatal(err)
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			costs[i] = best
		}
		bestIdx, worstIdx := 0, 0
		for i := range costs {
			if costs[i] < costs[bestIdx] {
				bestIdx = i
			}
			if costs[i] > costs[worstIdx] {
				worstIdx = i
			}
		}

		runStatic := func(name string, inst *cm.Instance) {
			b.Run(k.Name+"/"+name, func(b *testing.B) {
				args := k.Args()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := inst.Call(k.Fn, args...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}

		b.Run(k.Name+"/tuned", func(b *testing.B) {
			// Steady-state settings: a thin exploration tax, a slow EWMA
			// (single scheduling spikes shouldn't move the estimate), and
			// a wide drift band — on a busy 1-CPU CI box, jitter-triggered
			// reopens would otherwise send whole measure rounds to the
			// slow arms and dominate the tuned-vs-best gap.
			tn, err := autotune.New(prog,
				autotune.WithMinSamples(5),
				autotune.WithEpsilon(0.002),
				autotune.WithEWMAAlpha(0.1),
				autotune.WithDriftFactor(4.0),
				autotune.WithSeed(1),
			)
			if err != nil {
				b.Fatal(err)
			}
			args := k.Args()
			// Converge before timing: the measure phase plus a little
			// exploit warm-up, so ns/op reflects the steady state.
			for i := 0; i < len(grid)*5+20; i++ {
				if _, err := tn.Call(k.Fn, args...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tn.Call(k.Fn, args...); err != nil {
					b.Fatal(err)
				}
			}
		})
		runStatic("best-static", insts[bestIdx])
		runStatic("worst-static", insts[worstIdx])
	}
}

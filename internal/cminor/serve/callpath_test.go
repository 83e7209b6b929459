package serve_test

import (
	"context"
	"slices"
	"testing"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
	"socrates/internal/cminor/serve"
)

// callPathSrc holds three functions that do next to nothing, so a call
// to one is all fixed path: one reads its argument array, one writes
// it, and one writes a global.
const callPathSrc = `
double g;
double rd(int n, double a[n]) { return a[0]; }
double wr(int n, double a[n]) { a[0] = 1.0 - a[0]; return a[0]; }
double wg(int n, double a[n]) { g = a[0]; return g; }
`

// callPathWarm is how many calls each row makes before it is timed:
// enough for a one-arm tuner to converge and for the pools to fill.
const callPathWarm = 200

// BenchmarkCallPath is the ladder of a request's fixed cost, one row per
// layer a call crosses, on the same arguments:
//
//	instance/fallback=off  a direct Instance.Call       (off-ns)
//	instance/fallback=on   the same, built as a tuner
//	                       builds its arms               (on-ns)
//	tuner                  a converged one-arm
//	                       AutoTuner's Call              (tuner-ns)
//	submit_wait            Submit + Wait on a started
//	                       default Server                (submit-wait-ns)
//	do                     Do on the same Server         (do-ns)
//
// Each function runs on the O3 closures and on the bytecode (the
// benchmark fails if a function does not lower to bytecode), one
// sub-benchmark per function and arm. An op calls every row once, in an
// order that rotates from op to op, and times each call on its own, so
// all five rows see the same box at the same moment, as
// BenchmarkFallbackTax alternates its two sides. It reports each row's
// median call and two rungs, each the difference of two rows' medians:
// tuner-rung-ns (tuner − fallback=on, what the tuner adds) and
// serve-rung-ns (do − tuner, what the server adds).
//
// One caller drives an otherwise idle server, so a worker woken for a
// request runs at once on another CPU and costs the caller little:
// the serve rows price the caller's path, not contention.
func BenchmarkCallPath(b *testing.B) {
	prog, err := cm.Compile(cm.MustParse("callpath.c", callPathSrc), cm.WithMaxSteps(1<<62))
	if err != nil {
		b.Fatal(err)
	}
	for _, arm := range []autotune.VariantSpec{
		{Opt: cm.O3, Passes: cm.AllPasses},
		{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses},
	} {
		benchCallPathArm(b, prog, arm)
	}
}

func benchCallPathArm(b *testing.B, prog *cm.Program, arm autotune.VariantSpec) {
	var insts [2]*cm.Instance
	for i, fallback := range []bool{false, true} {
		vp, err := prog.Variant(cm.WithBackend(arm.Backend), cm.WithOptLevel(arm.Opt),
			cm.WithPasses(arm.Passes), cm.WithFallback(fallback))
		if err != nil {
			b.Fatal(err)
		}
		insts[i] = vp.NewInstance()
		if arm.Backend == cm.BackendBytecode {
			for _, fn := range vp.Funcs() {
				if _, err := cm.Disassemble(vp, fn); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	tn, err := autotune.New(prog, autotune.WithGrid(arm))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.New()
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Host(prog, autotune.WithGrid(arm)); err != nil {
		b.Fatal(err)
	}
	srv.Start()

	ctx := context.Background()
	for _, fn := range []string{"rd", "wr", "wg"} {
		args := []any{cm.IntV(1), cm.NewArray(1)}
		req := serve.Request{Tenant: "t0", Function: fn, Args: args}
		rows := []struct {
			metric string
			call   func() error
		}{
			{"off-ns", func() error { _, err := insts[0].Call(fn, args...); return err }},
			{"on-ns", func() error { _, err := insts[1].Call(fn, args...); return err }},
			{"tuner-ns", func() error { _, err := tn.Call(fn, args...); return err }},
			{"submit-wait-ns", func() error {
				p, err := srv.Submit(ctx, req)
				if err != nil {
					return err
				}
				return p.Wait().Err
			}},
			{"do-ns", func() error { _, err := srv.Do(ctx, req); return err }},
		}
		b.Run(fn+"/"+arm.String(), func(b *testing.B) {
			for _, row := range rows {
				for i := 0; i < callPathWarm; i++ {
					if err := row.call(); err != nil {
						b.Fatal(err)
					}
				}
			}
			times := make([][]float64, len(rows))
			for r := range times {
				times[r] = make([]float64, b.N)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range rows {
					r := (i + j) % len(rows) // rotate which row goes first
					start := time.Now()
					if err := rows[r].call(); err != nil {
						b.Fatal(err)
					}
					times[r][i] = float64(time.Since(start).Nanoseconds())
				}
			}
			b.StopTimer()
			med := make([]float64, len(rows))
			for r, row := range rows {
				med[r] = median(times[r])
				b.ReportMetric(med[r], row.metric)
			}
			b.ReportMetric(med[2]-med[1], "tuner-rung-ns")
			b.ReportMetric(med[4]-med[2], "serve-rung-ns")
		})
	}
}

// median returns the middle value of xs, sorting it in place.
func median(xs []float64) float64 {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

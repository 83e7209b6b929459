package serve_test

import (
	"context"
	"testing"

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
//	instance/fallback=off  a direct Instance.Call
//	instance/fallback=on   the same, built as a tuner builds its arms
//	tuner                  a converged one-arm AutoTuner's Call
//	submit_wait            Submit + Wait on a started default Server
//	do                     Do on the same Server
//
// The difference between adjacent rows is what a layer costs. Each
// function runs on the O3 closures and on the bytecode (the benchmark
// fails if a function does not lower to bytecode).
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
			name string
			call func() error
		}{
			{"instance/fallback=off", func() error { _, err := insts[0].Call(fn, args...); return err }},
			{"instance/fallback=on", func() error { _, err := insts[1].Call(fn, args...); return err }},
			{"tuner", func() error { _, err := tn.Call(fn, args...); return err }},
			{"submit_wait", func() error {
				p, err := srv.Submit(ctx, req)
				if err != nil {
					return err
				}
				return p.Wait().Err
			}},
			{"do", func() error { _, err := srv.Do(ctx, req); return err }},
		}
		for _, row := range rows {
			b.Run(fn+"/"+arm.String()+"/"+row.name, func(b *testing.B) {
				for i := 0; i < callPathWarm; i++ {
					if err := row.call(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				for b.Loop() {
					if err := row.call(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

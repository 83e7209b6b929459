package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
	"socrates/internal/cminor/serve"
)

// The per-layer numbers of a traced run. Each comes from timing calls
// into one package's public functions from outside: either from the
// spans of the workload that exercises the layer, or from a probe that
// calls the layer on its own, on the same pre-built arguments.

// layerMetrics collects per-layer values by manifest name.
type layerMetrics map[string]float64

// fold joins per-kernel values into one: the geometric mean, or the
// plain mean when a value is not positive (a difference, a zero wait).
func fold(xs []float64) float64 {
	if g := geomean(xs); !math.IsNaN(g) {
		return g
	}
	return mean(xs)
}

// timeCalls runs prep (untimed, may be nil) then call (timed) until
// slice has passed, at least eight times, and returns each call's
// duration in reference-box microseconds (calib.go), ascending.
func timeCalls(slice time.Duration, prep func(), call func() error) ([]float64, error) {
	if prep == nil {
		prep = func() {}
	}
	us, err := timeInterleaved(slice, prep, []func() error{call})
	if err != nil {
		return nil, err
	}
	return us[0], nil
}

// probeCal calibrates the probes, which all run on one goroutine.
var probeCal = newCalibrator()

// scaled converts nanosecond samples to ascending reference-box
// microseconds.
func scaled(ns []int64, factor float64) []float64 {
	us := micros(ns)
	for i := range us {
		us[i] *= factor
	}
	return us
}

// timeInterleaved is timeCalls for several calls that are to be
// compared with one another: they take turns in chunks of eight until
// slice has passed for each, so that drift in the box (frequency, a
// noisy neighbour) falls on all of them alike.
func timeInterleaved(slice time.Duration, prep func(), calls []func() error) ([][]float64, error) {
	ns := make([][]int64, len(calls))
	before := probeCal.factor()
	for end := time.Now().Add(slice * time.Duration(len(calls))); len(ns[0]) == 0 || time.Now().Before(end); {
		for j, call := range calls {
			for c := 0; c < 8; c++ {
				prep()
				t0 := time.Now()
				err := call()
				ns[j] = append(ns[j], int64(time.Since(t0)))
				if err != nil {
					return nil, err
				}
			}
		}
	}
	factor := (before + probeCal.factor()) / 2
	out := make([][]float64, len(calls))
	for j := range ns {
		out[j] = scaled(ns[j], factor)
	}
	return out, nil
}

// mallocsDuring reports the heap allocations f makes.
func mallocsDuring(f func() error) (uint64, error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, err
}

func compileStatic(k *kernel) (*cm.Program, error) {
	f, err := cm.Parse(k.File, k.Src)
	if err != nil {
		return nil, err
	}
	// Static instances are not pooled, so their step count accumulates
	// over the probe's calls; lift the runaway guard out of the way.
	return cm.Compile(f, cm.WithMaxSteps(1<<62))
}

func variantOf(prog *cm.Program, spec autotune.VariantSpec, fallback bool) (*cm.Program, error) {
	return prog.Variant(cm.WithBackend(spec.Backend), cm.WithOptLevel(spec.Opt),
		cm.WithPasses(spec.Passes), cm.WithFallback(fallback))
}

// staticTable is the exec probe's result: the median Instance.Call
// time of every kernel on every arm of the default grid.
type staticTable struct {
	grid  []autotune.VariantSpec
	names []string    // kernel names, in row order
	us    [][]float64 // [kernel][arm]
}

// bestSpec is the arm on which the named kernel's static call was
// fastest.
func (t *staticTable) bestSpec(kernel string) autotune.VariantSpec {
	arm, _ := t.best(slices.Index(t.names, kernel))
	return t.grid[arm]
}

func (t *staticTable) best(k int) (arm int, us float64) {
	for a, v := range t.us[k] {
		if a == 0 || v < us {
			arm, us = a, v
		}
	}
	return arm, us
}

func (t *staticTable) armOf(spec autotune.VariantSpec) int {
	for a, g := range t.grid {
		if g == spec {
			return a
		}
	}
	return -1
}

// execProbe times cminor on its own: Variant (lowering) and static
// Instance.Call for every kernel × arm, the fallback snapshot's cost on
// each kernel's fastest arm, and a pool checkout.
func execProbe(m layerMetrics, ks []*kernel, slice time.Duration) (*staticTable, error) {
	tab := &staticTable{grid: autotune.DefaultGrid(), us: make([][]float64, len(ks))}
	lower := make([][]float64, len(tab.grid))
	call := make([][]float64, len(tab.grid))
	var allocs, taxes, bests, getput []float64
	for i, k := range ks {
		f, err := cm.Parse(k.File, k.Src)
		if err != nil {
			return nil, err
		}
		prog, err := cm.Compile(f, cm.WithMaxSteps(1<<62))
		if err != nil {
			return nil, err
		}
		n, err := mallocsDuring(func() error { _, err := cm.Compile(f); return err })
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(n))

		a := k.newArgs()
		tab.names = append(tab.names, k.Name)
		tab.us[i] = make([]float64, len(tab.grid))
		for g, spec := range tab.grid {
			var vp *cm.Program
			us, err := timeCalls(slice/8, nil, func() (err error) { vp, err = variantOf(prog, spec, false); return err })
			if err != nil {
				return nil, err
			}
			lower[g] = append(lower[g], percentile(us, 50))
			inst := vp.NewInstance()
			us, err = timeCalls(slice, a.restore, func() error { _, err := inst.Call(k.Fn, a.args...); return err })
			if err != nil {
				return nil, err
			}
			tab.us[i][g] = percentile(us, 50)
			call[g] = append(call[g], tab.us[i][g])
			if name := spec.String(); name == "O3" || name == "bytecode" {
				m["cminor.call_us."+k.Name+"."+name] = tab.us[i][g]
			}
		}
		arm, us := tab.best(i)
		bests = append(bests, us)
		// The snapshot tax on the fastest arm: the same variant built
		// without and with fallback, taking turns.
		var pair []func() error
		for _, fb := range []bool{false, true} {
			vp, err := variantOf(prog, tab.grid[arm], fb)
			if err != nil {
				return nil, err
			}
			inst := vp.NewInstance()
			pair = append(pair, func() error { _, err := inst.Call(k.Fn, a.args...); return err })
		}
		both, err := timeInterleaved(slice, a.restore, pair)
		if err != nil {
			return nil, err
		}
		taxes = append(taxes, percentile(both[1], 50)-percentile(both[0], 50))

		pool := prog.NewPool()
		const pairs = 1000
		us2, _ := timeCalls(slice/8, nil, func() error {
			for n := 0; n < pairs; n++ {
				pool.Put(pool.Get())
			}
			return nil
		})
		getput = append(getput, percentile(us2, 50)*1e3/pairs)
	}
	for g, spec := range tab.grid {
		m["cminor.variant_us."+spec.String()] = fold(lower[g])
		m["cminor.call_us."+spec.String()] = fold(call[g])
	}
	m["cminor.compile_allocs"] = mean(allocs)
	m["cminor.best_static_us"] = fold(bests)
	m["cminor.fallback_tax_us"] = mean(taxes)
	m["cminor.pool_getput_ns"] = fold(getput)
	return tab, nil
}

// tunerProbe times autotune on its own: converged default tuners called
// in a closed loop, one kernel after another.
func tunerProbe(m layerMetrics, ks []*kernel, seed uint64, slice time.Duration, tab *staticTable) (map[string]float64, error) {
	callUs := map[string]float64{}
	var tuned, over, batch, snapUs []float64
	var calls, mallocs uint64
	var pulls, explore, reopens int64
	picked := 0
	for i, k := range ks {
		tn, err := newTuner(k, seed)
		if err != nil {
			return nil, err
		}
		a := k.newArgs()
		run := func() error { _, err := tn.Call(k.Fn, a.args...); return err }
		for c := 0; c < convergeCalls; c++ {
			a.restore()
			if err := run(); err != nil {
				return nil, err
			}
		}
		before := tn.Snapshot()[0]
		var us []float64
		n, err := mallocsDuring(func() (err error) { us, err = timeCalls(slice, a.restore, run); return err })
		if err != nil {
			return nil, err
		}
		after := tn.Snapshot()[0]
		// timeCalls itself allocates only its growing sample slice.
		calls, mallocs = calls+uint64(len(us)), mallocs+n
		pulls += after.Pulls - before.Pulls
		explore += after.ExplorePulls - before.ExplorePulls
		reopens += int64(after.Reopens - before.Reopens)

		p50 := percentile(us, 50)
		callUs[k.Name] = p50
		m["autotune.call_us."+k.Name] = p50
		tuned = append(tuned, p50)
		if arm := tab.armOf(after.Best); arm >= 0 {
			over = append(over, p50-tab.us[i][arm])
			if _, best := tab.best(i); tab.us[i][arm] <= 1.05*best {
				picked++
			}
		}

		sets := make([]*argSet, 8)
		bc := make([]autotune.BatchCall, len(sets))
		for j := range sets {
			sets[j] = k.newArgs()
		}
		us, err = timeCalls(slice/4, func() {
			for j, s := range sets {
				s.restore()
				bc[j] = autotune.BatchCall{Args: s.args}
			}
		}, func() error { return tn.CallBatch(k.Fn, bc) })
		if err != nil {
			return nil, err
		}
		batch = append(batch, percentile(us, 50)/float64(len(sets)))

		us, _ = timeCalls(slice/16, nil, func() error { tn.Snapshot(); return nil })
		snapUs = append(snapUs, percentile(us, 50))
	}
	m["autotune.overhead_us"] = mean(over)
	m["autotune.regret_pct"] = (fold(tuned)/m["cminor.best_static_us"] - 1) * 100
	m["autotune.allocs_per_call"] = float64(mallocs) / float64(calls)
	m["autotune.explore_share"] = float64(explore) / float64(pulls)
	m["autotune.reopens_per_kcall"] = float64(reopens) / float64(pulls) * 1e3
	m["autotune.pick_best_share"] = float64(picked) / float64(len(ks))
	m["autotune.batch8_us_per_call"] = fold(batch)
	m["autotune.snapshot_us"] = fold(snapUs)
	return callUs, nil
}

// startupLayer reads the front-end, tuner-start and persist numbers off
// the spans of a traced startup run. Episode i ran kernel i mod
// len(ks), and its spans carry i as their request.
func startupLayer(m layerMetrics, run *tracedRun, nk int) {
	byKernel := func(name uint8) float64 {
		per := make([][]float64, nk)
		for _, sp := range run.tr.recorded() {
			if sp.name == name {
				k := int(sp.req) % nk
				per[k] = append(per[k], float64(sp.end-sp.start)/1e3)
			}
		}
		var meds []float64
		for _, xs := range per {
			if len(xs) > 0 {
				meds = append(meds, median(xs))
			}
		}
		return fold(meds)
	}
	m["cminor.parse_us"] = byKernel(spParse)
	m["cminor.compile_us"] = byKernel(spCompile)
	m["autotune.new_us"] = byKernel(spNew)
	m["autotune.cold_ms"] = byKernel(spCold) / 1e3
	m["autotune.warm_ms"] = byKernel(spWarm) / 1e3
	m["persist.save_us"] = byKernel(spSave)
	m["persist.load_us"] = byKernel(spLoad)
	m["persist.warm_gain_pct"] = (1 - m["autotune.warm_ms"]/m["autotune.cold_ms"]) * 100
	m["persist.log_bytes"] = float64(run.s.logBytes) / float64(run.s.attempted)
	m["persist.warm_hit_share"] = float64(run.s.warmHits) / float64(run.s.attempted)
}

// serveLayer derives the request-path numbers of the serving layer
// from a traced serve run: the per-request samples its clients kept and
// the server's own counters over the window.
func serveLayer(m layerMetrics, run *tracedRun, callUs map[string]float64) {
	s := run.s
	nk := len(s.lat)
	pick := func(f func(serveSample) int64) [][]int64 {
		per := make([][]int64, nk)
		for _, x := range s.serve {
			per[x.kernel] = append(per[x.kernel], f(x))
		}
		return per
	}
	kth := func(per [][]int64, p float64) float64 {
		var ps []float64
		for _, ns := range per {
			if len(ns) > 0 {
				ps = append(ps, percentile(micros(ns), p))
			}
		}
		return fold(ps)
	}
	wait := pick(func(x serveSample) int64 { return x.wait })
	m["serve.submit_us"] = kth(pick(func(x serveSample) int64 { return x.submit }), 50)
	m["serve.wait_p50_us"] = kth(wait, 50)
	m["serve.wait_p90_us"] = kth(wait, 90)
	m["serve.exec_p50_us"] = kth(pick(func(x serveSample) int64 { return x.total - x.wait }), 50)
	m["serve.wake_p50_us"] = kth(pick(func(x serveSample) int64 { return x.observed - x.total }), 50)
	var over []float64
	for i, ns := range pick(func(x serveSample) int64 { return x.observed }) {
		if len(ns) > 0 {
			over = append(over, percentile(micros(ns), 50)-callUs[run.ks[i].Name])
		}
	}
	m["serve.overhead_p50_us"] = mean(over)
	batched := 0
	for _, x := range s.serve {
		if x.batched > 1 {
			batched++
		}
	}
	m["serve.batched_share"] = float64(batched) / float64(len(s.serve))
	a, b := s.snap0, s.snap1
	m["serve.batch_mean"] = float64(b.BatchedCalls-a.BatchedCalls) / float64(b.Batches-a.Batches)
	m["serve.queue_ewma"] = b.QueueEWMA
	m["serve.rejected"] = float64(b.Rejected() - a.Rejected())
	m["serve.shed"] = float64(b.Shed() - a.Shed())
	m["serve.failed"] = float64(b.Failed - a.Failed)
	m["serve.degraded"] = float64(b.Degraded - a.Degraded)
}

// ladder climbs from a bare Instance.Call to Server.Do on the same
// kernels and the same arguments, one rung per layer; the difference
// between adjacent rungs is what the upper layer costs. Every rung runs
// the one arm the exec probe found fastest for the kernel (a one-arm
// grid leaves the tuners nothing to choose), and the rungs of a kernel
// take turns, so the differences are the layers' and not the box's. It
// also times the servers' own lifecycle calls on the way.
func ladder(m layerMetrics, ks []*kernel, seed uint64, slice time.Duration, tab *staticTable) error {
	ctx := context.Background()
	manual, err := serve.New(serve.WithWorkers(0))
	if err != nil {
		return err
	}
	defer manual.Close() // error paths; the timed close is below
	pooled, err := serve.New()
	if err != nil {
		return err
	}
	defer pooled.Close()
	pooled.Start()

	var hostUs []float64
	names := []string{"instance_us", "tuner_us", "batch1_us", "tick_us", "do_us"}
	meds := make([][]float64, len(names))
	for _, k := range ks {
		spec := tab.bestSpec(k.Name)
		pin := []autotune.Option{autotune.WithSeed(seed), autotune.WithGrid(spec)}
		prog, err := compileStatic(k)
		if err != nil {
			return err
		}
		// The bottom rung is built the way a tuner builds its arms:
		// fallback on.
		vp, err := variantOf(prog, spec, true)
		if err != nil {
			return err
		}
		inst := vp.NewInstance()
		tn, err := autotune.New(prog, pin...)
		if err != nil {
			return err
		}
		for _, srv := range []*serve.Server{manual, pooled} {
			t0 := time.Now()
			if _, err := srv.Host(prog, pin...); err != nil {
				return err
			}
			hostUs = append(hostUs, float64(time.Since(t0))/1e3)
		}
		a := k.newArgs()
		req := serve.Request{Tenant: "t0", Function: k.Fn, Args: a.args}
		one := make([]autotune.BatchCall, 1)
		rungs := []func() error{
			func() error { _, err := inst.Call(k.Fn, a.args...); return err },
			func() error { _, err := tn.Call(k.Fn, a.args...); return err },
			func() error {
				one[0] = autotune.BatchCall{Args: a.args}
				if err := tn.CallBatch(k.Fn, one); err != nil {
					return err
				}
				return one[0].Err
			},
			func() error {
				p, err := manual.Submit(ctx, req)
				if err != nil {
					return err
				}
				manual.Tick()
				return p.Wait().Err
			},
			func() error { _, err := pooled.Do(ctx, req); return err },
		}
		for c := 0; c < convergeCalls; c++ {
			for _, call := range rungs {
				a.restore()
				if err := call(); err != nil {
					return fmt.Errorf("ladder %s: %w", k.Name, err)
				}
			}
		}
		us, err := timeInterleaved(slice/time.Duration(len(ks)), a.restore, rungs)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", k.Name, err)
		}
		for r := range rungs {
			meds[r] = append(meds[r], percentile(us[r], 50))
		}
	}
	for r, name := range names {
		m["ladder."+name] = fold(meds[r])
	}
	us, _ := timeCalls(slice/16, nil, func() error { pooled.Snapshot(); return nil })
	m["serve.snapshot_us"] = percentile(us, 50)
	var closeUs []float64
	for _, srv := range []*serve.Server{manual, pooled} {
		t0 := time.Now()
		srv.Close()
		closeUs = append(closeUs, float64(time.Since(t0))/1e3)
	}
	m["serve.host_us"] = median(hostUs)
	m["serve.close_us"] = median(closeUs)
	return nil
}

// Command bench is the repository's performance gate: four workloads
// over the cminor → autotune → persist → serve stack, a fixed set of
// end-to-end metrics from an untraced run, and per-layer metrics from a
// separate traced run. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// outDir holds what runs leave behind: trace files, and the startup
// workload's tune logs while it runs. Relative, so it stays inside the
// checkout the harness was started from.
var outDir = filepath.Join("bench", "out")

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// tracedRun is one workload measured with spans on.
type tracedRun struct {
	ks []*kernel
	s  *samples
	tr *tracer
}

// newWorkload builds the named workload over freshly loaded kernels
// (the oracle runs here, outside every timed span).
func newWorkload(name string, seed uint64) (workload, []*kernel, error) {
	switch name {
	case "steady_direct":
		ks, err := loadKernels()
		return &steadyDirect{seed: seed, ks: ks}, ks, err
	case "startup":
		ks, err := loadKernels()
		dir := filepath.Join(outDir, fmt.Sprintf("tune-%d", os.Getpid()))
		return &startup{seed: seed, ks: ks, dir: dir}, ks, err
	case "serve_closed":
		ks, err := loadKernels(closedKernels...)
		return &serveClosed{seed: seed, ks: ks}, ks, err
	case "serve_open":
		ks, err := loadKernels()
		return &serveOpen{seed: seed, ks: ks}, ks, err
	}
	return nil, nil, fmt.Errorf("unknown workload %q", name)
}

// result is the last line of a run's output, in the gate's format.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pack checks that vals holds exactly the metrics of defs, all finite,
// and attaches their units.
func pack(defs []metricDef, vals map[string]float64) (map[string]measured, error) {
	out := make(map[string]measured, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s: no finite value (%v)", d.Name, v)
		}
		out[d.Name] = measured{v, d.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the manifest", name)
		}
	}
	return out, nil
}

// Set-up is repeated for setup_s, since single shots spread 20%: at
// least minSetUps times, and on until setUpBudget is spent or
// maxSetUps are done, so that the quick set-ups (60 ms on serve_closed)
// get the most repeats.
const (
	minSetUps   = 5
	maxSetUps   = 15
	setUpBudget = 2 * time.Second
)

// runUntraced is the gated run: set-up repeated, one full window, the
// end-to-end metrics.
func runUntraced(name string, o options) (*result, error) {
	w, _, err := newWorkload(name, o.seed)
	if err != nil {
		return nil, err
	}
	var times []float64
	cal := newCalibrator()
	for i, began := 0, time.Now(); i < minSetUps || (i < maxSetUps && time.Since(began) < setUpBudget); i++ {
		if i > 0 {
			w.tearDown()
		}
		before := cal.factor()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		took := time.Since(t0).Seconds()
		times = append(times, took*(before+cal.factor())/2)
	}
	defer w.tearDown()
	s, err := w.measure(secs(o.seconds), nil)
	if err != nil {
		return nil, err
	}
	vals := s.endToEnd(median(times))
	total, perK := s.count()
	fmt.Printf("%s  seed=%d  window=%.2fs  requests=%d  latency samples=%d (fewest per kernel %d)  set-ups=%d\n",
		name, o.seed, s.wall.Seconds(), s.attempted, total, perK, len(times))
	if p := highestPercentile(perK); p < 90 {
		fmt.Printf("  note: %d samples per kernel leave fewer than ten beyond p90; the highest percentile with ten is p%.0f\n", perK, p)
	}
	printMetrics(endToEnd, vals)
	fmt.Printf("  %-28s %14.6f ratio  (%d of %d)\n", "fail_share", float64(s.failed)/float64(s.attempted), s.failed, s.attempted)
	fmt.Printf("  %-28s %14.3f us\n", "harness.lat_p90_us", perKernel(s.lat, 90))
	fmt.Printf("  %-28s %14.3f us\n", "harness.lat_p99_us", perKernel(s.lat, 99))
	fmt.Printf("  %-28s %14.3f ratio  (mean over the window; 1 = the reference box, times above are in its units)\n", "harness.box_speed", s.speed)
	fmt.Printf("  %-28s %14.3f ratio  (CPU time the hypervisor kept from this machine; -1 = unknown)\n", "harness.steal_share", s.stolen)
	ms, err := pack(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	return &result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: ms}, nil
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runOnce sets the named workload up once and measures it for d with
// spans on; when plainFirst is set it first measures it for d with
// spans off, on the same set-up.
func runOnce(name string, seed uint64, d time.Duration, plainFirst bool) (run *tracedRun, plain *samples, err error) {
	w, ks, err := newWorkload(name, seed)
	if err != nil {
		return nil, nil, err
	}
	if err := w.setUp(); err != nil {
		return nil, nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	defer w.tearDown()
	if plainFirst {
		if plain, err = w.measure(d, nil); err != nil {
			return nil, nil, err
		}
	}
	run = &tracedRun{ks: ks, tr: newTracer()}
	run.s, err = w.measure(d, run.tr)
	return run, plain, err
}

// runTraced is the attribution run. The workload asked for runs twice
// at a fifth of the window, untraced then traced, on one set-up. Each
// per-layer metric then comes from the traced run of the workload that
// exercises its layer — this one, or else a short run of the one that
// does — or from a probe that calls the layer on its own.
func runTraced(name string, o options) (*result, error) {
	own, plain, err := runOnce(name, o.seed, max(secs(o.seconds/5), 300*time.Millisecond), true)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, name+".trace.json")
	if err := own.tr.write(path, name, o.seed); err != nil {
		return nil, err
	}

	attempted, failed := plain.attempted+own.s.attempted, plain.failed+own.s.failed
	runs := map[string]*tracedRun{name: own}
	short := max(secs(o.seconds/25), 200*time.Millisecond)
	source := func(workload string) (*tracedRun, error) {
		if r, ok := runs[workload]; ok {
			return r, nil
		}
		r, _, err := runOnce(workload, o.seed, short, false)
		if err != nil {
			return nil, err
		}
		runs[workload] = r
		attempted, failed = attempted+r.s.attempted, failed+r.s.failed
		return r, nil
	}

	m := layerMetrics{}
	all, err := loadKernels()
	if err != nil {
		return nil, err
	}
	tab, err := execProbe(m, all, secs(o.seconds/500))
	if err != nil {
		return nil, fmt.Errorf("exec probe: %w", err)
	}
	callUs, err := tunerProbe(m, all, o.seed, secs(o.seconds/125), tab)
	if err != nil {
		return nil, fmt.Errorf("tuner probe: %w", err)
	}
	four, err := loadKernels(closedKernels...)
	if err != nil {
		return nil, err
	}
	if err := ladder(m, four, o.seed, secs(o.seconds/30), tab); err != nil {
		return nil, err
	}
	st, err := source("startup")
	if err != nil {
		return nil, err
	}
	startupLayer(m, st, len(st.ks))
	sv := own
	if len(own.s.serve) == 0 {
		if sv, err = source("serve_closed"); err != nil {
			return nil, err
		}
	}
	serveLayer(m, sv, callUs)
	op, err := source("serve_open")
	if err != nil {
		return nil, err
	}
	late := micros(op.s.genLate)
	m["harness.gen_late_p50_us"] = percentile(late, 50)
	m["harness.gen_late_p99_us"] = percentile(late, 99)
	m["harness.lat_p90_us"] = perKernel(plain.lat, 90)
	m["harness.lat_p99_us"] = perKernel(plain.lat, 99)
	m["harness.gc_cycles_per_kreq"] = float64(plain.gcCycles) / float64(plain.attempted) * 1e3
	m["harness.trace_overhead_pct"] = (perKernel(own.s.lat, 50)/perKernel(plain.lat, 50) - 1) * 100

	fmt.Printf("%s  seed=%d  traced window=%.2fs  requests=%d  spans=%d (dropped %d)  trace=%s\n",
		name, o.seed, own.s.wall.Seconds(), own.s.attempted, len(own.tr.recorded()), own.tr.dropped.Load(), path)
	printSelfTime(own.tr)
	printMetrics(perLayer, m)
	ms, err := pack(perLayer, m)
	if err != nil {
		return nil, err
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

func printMetrics(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		fmt.Printf("  %-28s %14.3f %-6s (%s is better)\n", d.Name, vals[d.Name], d.Unit, d.Better)
	}
}

// printSelfTime prints, per span name, how often it was recorded and
// its self time: its duration minus what its child spans cover.
func printSelfTime(tr *tracer) {
	self, count := tr.selfTime()
	fmt.Printf("  %-28s %10s %14s %12s\n", "span", "count", "self ms", "self us/span")
	for name, n := range count {
		if n > 0 {
			fmt.Printf("  %-28s %10d %14.3f %12.3f\n", spanNames[name], n, float64(self[name])/1e6, float64(self[name])/1e3/float64(n))
		}
	}
}

// record is one line of a results file: what -out appends and -compare
// reads.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		o        options
		name     = flag.String("workload", "", "workload to run (default: all four, one after another)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a trace file")
		out      = flag.String("out", "", "append each run's result to this file, one JSON object per line")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		printDoc = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every schedule, kernel order and tuner")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "length of the measurement window")
	flag.Parse()
	o.trace = *trace != 0

	switch {
	case *printDoc:
		os.Stdout.Write(manifest())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	case flag.NArg() != 0:
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	case !(o.seconds > 0):
		fatal(fmt.Errorf("-seconds must be positive"))
	}

	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	correct := true
	for _, n := range names {
		run := runUntraced
		if o.trace {
			run = runTraced
		}
		res, err := run(n, o)
		if err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := appendRecord(*out, record{n, o.seed, o.seconds, o.trace, res}); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		correct = correct && res.Correct
	}
	if !correct {
		fmt.Fprintln(os.Stderr, "bench: outputs disagreed with the oracle or requests failed")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

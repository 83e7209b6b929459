package main

import (
	"encoding/json"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// metricDef is one row of the gate. BENCHMARK.json at the root of the
// repository is generated from these tables (`-manifest`), and the
// smoke test fails when the two disagree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSeconds is the length of one measurement window the gate asks
// for: at 13 s the startup workload's p50 spread 16% between runs, at
// 25 s about 3%.
const runSeconds = 25

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"steady_direct", "one client calls converged tuners directly, kernels interleaved: the engine does ~95% of the work, serve and persist none, so backend and tuned-fast-path work shows here and a serve change must not"},
	{"startup", "a request is a start-up episode (parse, compile, tune 60 calls cold, save, again warm from the log): lowering every arm, the slow O0/O1 arms, exploring and the persist log pay here and nowhere else"},
	{"serve_closed", "two closed-loop clients on a default server, the four cheapest kernels, quotas that never bind: the server's fixed per-request path is as large a share of a request as it gets, batches are of one"},
	{"serve_open", "seeded Poisson bursts at ~1000 req/s over all ten kernels with a 100us batch hold, timed from the due time: queueing, the hold and same-site coalescing work here, where serve_closed bypasses them"},
}

// endToEnd are the gated metrics, reported by every workload's
// untraced run. The bounds are two to three times the widest quartile
// spread ten runs of any workload showed on the shared 2-vCPU box the
// gate was sized on (README.md, "Spreads"); set-up's is the widest, as
// the gate's contract asks. lat_p90_us is not here: on serve_closed
// its spread reached 34%, so it is reported as harness.lat_p90_us.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"throughput_rps", "req/s", "higher", 0.20},
	{"cpu_us_per_req", "us", "lower", 0.20},
	{"allocs_per_req", "count", "lower", 0.05},
	{"bytes_per_req", "B", "lower", 0.05},
}

// perLayer are the ungated metrics of the traced run. The prefix names
// the package whose public functions the harness timed from outside.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	var arms, kernels []string
	for _, spec := range autotune.DefaultGrid() {
		arms = append(arms, spec.String())
	}
	for _, k := range cm.BenchKernels {
		kernels = append(kernels, k.Name)
	}

	add("us", "lower", "cminor.parse_us", "cminor.compile_us")
	add("count", "lower", "cminor.compile_allocs")
	for _, a := range arms {
		add("us", "lower", "cminor.variant_us."+a)
	}
	for _, a := range arms {
		add("us", "lower", "cminor.call_us."+a)
	}
	for _, k := range kernels {
		add("us", "lower", "cminor.call_us."+k+".O3", "cminor.call_us."+k+".bytecode")
	}
	add("us", "lower", "cminor.best_static_us", "cminor.fallback_tax_us")
	add("ns", "lower", "cminor.pool_getput_ns")

	for _, k := range kernels {
		add("us", "lower", "autotune.call_us."+k)
	}
	add("us", "lower", "autotune.overhead_us")
	add("%", "lower", "autotune.regret_pct")
	add("count", "lower", "autotune.allocs_per_call")
	add("ratio", "lower", "autotune.explore_share")
	add("count", "lower", "autotune.reopens_per_kcall")
	add("ratio", "higher", "autotune.pick_best_share")
	add("us", "lower", "autotune.batch8_us_per_call", "autotune.new_us", "autotune.snapshot_us")
	add("ms", "lower", "autotune.cold_ms", "autotune.warm_ms")

	add("us", "lower", "persist.save_us", "persist.load_us")
	add("B", "lower", "persist.log_bytes")
	add("ratio", "higher", "persist.warm_hit_share")
	add("%", "higher", "persist.warm_gain_pct")

	add("us", "lower", "serve.submit_us", "serve.wait_p50_us", "serve.wait_p90_us",
		"serve.exec_p50_us", "serve.wake_p50_us", "serve.overhead_p50_us")
	add("count", "higher", "serve.batch_mean")
	add("ratio", "higher", "serve.batched_share")
	add("count", "lower", "serve.queue_ewma", "serve.rejected", "serve.shed", "serve.failed", "serve.degraded")
	add("us", "lower", "serve.host_us", "serve.snapshot_us", "serve.close_us")

	add("us", "lower", "ladder.instance_us", "ladder.tuner_us", "ladder.batch1_us", "ladder.tick_us", "ladder.do_us")

	add("us", "lower", "harness.lat_p90_us", "harness.lat_p99_us", "harness.gen_late_p50_us", "harness.gen_late_p99_us")
	add("count", "lower", "harness.gc_cycles_per_kreq")
	add("%", "lower", "harness.trace_overhead_pct")
	return out
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []perLayerDef `json:"per_layer"`
	}{
		Command:    []string{"sh", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   endToEnd,
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, perLayerDef{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers cannot fail to marshal
	}
	return append(out, '\n')
}

// perLayerDef is metricDef without the bound key, which per-layer rows
// must not carry.
type perLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

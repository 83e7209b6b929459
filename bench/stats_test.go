package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {91, 100}, {99, 100}, {100, 100}, {10, 10}, {0.1, 10}, {25, 30},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10 ×10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty slice must give NaN")
	}
}

func TestHighestPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {454500, 99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean([]float64{22, 440}); math.Abs(got-math.Sqrt(22*440)) > 1e-9 {
		t.Errorf("geomean(22, 440) = %v", got)
	}
	for _, bad := range [][]float64{nil, {1, 0}, {1, -2}, {math.NaN()}} {
		if !math.IsNaN(geomean(bad)) {
			t.Errorf("geomean(%v) must be NaN", bad)
		}
	}
	// fold falls back to the mean where a geometric mean has no meaning.
	if got := fold([]float64{-1, 3}); got != 1 {
		t.Errorf("fold(-1, 3) = %v, want 1", got)
	}
}

func TestPerKernelIsNotDrownedByTheSlowKernel(t *testing.T) {
	fast := make([]int64, 100)
	slow := make([]int64, 100)
	for i := range fast {
		fast[i], slow[i] = 20_000, 400_000
	}
	got := perKernel([][]int64{fast, slow, nil}, 50)
	if want := math.Sqrt(20 * 400); math.Abs(got-want) > 1e-9 {
		t.Errorf("perKernel = %v us, want %v", got, want)
	}
}

// The quartiles must be those of Python's statistics.quantiles(xs, n=4),
// which the gate uses for its own A/A check.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // quantiles: 2.75, 5.5, 8.25
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	ys := []float64{100, 103, 98, 101, 99} // quantiles: 98.5, 100, 102
	if got := quartileSpread(ys); math.Abs(got-0.035) > 1e-12 {
		t.Errorf("spread = %v, want 0.035", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one sample: %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rps", Better: "higher", Bound: 0.10}
	tight := func(c float64) []float64 { return []float64{c * 0.99, c, c * 1.01, c, c} }
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(115), "worse"},
		{lower, tight(100), tight(80), "ok"},
		{higher, tight(100), tight(85), "worse"},
		{higher, tight(100), tight(120), "ok"},
		{lower, []float64{80, 100, 120, 90, 110}, tight(100), "unresolved"},
		{metricDef{Name: "layer", Better: "lower"}, tight(1), tight(2), "-"},
	} {
		if _, _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %s: %v vs %v: got %s, want %s", c.d.Name, c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

func TestSteadyPercentileIgnoresADisturbedStretch(t *testing.T) {
	// 1000 samples of 100 µs with every twentieth at 150 µs: p90 is 100.
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = 100_000
		if i%20 == 0 {
			ns[i] = 150_000
		}
	}
	// The box stalls for 15% of the window: everything takes 300 µs.
	for i := 400; i < 550; i++ {
		ns[i] = 300_000
	}
	if got := percentile(micros(ns), 90); got != 300 {
		t.Fatalf("pooled p90 = %v: the test's premise is that the stall owns the pooled tail", got)
	}
	if got := steadyPercentile(ns, 90); got != 100 {
		t.Errorf("steady p90 = %v, want 100", got)
	}
	if got := steadyPercentile(ns, 50); got != 100 {
		t.Errorf("steady p50 = %v, want 100", got)
	}
	// Too few samples to chunk: the plain percentile.
	if got, want := steadyPercentile(ns[:150], 90), percentile(micros(ns[:150]), 90); got != want {
		t.Errorf("150 samples: got %v, want the pooled %v", got, want)
	}
}

package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice: the smallest element with at least p% of the
// samples at or below it. NaN on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// reportable lists the percentiles the harness ever reports, ascending.
var reportable = []float64{50, 90, 99}

// highestPercentile is the ten-samples-beyond rule: the highest
// reportable percentile that still has at least ten of n samples above
// its nearest rank, or 0 when not even the median has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range reportable {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			best = p
		}
	}
	return best
}

// geomean is the geometric mean of positive values; NaN when xs is
// empty or holds a value that is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median sorts a copy of xs and returns its median (the mean of the
// middle two when there is an even number). NaN on an empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// micros converts nanosecond samples to ascending microseconds.
func micros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// Chunking of a kernel's samples for steadyPercentile.
const (
	maxChunks    = 25
	chunkAtLeast = 100 // so that ten samples lie beyond a chunk's p90
)

// steadyPercentile is the p-th percentile of a kernel's latencies, made
// robust against the box being disturbed for part of the window: the
// samples, in arrival order, are cut into up to maxChunks consecutive
// chunks of at least chunkAtLeast, and the median of the chunks'
// nearest-rank percentiles is returned. A burst of interference lifts
// the percentile of the chunks it falls in and leaves the median alone;
// pooled, it would own the tail. With fewer than two chunks' worth of
// samples this is the plain percentile.
func steadyPercentile(ns []int64, p float64) float64 {
	chunks := min(maxChunks, len(ns)/chunkAtLeast)
	if chunks < 2 {
		return percentile(micros(ns), p)
	}
	ps := make([]float64, chunks)
	for c := range ps {
		ps[c] = percentile(micros(ns[c*len(ns)/chunks:(c+1)*len(ns)/chunks]), p)
	}
	return median(ps)
}

// perKernel is the harness's way of folding per-kernel latencies into
// one number: the steady percentile of each kernel that has samples,
// then the geometric mean over kernels, so the 22 µs kernels are not
// drowned by the 440 µs ones.
func perKernel(latNs [][]int64, p float64) float64 {
	var ps []float64
	for _, ns := range latNs {
		if len(ns) > 0 {
			ps = append(ps, steadyPercentile(ns, p))
		}
	}
	return geomean(ps)
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4) (exclusive method) — the spread
// the gate's A/A check computes.
func quartileSpread(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			j, frac = 1, 0
		} else if j > n-1 {
			j, frac = n-1, 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

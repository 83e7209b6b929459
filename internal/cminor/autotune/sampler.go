package autotune

import "time"

// Sampler executes one routed call and reports its observed cost. It
// is the tuner's measurement seam: without one the tuner times the call
// with its Clock, while simulation tests substitute a synthetic cost
// model keyed on (function, variant, class) so convergence and drift
// behavior can be pinned exactly.
//
// Sample must invoke call exactly once; the error it returns is
// surfaced to the caller of AutoTuner.Call unchanged. A Sampler prices
// whole calls: when call runs a survey trial (a slice of the call, see
// trialSlice), the cost returned is taken as the whole call's, and a
// trial that is not cut then runs in full unpriced, so a Sampler sees
// exactly one call per routed call.
type Sampler interface {
	Sample(fn string, spec VariantSpec, class int, call func() error) (time.Duration, error)
}

// splitmix64 is the tuner's tiny deterministic PRNG (epsilon-greedy
// exploration draws). Seeded explicitly, so a tuner's decision sequence
// is reproducible; all use is under the tuner mutex.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (s *splitmix64) float64() float64 { return float64(s.next()>>11) / (1 << 53) }

func (s *splitmix64) intn(n int) int { return int(s.next() % uint64(n)) }

package autotune

import (
	"reflect"
	"testing"
	"time"

	cm "socrates/internal/cminor"
)

// Deterministic simulation harness: the tuner's Sampler is replaced by
// a synthetic cost model (per-variant base cost, bounded deterministic
// jitter, optional mid-run shifts), so convergence, exploration budgets
// and drift reactions are asserted exactly — no wall clock, no
// sleeping, no flakiness. The routed program is a real (tiny) kernel,
// so every simulated call still exercises the full engine path.

// simSrc is the kernel simulations route through: cheap, stateless,
// and with an inlinable leaf call so O3 differs structurally from O2.
const simSrc = `
double sq(double x) { return x * x; }
double probe(int n, double a[n]) {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + sq(a[i]);
  }
  return s;
}
`

func simProgram(t testing.TB, opts ...cm.Option) *cm.Program {
	t.Helper()
	prog, err := cm.Compile(cm.MustParse("sim.c", simSrc), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func simArgs(n int) []any {
	a := cm.NewArray(n)
	for i := range a.Data {
		a.Data[i] = float64(i%5) * 0.5
	}
	return []any{cm.IntV(int64(n)), a}
}

// simSampler scores calls from a cost function instead of a clock. The
// call counter makes jitter and mid-run shifts reproducible. When spent
// is non-nil it sums the scored cost per variant name.
type simSampler struct {
	calls int64
	cost  func(call int64, spec VariantSpec, class int) time.Duration
	spent map[string]time.Duration
}

func (s *simSampler) Sample(_ string, spec VariantSpec, class int, call func() error) (time.Duration, error) {
	err := call()
	s.calls++
	c := s.cost(s.calls, spec, class)
	if s.spent != nil {
		s.spent[spec.String()] += c
	}
	return c, err
}

// offWinner sums spent over every variant but the winner.
func offWinner(spent map[string]time.Duration, winner string) time.Duration {
	var off time.Duration
	for name, d := range spent {
		if name != winner {
			off += d
		}
	}
	return off
}

// jitter is a deterministic ±4% wobble so EWMA smoothing actually has
// something to smooth.
func jitter(call int64) float64 {
	return 1.0 + 0.04*float64(call%5-2)/2.0
}

// flatCost builds a cost function that depends only on the variant.
func flatCost(base map[string]time.Duration) func(int64, VariantSpec, int) time.Duration {
	return func(call int64, spec VariantSpec, _ int) time.Duration {
		b, ok := base[spec.String()]
		if !ok {
			panic("simulated cost missing for variant " + spec.String())
		}
		return time.Duration(float64(b) * jitter(call))
	}
}

func bestSpec(t *testing.T, tn *AutoTuner, fn string, class int) VariantSpec {
	t.Helper()
	spec, ok := tn.Best(fn, class)
	if !ok {
		t.Fatalf("site (%s, %d) has not converged", fn, class)
	}
	return spec
}

func siteReport(t *testing.T, tn *AutoTuner, fn string, class int) SiteReport {
	t.Helper()
	for _, r := range tn.Snapshot() {
		if r.Fn == fn && r.Class == class {
			return r
		}
	}
	t.Fatalf("no site (%s, %d) in snapshot", fn, class)
	return SiteReport{}
}

// TestSimulatedConvergence drives ten synthetic cost models — shaped
// like the static sweep of the ten corpus kernels recorded at PR 6, where the
// bytecode backend wins five, O3 wins three, and O2 wins two
// (inversions the tuner must respect) — and asserts the tuner
// converges to the statically-best variant for every one within the
// bounded exploration budget.
func TestSimulatedConvergence(t *testing.T) {
	grid := DefaultGrid()
	const totalCalls = 150
	budget := len(grid) * minSamples

	cases := []struct {
		kernel string
		cost   map[string]time.Duration // per-variant base cost
		want   string                   // expected winning variant
	}{
		// Dense-accumulate kernels where the flat-bytecode backend's
		// multiply-accumulate runs beat the O3 closure trees.
		{"gemm", map[string]time.Duration{"O0": 3100 * time.Microsecond, "O1": 2100 * time.Microsecond, "O2": 630 * time.Microsecond, "O3": 560 * time.Microsecond, "bytecode": 510 * time.Microsecond}, "bytecode"},
		{"axpy", map[string]time.Duration{"O0": 290 * time.Microsecond, "O1": 210 * time.Microsecond, "O2": 74 * time.Microsecond, "O3": 70 * time.Microsecond, "bytecode": 46 * time.Microsecond}, "bytecode"},
		{"atax", map[string]time.Duration{"O0": 700 * time.Microsecond, "O1": 500 * time.Microsecond, "O2": 120 * time.Microsecond, "O3": 110 * time.Microsecond, "bytecode": 88 * time.Microsecond}, "bytecode"},
		{"mvt", map[string]time.Duration{"O0": 480 * time.Microsecond, "O1": 340 * time.Microsecond, "O2": 80 * time.Microsecond, "O3": 70 * time.Microsecond, "bytecode": 56 * time.Microsecond}, "bytecode"},
		{"trisolv", map[string]time.Duration{"O0": 420 * time.Microsecond, "O1": 300 * time.Microsecond, "O2": 90 * time.Microsecond, "O3": 88 * time.Microsecond, "bytecode": 67 * time.Microsecond}, "bytecode"},
		// Stencil kernels where O3 closure trees keep the lead.
		{"jacobi", map[string]time.Duration{"O0": 1900 * time.Microsecond, "O1": 1500 * time.Microsecond, "O2": 380 * time.Microsecond, "O3": 320 * time.Microsecond, "bytecode": 400 * time.Microsecond}, "O3"},
		{"2mm", map[string]time.Duration{"O0": 2600 * time.Microsecond, "O1": 1800 * time.Microsecond, "O2": 520 * time.Microsecond, "O3": 480 * time.Microsecond, "bytecode": 530 * time.Microsecond}, "O3"},
		{"seidel2d", map[string]time.Duration{"O0": 2400 * time.Microsecond, "O1": 1700 * time.Microsecond, "O2": 800 * time.Microsecond, "O3": 760 * time.Microsecond, "bytecode": 900 * time.Microsecond}, "O3"},
		// Inversions: small kernels where an O3 pass costs more than it
		// buys — the tuner must pick O2, not assume more opt is better.
		{"cholesky", map[string]time.Duration{"O0": 520 * time.Microsecond, "O1": 380 * time.Microsecond, "O2": 96 * time.Microsecond, "O3": 103 * time.Microsecond, "bytecode": 115 * time.Microsecond}, "O2"},
		{"norms", map[string]time.Duration{"O0": 640 * time.Microsecond, "O1": 460 * time.Microsecond, "O2": 140 * time.Microsecond, "O3": 150 * time.Microsecond, "bytecode": 155 * time.Microsecond}, "O2"},
	}

	converged := 0
	for _, tc := range cases {
		t.Run(tc.kernel, func(t *testing.T) {
			sampler := &simSampler{cost: flatCost(tc.cost)}
			tn, err := New(simProgram(t),
				WithGrid(grid...),
				WithSampler(sampler),
				WithSeed(7),
			)
			if err != nil {
				t.Fatal(err)
			}
			args := simArgs(16)
			class := SizeClass(args)
			for i := 0; i < totalCalls; i++ {
				if _, err := tn.Call("probe", args...); err != nil {
					t.Fatal(err)
				}
				// The exploration budget is a hard bound: the moment every
				// arm met its quota the site must be converged.
				if i+1 == budget {
					if _, ok := tn.Best("probe", class); !ok {
						t.Fatalf("not converged after the %d-call exploration budget", budget)
					}
				}
			}
			got := bestSpec(t, tn, "probe", class)
			if got.String() != tc.want {
				t.Fatalf("converged to %v, statically best is %s", got, tc.want)
			}
			rep := siteReport(t, tn, "probe", class)
			// Residual exploration is bounded: epsilon of the exploit-phase
			// calls in expectation; allow 2x for the seeded draw.
			exploit := int64(totalCalls - budget)
			if maxExplore := int64(epsilon*float64(exploit)*2) + 1; rep.ExplorePulls > maxExplore {
				t.Fatalf("exploration out of budget: %d explore pulls > %d", rep.ExplorePulls, maxExplore)
			}
			converged++
		})
	}
	if converged < 8 {
		t.Fatalf("only %d/10 simulated kernels converged to the static best", converged)
	}
}

// TestExplorationBudgetBounds pins both budgets at the production ε.
// The measure budget: a cold site converges in exactly |grid| +
// (minSamples−1)·contenders calls, every non-best arm holding its
// survey sample or, when it was a contender, its quota — here O2 and
// bytecode (130µs, 1.44× the 90µs winner, within burstBand) are the
// contenders beside the O3 winner, so 5 + 2·3 = 11 calls. The exploit budget:
// exploration is priced in time, so over the exploit calls the time
// spent off the winner stays within ε of the winner's own (half again
// for the seeded draw), however slow the losers are — and some exploit
// calls do explore, so a loser that gets faster is still found.
func TestExplorationBudgetBounds(t *testing.T) {
	grid := DefaultGrid()
	cost := map[string]time.Duration{
		"O0": 400 * time.Microsecond, "O1": 300 * time.Microsecond,
		"O2": 100 * time.Microsecond, "O3": 90 * time.Microsecond,
		"bytecode": 130 * time.Microsecond,
	}
	const total = 4000
	sampler := &simSampler{cost: flatCost(cost)}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	convergedAt := driveToConvergence(t, tn, args, len(grid)*minSamples)
	calls := int(convergedAt.Pulls)
	contenders := 1 // the winner
	for _, arm := range convergedAt.Arms {
		switch {
		case arm.Spec.String() == "O3":
		case arm.Pulls == minSamples:
			contenders++
		case arm.Pulls != 1:
			t.Fatalf("non-best arm %v has %d pulls at convergence, want its survey sample or the %d-sample quota",
				arm.Spec, arm.Pulls, minSamples)
		}
	}
	if contenders == len(grid) {
		t.Fatal("every arm burst; the 4×-slower O0 should have been cut")
	}
	if want := len(grid) + (minSamples-1)*contenders; calls != want || want != 11 {
		t.Fatalf("converged after %d calls, want |grid| + (n−1)·%d contenders = %d (= 11)",
			calls, contenders, want)
	}

	sampler.spent = map[string]time.Duration{}
	drive(t, tn, total-calls, args)
	rep := siteReport(t, tn, "probe", class)
	exploit := int64(total - calls)
	if rep.Best.String() != "O3" || rep.ExplorePulls == 0 || rep.ExplorePulls == exploit {
		t.Fatalf("winner %v, %d of %d exploit calls explored; want O3 and some but not all",
			rep.Best, rep.ExplorePulls, exploit)
	}
	off := offWinner(sampler.spent, "O3")
	if limit := time.Duration(epsilon * 1.5 * float64(exploit*int64(cost["O3"]))); off > limit {
		t.Fatalf("%v spent off the winner over %d exploit calls, want <= %v", off, exploit, limit)
	}
}

// TestDriftReexploration shifts the winning variant's cost mid-run (the
// paper's adapt-under-load scenario): the tuner must move to the new
// best variant within a few calls and stay there, without re-measuring
// arms that cannot win.
func TestDriftReexploration(t *testing.T) {
	grid := DefaultGrid()
	const shiftAt = 60
	base := map[string]time.Duration{
		"O0": 500 * time.Microsecond, "O1": 350 * time.Microsecond,
		"O2": 120 * time.Microsecond, "O3": 80 * time.Microsecond,
		"bytecode": 160 * time.Microsecond,
	}
	sampler := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := base[spec.String()]
		if call > shiftAt && spec.String() == "O3" {
			c *= 5 // the O3 winner degrades (e.g. contention on its working set)
		}
		return time.Duration(float64(c) * jitter(call))
	}}
	tn, err := New(simProgram(t),
		WithGrid(grid...),
		WithSampler(sampler),
		WithSeed(11),
	)
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	for i := 0; i < shiftAt; i++ {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
	}
	if got := bestSpec(t, tn, "probe", class); got.String() != "O3" {
		t.Fatalf("pre-shift winner is %v, want O3", got)
	}
	const within = 5
	o0 := siteReport(t, tn, "probe", class).Arms[0]
	for i := 1; i <= 140; i++ {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
		if got, ok := tn.Best("probe", class); i >= within && (!ok || got.String() != "O2") {
			t.Fatalf("%d calls after the shift the winner is %v (converged %v), want O2", i, got, ok)
		}
	}
	// A re-measure would burst O0 its whole quota; ε exploration, priced
	// in time, may still sample the 4×-slower arm once (seed 11 does,
	// 106 calls after the shift).
	rep := siteReport(t, tn, "probe", class)
	if arm := rep.Arms[0]; arm.Spec.String() != "O0" || rep.Reopens != 0 || arm.Pulls-o0.Pulls > 1 {
		t.Fatalf("O0 re-measured after the shift: %d reopens, %d -> %d pulls", rep.Reopens, o0.Pulls, arm.Pulls)
	}
}

// TestIsolatedSpikeKeepsWinner: one 3× sample on a converged winner (a
// preemption, a timer tick on a short kernel) is not drift — the site
// neither re-measures nor pulls a loser beyond ε exploration.
func TestIsolatedSpikeKeepsWinner(t *testing.T) {
	const spikeAt = 40
	sampler := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := warmCost[spec.String()]
		if call == spikeAt {
			c *= 3
		}
		return time.Duration(float64(c) * jitter(call))
	}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	drive(t, tn, spikeAt-1, args)
	before := siteReport(t, tn, "probe", class)
	if got := bestSpec(t, tn, "probe", class); got.String() != "O3" {
		t.Fatalf("pre-spike winner is %v, want O3", got)
	}
	drive(t, tn, 100, args)
	after := siteReport(t, tn, "probe", class)
	if after.Reopens != 0 || after.Best.String() != "O3" {
		t.Fatalf("one spike: %d reopens, winner %v; want 0 and O3", after.Reopens, after.Best)
	}
	assertOnlyExplored(t, before, after, "one spike")
}

// assertOnlyExplored fails unless every pull a loser took between two
// reports of a site whose winner held was an ε exploration: a
// re-measure's survey and burst pulls are not explorations.
func assertOnlyExplored(t *testing.T, before, after SiteReport, what string) {
	t.Helper()
	var losers int64
	for i, arm := range after.Arms {
		if arm.Spec != after.Best {
			losers += arm.Pulls - before.Arms[i].Pulls
		}
	}
	if explored := after.ExplorePulls - before.ExplorePulls; losers != explored {
		t.Fatalf("%s: losers took %d pulls, only %d of them ε explorations:\nbefore %+v\nafter  %+v",
			what, losers, explored, before.Arms, after.Arms)
	}
}

// pr21Cost shapes a kernel's arms on PR 21's table: bytecode far ahead,
// O2 ≈ O3, then O1 and O0 at the geomean ratios (332 and 459 to 123).
func pr21Cost(bytecode, o3 float64) map[string]time.Duration {
	us := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
	return map[string]time.Duration{
		"O0": us(o3 * 459 / 123), "O1": us(o3 * 332 / 123),
		"O2": us(o3 * 1.05), "O3": us(o3), "bytecode": us(bytecode),
	}
}

// TestCommonModeSlowdownRescales: the box gets 2× slower under every
// arm at once. The winner is still the winner — no arm's estimate is
// below its drifted cost — so the site rescales instead of
// re-measuring: the winner is unchanged, Reopens stays 0, and the
// losers get no pulls after the slowdown beyond ε exploration.
func TestCommonModeSlowdownRescales(t *testing.T) {
	const slowAt = 60
	base := pr21Cost(27, 123)
	sampler := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := base[spec.String()]
		if call > slowAt {
			c *= 2
		}
		return time.Duration(float64(c) * jitter(call))
	}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	drive(t, tn, slowAt, args)
	before := siteReport(t, tn, "probe", class)
	drive(t, tn, 200, args)
	after := siteReport(t, tn, "probe", class)
	if after.Best.String() != "bytecode" || after.Reopens != 0 || !after.Converged {
		t.Fatalf("after a common-mode slowdown: winner %v, %d reopens, converged %v; want bytecode, 0, true",
			after.Best, after.Reopens, after.Converged)
	}
	if bc := after.Arms[4]; bc.EWMA < 2*27*time.Microsecond*9/10 {
		t.Fatalf("winner estimate %v did not follow the box to ~54µs", bc.EWMA)
	}
	assertOnlyExplored(t, before, after, "a common-mode slowdown")
}

// pr21Kernels are the bytecode and O3 costs (µs) of the nine corpus
// kernels that lower, from PR 21's table; norms, the tenth, ties.
var pr21Kernels = []struct {
	name         string
	bytecode, o3 float64
}{
	{"gemm", 92, 462}, {"jacobi", 63, 263}, {"axpy", 5.1, 44},
	{"2mm", 96, 365}, {"seidel2d", 105, 359}, {"atax", 9.9, 54},
	{"mvt", 8.7, 57}, {"trisolv", 5.9, 28}, {"cholesky", 33.5, 74},
}

// specNames returns the variant names of recorded selections.
func specNames(specs []VariantSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.String()
	}
	return names
}

// driveToConvergence calls probe until its site converges, at most
// limit more calls, and returns the site at convergence.
func driveToConvergence(t *testing.T, tn *AutoTuner, args []any, limit int) SiteReport {
	t.Helper()
	for calls := 0; ; calls++ {
		if _, ok := tn.Best("probe", SizeClass(args)); ok {
			return siteReport(t, tn, "probe", SizeClass(args))
		}
		if calls == limit {
			t.Fatalf("no convergence within %d calls", limit)
		}
		drive(t, tn, 1, args)
	}
}

// TestMeasureSurveysThenBurstsContenders: on every PR 21-shaped cost
// model the losers run 2–18× the winner, beyond burstBand, so a
// cold site surveys the five arms once — bytecode, the grid's last arm,
// first — and bursts only bytecode: it converges in exactly 7 calls,
// O0–O3 keep their single survey sample, and bytecode's two burst
// samples run back-to-back.
func TestMeasureSurveysThenBurstsContenders(t *testing.T) {
	want := []string{"bytecode", "O0", "O1", "O2", "O3", "bytecode", "bytecode"}
	for _, k := range pr21Kernels {
		sampler := &specSampler{inner: simSampler{cost: flatCost(pr21Cost(k.bytecode, k.o3))}}
		tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		args := simArgs(4)
		class := SizeClass(args)
		drive(t, tn, len(want)-1, args)
		if _, ok := tn.Best("probe", class); ok {
			t.Fatalf("%s: converged before the survey and bytecode's burst finished", k.name)
		}
		drive(t, tn, 1, args)
		if got := bestSpec(t, tn, "probe", class); got.String() != "bytecode" {
			t.Fatalf("%s: winner %v, want bytecode", k.name, got)
		}
		if got := specNames(sampler.specs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: measure pulls %v, want %v", k.name, got, want)
		}
	}
}

// TestNearTieArmsBothBurst: with norms-shaped costs, where O3 (37µs)
// and bytecode (38µs) are within burstBand, both burst to the
// full quota, and the bursts' minimums put the truly cheaper O3 first.
func TestNearTieArmsBothBurst(t *testing.T) {
	sampler := &simSampler{cost: flatCost(pr21Cost(38, 37))}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(4)
	rep := driveToConvergence(t, tn, args, minSamples*len(DefaultGrid()))
	if rep.Best.String() != "O3" {
		t.Fatalf("winner %v, want O3, the truly cheaper arm", rep.Best)
	}
	for _, arm := range rep.Arms[3:] {
		if arm.Pulls != minSamples {
			t.Fatalf("%v took %d pulls, want its full %d-sample quota", arm.Spec, arm.Pulls, minSamples)
		}
	}
	for _, arm := range rep.Arms[:2] {
		if arm.Pulls != 1 {
			t.Fatalf("%v took %d pulls, want only its survey sample", arm.Spec, arm.Pulls)
		}
	}
}

// TestSurveySpikeStillFindsWinner: the true winner's survey sample is
// spiked 5× (a preemption on its first call), which puts it beyond
// burstBand of O3, so it is cut and O3 is crowned. The cut is soft:
// time-priced ε still samples bytecode now and then (ε/4 × 71/196, one
// call in about 220 here), that sample replaces the spiked minimum, and
// bytecode, 46% cheaper than O3, clears the hysteresis margin and is
// crowned within 500 calls of convergence (seed 7 takes 82).
func TestSurveySpikeStillFindsWinner(t *testing.T) {
	const within = 500
	base := pr21Cost(40, 74)
	bytecodeSurvey := int64(1) // the first arm surveyed
	sampler := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := base[spec.String()]
		if call == bytecodeSurvey {
			c *= 5
		}
		return time.Duration(float64(c) * jitter(call))
	}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(4)
	class := SizeClass(args)
	rep := driveToConvergence(t, tn, args, 3*len(DefaultGrid()))
	if bc := rep.Arms[4]; rep.Best.String() != "O3" || bc.Pulls != 1 {
		t.Fatalf("converged on %v with bytecode at %d pulls; the spike should have cut bytecode",
			rep.Best, bc.Pulls)
	}
	for i := 1; i <= within; i++ {
		drive(t, tn, 1, args)
		if got := bestSpec(t, tn, "probe", class); got.String() == "bytecode" {
			t.Logf("bytecode crowned %d calls after convergence", i)
			return
		}
	}
	t.Fatalf("bytecode not crowned within %d calls of convergence", within)
}

// TestDriftChallengeSurveysThenBursts: a drift challenge re-measures by
// the measure phase's own rule. The bytecode winner gets 10× slower;
// O2 and O3 are estimated below its drifted cost, so the challenge
// resets them with the winner. The re-measure surveys those three once
// from the winner on, then bursts only O3 and O2, the contenders; O0
// and O1 are not pulled and the drifted winner keeps one sample.
func TestDriftChallengeSurveysThenBursts(t *testing.T) {
	const shiftAt = 20
	base := pr21Cost(27, 123)
	sampler := &specSampler{inner: simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := base[spec.String()]
		if call > shiftAt && spec.String() == "bytecode" {
			c *= 10
		}
		return time.Duration(float64(c) * jitter(call))
	}}}
	tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	drive(t, tn, shiftAt, args)
	challengedAt := 0
	for challengedAt == 0 {
		drive(t, tn, 1, args)
		if _, ok := tn.Best("probe", class); !ok {
			challengedAt = len(sampler.specs)
		}
		if len(sampler.specs) > shiftAt+10 {
			t.Fatal("no drift challenge within 10 calls of a 10× slowdown")
		}
	}
	want := []string{"bytecode", "O2", "O3", "O3", "O3", "O2", "O2"}
	drive(t, tn, len(want), args)
	if got := specNames(sampler.specs[challengedAt:]); !reflect.DeepEqual(got, want) {
		t.Fatalf("re-measure pulls %v, want %v", got, want)
	}
	rep := siteReport(t, tn, "probe", class)
	if !rep.Converged || rep.Best.String() != "O3" || rep.Reopens != 1 {
		t.Fatalf("after the re-measure: converged %v, winner %v, %d reopens; want true, O3, 1",
			rep.Converged, rep.Best, rep.Reopens)
	}
}

// TestExplorationIsPricedInTime: on cost models shaped like PR 21's
// table, where the losers run 2–18× the winner, the time a converged
// site spends off the winner over 10k calls stays within epsilon of
// the winner's own time (half again for the seeded draw), instead of
// epsilon times the losers' mean slowdown.
func TestExplorationIsPricedInTime(t *testing.T) {
	const (
		calls = 10000
		tol   = 0.5
	)
	for _, k := range pr21Kernels {
		cost := pr21Cost(k.bytecode, k.o3)
		sampler := &simSampler{cost: flatCost(cost)}
		tn, err := New(simProgram(t), WithSampler(sampler), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		args := simArgs(4)
		class := SizeClass(args)
		drive(t, tn, 3*len(DefaultGrid()), args) // the default measure budget
		sampler.spent = map[string]time.Duration{}
		drive(t, tn, calls, args)
		if got := bestSpec(t, tn, "probe", class); got.String() != "bytecode" {
			t.Fatalf("%s: winner %v, want bytecode", k.name, got)
		}
		off := offWinner(sampler.spent, "bytecode")
		share := float64(off) / (calls * float64(cost["bytecode"]))
		if share > epsilon*(1+tol) {
			t.Errorf("%s: time off the winner is %.3f of the winner's, want <= %.3f", k.name, share, epsilon*(1+tol))
		}
	}
}

// TestPerClassSelection gives small and large inputs opposite winners;
// the tuner must keep one independent site per input-size class and
// converge each to its own best variant.
func TestPerClassSelection(t *testing.T) {
	grid := DefaultGrid()
	small, large := simArgs(8), simArgs(1024)
	smallClass, largeClass := SizeClass(small), SizeClass(large)
	if smallClass == largeClass {
		t.Fatalf("classifier folded 8 and 1024 elements into one class %d", smallClass)
	}
	sampler := &simSampler{cost: func(call int64, spec VariantSpec, class int) time.Duration {
		// Small inputs: compile-time cleverness doesn't pay (O1 wins).
		// Large inputs: O3 wins big.
		base := map[string]time.Duration{
			"O0": 40 * time.Microsecond, "O1": 20 * time.Microsecond,
			"O2": 30 * time.Microsecond, "O3": 35 * time.Microsecond,
			"bytecode": 45 * time.Microsecond,
		}
		if class == largeClass {
			base = map[string]time.Duration{
				"O0": 4000 * time.Microsecond, "O1": 2500 * time.Microsecond,
				"O2": 900 * time.Microsecond, "O3": 600 * time.Microsecond,
				"bytecode": 700 * time.Microsecond,
			}
		}
		return time.Duration(float64(base[spec.String()]) * jitter(call))
	}}
	tn, err := New(simProgram(t),
		WithGrid(grid...),
		WithSampler(sampler),
		WithSeed(5),
	)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if _, err := tn.Call("probe", small...); err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Call("probe", large...); err != nil {
			t.Fatal(err)
		}
	}
	if got := bestSpec(t, tn, "probe", smallClass); got.String() != "O1" {
		t.Fatalf("small-input site converged to %v, want O1", got)
	}
	if got := bestSpec(t, tn, "probe", largeClass); got.String() != "O3" {
		t.Fatalf("large-input site converged to %v, want O3", got)
	}
}

// TestLazyMaterialization pins the grid's laziness: New lowers nothing,
// each variant materializes only when first selected.
func TestLazyMaterialization(t *testing.T) {
	tn, err := New(simProgram(t),
		WithSampler(&simSampler{cost: flatCost(map[string]time.Duration{
			"O0": 4, "O1": 3, "O2": 2, "O3": 1, "bytecode": 5,
		})}))
	if err != nil {
		t.Fatal(err)
	}
	for i, slot := range tn.slots {
		if slot.prog != nil {
			t.Fatalf("variant %d materialized before any call", i)
		}
	}
	args := simArgs(8)
	if _, err := tn.Call("probe", args...); err != nil {
		t.Fatal(err)
	}
	materialized := 0
	for _, slot := range tn.slots {
		if slot.prog != nil {
			materialized++
		}
	}
	if materialized != 1 {
		t.Fatalf("one call materialized %d variants, want exactly 1", materialized)
	}
	for i := 0; i < len(tn.cfg.grid)-1; i++ {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
	}
	for i, slot := range tn.slots {
		if slot.prog == nil {
			t.Fatalf("variant %d not materialized after a full measure round", i)
		}
	}
}

// TestPooledBudgetNotLeaked is the SetMaxSteps/pool interaction pin:
// with a per-call budget that any single call fits but two calls'
// accumulated steps would blow, hundreds of pooled calls must all
// succeed — proving the pool restores the budget per checkout instead
// of leaking spent steps across the tuner's pool.
func TestPooledBudgetNotLeaked(t *testing.T) {
	args := simArgs(64)
	// One probe(64) call costs a few hundred statements; 2000 covers one
	// call comfortably and is far below 300 calls' accumulation.
	prog := simProgram(t, cm.WithMaxSteps(2000))
	tn, err := New(prog,
		WithSampler(&simSampler{cost: flatCost(map[string]time.Duration{
			"O0": 4, "O1": 3, "O2": 2, "O3": 1, "bytecode": 5,
		})}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatalf("call %d: budget leaked across the pool: %v", i, err)
		}
	}
	// The budget itself still bites: a kernel that overruns it in ONE
	// call faults on every variant, and the tuner surfaces the fault.
	tight := simProgram(t, cm.WithMaxSteps(10))
	tn2, err := New(tight,
		WithSampler(&simSampler{cost: flatCost(map[string]time.Duration{
			"O0": 4, "O1": 3, "O2": 2, "O3": 1, "bytecode": 5,
		})}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := tn2.Call("probe", args...); err == nil {
			t.Fatalf("call %d: 10-step budget did not fault", i)
		}
	}
}

// TestFaultingCallsDontPoisonEstimates: a runtime fault counts its
// pull but contributes no cost, a site whose every call faulted never
// declares a winner, and unknown function names are rejected before
// any tuning state exists.
func TestFaultingCallsDontPoisonEstimates(t *testing.T) {
	tn, err := New(simProgram(t),
		WithSampler(&simSampler{cost: flatCost(map[string]time.Duration{
			"O0": 4, "O1": 3, "O2": 2, "O3": 1, "bytecode": 5,
		})}))
	if err != nil {
		t.Fatal(err)
	}
	// Unknown names never create a site.
	if _, err := tn.Call("no_such_fn"); err == nil {
		t.Fatal("calling a missing function did not error")
	}
	if got := len(tn.Snapshot()); got != 0 {
		t.Fatalf("a rejected name created %d tuning sites", got)
	}
	// A known function faulting at runtime (out-of-bounds subscript:
	// n says 64, the array holds 8) counts pulls but samples nothing.
	// One call more than every arm's quota (5 arms × 3).
	bad := []any{cm.IntV(64), cm.NewArray(8)}
	class := SizeClass(bad)
	calls := len(DefaultGrid())*minSamples + 1
	for i := 0; i < calls; i++ {
		if _, err := tn.Call("probe", bad...); err == nil {
			t.Fatal("out-of-bounds call did not error")
		}
	}
	rep := siteReport(t, tn, "probe", class)
	if rep.Pulls != int64(calls) {
		t.Fatalf("faulting calls recorded %d pulls, want %d", rep.Pulls, calls)
	}
	for _, arm := range rep.Arms {
		if arm.Sampled {
			t.Fatalf("arm %v has a cost estimate from faulting calls", arm.Spec)
		}
	}
	// Quota met, but nothing measured: the site must not converge.
	if rep.Converged {
		t.Fatal("site converged without a single successful measurement")
	}
	if _, ok := tn.Best("probe", class); ok {
		t.Fatal("Best reported a winner that was never measured")
	}
}

// TestNewValidation: malformed grids and audit cadences fail fast at
// New, with the engine's own diagnostics for bad knob values. (The
// policy has no options to validate: its values are constants.)
func TestNewValidation(t *testing.T) {
	prog := simProgram(t)
	cases := []struct {
		name string
		opts []Option
	}{
		{"empty grid", []Option{WithGrid()}},
		{"negative audit cadence", []Option{WithAuditEvery(-1)}},
		{"unknown opt level", []Option{WithGrid(VariantSpec{Opt: cm.O3 + 1})}},
		{"unknown pass bits", []Option{WithGrid(VariantSpec{Opt: cm.O3, Passes: 0x80})}},
	}
	for _, tc := range cases {
		if _, err := New(prog, tc.opts...); err == nil {
			t.Errorf("%s: New accepted it", tc.name)
		}
	}
}

// tickClock advances a fixed step on every read, so a call bracketed by
// two reads is measured at exactly one step.
type tickClock struct {
	t    time.Time
	step time.Duration
}

func (c *tickClock) Now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// TestDefaultCostIsClockMovement pins the default measurement path
// against a fake clock: with no Sampler injected, a call's cost is the
// clock's movement across it, and a failed call is timed but never
// folded into an estimate.
func TestDefaultCostIsClockMovement(t *testing.T) {
	const step = 5 * time.Millisecond
	tn, err := New(simProgram(t),
		WithClock(&tickClock{t: time.Unix(0, 0), step: step}))
	if err != nil {
		t.Fatal(err)
	}
	good, bad := simArgs(16), []any{cm.IntV(64), cm.NewArray(8)}
	for range DefaultGrid() {
		if _, err := tn.Call("probe", good...); err != nil {
			t.Fatal(err)
		}
		if _, err := tn.Call("probe", bad...); err == nil {
			t.Fatal("out-of-bounds call did not error")
		}
	}
	for _, arm := range siteReport(t, tn, "probe", SizeClass(good)).Arms {
		if !arm.Sampled || arm.EWMA != step {
			t.Fatalf("arm %v: estimate %v (sampled %v), want the %v clock movement", arm.Spec, arm.EWMA, arm.Sampled, step)
		}
	}
	for _, arm := range siteReport(t, tn, "probe", SizeClass(bad)).Arms {
		if arm.Sampled {
			t.Fatalf("arm %v has a cost estimate from faulting calls", arm.Spec)
		}
	}
}

// TestSizeClass pins the default classifier's buckets.
func TestSizeClass(t *testing.T) {
	if got := SizeClass([]any{cm.IntV(3)}); got != 0 {
		t.Fatalf("scalar-only class = %d, want 0", got)
	}
	cases := []struct {
		elems []int
		want  int
	}{
		{[]int{1}, 1},
		{[]int{8}, 4},
		{[]int{8, 8}, 5},
		{[]int{1024}, 11},
	}
	for _, tc := range cases {
		args := []any{cm.IntV(1)}
		for _, n := range tc.elems {
			args = append(args, cm.NewArray(n))
		}
		if got := SizeClass(args); got != tc.want {
			t.Fatalf("SizeClass(%v elems) = %d, want %d", tc.elems, got, tc.want)
		}
	}
}

// TestVariantSpecString pins the names benchmark output uses.
func TestVariantSpecString(t *testing.T) {
	cases := []struct {
		spec VariantSpec
		want string
	}{
		{VariantSpec{}, "O0"},
		{VariantSpec{Opt: cm.O2}, "O2"},
		{VariantSpec{Opt: cm.O3, Passes: cm.AllPasses}, "O3"},
		{VariantSpec{Opt: cm.O3, Passes: cm.PassInline}, "O3"}, // PassInline is every pass
		{VariantSpec{Opt: cm.O3}, "O3[none]"},
		{VariantSpec{Backend: cm.BackendWalker}, "walker"},
		{VariantSpec{Backend: cm.BackendBytecode, Opt: cm.O3, Passes: cm.AllPasses}, "bytecode"},
		{VariantSpec{Backend: cm.BackendBytecode}, "bytecode"},
	}
	for _, tc := range cases {
		if got := tc.spec.String(); got != tc.want {
			t.Fatalf("%#v.String() = %q, want %q", tc.spec, got, tc.want)
		}
	}
}

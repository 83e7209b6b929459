package autotune

import "time"

// Per-(function, input-class) selection state. Each call site the
// tuner has seen owns one siteState with one armStats per grid point;
// everything here is mutated only under the tuner mutex.

// Site phases: measure surveys every arm once (most of them by survey
// trials, policy.go), then bursts only the contenders — the arms within
// burstBand of the best — to the pull quota (the bounded
// exploration budget); exploit routes to the best arm with
// policy-controlled residual exploration. A drift challenge that finds
// a contender re-enters measure for the winner and the contenders only,
// by the same survey-then-burst rule.
const (
	phaseMeasure uint8 = iota
	phaseExploit
)

// The policy's values are constants. Each doc comment names the seeded
// sim that fails when the constant takes its neutral value (CHANGES.md
// has the mutation table).

// epsilon is the exploit-phase exploration budget, in time: a random
// non-winning arm is drawn with probability epsilon and taken with odds
// winner ÷ arm estimate (chooseEpsilon), so the time spent off the
// winner is at most epsilon × the winner's own, and a loser that gets
// faster is still found. Pinned by TestSurveySpikeStillFindsWinner: at
// 0 a winner whose survey sample was spiked is cut for good.
const epsilon = 0.05

// ewmaAlpha is the weight of a new sample in an exploit-phase estimate
// (armStats.update). Pinned by TestLabHeavyTailKeepsWinner: at 1 one
// stall, even clipped, hands the site to the runner-up.
const ewmaAlpha = 0.3

// minSamples is the measure-phase pull quota of a contender — a fresh
// site costs len(grid) + (minSamples−1)·contenders calls — and the run
// of over-band samples a drift challenge needs. Pinned by
// TestLabSwitchPenaltyBurstsFindWinner and TestSimulatedConvergence: at
// 1 an estimate is one sample, a first call after a switch or one draw
// of the jitter, and the site settles on a slower arm.
const minSamples = 3

// driftFactor is the winner's degradation band: minSamples raw samples
// in a row above baseline·(1+driftFactor) challenge it (observe,
// challenge). Pinned by TestLabDriftPastBandFindsRunnerUp: at +Inf a
// winner that degrades by less than the switch margin over a
// runner-up keeps the site for good.
const driftFactor = 0.5

// switchHysteresis: mid-exploit, a challenger arm must undercut the
// incumbent's EWMA by this relative margin before the site adopts it.
// It guards against two failure modes observed live. (1) Ping-pong:
// two near-equal arms alternating call-to-call thrash the branch
// predictor and instruction cache, inflating BOTH arms' measurements
// (a 57µs variant's EWMA was driven to ~480µs by pure alternation),
// so the argmin keeps flipping forever; sticking with the incumbent
// lets back-to-back runs re-measure the true cost. (2) Stale-estimate
// dethroning: a burst of clipped spikes nudges the winner's EWMA up a
// few tens of percent, and a challenger whose optimistic (min-based,
// long-unsampled) measure-phase estimate sits just below it takes
// over for thousands of calls. The margin is deliberately generous: a
// genuinely better challenger by more than this margin is rare within
// one workload. It is also the fast path out of a winner that truly
// degrades: once the winner's EWMA passes a measured runner-up by the
// margin (two samples of a 5× slowdown) the runner-up takes over, and
// a smaller degradation is left to the drift challenge, which
// re-measures the winner against the arms that could beat it.
// Measure-phase convergence itself is a plain argmin. Pinned by
// TestLabHeavyTailKeepsWinner: at 0 a clipped stall on the winner hands
// the site to the runner-up.
const switchHysteresis = 0.25

// burstBand decides which surveyed arms are contenders: an arm whose
// survey estimate is within burstBand× the best bursts to the quota
// before it can be cut (armStats.measured, cutByTrial). It is wider
// than the switch margin (1/(1−switchHysteresis) ≈ 1.33×) because a
// survey sample is usually a first call after a switch, which runs
// high: an arm truly faster than the best can be surveyed at up to
// twice its cost. Pinned by TestLabUniformSwitchPenaltyFindsWinner: at
// 1 an arm 4% faster than bytecode, surveyed at 2× its cost, is cut on
// that one sample and the site settles on bytecode.
const burstBand = 2.0

// clipFactor winsorizes exploit-phase samples: each measurement folds
// into the EWMA capped at clipFactor× the current estimate. Cost
// distributions on a shared box are heavy-tailed — a single 2ms GC
// pause or preemption on a 60µs kernel would otherwise catapult the
// winner's EWMA 4× in one sample and dethrone the true winner for
// thousands of calls (observed live). A genuine sustained shift still
// raises the estimate geometrically (clipFactor× per sample), so the
// hysteresis switch still sees it within a few samples; the drift
// detector reads raw samples and needs no clip (see observe). Pinned by
// TestLabHeavyTailKeepsWinner: unclipped, one 20× stall hands the site
// to the runner-up.
const clipFactor = 3.0

// armStats is the cost estimate — and trust state — of one variant at
// one site.
type armStats struct {
	pulls   int64   // selections, counted at decision time
	sampled bool    // at least one successful measurement recorded
	ewma    float64 // nanoseconds, exponentially weighted
	// steps is the statement count of the arm's latest successful full
	// call (0 before one): the length survey trials of the other arms
	// are sliced from (see trialSlice). Every backend is step-exact, so
	// it is the site's call length, whichever arm measured it.
	steps int
	// distrust marks the estimate a prior rather than a measurement: a
	// warm-started arm (tunecache.go) counts down this many fresh
	// samples folded in at the boosted warmAlpha weight, so a stale
	// persisted estimate is overwhelmed by live data within a couple of
	// calls instead of anchoring the EWMA for hundreds.
	distrust int
	// Fault-containment accounting (see quarantine.go). The counters are
	// cumulative for the site's lifetime — they survive drift re-measures and
	// quarantine lifts, unlike the cost estimate above.
	faults          int64 // contained internal faults on this arm
	degraded        int64 // calls served by trusted-fallback re-execution
	diverged        int64 // audit-revealed wrong results
	quarantines     int   // times this arm has been quarantined here
	quarantined     bool  // currently out of routing
	quarantineUntil time.Time
}

// resetEstimate discards the arm's cost estimate (a drift re-measure or a
// quarantine lift: the old measurements are no longer trusted) while
// keeping the cumulative fault accounting.
func (a *armStats) resetEstimate() {
	a.pulls, a.sampled, a.ewma, a.steps = 0, false, 0, 0
	a.distrust = 0 // a fresh measure burst is trusted by construction
}

// update folds one cost measurement into the estimate. The first
// quota samples (the measure phase) estimate by the minimum observed
// cost rather than a blend: a variant's first execution pays one-time
// costs (faulting in the freshly lowered closure graph), and busy
// boxes add heavy-tailed scheduling spikes — for a deterministic
// kernel the minimum is the robust location estimate. Once the arm is
// past its quota the EWMA takes over, so genuine workload shifts
// still move the estimate (and can trip the hysteresis switch).
func (a *armStats) update(cost float64) {
	alpha := ewmaAlpha
	switch {
	case !a.sampled:
		a.ewma, a.sampled = cost, true
	case a.pulls <= minSamples:
		if cost < a.ewma {
			a.ewma = cost
		}
	default:
		if lim := a.ewma * clipFactor; cost > lim {
			cost = lim // winsorize heavy-tailed spikes (see clipFactor)
		}
		if a.distrust > 0 {
			// Warm-started prior: fresh samples carry warmAlpha until the
			// distrust budget is spent (see tunecache.go).
			a.distrust--
			alpha = warmAlpha
		}
		a.ewma = alpha*cost + (1-alpha)*a.ewma
	}
}

type siteState struct {
	arms   []armStats
	phase  uint8
	cursor int // round-robin position while measuring
	// best is the current winner (argmin EWMA over sampled arms);
	// baseline freezes its EWMA when the site converges (or re-anchors
	// on a winner change), and the drift detector compares against it.
	best     int
	baseline float64
	// over counts the winner's consecutive raw samples above the drift
	// band, overMin is the cheapest of them (see observe).
	over    int
	overMin float64
	pulls   int64 // total selections at this site
	explore int64 // exploit-phase selections that were NOT the winner
	trials  int64 // survey pulls run as trials (see trialSlice)
	reopens int   // drift-triggered re-measures (see challenge)
	nquar   int   // arms currently quarantined (see quarantine.go)
}

// newSiteState returns a fresh site whose survey starts at the grid's
// last arm — bytecode in DefaultGrid, the arm that wins nearly
// everywhere — so the first full-call sample is most likely the best
// one, and the arms surveyed after it are priced by trials against it.
func newSiteState(arms int) *siteState {
	return &siteState{arms: make([]armStats, arms), cursor: surveyStart(arms)}
}

// surveyStart is the arm a fresh (or warm-loaded) site's survey begins
// at: the grid's last.
func surveyStart(arms int) int { return arms - 1 }

// measured reports whether the arm needs no more measure-phase pulls,
// given best, the lowest estimate at the site: it has met the quota,
// or it has been surveyed and its estimate is beyond burstBand× the
// best — cut, its one sample kept as its estimate. An unsampled arm
// (its calls failed) is never cut.
func (a *armStats) measured(best float64) bool {
	return a.pulls >= minSamples || a.sampled && a.ewma > burstBand*best
}

// allMeasured reports whether every arm in service has been surveyed
// and is measured (armStats.measured). Quarantined arms are out of
// service and do not hold the phase open — they are re-surveyed when
// their backoff lifts.
func (st *siteState) allMeasured() bool {
	best := st.arms[st.argmin()].ewma
	for i := range st.arms {
		if st.arms[i].quarantined {
			continue
		}
		if !st.arms[i].measured(best) {
			return false
		}
	}
	return true
}

// anySampled reports whether any arm has a successful measurement.
func (st *siteState) anySampled() bool {
	for i := range st.arms {
		if st.arms[i].sampled {
			return true
		}
	}
	return false
}

// argmin returns the trusted sampled arm with the lowest EWMA (ties to
// the lower index — the less optimized variant). Arms that never
// produced a successful measurement, and quarantined arms, are skipped;
// with no candidates it returns 0.
func (st *siteState) argmin() int {
	best, found := 0, false
	for i := range st.arms {
		if !st.arms[i].sampled || st.arms[i].quarantined {
			continue
		}
		if !found || st.arms[i].ewma < st.arms[best].ewma {
			best, found = i, true
		}
	}
	return best
}

// crown makes arm i the winner and anchors the drift baseline on its
// estimate.
func (st *siteState) crown(i int) {
	st.best, st.baseline, st.over = i, st.arms[i].ewma, 0
}

// observe ingests one call outcome for arm idx (out.ok=false when the
// cost is not a trustworthy measurement of the arm: program-level
// faults, degraded calls, audits) and advances the site's phase
// machine: measure → exploit on quota; in exploit, a drifting winner
// is challenged (see challenge). A contained internal fault or an
// audit divergence quarantines the arm instead of feeding the
// estimates (quarantine.go).
func (st *siteState) observe(cfg *config, idx int, cost float64, out callOutcome) {
	a := &st.arms[idx]
	if out.fault {
		a.faults++
	}
	if out.degraded {
		a.degraded++
	}
	if out.diverged {
		a.diverged++
	}
	if out.fault || out.diverged {
		st.quarantine(cfg, idx)
		return
	}
	ok := out.ok
	if ok {
		st.arms[idx].update(cost)
		st.arms[idx].steps = out.steps
	}
	switch st.phase {
	case phaseMeasure:
		// Converging requires at least one successful measurement: a
		// site whose every call faulted must not declare a winner it
		// never timed (quota pulls alone don't qualify).
		if st.allMeasured() && st.anySampled() {
			st.phase = phaseExploit
			st.crown(st.argmin())
		}
	case phaseExploit:
		// Drift: the winner's own raw cost DEGRADED past
		// baseline*(1+driftFactor) on minSamples consecutive samples — the
		// measure phase's min-of-burst rule, so one preemption or timer
		// tick on a short kernel is not a drift. The winner getting
		// FASTER is not drift — it is still the winner; the baseline
		// tightens to the improved estimate instead, both so degradation
		// is judged against the best cost seen and because measure-phase
		// estimates run systematically high (arm switching thrashes the
		// predictor/icache) and always melt once the winner runs
		// back-to-back.
		if ok && idx == st.best && st.baseline > 0 {
			if cost > st.baseline*(1+driftFactor) {
				if st.over == 0 || cost < st.overMin {
					st.overMin = cost
				}
				st.over++
				if st.over >= minSamples {
					st.challenge(st.overMin)
					return
				}
			} else {
				st.over = 0
			}
			if ew := st.arms[idx].ewma; ew < st.baseline {
				st.baseline = ew
			}
		}
		// Residual exploration may discover a new winner without any
		// drift (e.g. an arm that was unlucky during measurement);
		// adopt it — and re-anchor the baseline — only when it clears
		// the hysteresis margin (see switchHysteresis).
		if nb := st.argmin(); nb != st.best &&
			st.arms[nb].ewma < st.arms[st.best].ewma*(1-switchHysteresis) {
			st.crown(nb)
		}
	}
}

// challenge answers a drift alarm; d is the cheapest sample of the
// winner's over-band run, what the winner costs now. Only the arms
// whose estimate is below d could win if the drift were the winner's
// alone: they and the winner are re-measured (surveyed, then the
// contenders burst; see nextMeasured), while every other arm keeps its
// estimate and is not pulled. With no such arm the box moved under
// every arm alike — mARGOt's rescale: the winner's estimate and the
// baseline become d and the site stays in exploit. Quarantine state and fault accounting survive either way:
// drift says nothing about trust.
func (st *siteState) challenge(d float64) {
	st.over = 0
	challenged := false
	for i := range st.arms {
		if a := &st.arms[i]; i != st.best && a.sampled && !a.quarantined && a.ewma < d {
			a.resetEstimate()
			challenged = true
		}
	}
	if !challenged {
		st.arms[st.best].ewma, st.baseline = d, d
		return
	}
	st.arms[st.best].resetEstimate()
	st.phase, st.cursor = phaseMeasure, st.best
	st.reopens++
}

// ArmReport is one variant's state in a Snapshot.
type ArmReport struct {
	Spec    VariantSpec
	Pulls   int64
	EWMA    time.Duration
	Sampled bool
	// Fault-containment accounting (cumulative for the site's lifetime).
	Faults      int64 // contained internal faults on this arm
	Degraded    int64 // calls served by trusted-fallback re-execution
	Diverged    int64 // audit-revealed wrong results
	Quarantines int   // times this arm has been quarantined here
	Quarantined bool  // currently out of routing
}

// SiteReport is the introspectable state of one (function, class)
// tuning site: which variant is winning, how much exploration it cost,
// and how often a drift challenge re-measured arms (Reopens; a rescale
// does not count).
type SiteReport struct {
	Fn           string
	Class        int
	Converged    bool // exploit phase reached (and not currently re-measuring)
	Best         VariantSpec
	Pulls        int64
	ExplorePulls int64
	Reopens      int
	// QuarantinedArms counts the arms currently out of routing at this
	// site (per-arm detail in Arms).
	QuarantinedArms int
	Arms            []ArmReport
}

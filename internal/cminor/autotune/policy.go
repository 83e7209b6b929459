package autotune

// choose picks the arm for the next call at st and charges the pull.
// Caller holds the tuner mutex; rng is the tuner's seeded PRNG.
func (st *siteState) choose(cfg *config, rng *splitmix64) int {
	if st.nquar > 0 {
		// Expired quarantines return to service before selection; the
		// clock is only read when a quarantine exists, so the fault-free
		// fast path stays clock-free.
		st.liftExpired(cfg.clock.Now())
	}
	st.pulls++
	if st.nquar == len(st.arms) {
		// Every arm is quarantined: there is no trusted variant left, so
		// route to the one whose backoff expires soonest — it is the next
		// to be retried anyway, and the call still runs under containment.
		idx := st.soonestLift()
		st.arms[idx].pulls++
		return idx
	}
	if st.phase == phaseMeasure {
		idx := st.nextMeasured()
		st.arms[idx].pulls++
		return idx
	}
	idx := st.chooseEpsilon(rng)
	if idx != st.best {
		st.explore++
	}
	st.arms[idx].pulls++
	return idx
}

// nextMeasured picks the measure-phase arm in two steps. The survey
// pulls every arm in service once, round-robin from the cursor — from
// the grid's last arm on a fresh site (surveyStart) — and once the best
// arm so far has a full-call sample, each of those pulls is a trial
// (trialSlice) that ends as soon as its projection cannot win. Then
// only the contenders burst: an arm is pulled to its quota while it
// still needs samples (armStats.measured), i.e. while its estimate is
// within burstBand of the best — an arm further off could not take over
// from the winner even if its survey sample paid a switch, so more
// samples of it buy nothing, and time-priced ε still samples it later.
// Bursts matter: switching variants is itself expensive (cold closure
// graph, predictor/icache thrash), so an arm's first sample after a
// switch runs high — the cursor stays on a contender until its quota is met,
// so the later samples are switch-free and the min-based estimate
// (armStats.update) lands on the true cost. With every arm measured
// but the phase not yet advanced (in-flight concurrent measurements),
// it falls back to the best estimate so far.
func (st *siteState) nextMeasured() int {
	n := len(st.arms)
	for k := 0; k < n; k++ {
		idx := (st.cursor + k) % n
		if !st.arms[idx].quarantined && st.arms[idx].pulls == 0 {
			st.cursor = idx // survey: one pull of every arm first
			return idx
		}
	}
	best := st.arms[st.argmin()].ewma
	for k := 0; k < n; k++ {
		idx := (st.cursor + k) % n
		if !st.arms[idx].quarantined && !st.arms[idx].measured(best) {
			st.cursor = idx // stay on this arm until it is measured
			return idx
		}
	}
	return st.argmin()
}

// chooseEpsilon is exploit-phase epsilon-greedy priced in time: draw u
// and a uniformly random non-winning arm still in service, and take
// that arm only if u < epsilon·ŵ/ĉ (winner estimate over the arm's; an
// unsampled arm, or one not slower than the winner, weighs 1). Each
// arm then costs at most epsilon/eligible × the winner's time per
// call, so the expected time off the winner is bounded by epsilon ×
// the winner's own however slow the losers are — while a far arm is
// still sampled, rarely, so a loser that gets faster is still found.
// The draws are the historical two-draw scheme, so the PRNG stream is
// unchanged whenever u ≥ epsilon.
func (st *siteState) chooseEpsilon(rng *splitmix64) int {
	eligible := 0
	for i := range st.arms {
		if i != st.best && !st.arms[i].quarantined {
			eligible++
		}
	}
	if eligible == 0 {
		return st.best
	}
	u := rng.float64()
	if u >= epsilon {
		return st.best
	}
	k := rng.intn(eligible)
	for i := range st.arms {
		if i == st.best || st.arms[i].quarantined {
			continue
		}
		if k > 0 {
			k--
			continue
		}
		if w, c := st.arms[st.best].ewma, st.arms[i].ewma; st.arms[i].sampled && c > w && u >= epsilon*w/c {
			return st.best
		}
		return i
	}
	return st.best
}

// trialDiv sets a survey trial's slice: 1/trialDiv of the site's call
// length. It was chosen by a traced sweep of the startup benchmark's
// cold half over 1/4, 1/8, 1/16 and 1/32 (CHANGES.md). Pinned by
// TestColdSiteCutsLosersByTrial: at 1 every losing arm runs a full call.
const trialDiv = 32

// trialSlice decides whether the pull of arm idx that choose just
// charged runs as a survey trial, and returns the trial's statement
// slice and the call length it projects to (0, 0 for a full call). A
// pull is a trial when it is the arm's survey pull and the best arm so
// far has a full-call sample with its step count (armStats.steps): the
// arm then runs 1/trialDiv of that length, enough to price it against
// the best (cutByTrial), where a full call of an arm that is 2–18×
// slower would cost that much more. Exploit-phase picks and bursts
// never run trials. Caller holds the tuner mutex.
func (st *siteState) trialSlice(idx int) (slice, length int) {
	if a := &st.arms[idx]; st.phase != phaseMeasure || a.pulls != 1 || a.sampled {
		return 0, 0
	}
	b := st.argmin()
	ref := &st.arms[b]
	if b == idx || !ref.sampled || ref.quarantined || ref.steps == 0 {
		return 0, 0
	}
	st.trials++
	return max(ref.steps/trialDiv, 1), ref.steps
}

// cutByTrial judges the survey trial of arm idx that ran out of its
// slice; proj is its cost projected to the whole call. By the measure
// phase's cut rule (armStats.measured) an arm whose projection is
// beyond burstBand× the best could not take over, so it is
// cut: the projection becomes its survey sample and the best arm, which
// is returned, serves the call. A near tie — or an arm whose state
// changed under the trial — returns idx: the call runs in full on it,
// and its own sample decides. Caller holds the tuner mutex.
func (st *siteState) cutByTrial(idx int, proj float64) int {
	a, b := &st.arms[idx], st.argmin()
	if ref := &st.arms[b]; b == idx || a.sampled || a.quarantined || !ref.sampled || ref.quarantined ||
		proj <= burstBand*ref.ewma {
		return idx
	}
	a.update(proj)
	return b
}

// chargeRiders charges a batch's n riders to arm idx as choose would
// have charged them (the site's own pull count is charged at selection).
func (st *siteState) chargeRiders(idx, n int) {
	st.arms[idx].pulls += int64(n)
	if st.phase == phaseExploit && idx != st.best {
		st.explore += int64(n)
	}
}

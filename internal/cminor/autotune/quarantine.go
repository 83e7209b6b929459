package autotune

import (
	"time"

	cm "socrates/internal/cminor"
)

// Variant quarantine: the tuner's half of the fault-containment layer
// (cminor/resilience.go). The engine contains internal panics and —
// trusted fallback, always on for the tuner's variants — degrades a
// faulting call onto the trusted reference tier; the tuner reads those taps and takes the routing
// decision: an arm whose call ended in an internal fault, or whose
// audited re-execution revealed a value divergence, is quarantined at
// that (function, input-class) site — excluded from the measure and
// exploit phases — with exponential clock-based backoff, so a flaky arm
// can earn its way back. A lifted arm re-enters through a fresh measure
// survey (its old estimates are discarded with its trust), so a clean
// arm re-wins on merit.

// callOutcome classifies one routed call for the site's phase machine.
type callOutcome struct {
	// ok means cost is a valid successful measurement of the arm's own
	// backend (not a faulted, degraded, or audited call).
	ok bool
	// fault: the call hit a contained internal fault on this arm
	// (whether or not fallback then served the caller).
	fault bool
	// degraded: the caller was served by trusted-fallback re-execution.
	degraded bool
	// diverged: an audit re-execution revealed a wrong result — a silent
	// miscompile containment alone cannot see.
	diverged bool
	// steps is the call's statement count (kept as the arm's call
	// length when ok).
	steps int
}

// WithFaultInjector arms every variant the tuner materializes with the
// engine fault injector (cminor.WithFaultInjector) — the deterministic
// seam the quarantine simulations drive the detect → contain →
// rollback → fallback → quarantine → re-entry pipeline through. The
// trusted reference tier stays injector-free.
func WithFaultInjector(inj cm.FaultInjector) Option {
	return func(c *config) { c.inject = inj }
}

// WithAuditEvery routes every nth call of each site through
// cminor.CallAudited: the call re-executes on the trusted tier from the
// same pre-call state and the outcomes are compared bit-exactly, so a
// silently wrong arm is caught and quarantined even though it never
// panics. n = 0 (the default) disables auditing. Audited calls are
// excluded from cost estimates — their cost includes the reference
// re-execution.
func WithAuditEvery(n int64) Option {
	return func(c *config) { c.auditEvery = n }
}

// backoffBase and backoffMax are the quarantine window: an arm's first
// quarantine at a site lasts backoffBase, each later one doubles, capped
// at backoffMax, on the tuner's Clock. Pinned by
// TestLabFlakyArmRetriedPerWindow: an arm that faults on every call is
// retried once per window; at 0 it faults, and re-executes on the
// trusted tier, on every call.
const (
	backoffBase = 250 * time.Millisecond
	backoffMax  = 30 * time.Second
)

// backoff computes the quarantine window after the arm's nth
// quarantine (1-based): backoffBase·2^(n-1), capped at backoffMax.
func backoff(n int) time.Duration { return min(backoffBase<<min(n-1, 30), backoffMax) }

// quarantine pulls arm idx out of routing at this site. Caller holds
// the tuner mutex.
func (st *siteState) quarantine(cfg *config, idx int) {
	a := &st.arms[idx]
	if a.quarantined {
		return
	}
	a.quarantined = true
	a.quarantines++
	a.quarantineUntil = cfg.clock.Now().Add(backoff(a.quarantines))
	st.nquar++
	// A quarantined winner abdicates immediately: re-crown the best
	// remaining trusted arm when one exists (when none does, choose()
	// routes by soonest lift until a quarantine expires).
	if st.phase == phaseExploit && idx == st.best {
		if nb := st.argmin(); st.arms[nb].sampled && !st.arms[nb].quarantined {
			st.crown(nb)
		}
	}
}

// liftExpired returns expired quarantines to service: the arm's cost
// estimates are discarded with its distrust and the site drops back to
// the measure phase, so the returning arm is re-surveyed against the
// incumbents' retained estimates — and bursts to its quota if that
// sample makes it a contender — and can re-win on merit. Caller holds
// the tuner mutex.
func (st *siteState) liftExpired(now time.Time) {
	for i := range st.arms {
		a := &st.arms[i]
		if !a.quarantined || a.quarantineUntil.After(now) {
			continue
		}
		a.quarantined = false
		st.nquar--
		a.resetEstimate()
		if st.phase == phaseExploit {
			st.phase = phaseMeasure
			st.cursor = i
		}
	}
}

// soonestLift returns the quarantined arm whose backoff expires first —
// the routing of last resort when every arm at a site is quarantined.
func (st *siteState) soonestLift() int {
	best := 0
	for i := 1; i < len(st.arms); i++ {
		if st.arms[i].quarantineUntil.Before(st.arms[best].quarantineUntil) {
			best = i
		}
	}
	return best
}

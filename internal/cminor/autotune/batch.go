package autotune

import (
	"context"
	"errors"
	"fmt"

	cm "socrates/internal/cminor"
)

// Batched routing. A serving layer that coalesces same-(function,
// input-class) requests wants them to share one policy decision and one
// warm checked-out Instance: switching variants call-to-call is itself
// expensive (cold closure graph, predictor/icache thrash — the reason
// the measure phase samples in bursts), and a pool checkout per call
// adds a lock round-trip the batch can amortize. CallBatch is that
// hook: the whole batch rides a single arm selection on a single pooled
// session, while every call is still measured and observed
// individually, so the estimates see exactly the back-to-back sample
// shape they prefer.

// BatchCall is one invocation in an AutoTuner.CallBatch batch: the
// inputs (Ctx may be nil), and the per-call results CallBatch fills in.
type BatchCall struct {
	Ctx  context.Context
	Args []any

	// Results, written by CallBatch.
	Ret cm.Value
	Err error
	// Steps is the call's statement count (Instance.LastCallSteps) —
	// the deterministic cost a serving layer debits step budgets with.
	Steps int
	// Degraded reports the call was served by trusted-fallback
	// re-execution after a contained internal fault (resilience.go).
	Degraded bool
	// Fault is the contained internal fault of the call, nil when it
	// ran clean (set both when fallback degraded it away and when it
	// surfaced as Err).
	Fault *cm.InternalFault
}

// CallBatch routes a batch of invocations of fn through ONE
// explore/exploit decision: a single arm is selected for the batch's
// (function, input-class) site — the SizeClass of the first entry;
// callers group entries by it — and a single pooled Instance of that
// arm runs every call back-to-back. Each call is measured and observed
// individually, so estimates, quarantine signals and audit cadence see
// k calls; the batch only amortizes the selection, the checkout, and
// the variant switch. This is the tuner's one routed-call pipeline:
// Call and CallContext are batches of one.
//
// Per-call outcomes (value, error, steps, degradation) are written into
// the batch entries; the returned error is reserved for batch-level
// failures (unknown function, variant materialization). A session
// poisoned mid-batch is recycled through the pool — which rebuilds its
// globals — before the next entry runs, so one entry's contained fault
// cannot leak half-written state into its batch-mates.
func (t *AutoTuner) CallBatch(fn string, batch []BatchCall) error {
	if len(batch) == 0 {
		return nil
	}
	// Reject unknown functions before any selection state exists:
	// otherwise caller-supplied garbage names would grow the site map
	// without bound and charge pulls that can never be measured.
	if !t.base.HasFunc(fn) {
		return fmt.Errorf("autotune: no function %q", fn)
	}
	key := siteKey{fn: fn, class: SizeClass(batch[0].Args)}
	riders := len(batch) - 1

	t.mu.Lock()
	st := t.site(key)
	idx := st.choose(&t.cfg, &t.rng)
	// Audit cadence: every nth call at the site re-executes on the
	// trusted tier and compares outcomes bit-exactly, so a silently
	// wrong arm is caught even though it never panics. An audited call
	// runs in full, never as a trial.
	audit := t.cfg.auditEvery > 0 && st.pulls%t.cfg.auditEvery == 0
	slice, length := 0, 0
	if !audit {
		slice, length = st.trialSlice(idx)
	}
	// The riders follow the leader's arm: charge their pulls the same
	// way choose would have, without re-running the policy — once a
	// survey trial has decided which arm that is.
	st.pulls += int64(riders)
	if slice == 0 {
		st.chargeRiders(idx, riders)
	}
	t.mu.Unlock()

	slot, err := t.variant(idx)
	if err != nil {
		return err
	}
	// A batch of the serving layer's default size or smaller keeps its
	// per-call measurements on the stack.
	var costBuf [8]float64
	var outBuf [8]callOutcome
	costs, outs := costBuf[:0], outBuf[:0]
	if n := len(batch); n <= len(costBuf) {
		costs, outs = costBuf[:n], outBuf[:n]
	} else {
		costs, outs = make([]float64, n), make([]callOutcome, n)
	}
	inst := slot.pool.Get()
	first := 0 // entries the survey trial settled
	if slice > 0 {
		b := &batch[0]
		cost, diverged, done := t.trial(inst, b, fn, idx, key.class, slice, length)
		t.mu.Lock()
		served := idx
		if !done {
			served = st.cutByTrial(idx, cost)
		}
		st.chargeRiders(served, riders)
		t.mu.Unlock()
		cut, retime := served != idx, false
		switch {
		case done:
			// A trial that finished inside its slice is the call.
		case cut:
			// The projection stands in for the arm's survey sample, and the
			// best arm serves the call and every rider.
			slot.pool.Put(inst)
			if slot, err = t.variant(served); err != nil {
				return err
			}
			idx, inst = served, slot.pool.Get()
			diverged, _ = execute(inst, b, fn, false, 0)
		case t.cfg.sampler != nil:
			// A near tie under a Sampler, which prices whole calls: the
			// trial's price is the call's, and the call runs in full
			// unpriced, so the Sampler still sees one call per call.
			diverged, _ = execute(inst, b, fn, false, 0)
		default:
			// A near tie on the clock: the loop below runs the call in
			// full on the arm and times it.
			retime = true
		}
		if !retime {
			costs[0], outs[0] = cost, settle(inst, b, false, diverged)
			// A cut leader's cost is no sample of the best arm — it is
			// another arm's trial — but its faults are the best arm's.
			outs[0].ok = outs[0].ok && !cut
			first = 1
		}
		if inst.Poisoned() {
			slot.pool.Put(inst)
			inst = slot.pool.Get()
		}
	}
	for i := first; i < len(batch); i++ {
		b := &batch[i]
		// Audit cadence is a per-site decision; in a batch it lands on
		// the leader — one reference re-execution per audited batch.
		doAudit := audit && i == 0
		cost, diverged, _ := t.measure(inst, b, fn, idx, key.class, doAudit, 0)
		costs[i], outs[i] = cost, settle(inst, b, doAudit, diverged)
		if inst.Poisoned() {
			// Half-written globals must not serve the rest of the batch:
			// Put repairs poisoned sessions, so cycle through the pool.
			slot.pool.Put(inst)
			inst = slot.pool.Get()
		}
	}
	slot.pool.Put(inst)

	t.mu.Lock()
	for i := range outs {
		st.observe(&t.cfg, idx, costs[i], outs[i])
	}
	t.mu.Unlock()
	return nil
}

// trial runs entry b on inst as a survey trial: at most slice of the
// call's length statements. A trial that finishes is the call (done),
// priced as measure prices it. One that does not is priced as the whole
// call: a Sampler prices whole calls already, and on the clock the
// slice's time is projected. Where a call is short, a trial's time is
// mostly fixed cost — the snapshot it rolls back, and a fresh session's
// first call — which a plain projection would multiply by length/slice.
// Two one-statement trials price it first: the first is what a cold
// call costs besides its statements, the second what every trial costs
// besides its statements. The projection is the first plus the slice's
// own time scaled to the call's length.
func (t *AutoTuner) trial(inst *cm.Instance, b *BatchCall, fn string, idx, class, slice, length int) (cost float64, diverged, done bool) {
	if t.cfg.sampler != nil || slice < 2 {
		return t.measure(inst, b, fn, idx, class, false, slice)
	}
	var cold, fixed float64
	for i := range 2 {
		if fixed, diverged, done = t.measure(inst, b, fn, idx, class, false, 1); done {
			return fixed, diverged, true
		}
		if i == 0 {
			cold = fixed
		}
	}
	if cost, diverged, done = t.measure(inst, b, fn, idx, class, false, slice); done {
		return cost, diverged, true
	}
	return cold + max(cost-fixed, 0)*float64(length-1)/float64(slice-1), false, false
}

// measure runs entry b on inst (execute) and prices it: wall time on
// the tuner's Clock, or the injected Sampler's cost.
func (t *AutoTuner) measure(inst *cm.Instance, b *BatchCall, fn string, idx, class int, audit bool, slice int) (cost float64, diverged, done bool) {
	if t.cfg.sampler == nil {
		// Production measurement is inline and closure-free: on the small
		// kernels a routed call is tens of microseconds, so the tuner
		// must not allocate.
		t0 := t.cfg.clock.Now()
		diverged, done = execute(inst, b, fn, audit, slice)
		return float64(t.cfg.clock.Now().Sub(t0)), diverged, done
	}
	return t.sampleCall(inst, b, fn, idx, class, audit, slice)
}

// execute runs entry b on a checked-out session — audited against the
// trusted tier, as a trial of slice statements when slice > 0, or
// plain — and writes its value and error into b. done is false only for
// a trial that did not finish, rolled back with nothing written.
func execute(inst *cm.Instance, b *BatchCall, fn string, audit bool, slice int) (diverged, done bool) {
	switch {
	case audit:
		b.Ret, diverged, b.Err = inst.CallAudited(b.Ctx, fn, b.Args...)
		return diverged, true
	case slice > 0:
		b.Ret, done, b.Err = inst.CallTrial(b.Ctx, slice, fn, b.Args...)
		return false, done
	}
	b.Ret, b.Err = inst.CallContext(b.Ctx, fn, b.Args...)
	return false, true
}

// settle reads the finished call's taps into b and classifies it for
// the site's phase machine.
func settle(inst *cm.Instance, b *BatchCall, audit, diverged bool) callOutcome {
	b.Steps = inst.LastCallSteps()
	b.Degraded = inst.LastCallDegraded()
	b.Fault = inst.LastCallFault()
	out := callOutcome{
		ok:       b.Err == nil && !audit,
		fault:    b.Fault != nil,
		degraded: b.Degraded,
		diverged: diverged,
		steps:    b.Steps,
	}
	if b.Err != nil {
		// Declared here, not above: errors.As makes it escape, and only a
		// failed call should pay for that.
		var ifault *cm.InternalFault
		if errors.As(b.Err, &ifault) {
			out.fault = true
		}
	}
	return out
}

// sampleCall measures one call through the injected Sampler. It is a
// function of its own so that what the Sampler's closure captures
// escapes here, on this path only, and not from every CallBatch.
func (t *AutoTuner) sampleCall(inst *cm.Instance, b *BatchCall, fn string, idx, class int,
	audit bool, slice int) (cost float64, diverged, done bool) {
	// The closure runs a copy of the entry, so that the batch itself
	// does not escape.
	c := *b
	d, err := t.cfg.sampler.Sample(fn, t.cfg.grid[idx], class, func() error {
		diverged, done = execute(inst, &c, fn, audit, slice)
		return c.Err
	})
	b.Ret, b.Err = c.Ret, err
	return float64(d), diverged, done
}

package autotune

import (
	"context"
	"errors"
	"fmt"
	"time"

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

	t.mu.Lock()
	st := t.site(key)
	idx := st.choose(&t.cfg, &t.rng)
	// Audit cadence: every nth call at the site re-executes on the
	// trusted tier and compares outcomes bit-exactly, so a silently
	// wrong arm is caught even though it never panics.
	audit := t.cfg.auditEvery > 0 && st.pulls%t.cfg.auditEvery == 0
	// The riders follow the leader's arm: charge their pulls the same
	// way choose would have, without re-running the policy.
	for range batch[1:] {
		st.pulls++
		st.arms[idx].pulls++
		if st.phase == phaseExploit && idx != st.best {
			st.explore++
		}
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
	for i := range batch {
		b := &batch[i]
		// Audit cadence is a per-site decision; in a batch it lands on
		// the leader — one reference re-execution per audited batch.
		doAudit := audit && i == 0
		var diverged bool
		var cost time.Duration
		if t.cfg.sampler == nil {
			// Production measurement — wall time on the tuner's Clock — is
			// inline and closure-free: on the small kernels a routed call
			// is tens of microseconds, so the tuner must not allocate.
			t0 := t.cfg.clock.Now()
			b.Ret, diverged, b.Err = execute(inst, b.Ctx, fn, b.Args, doAudit)
			cost = t.cfg.clock.Now().Sub(t0)
		} else {
			b.Ret, diverged, cost, b.Err = t.sampleCall(inst, b.Ctx, fn, b.Args, doAudit, idx, key.class)
		}
		b.Steps = inst.LastCallSteps()
		b.Degraded = inst.LastCallDegraded()
		b.Fault = inst.LastCallFault()
		out := callOutcome{
			ok:       b.Err == nil && !doAudit,
			fault:    b.Fault != nil,
			degraded: b.Degraded,
			diverged: diverged,
		}
		if b.Err != nil {
			// Declared here, not above: errors.As makes it escape, and
			// only a failed call should pay for that.
			var ifault *cm.InternalFault
			if errors.As(b.Err, &ifault) {
				out.fault = true
			}
		}
		costs[i], outs[i] = float64(cost), out
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

// execute runs one call on a checked-out session, audited against the
// trusted tier or plain. A nil ctx is Instance.Call.
func execute(inst *cm.Instance, ctx context.Context, fn string, args []any, audit bool) (cm.Value, bool, error) {
	if audit {
		return inst.CallAudited(ctx, fn, args...)
	}
	ret, err := inst.CallContext(ctx, fn, args...)
	return ret, false, err
}

// sampleCall measures one call through the injected Sampler. It is a
// function of its own so that what the Sampler's closure captures
// escapes here, on this path only, and not from every CallBatch.
func (t *AutoTuner) sampleCall(inst *cm.Instance, ctx context.Context, fn string, args []any,
	audit bool, idx, class int) (ret cm.Value, diverged bool, cost time.Duration, err error) {
	cost, err = t.cfg.sampler.Sample(fn, t.cfg.grid[idx], class, func() (e error) {
		ret, diverged, e = execute(inst, ctx, fn, args, audit)
		return e
	})
	return ret, diverged, cost, err
}

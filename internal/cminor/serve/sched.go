package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// The scheduler core: everything below runs under Server.mu, as a
// synchronous state machine. Workers (or Tick) pop ready batches out
// of it and run them outside the lock; completion re-enters it to
// settle accounts. Keeping the policy surface lock-synchronous is what
// makes the fake-clock simulations exact.

// entry is one admitted request in flight through the scheduler. The
// embedded Pending (response, queued group, the done channel if anyone
// has to block on it) is the handle Submit returns. An entry that opens
// a batch carries that group and the first backing array of its
// entries, so a batch of one run by its own waiter costs no allocation
// beyond the entry.
type entry struct {
	Pending
	req    Request
	ctx    context.Context
	tenant *tenantState
	route  *route
	class  int
	enq    time.Time
	own    group
	first  [1]*entry
}

// group is a forming (or dispatched) batch.
type group struct {
	route   *route
	class   int
	born    time.Time
	entries []*entry
}

// Rejection reasons, in admission's check order: the index of a
// tenant ledger's rejected counter.
const (
	rejUnknown = iota
	rejClosed
	rejExpired
	rejFull
	rejInFlight
	rejRate
	rejSteps
	numRejects
)

// tenantState is one tenant's quota buckets and usage ledger. The
// ledger is the only place a request outcome is counted: a submission
// bumps admitted or one rejected reason, and an admitted request
// settles into exactly one of completed, failed, shedQueued and
// shedRunning. degraded and faults qualify those outcomes; steps is the
// work they cost.
type tenantState struct {
	name       string
	quota      TenantQuota
	inflight   int
	reqBucket  bucket
	stepBucket bucket

	admitted    int64
	rejected    [numRejects]int64
	completed   int64
	failed      int64
	shedQueued  int64
	shedRunning int64
	degraded    int64
	faults      int64
	steps       int64
}

func (ts *tenantState) snapshot(now time.Time) TenantSnapshot {
	ts.reqBucket.refill(now)
	ts.stepBucket.refill(now)
	var rejected int64
	for _, n := range ts.rejected {
		rejected += n
	}
	return TenantSnapshot{
		Tenant:     ts.name,
		InFlight:   ts.inflight,
		Submitted:  ts.admitted + rejected,
		Admitted:   ts.admitted,
		Rejected:   rejected,
		Completed:  ts.completed,
		Failed:     ts.failed,
		Shed:       ts.shedQueued + ts.shedRunning,
		Degraded:   ts.degraded,
		Faults:     ts.faults,
		Steps:      ts.steps,
		RateTokens: ts.reqBucket.tokens,
		StepTokens: ts.stepBucket.tokens,
	}
}

// addTo adds the tenant's ledger into the server-wide totals of sn.
func (ts *tenantState) addTo(sn *Snapshot) {
	sn.Admitted += ts.admitted
	sn.RejectedUnknown += ts.rejected[rejUnknown]
	sn.RejectedClosed += ts.rejected[rejClosed]
	sn.RejectedExpired += ts.rejected[rejExpired]
	sn.RejectedFull += ts.rejected[rejFull]
	sn.RejectedInFlight += ts.rejected[rejInFlight]
	sn.RejectedRate += ts.rejected[rejRate]
	sn.RejectedSteps += ts.rejected[rejSteps]
	sn.Completed += ts.completed
	sn.Failed += ts.failed
	sn.ShedQueued += ts.shedQueued
	sn.ShedRunning += ts.shedRunning
	sn.Degraded += ts.degraded
	sn.Faults += ts.faults
}

// tenant returns (lazily creating) the named tenant's state.
func (s *Server) tenant(name string) *tenantState {
	ts, ok := s.tenants[name]
	if !ok {
		q := s.cfg.quotas[name] // the zero quota is unlimited
		now := s.cfg.clock.Now()
		ts = &tenantState{
			name:       name,
			quota:      q,
			reqBucket:  newBucket(q.Rate, q.Burst, now),
			stepBucket: newBucket(q.StepRate, q.StepBurst, now),
		}
		s.tenants[name] = ts
	}
	return ts
}

// admit runs the admission gauntlet under s.mu on an entry Submit built
// before taking the lock (request, context, class and the clock reading
// are the request's own), and fills in what the server's state decides:
// the tenant and the route. The check order is part of the contract
// (pinned by simulation): unknown function, closed, expired deadline,
// queue full, tenant in-flight cap, tenant request rate, tenant step
// credit (the switch evaluates them in that order, so a rate token is
// taken only from a request that passed the checks before it). A
// rejection charges nothing but the tenant's count for its reason —
// and every submission, whatever becomes of it, is either admitted or
// counted rejected in its tenant's ledger.
func (s *Server) admit(e *entry) error {
	req, now := &e.req, e.enq
	ts := s.tenant(req.Tenant)
	rt, ok := s.routes[req.Function]
	var reason int
	var err error
	switch {
	case !ok:
		reason, err = rejUnknown, fmt.Errorf("%w: %q", ErrUnknownFunction, req.Function)
	case s.closed:
		reason, err = rejClosed, ErrClosed
	case !req.Deadline.IsZero() && !req.Deadline.After(now):
		reason, err = rejExpired, fmt.Errorf("%w (deadline %v, now %v)", ErrDeadlineExpired, req.Deadline, now)
	case s.queued >= s.cfg.queueDepth:
		reason, err = rejFull, fmt.Errorf("%w (%d queued)", ErrQueueFull, s.queued)
	case ts.quota.MaxInFlight > 0 && ts.inflight >= ts.quota.MaxInFlight:
		reason, err = rejInFlight, fmt.Errorf("%w (tenant %q, %d in flight)", ErrTenantInFlight, req.Tenant, ts.inflight)
	case !ts.reqBucket.take(now, 1):
		reason, err = rejRate, fmt.Errorf("%w (tenant %q)", ErrTenantRate, req.Tenant)
	case !ts.stepBucket.hasCredit(now):
		reason, err = rejSteps, fmt.Errorf("%w (tenant %q, balance %.0f)", ErrTenantSteps, req.Tenant, ts.stepBucket.tokens)
	}
	if err != nil {
		ts.rejected[reason]++
		return err
	}
	ts.admitted++
	ts.inflight++
	e.tenant, e.route = ts, rt
	return nil
}

// enqueue places an admitted entry into a batch group: an open
// same-(function, class) group if one is still forming (route.open),
// else a fresh group at the queue tail. Runs under s.mu. It reports
// whether the queue now needs a worker it may not have: the entry made
// a group dispatchable (a fresh group that is not held, or the joiner
// that fills one), or started a hold no timekeeper is sleeping for. A
// joiner of an unfilled group changes nothing a worker acts on.
func (s *Server) enqueue(e *entry) bool {
	now := e.enq
	s.queued++
	if g, ok := e.route.open[e.class]; ok {
		g.entries = append(g.entries, e)
		e.grp = g
		if len(g.entries) >= s.cfg.maxBatch {
			delete(e.route.open, e.class) // full: no more joiners
			return true
		}
		return false
	}
	e.first[0] = e
	g := &e.own
	*g = group{route: e.route, class: e.class, born: now, entries: e.first[:]}
	e.grp = g
	s.queue = append(s.queue, g)
	if s.cfg.maxBatch > 1 {
		e.route.open[e.class] = g
	}
	return !s.keeping || s.ready(g, now)
}

// ready reports whether a group should dispatch now rather than keep
// waiting for company.
func (s *Server) ready(g *group, now time.Time) bool {
	if len(g.entries) >= s.cfg.maxBatch || s.cfg.maxBatchDelay <= 0 || s.closed {
		return true
	}
	return !g.born.Add(s.cfg.maxBatchDelay).After(now)
}

// popReady scans the queue in FIFO order under s.mu: sheds entries
// whose deadline expired while queued, drops emptied groups, and
// removes and returns the first ready group, folding how late it left
// into the hold-late gauge when it waited out its batch delay (not
// filled, not flushed by Close). When nothing is ready but
// unripe groups remain, the zero group is returned along with the
// soonest ripen time, for a worker to sleep until (nextGroup).
//
// A non-nil mine restricts the pop to mine's group (a waiter's own, see
// Pending.Wait): it is returned only if it is the first ready group,
// the one a worker's scan would take now, and still holds mine (the
// scan may shed it); otherwise nothing is popped and no ripen time is
// reported.
func (s *Server) popReady(now time.Time, mine *Pending) (*group, time.Time) {
	var ripen time.Time
	i := 0
	for i < len(s.queue) {
		g := s.queue[i]
		// Shed queued entries that can no longer make their deadline.
		kept := g.entries[:0]
		for _, e := range g.entries {
			if !e.req.Deadline.IsZero() && !e.req.Deadline.After(now) {
				s.shedQueuedLocked(e, now)
				continue
			}
			kept = append(kept, e)
		}
		g.entries = kept
		if len(g.entries) == 0 {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.closeGroupLocked(g)
			continue
		}
		if s.ready(g, now) {
			if mine != nil && g != mine.grp {
				return nil, time.Time{}
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.closeGroupLocked(g)
			for _, e := range g.entries {
				e.grp = nil
			}
			n := len(g.entries)
			if n < s.cfg.maxBatch && s.cfg.maxBatchDelay > 0 && !s.closed {
				s.met.observeHoldLate(now.Sub(g.born.Add(s.cfg.maxBatchDelay)))
			}
			s.queued -= n
			s.running += n
			s.met.batches++
			s.met.batchedCalls += int64(n)
			return g, time.Time{}
		}
		if mine != nil && g == mine.grp {
			return nil, time.Time{}
		}
		if r := g.born.Add(s.cfg.maxBatchDelay); ripen.IsZero() || r.Before(ripen) {
			ripen = r
		}
		i++
	}
	return nil, ripen
}

// closeGroupLocked stops g taking joiners. A group filled by its last
// joiner is already closed, and a newer group of its site may be the
// one forming now: that one keeps its place.
func (s *Server) closeGroupLocked(g *group) {
	if g.route.open[g.class] == g {
		delete(g.route.open, g.class)
	}
}

// shedQueuedLocked completes a queued entry as shed without running it.
func (s *Server) shedQueuedLocked(e *entry, now time.Time) {
	s.queued--
	e.grp = nil
	e.finished = true
	e.tenant.inflight--
	e.tenant.shedQueued++
	e.resp = Response{
		Err:   fmt.Errorf("%w (queued %v)", ErrShed, now.Sub(e.enq)),
		Wait:  now.Sub(e.enq),
		Total: now.Sub(e.enq),
	}
	if e.done != nil {
		close(e.done)
	}
}

// runGroup executes one batch outside s.mu and settles each entry;
// dispatched is the clock reading that popped it. The batch rides one
// warm pooled instance and one autotuner variant decision
// (autotune.CallBatch); per-entry contexts carry cancellation into the
// engine's zero-cost call checkpoint.
func (s *Server) runGroup(g *group, dispatched time.Time) {
	// A batch of the default maxBatch or fewer keeps its calls on the
	// stack.
	var scratch [8]autotune.BatchCall
	calls := scratch[:0]
	if n := len(g.entries); n <= len(scratch) {
		calls = scratch[:n]
	} else {
		calls = make([]autotune.BatchCall, n)
	}
	var cancels []context.CancelFunc
	for i, e := range g.entries {
		ctx := e.ctx
		if ctx == nil {
			ctx = context.Background()
		}
		// Under the production clock, arm the request deadline as a real
		// context deadline so running kernels abort mid-flight. (An
		// injected clock cannot fire wall timers; there the scheduler's
		// own checkpoints — admission and queue scan — enforce it.)
		if s.wallDeadlines && !e.req.Deadline.IsZero() {
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, e.req.Deadline)
			cancels = append(cancels, cancel)
		}
		calls[i] = autotune.BatchCall{Ctx: ctx, Args: e.req.Args}
	}
	batchErr := g.route.tuner.CallBatch(g.route.fn, calls)
	for _, cancel := range cancels {
		cancel()
	}
	now := s.cfg.clock.Now()

	s.mu.Lock()
	for i, e := range g.entries {
		s.finishLocked(e, &calls[i], batchErr, dispatched, now, len(g.entries))
	}
	s.mu.Unlock()
	// The entries are finished: no done channel is made from here on, so
	// the ones that were can be read without the lock.
	for _, e := range g.entries {
		if e.done != nil {
			close(e.done)
		}
	}
}

// finishLocked settles one completed entry under s.mu: outcome
// classification, tenant accounting, post-paid step debit, metrics.
func (s *Server) finishLocked(e *entry, c *autotune.BatchCall, batchErr error, dispatched, now time.Time, batched int) {
	s.running--
	e.finished = true
	e.tenant.inflight--
	e.tenant.steps += int64(c.Steps)
	e.tenant.stepBucket.spend(now, float64(c.Steps))

	e.resp = Response{
		Value:    c.Ret,
		Degraded: c.Degraded,
		Fault:    c.Fault,
		Steps:    c.Steps,
		Wait:     dispatched.Sub(e.enq),
		Total:    now.Sub(e.enq),
		Batched:  batched,
	}
	err := batchErr
	if err == nil {
		err = c.Err
	}
	switch {
	case err == nil:
		e.tenant.completed++
		if c.Degraded {
			e.tenant.degraded++
		}
		if c.Fault != nil {
			e.tenant.faults++
		}
		s.met.observeDone(now, e.resp.Total)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The running call was aborted through its context: a shed, not
		// a failure — the tenant asked for (or timed out of) the abort.
		e.tenant.shedRunning++
		err = fmt.Errorf("%w: %v", ErrShed, err)
	default:
		// Program fault or surfaced internal fault. Contained either
		// way: the worker survives, the tenant is told.
		e.tenant.failed++
		var ifault *cm.InternalFault
		if errors.As(err, &ifault) || c.Fault != nil {
			e.tenant.faults++
		}
	}
	e.resp.Err = err
}

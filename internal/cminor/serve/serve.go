// Package serve is the multi-tenant front end of the SOCRATES engine:
// an admission-controlled request scheduler that multiplexes many
// concurrent callers onto shared Programs through pooled Instances,
// with one AutoTuner per hosted program picking the variant every
// dispatch runs on.
//
// The request lifecycle is
//
//	admit → queue → batch → dispatch → contain/shed → account
//
// Admission is a bounded queue plus per-tenant token-bucket quotas
// (request rate, in-flight cap, post-paid interpreter-step budget) on
// an injected Clock. Admitted requests coalesce into batches keyed by
// (function, input-size class) — the autotuner's site key — so a batch
// shares one variant decision and one warm checked-out Instance
// (autotune.CallBatch), bounded by a max batch size and a max batch
// delay. Worker goroutines dispatch ready batches, and so does a caller
// in Pending.Wait whose own batch is the next one a worker would take:
// it runs that batch itself rather than waiting for a worker to wake
// for it. A parked worker is woken only when the queue holds more
// batches than there are workers already woken and on their way to it,
// since each of those scans the whole queue: a request whose own waiter
// claims its batch before the woken worker arrives wakes nobody else.
// Such a waiter-run request allocates only its scheduler entry:
// a request's done channel is made only for a caller that has to block
// on it. Expired deadlines shed queued work before it ever runs, and
// cancelled contexts abort running kernels through the engine's
// zero-cost CallContext checkpoint. Contained faults and
// degraded (trusted-fallback) calls feed per-tenant error accounting
// instead of killing workers — the quarantine layer underneath keeps
// routing around the bad variant.
//
// The scheduler core is a synchronous state machine under one mutex;
// the worker pool is a thin loop over it. That makes the whole policy
// surface — admission order, quota refill, batch ripening, shed
// ordering — drivable call-by-call with a fake clock (WithWorkers(0) +
// Tick), the same simulation discipline the autotuner's tests use,
// while the production configuration runs the identical code under
// real goroutines.
//
// Each request outcome is counted once, in its tenant's ledger under
// that mutex, and Snapshot sums the ledgers under it: every snapshot is
// one consistent cut whose counts balance. Warm starts belong to the
// tuner Host returns: LoadFrom it before Start, SaveTo it after Close.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// Admission and scheduling errors. Submit wraps them with request
// context; match with errors.Is.
var (
	ErrClosed          = errors.New("serve: server closed")
	ErrUnknownFunction = errors.New("serve: unknown function")
	ErrDeadlineExpired = errors.New("serve: deadline already expired")
	ErrQueueFull       = errors.New("serve: queue full")
	ErrTenantInFlight  = errors.New("serve: tenant in-flight limit reached")
	ErrTenantRate      = errors.New("serve: tenant request rate exhausted")
	ErrTenantSteps     = errors.New("serve: tenant step budget exhausted")
	// ErrShed is the outcome of a queued request whose deadline expired
	// before a worker could dispatch it.
	ErrShed = errors.New("serve: request shed: deadline expired in queue")
)

// Request is one unit of work: a tenant asking for one function call.
type Request struct {
	Tenant   string
	Function string
	Args     []any
	// Deadline, when non-zero, is an absolute time on the SERVER's
	// clock: work still queued past it is shed unrun, and — under the
	// production wall clock — running work is aborted through context
	// cancellation. Zero means no deadline.
	Deadline time.Time
}

// Response is the outcome of one request.
type Response struct {
	Value cm.Value
	Err   error
	// Degraded reports the call was served by trusted-fallback
	// re-execution after a contained internal fault; the value is
	// correct either way.
	Degraded bool
	// Fault is the contained internal fault, if the call hit one.
	Fault *cm.InternalFault
	// Steps is the call's deterministic statement count — what the
	// tenant's step budget was debited.
	Steps int
	// Wait is time spent queued; Total is queue + execution + batch
	// company, submit to completion.
	Wait  time.Duration
	Total time.Duration
	// Batched is the size of the batch this request rode in.
	Batched int
}

// serverConfig is the resolved option set.
type serverConfig struct {
	queueDepth    int
	workers       int
	maxBatch      int
	maxBatchDelay time.Duration
	clock         clock.Clock
	quotas        map[string]TenantQuota
}

// Option configures New.
type Option func(*serverConfig)

// WithQueueDepth bounds the admission queue in entries (default 256).
// A full queue rejects with ErrQueueFull — backpressure at the front
// door, never unbounded memory.
func WithQueueDepth(n int) Option { return func(c *serverConfig) { c.queueDepth = n } }

// WithWorkers sets the dispatch worker count (default 4). A caller
// waiting on its request also runs its own batch when that batch is
// next (Pending.Wait), so concurrency is the workers plus the waiting
// callers. 0 disables the worker pool and waiter-run dispatch alike:
// nothing dispatches until Tick is called — the deterministic harness
// mode simulations drive with a fake clock.
func WithWorkers(n int) Option { return func(c *serverConfig) { c.workers = n } }

// WithMaxBatch caps how many same-(function, class) requests one
// dispatch coalesces onto a warm Instance (default 8; 1 disables
// batching).
func WithMaxBatch(n int) Option { return func(c *serverConfig) { c.maxBatch = n } }

// WithMaxBatchDelay sets how long an unfilled batch may wait for
// same-class company before dispatching anyway (default 0: dispatch
// immediately, batching is purely opportunistic on queue contents).
//
// The hold is kept by one worker at a time, the timekeeper (see
// nextGroup): it sleeps until the oldest held batch ripens while every
// other idle worker stays parked, so a held batch costs one wake-up,
// not one per worker. Whole milliseconds of a hold wait on a runtime
// timer, which a filling batch or Close cuts short; the last
// sub-millisecond part is a nanosleep(2) of the timekeeper's thread,
// which nothing cuts short. On Linux that sleep runs at a 1ns timer
// slack, so a batch dispatches about ten microseconds after its ripen
// time (a 100µs hold is observed as about 110µs of Response.Wait;
// Snapshot.HoldLate reports the lateness), elsewhere up to a
// millisecond after it. A batch that fills during the hold is
// dispatched at once by another idle worker; with every other worker
// busy, or WithWorkers(1), it waits out at most that sub-millisecond
// part.
func WithMaxBatchDelay(d time.Duration) Option {
	return func(c *serverConfig) { c.maxBatchDelay = d }
}

// WithClock injects the scheduler's time source (default: wall clock):
// admission buckets, batch ripening and deadline shedding all read it,
// so a fake clock drives every policy decision deterministically.
func WithClock(clk clock.Clock) Option { return func(c *serverConfig) { c.clock = clk } }

// WithTenantQuota sets one tenant's quota. Tenants without one are
// unlimited.
func WithTenantQuota(tenant string, q TenantQuota) Option {
	return func(c *serverConfig) {
		if c.quotas == nil {
			c.quotas = map[string]TenantQuota{}
		}
		c.quotas[tenant] = q
	}
}

// route is one hosted function and the tuner that routes its calls.
// open indexes its batches still forming by input-size class, under
// Server.mu: a batch coalesces per (function, class), the autotuner's
// site key, so it shares one variant decision.
type route struct {
	fn    string
	tuner *autotune.AutoTuner
	open  map[int]*group
}

// Server is the multi-tenant serving front end. Create with New, host
// programs with Host, start the worker pool with Start, submit with
// Do/Submit. All methods are safe for concurrent use.
type Server struct {
	cfg serverConfig

	mu      sync.Mutex
	cond    *sync.Cond
	routes  map[string]*route
	tenants map[string]*tenantState
	queue   []*group
	queued  int
	running int
	started bool
	closed  bool
	start   time.Time
	met     metrics // gauges and batch counts; the ledgers are in tenants
	// How idle workers wait (nextGroup). parked counts the workers in
	// cond.Wait that no Signal has been spent on yet; waking counts the
	// workers a Signal was spent on (or is owed to, by a Submit that
	// signals after unlocking) and that have not yet come back from
	// cond.Wait. A worker moves from parked to waking when it is woken
	// (wakeOneLocked) and leaves waking when it holds s.mu again. keeping
	// is set while one worker, the timekeeper, sleeps until the soonest
	// ripen time; kick is non-nil while that sleep is its interruptible
	// whole-millisecond part, and closing it ends the sleep.
	parked  int
	waking  int
	keeping bool
	kick    chan struct{}
	// wakes counts returns from cond.Wait and holds the timekeeper's
	// sleeps: what white-box tests assert the wake discipline on.
	wakes, holds int64

	wg sync.WaitGroup

	// wallDeadlines: under the production clock, Request.Deadline is
	// also armed as a context deadline so running kernels abort
	// mid-flight; under an injected clock only the scheduler's
	// checkpoints enforce it (a fake clock cannot fire real timers).
	wallDeadlines bool
}

// New builds a Server. It serves nothing until programs are hosted
// (Host) and, unless driven manually with Tick, workers are started
// (Start).
func New(opts ...Option) (*Server, error) {
	cfg := serverConfig{
		queueDepth: 256,
		workers:    4,
		maxBatch:   8,
		clock:      clock.Wall{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.queueDepth < 1 {
		return nil, fmt.Errorf("serve: queue depth must be >= 1, got %d", cfg.queueDepth)
	}
	if cfg.workers < 0 {
		return nil, fmt.Errorf("serve: worker count must be >= 0, got %d", cfg.workers)
	}
	if cfg.maxBatch < 1 {
		return nil, fmt.Errorf("serve: max batch must be >= 1, got %d", cfg.maxBatch)
	}
	if cfg.maxBatchDelay < 0 {
		return nil, fmt.Errorf("serve: max batch delay must be >= 0, got %v", cfg.maxBatchDelay)
	}
	for k, q := range cfg.quotas {
		if err := q.validate(); err != nil {
			return nil, fmt.Errorf("serve: tenant %q quota: %w", k, err)
		}
		cfg.quotas[k] = q.normalize()
	}
	s := &Server{
		cfg:     cfg,
		routes:  map[string]*route{},
		tenants: map[string]*tenantState{},
		start:   cfg.clock.Now(),
	}
	s.cond = sync.NewCond(&s.mu)
	_, s.wallDeadlines = cfg.clock.(clock.Wall)
	return s, nil
}

// Host registers every function of prog with the server, wrapping the
// program in its own AutoTuner (one tuner per program — the paper's
// continuous-selection engine) built with the given options. Function
// names are a flat namespace across hosted programs; a duplicate is an
// error. The returned tuner is the introspection handle (Snapshot,
// Best) and the warm-start one: LoadFrom it before Start to seed the
// previous process's learned tables, SaveTo it after Close to keep
// this one's.
func (s *Server) Host(prog *cm.Program, opts ...autotune.Option) (*autotune.AutoTuner, error) {
	tn, err := autotune.New(prog, opts...)
	if err != nil {
		return nil, err
	}
	fns := prog.Funcs()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	for _, fn := range fns {
		if _, dup := s.routes[fn]; dup {
			return nil, fmt.Errorf("serve: function %q already hosted", fn)
		}
	}
	for _, fn := range fns {
		s.routes[fn] = &route{fn: fn, tuner: tn, open: map[int]*group{}}
	}
	return tn, nil
}

// Start launches the worker pool. Idempotent; a no-op with
// WithWorkers(0) (drive with Tick instead).
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started || s.closed {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Close stops admission immediately (submissions return ErrClosed),
// lets the workers drain everything already queued — batch-delay holds
// are flushed — and waits for them to exit. With WithWorkers(0) the
// queue is drained synchronously by Close itself.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	// The broadcast wakes every parked worker, and each one leaves
	// waking when it comes back.
	s.waking += s.parked
	s.parked = 0
	s.cond.Broadcast()
	s.kickLocked()
	s.mu.Unlock()
	s.wg.Wait()
	// No workers to drain for us: serve what is left here.
	for s.Tick() {
	}
}

// Submit enqueues one request, returning immediately with a Pending
// handle or an admission error. ctx governs the request's execution: a
// cancellation aborts the running kernel at the engine's next budget
// checkpoint (and is accounted a shed), and a nil ctx means Background.
//
// A request that makes the queue need a worker wakes a parked one only
// if fewer workers are on their way to the queue than it holds batches
// (wakeOneLocked): when the caller's Wait claims the batch first, the
// worker already on its way is the only one that wakes. The entry is
// built before s.mu is taken and the worker is signalled after it is
// released, so the locked section admits and enqueues and nothing else.
func (s *Server) Submit(ctx context.Context, req Request) (*Pending, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &entry{
		Pending: Pending{srv: s},
		req:     req,
		ctx:     ctx,
		class:   autotune.SizeClass(req.Args),
		enq:     s.cfg.clock.Now(),
	}

	s.mu.Lock()
	if err := s.admit(e); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	signal := s.enqueue(e) && s.wakeOneLocked()
	s.met.observeQueue(s.queued)
	s.mu.Unlock()
	if signal {
		s.cond.Signal()
	}
	return &e.Pending, nil
}

// Do is Submit + Wait: it blocks until the request completes (or is
// rejected) and returns its Response. The returned error equals
// Response.Err for admitted requests.
func (s *Server) Do(ctx context.Context, req Request) (Response, error) {
	p, err := s.Submit(ctx, req)
	if err != nil {
		return Response{Err: err}, err
	}
	resp := p.Wait()
	return resp, resp.Err
}

// Pending is the handle of a submitted request. It is part of the
// request's scheduler entry, so a request whose Wait runs its own batch
// allocates that entry and nothing else on its way through the
// scheduler. Its done channel is made on demand, under srv.mu: by a
// Wait that has to block, or by Done.
type Pending struct {
	done chan struct{}
	resp Response
	srv  *Server
	// grp is the queued batch holding the request, under srv.mu; nil
	// once that batch is dispatched or the request is shed.
	grp *group
	// finished is set under srv.mu once resp is final; no done channel
	// is made after it, so completion reads done without the lock.
	finished bool
}

// closedDone is what Done returns for a request that finished before
// anyone asked for its channel.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Done returns a channel that is closed when the request has completed
// (successfully, shed, or failed). It takes the server lock, and makes
// the request's channel if the request is still in flight, so a caller
// that selects on it repeatedly should take it once and keep it.
func (p *Pending) Done() <-chan struct{} {
	s := p.srv
	s.mu.Lock()
	defer s.mu.Unlock()
	if done := s.doneLocked(p); done != nil {
		return done
	}
	return closedDone
}

// Wait blocks until completion and returns the Response; every call
// returns the same one. When the server's workers are running and the
// caller's own batch is the one a worker's scan would dispatch next,
// Wait dispatches it on the calling goroutine instead of waiting for a
// worker to wake for it: the batch, its order in the queue and every
// policy decision are the same, only the goroutine that runs it
// differs. Wait never runs another request's batch, and makes a done
// channel only when it has to block.
func (p *Pending) Wait() Response {
	s := p.srv
	g, now, done := s.claim(p)
	if g != nil {
		s.runGroup(g, now)
		s.wg.Done()
	} else if done != nil {
		<-done
	}
	return p.resp
}

// claim decides, under s.mu, how p's waiter gets its response. If
// workers are running and p's queued batch is the first ready one,
// claim pops it for the waiter to run and returns it with the clock
// reading that dispatched it; the batch counts in s.wg, as a worker
// does, so Close still returns only once it has run. Otherwise it
// returns p's done channel to block on (doneLocked), or nil if p has
// finished (or was just shed by claim's own scan). Under WithWorkers(0)
// nothing dispatches outside Tick.
func (s *Server) claim(p *Pending) (*group, time.Time, chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.grp != nil && s.started && !s.closed && s.cfg.workers > 0 {
		now := s.cfg.clock.Now()
		if g, _ := s.popReady(now, p); g != nil {
			s.wg.Add(1)
			return g, now, nil
		}
	}
	return nil, time.Time{}, s.doneLocked(p)
}

// doneLocked returns p's done channel, made on first use, or nil once
// p has finished.
func (s *Server) doneLocked(p *Pending) chan struct{} {
	if p.finished {
		return nil
	}
	if p.done == nil {
		p.done = make(chan struct{})
	}
	return p.done
}

// Tick synchronously dispatches at most one ready batch on the calling
// goroutine, returning whether one ran. It is the manual pump for
// WithWorkers(0) harnesses: fake-clock simulations advance the clock
// and Tick until the queue drains, observing every policy decision
// deterministically. (Expired queued work is shed during the scan even
// when no batch is ready.)
func (s *Server) Tick() bool {
	s.mu.Lock()
	now := s.cfg.clock.Now()
	g, _ := s.popReady(now, nil)
	s.mu.Unlock()
	if g == nil {
		return false
	}
	s.runGroup(g, now)
	return true
}

// worker is the dispatch loop: wait for a ready batch, run it, repeat
// until the server is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		g, now := s.nextGroup()
		if g == nil {
			return
		}
		s.runGroup(g, now)
	}
}

// nextGroup blocks until a batch is ready (or the server is closed and
// empty), and returns it with the clock reading that dispatched it. An
// idle worker waits in one of two ways. When batches are queued but all
// still inside their batch-delay window and nobody is watching the
// clock for them, it becomes the timekeeper: it sleeps,
// outside s.mu, until the soonest ripen time and scans again. Otherwise
// it parks on the cond as a follower, and is signalled only when there
// is something for it to do that no worker already on its way will do
// (wakeOneLocked): a batch that can dispatch now (from Submit, Close) or
// a timekeeper's post to fill (handOverLocked). A woken follower counts
// in s.waking until it holds s.mu again, and then scans the whole
// queue.
//
// One timekeeper is enough because batches ripen in queue order: born
// times come from one clock and the delay is one constant, so no batch
// enqueued later ripens before the one the timekeeper sleeps for.
func (s *Server) nextGroup() (*group, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		now := s.cfg.clock.Now()
		g, ripen := s.popReady(now, nil)
		if g != nil {
			s.handOverLocked(now)
			return g, now
		}
		if s.closed && s.queued == 0 {
			return nil, time.Time{}
		}
		if ripen.IsZero() || s.keeping {
			s.parked++
			s.cond.Wait()
			s.waking--
			s.wakes++
			continue
		}
		// The scan took time and other workers' clock reads interleave:
		// a batch that ripened since the scan's read is due now.
		if d := ripen.Sub(s.cfg.clock.Now()); d > 0 {
			s.keepTimeLocked(d)
		}
	}
}

// keepTimeLocked makes the calling worker the timekeeper for a hold
// with d left to run: it releases s.mu, sleeps, and returns with s.mu
// held for the caller to scan again. All but the last millisecond of d
// waits on a runtime timer, which fires up to a millisecond late on an
// idle runtime and which wakeOneLocked and Close can cut short; what is
// left then is slept precisely by the next call, uninterruptibly.
func (s *Server) keepTimeLocked(d time.Duration) {
	s.keeping = true
	s.holds++
	if d > time.Millisecond {
		kick := make(chan struct{})
		s.kick = kick
		s.mu.Unlock()
		tm := time.NewTimer(d - time.Millisecond)
		select {
		case <-tm.C:
		case <-kick:
		}
		tm.Stop()
		s.mu.Lock()
		s.kick = nil
	} else {
		s.mu.Unlock()
		sleepFine(d)
		s.mu.Lock()
	}
	s.keeping = false
}

// wakeOneLocked gets one waiting worker to scan the queue and reports
// whether the caller owes a cond.Signal for it (Submit sends it after
// releasing s.mu, a hand-over under it). It reserves a parked follower
// (parked to waking) only while fewer workers are waking than the queue
// holds batches: each waking worker scans the whole queue and, leaving
// with a batch, hands the rest over (handOverLocked). Bounding by the
// queue length rather than by one (runtime.wakep's rule: start a
// spinning M only when none spins) wakes a burst of ready batches at
// once, not one hand-over at a time. With no follower parked it cuts
// the timekeeper's sleep short if it can; with neither, every worker is
// busy (and scans when its batch is done) or the timekeeper wakes
// within a millisecond.
func (s *Server) wakeOneLocked() bool {
	if s.parked == 0 {
		s.kickLocked()
		return false
	}
	if s.waking >= len(s.queue) {
		return false
	}
	s.parked--
	s.waking++
	return true
}

// kickLocked ends the timekeeper's interruptible sleep, if it is in one.
func (s *Server) kickLocked() {
	if s.kick != nil {
		close(s.kick)
		s.kick = nil
	}
}

// handOverLocked runs when a worker leaves with a batch: if the queue
// it leaves behind needs a worker — another batch can dispatch now, or
// held batches remain and no timekeeper is asleep for them (the leaving
// worker was it) — a parked follower is woken to take over, unless
// enough workers are already on their way (wakeOneLocked). It signals
// under s.mu.
func (s *Server) handOverLocked(now time.Time) {
	if s.parked == 0 || len(s.queue) == 0 {
		return
	}
	need := !s.keeping
	for i := 0; !need && i < len(s.queue); i++ {
		need = s.ready(s.queue[i], now)
	}
	if need && s.wakeOneLocked() {
		s.cond.Signal()
	}
}

// Snapshot assembles the server's full observable state as one
// consistent cut: the server's totals are its tenants' ledgers summed
// under s.mu, beside the gauges read under the same lock, so the
// ledger balances in every snapshot. Only the sorting is left until
// after the lock is released.
func (s *Server) Snapshot() Snapshot {
	now := s.cfg.clock.Now()
	s.mu.Lock()
	snap := Snapshot{
		Time:       now,
		Uptime:     now.Sub(s.start),
		Queued:     s.queued,
		QueueDepth: s.cfg.queueDepth,
		Running:    s.running,
		Tenants:    make([]TenantSnapshot, 0, len(s.tenants)),
	}
	for _, ts := range s.tenants {
		ts.addTo(&snap)
		snap.Tenants = append(snap.Tenants, ts.snapshot(now))
	}
	met := s.met
	s.mu.Unlock()
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Tenant < snap.Tenants[j].Tenant })

	snap.Submitted = snap.Admitted + snap.Rejected()
	snap.Batches, snap.BatchedCalls = met.batches, met.batchedCalls
	snap.QueueEWMA = met.queueEWMA
	snap.LatencyEWMA = time.Duration(met.latEWMA)
	snap.HoldLate = time.Duration(met.holdLateEWMA)
	snap.P50, snap.P99 = met.percentiles()
	if met.gapEWMA > 0 {
		snap.Throughput = float64(time.Second) / met.gapEWMA
	}
	return snap
}

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
// delay. Worker goroutines dispatch ready batches; expired deadlines
// shed queued work before it ever runs, and cancelled contexts abort
// running kernels through the engine's zero-cost CallContext
// checkpoint. Contained faults and degraded (trusted-fallback) calls
// feed per-tenant error accounting instead of killing workers — the
// quarantine layer underneath keeps routing around the bad variant.
//
// The scheduler core is a synchronous state machine under one mutex;
// the worker pool is a thin loop over it. That makes the whole policy
// surface — admission order, quota refill, batch ripening, shed
// ordering — drivable call-by-call with a fake clock (WithWorkers(0) +
// Tick), the same simulation discipline the autotuner's tests use,
// while the production configuration runs the identical code under
// real goroutines.
package serve

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
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
	tuneCacheDir  string
}

// Option configures New.
type Option func(*serverConfig)

// WithQueueDepth bounds the admission queue in entries (default 256).
// A full queue rejects with ErrQueueFull — backpressure at the front
// door, never unbounded memory.
func WithQueueDepth(n int) Option { return func(c *serverConfig) { c.queueDepth = n } }

// WithWorkers sets the dispatch worker count (default 4). 0 disables
// the worker pool: nothing dispatches until Tick is called — the
// deterministic harness mode simulations drive with a fake clock.
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
// which nothing cuts short. On Linux a batch therefore dispatches
// within the kernel's timer slack of its ripen time (a 100µs hold is
// observed as 150–200µs of Response.Wait; Snapshot.HoldLate reports
// the lateness), elsewhere up to a millisecond after it. A batch that
// fills during the hold is dispatched at once by another idle worker;
// with every other worker busy, or WithWorkers(1), it waits out at most
// that sub-millisecond part.
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

// WithTuneCache enables the persistent tuning cache under dir (default:
// disabled). Each hosted program's tuner gets its own snapshot file,
// named by the tuner's content key (autotune.CacheKey: program source ×
// variant grid × host fingerprint), so an edited kernel or a changed
// grid can never warm-start from stale tables. Host seeds the tuner
// from its snapshot — converged sites serve their first post-restart
// call straight from the learned winner, zero re-exploration — and
// Close flushes the learned state back; FlushTuneCache checkpoints it
// on demand without closing. A missing, corrupt, truncated, or
// wrong-keyed snapshot degrades to an ordinary cold start: persistence
// is strictly best-effort and can never poison routing.
func WithTuneCache(dir string) Option {
	return func(c *serverConfig) { c.tuneCacheDir = dir }
}

// route is one hosted function: the program it lives in and the tuner
// that routes its calls.
type route struct {
	fn    string
	prog  *cm.Program
	tuner *autotune.AutoTuner
}

// tunerCache is one hosted tuner's persistent-cache binding.
type tunerCache struct {
	tuner *autotune.AutoTuner
	path  string
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
	open    map[groupKey]*group
	queued  int
	running int
	started bool
	closed  bool
	start   time.Time
	// How idle workers wait (nextGroup). parked counts the workers in
	// cond.Wait that no Signal has been spent on yet. keeping is set
	// while one worker, the timekeeper, sleeps until the soonest ripen
	// time; kick is non-nil while that sleep is its interruptible
	// whole-millisecond part, and closing it ends the sleep.
	parked  int
	keeping bool
	kick    chan struct{}
	// wakes counts returns from cond.Wait and holds the timekeeper's
	// sleeps: what white-box tests assert the wake discipline on.
	wakes, holds int64
	// caches pairs each hosted tuner with its tune-cache snapshot path
	// (WithTuneCache): loaded by Host, flushed by Close/FlushTuneCache.
	caches []tunerCache

	wg  sync.WaitGroup
	met metrics

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
		cfg.quotas[k] = q.normalize()
	}
	s := &Server{
		cfg:     cfg,
		routes:  map[string]*route{},
		tenants: map[string]*tenantState{},
		open:    map[groupKey]*group{},
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
// Best).
func (s *Server) Host(prog *cm.Program, opts ...autotune.Option) (*autotune.AutoTuner, error) {
	tn, err := autotune.New(prog, opts...)
	if err != nil {
		return nil, err
	}
	// Warm-start before the tuner is routable: with a tune cache
	// configured, converged sites from the previous process seed the
	// tuner here, so the very first dispatched request already exploits
	// the learned winner. Load failures (missing, corrupt, wrong-keyed
	// snapshots) fall back to an ordinary cold start — never an error.
	cachePath := ""
	if s.cfg.tuneCacheDir != "" {
		cachePath = filepath.Join(s.cfg.tuneCacheDir,
			fmt.Sprintf("tune-%016x.log", tn.CacheKey()))
		tn.LoadFrom(cachePath)
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
		s.routes[fn] = &route{fn: fn, prog: prog, tuner: tn}
	}
	if cachePath != "" {
		s.caches = append(s.caches, tunerCache{tuner: tn, path: cachePath})
	}
	return tn, nil
}

// FlushTuneCache checkpoints every hosted tuner's learned tables into
// its tune-cache snapshot (WithTuneCache). Close flushes automatically;
// this is the on-demand hook for long-lived servers that want periodic
// checkpoints so a crash loses minutes of learning, not days. A no-op
// without a configured cache.
func (s *Server) FlushTuneCache() error {
	s.mu.Lock()
	caches := append([]tunerCache{}, s.caches...)
	s.mu.Unlock()
	var errs []error
	for _, c := range caches {
		if err := c.tuner.SaveTo(c.path); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
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
// queue is drained synchronously by Close itself. With a tune cache
// configured (WithTuneCache), the drained tuners' learned tables are
// flushed to disk last, so the next process warm-starts from
// everything this one learned.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.parked = 0
	s.cond.Broadcast()
	s.kickLocked()
	s.mu.Unlock()
	s.wg.Wait()
	// No workers to drain for us: serve what is left here.
	for s.Tick() {
	}
	// Best-effort flush: a full disk must not turn shutdown into a
	// failure — the worst case is the next start pays cold exploration.
	s.FlushTuneCache()
}

// Submit enqueues one request, returning immediately with a Pending
// handle or an admission error. ctx governs the request's execution: a
// cancellation aborts the running kernel at the engine's next budget
// checkpoint (and is accounted a shed), and a nil ctx means Background.
func (s *Server) Submit(ctx context.Context, req Request) (*Pending, error) {
	s.met.submitted.Add(1)
	class := autotune.SizeClass(req.Args)
	if ctx == nil {
		ctx = context.Background()
	}
	now := s.cfg.clock.Now()

	s.mu.Lock()
	e, err := s.admit(req, ctx, class, now)
	if err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if s.enqueue(e, now) {
		s.wakeOneLocked()
	}
	depth := s.queued
	s.mu.Unlock()
	s.met.observeQueue(depth)
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
// request's scheduler entry, so a submission allocates one object.
type Pending struct {
	done chan struct{}
	resp Response
}

// Done is closed when the request has completed (successfully, shed,
// or failed).
func (p *Pending) Done() <-chan struct{} { return p.done }

// Wait blocks until completion and returns the Response.
func (p *Pending) Wait() Response {
	<-p.done
	return p.resp
}

// Tick synchronously dispatches at most one ready batch on the calling
// goroutine, returning whether one ran. It is the manual pump for
// WithWorkers(0) harnesses: fake-clock simulations advance the clock
// and Tick until the queue drains, observing every policy decision
// deterministically. (Expired queued work is shed during the scan even
// when no batch is ready.)
func (s *Server) Tick() bool {
	s.mu.Lock()
	g, _ := s.popReady(s.cfg.clock.Now())
	s.mu.Unlock()
	if g == nil {
		return false
	}
	s.runGroup(g)
	return true
}

// worker is the dispatch loop: wait for a ready batch, run it, repeat
// until the server is closed and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		g := s.nextGroup()
		if g == nil {
			return
		}
		s.runGroup(g)
	}
}

// nextGroup blocks until a batch is ready (or the server is closed and
// empty). An idle worker waits in one of two ways. When batches are
// queued but all still inside their batch-delay window and nobody is
// watching the clock for them, it becomes the timekeeper: it sleeps,
// outside s.mu, until the soonest ripen time and scans again. Otherwise
// it parks on the cond as a follower, and is signalled only when there
// is something for it to do: a batch that can dispatch now (wakeOneLocked
// from Submit, Close) or a timekeeper's post to fill (handOverLocked).
//
// One timekeeper is enough because batches ripen in queue order: born
// times come from one clock and the delay is one constant, so no batch
// enqueued later ripens before the one the timekeeper sleeps for.
func (s *Server) nextGroup() *group {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		now := s.cfg.clock.Now()
		g, ripen := s.popReady(now)
		if g != nil {
			s.handOverLocked(now)
			return g
		}
		if s.closed && s.queued == 0 {
			return nil
		}
		if ripen.IsZero() || s.keeping {
			s.parked++
			s.cond.Wait()
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

// wakeOneLocked gets one waiting worker to scan the queue: a parked
// follower if there is one, else the timekeeper if its sleep can be
// cut short. With neither, every worker is busy (and scans when its
// batch is done) or the timekeeper wakes within a millisecond.
func (s *Server) wakeOneLocked() {
	if s.parked > 0 {
		s.parked--
		s.cond.Signal()
		return
	}
	s.kickLocked()
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
// worker was it) — a parked follower is woken to take over.
func (s *Server) handOverLocked(now time.Time) {
	if s.parked == 0 || len(s.queue) == 0 {
		return
	}
	if !s.keeping {
		s.wakeOneLocked()
		return
	}
	for _, g := range s.queue {
		if s.ready(g, now) {
			s.wakeOneLocked()
			return
		}
	}
}

// Snapshot assembles the server's full observable state.
func (s *Server) Snapshot() Snapshot {
	now := s.cfg.clock.Now()
	s.mu.Lock()
	queued, running := s.queued, s.running
	tenants := make([]TenantSnapshot, 0, len(s.tenants))
	for _, ts := range s.tenants {
		tenants = append(tenants, ts.snapshot(now))
	}
	s.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Tenant < tenants[j].Tenant })

	m := &s.met
	m.gmu.Lock()
	queueEWMA, latEWMA, gapEWMA, holdLate := m.queueEWMA, m.latEWMA, m.gapEWMA, m.holdLateEWMA
	m.gmu.Unlock()
	p50, p99 := m.percentiles()
	snap := Snapshot{
		Time:             now,
		Uptime:           now.Sub(s.start),
		Queued:           queued,
		QueueDepth:       s.cfg.queueDepth,
		Running:          running,
		QueueEWMA:        queueEWMA,
		Submitted:        m.submitted.Load(),
		Admitted:         m.admitted.Load(),
		RejectedUnknown:  m.rejectedUnknown.Load(),
		RejectedClosed:   m.rejectedClosed.Load(),
		RejectedExpired:  m.rejectedExpired.Load(),
		RejectedFull:     m.rejectedFull.Load(),
		RejectedInFlight: m.rejectedInFlight.Load(),
		RejectedRate:     m.rejectedRate.Load(),
		RejectedSteps:    m.rejectedSteps.Load(),
		Completed:        m.completed.Load(),
		Failed:           m.failed.Load(),
		ShedQueued:       m.shedQueued.Load(),
		ShedRunning:      m.shedRunning.Load(),
		Degraded:         m.degraded.Load(),
		Faults:           m.faults.Load(),
		Batches:          m.batches.Load(),
		BatchedCalls:     m.batchedCalls.Load(),
		LatencyEWMA:      time.Duration(latEWMA),
		HoldLate:         time.Duration(holdLate),
		P50:              p50,
		P99:              p99,
		Tenants:          tenants,
	}
	if gapEWMA > 0 {
		snap.Throughput = float64(time.Second) / gapEWMA
	}
	return snap
}

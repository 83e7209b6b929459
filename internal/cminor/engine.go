package cminor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// The engine API splits execution into a shareable *Program and
// lightweight per-goroutine *Instance sessions — the runtime shape
// SOCRATES assumes: kernels are compiled once (possibly into several
// variants under different optimization configurations) and then called
// many times, concurrently, with per-call control.
//
//	prog, err := Compile(file)                   // resolve; bodies lowered on first use
//	o3, err := prog.Variant(WithOptLevel(O3))    // another knob setting, lowered at once
//	inst := prog.NewInstance()                   // one per goroutine; lowers prog once
//	v, err := inst.CallContext(ctx, "gemm", args...)
//
// A Program's function bodies are lowered once, on first use (Variant
// lowers at once), and are read-only from then on; the AST is never
// written after parse and resolver results live in NodeID-indexed side
// tables. So any number of goroutines may share one Program — or
// several variants of it — each through its own Instance. An Instance
// owns the mutable execution state: global-variable storage, the step
// budget, and a frame freelist that keeps steady-state calls
// allocation-free. Instances are NOT safe for concurrent use; they are
// cheap, so create one per goroutine.

// DefaultMaxSteps is the default statement budget of a fresh Instance
// — a cheap runaway guard for untrusted kernels.
const DefaultMaxSteps = 500_000_000

// Backend selects the execution strategy of a compiled Program.
type Backend uint8

// Execution backends.
const (
	// BackendCompiled is the closure-compiled pipeline (the default).
	BackendCompiled Backend = iota
	// BackendWalker executes via the original tree-walking interpreter
	// (walker.go) — the slow, name-resolving semantics oracle, useful
	// for differential runs. It never snapshots or falls back: it is the
	// reference the other backends are checked against.
	BackendWalker
	// BackendBytecode lowers typed functions to a flat register-machine
	// bytecode run by a single dispatch loop (bytecode.go). Functions
	// the lowerer cannot prove equivalent keep their closure-compiled
	// body, so a bytecode variant is always whole-program correct.
	BackendBytecode

	// maxBackend is the highest backend Compile/Variant accept.
	maxBackend = BackendBytecode
)

// String names the backend.
func (b Backend) String() string {
	switch b {
	case BackendWalker:
		return "walker"
	case BackendBytecode:
		return "bytecode"
	}
	return "compiled"
}

// OptLevel selects how aggressively the compiled backend specializes,
// mirroring a compiler's -O axis so one source can be lowered into
// several variants and compared.
type OptLevel uint8

// Optimization levels.
const (
	// O0 compiles only the generic tagged-Value closures.
	O0 OptLevel = iota
	// O1 adds the unboxed int64/float64 evaluators every expression's
	// static kind allows (typecheck.go).
	O1
	// O2 adds the loop optimizer, which runs counted loops as native Go
	// loops (loopopt.go). It is the default.
	O2
	// O3 adds user-function inlining (inline.go). Semantics stay
	// bit-identical to the walker; O3 widens the knob space the
	// autotuning layer selects over.
	O3

	// maxOptLevel is the highest level Compile/Variant accept.
	maxOptLevel = O3
)

// String renders the level in -O spelling.
func (l OptLevel) String() string { return fmt.Sprintf("O%d", uint8(l)) }

// PassMask gates the individual O3 passes, refining the opt-level axis
// into a finer knob grid: a variant at O3 may enable any subset of the
// passes. Below O3 the mask is inert.
//
// Each surviving bit is kept because a kernel runs measurably faster
// with it; BenchmarkOptLevels' O3-noinline row shows the cost of
// clearing it. Medians of nine runs at canonical size, linux/amd64
// Xeon, -cpu 1, all passes vs. the bit cleared:
//   - PassInline: norms 56µs vs. 125µs (2.2×): its sq() helper otherwise
//     stays an opaque call that blocks the counted-loop fast path. The
//     bit also gates the bytecode's splicing of the same call sites:
//     norms' bytecode ran 10.9µs with it and 232µs without (21×; the call
//     then bails, and the closures run), interleaved medians of 301
//     rounds on a 2-vCPU Xeon on which O3 ran 96µs.
//
// Bits 1 and 2 once held value-range bounds-check elimination and
// 4-wide store-loop unrolling. Neither earned its code once the
// bytecode backend proved and ran the same loops faster; both stay
// unassigned, so a mask carrying either is rejected rather than
// silently ignored.
type PassMask uint8

// The O3 passes. Each is independently gate-able; O3 with all bits
// cleared behaves exactly like O2.
const (
	// PassInline splices small leaf callees into their callers
	// (inline.go; the bytecode's spliceCall on that back end), which also
	// unlocks the loop fast paths for bodies whose only calls were
	// inlined.
	PassInline PassMask = 1 << 0

	// AllPasses enables every O3 pass (the default).
	AllPasses PassMask = PassInline
)

// String names the enabled passes ("inline", "none"). Retired bits name
// no pass; Compile rejects a mask that carries one.
func (m PassMask) String() string {
	if m&PassInline != 0 {
		return "inline"
	}
	return "none"
}

// config is the resolved option set of one Program variant.
type config struct {
	backend  Backend
	opt      OptLevel
	passes   PassMask
	maxSteps int
	// fallback enables snapshot/rollback + trusted re-execution on
	// internal faults (resilience.go, WithFallback).
	fallback bool
	// inject is the deterministic fault-injection seam (faultinject.go,
	// WithFaultInjector); nil in production.
	inject FaultInjector
}

func defaultConfig() config {
	return config{backend: BackendCompiled, opt: O2, passes: AllPasses, maxSteps: DefaultMaxSteps}
}

// Option configures Compile and Program.Variant.
type Option func(*config)

// WithBackend selects the execution backend.
func WithBackend(b Backend) Option { return func(c *config) { c.backend = b } }

// WithOptLevel selects the compiled backend's optimization level.
// Unknown levels are rejected with a positioned diagnostic by Compile
// and Program.Variant rather than silently degrading.
func WithOptLevel(l OptLevel) Option {
	return func(c *config) { c.opt = l }
}

// WithPasses selects which O3 passes a variant enables; it has no
// effect below O3. Unknown bits are rejected with a diagnostic by
// Compile and Program.Variant, like an unknown opt level.
func WithPasses(m PassMask) Option {
	return func(c *config) { c.passes = m }
}

// validate rejects option combinations the engine cannot honour.
func (c config) validate(file string) error {
	if c.backend > maxBackend {
		return diagf(file, Pos{}, "unknown backend %d (supported: 0–%d)",
			uint8(c.backend), uint8(maxBackend))
	}
	if c.opt > maxOptLevel {
		return diagf(file, Pos{}, "unknown optimization level O%d (supported: O0–O%d)",
			uint8(c.opt), uint8(maxOptLevel))
	}
	if bad := c.passes &^ AllPasses; bad != 0 {
		return diagf(file, Pos{}, "unknown O3 pass bits 0x%x (supported: 0x%x)",
			uint8(bad), uint8(AllPasses))
	}
	return nil
}

// WithMaxSteps sets the default statement budget inherited by every
// Instance of the program. n <= 0 restores DefaultMaxSteps.
func WithMaxSteps(n int) Option {
	return func(c *config) {
		if n <= 0 {
			n = DefaultMaxSteps
		}
		c.maxSteps = n
	}
}

// Program is a compiled C-minor translation unit: one variant of the
// source under a particular option set. Its function bodies are lowered
// once, on first use — by Variant at once, else by the first
// NewInstance, Disassemble or BytecodeFuncs — and never change after.
// It is safe to share across any number of goroutines; all mutable run
// state lives in the Instances created from it.
type Program struct {
	res   *ResolvedFile
	fname string
	cfg   config
	funcs map[string]*compiledFunc
	nfun  int
	// lowerOnce guards lowerBodies: the function shells exist from
	// construction, their bodies from the first call of lowered.
	lowerOnce sync.Once
	// ref is the lazily-built trusted tier (generic O0, injector-free)
	// that fallback re-execution and audits run on (resilience.go).
	refOnce sync.Once
	ref     *Program
}

// Compile resolves f under the given options (default: compiled
// backend, O2, DefaultMaxSteps) and builds its function shells. The
// bodies are lowered on first use: the first NewInstance, Disassemble
// or BytecodeFuncs lowers them, once, so a Program that only serves as
// the base of Variants never lowers its own. All diagnostics carry
// file:line:col and are reported here; lowering reports none. f is not
// modified — semantic results live in side tables — so the same *File
// may be compiled repeatedly, and concurrently, into independent
// Programs.
func Compile(f *File, opts ...Option) (*Program, error) {
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(f.Name); err != nil {
		return nil, err
	}
	res, err := Resolve(f)
	if err != nil {
		return nil, err
	}
	return newProgram(f.Name, res, cfg), nil
}

// Variant lowers the same resolved source under a modified option set,
// sharing the resolve results with p. Options not overridden
// keep p's values. This is the compile-time exploration hook: build
// O0–O3 (or walker) variants of one kernel and select among them at
// run time. Unlike Compile it lowers every body at once: it is what
// builds an arm, so it pays for the arm when it is called. Unknown
// option values (e.g. an out-of-range opt level) are reported as a
// diagnostic, never silently clamped.
func (p *Program) Variant(opts ...Option) (*Program, error) {
	cfg := p.cfg
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(p.fname); err != nil {
		return nil, err
	}
	return lower(p.fname, p.res, cfg), nil
}

// CheckOptions validates an option set against p without lowering a
// variant: the same diagnostics Variant would return, at none of the
// cost. Selection layers with large knob grids use it to fail fast on
// a malformed grid while still materializing variants lazily.
func (p *Program) CheckOptions(opts ...Option) error {
	cfg := p.cfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.validate(p.fname)
}

// HasFunc reports whether the program defines the named function.
// Selection layers use it to reject unknown names before allocating
// any per-function tuning state.
func (p *Program) HasFunc(name string) bool {
	_, ok := p.res.Funcs[name]
	return ok
}

// Funcs returns the names of the program's functions, sorted. Serving
// layers use it to build their routing tables without re-parsing the
// source.
func (p *Program) Funcs() []string {
	names := make([]string, 0, len(p.res.Funcs))
	for name := range p.res.Funcs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Backend reports the variant's execution backend.
func (p *Program) Backend() Backend { return p.cfg.backend }

// OptLevel reports the variant's optimization level.
func (p *Program) OptLevel() OptLevel { return p.cfg.opt }

// Passes reports the variant's O3 pass mask (meaningful at O3; inert
// below it).
func (p *Program) Passes() PassMask { return p.cfg.passes }

// newProgram builds one Program variant's function shells from shared
// front-end results; their bodies are lowered on first use (lowered).
func newProgram(fname string, res *ResolvedFile, cfg config) *Program {
	p := &Program{res: res, fname: fname, cfg: cfg,
		funcs: make(map[string]*compiledFunc, len(res.Funcs))}
	shells := make([]compiledFunc, len(res.Funcs))
	for name, info := range res.Funcs {
		cf := &shells[p.nfun]
		*cf = compiledFunc{info: info, idx: p.nfun,
			nScalars: info.NumScalars, nCells: info.NumCells, nArrays: info.NumArrays,
			zero: convertKind(Value{}, info.Decl.Ret.Kind)}
		p.funcs[name] = cf
		p.nfun++
	}
	return p
}

// lower builds one Program variant and lowers its bodies at once.
func lower(fname string, res *ResolvedFile, cfg config) *Program {
	return newProgram(fname, res, cfg).lowered()
}

// lowered lowers p's function bodies the first time it is called, and
// returns p. Every path to a body — an Instance, the disassembler —
// goes through it.
func (p *Program) lowered() *Program {
	p.lowerOnce.Do(p.lowerBodies)
	return p
}

// lowerBodies gives every function of p its one body.
func (p *Program) lowerBodies() {
	cfg := p.cfg
	if cfg.backend == BackendWalker {
		w := newWalker(p.res)
		for _, cf := range p.funcs {
			cf.body = w.body(cf)
		}
		return
	}
	// At O3 the inliner plans which call sites splice their callee into
	// the caller's frame; inlined callees get fresh slot blocks, so the
	// per-variant frame sizes grow past the resolver's counts.
	var plans map[string]*inlinePlan
	if cfg.opt >= O3 && cfg.passes&PassInline != 0 {
		plans = planInlining(p.res)
		for name, pl := range plans {
			cf := p.funcs[name]
			cf.nScalars, cf.nCells, cf.nArrays = pl.numScalars, pl.numCells, pl.numArrays
		}
	}
	// Each function gets exactly one body: the bytecode where the
	// lowerer proves it equivalent, else the generic closures at O0 or
	// the typed closures above it. Every scalar holds its declared kind
	// (typecheck.go), so no call ever needs a kind-agnostic second body.
	for name, cf := range p.funcs {
		if cfg.backend == BackendBytecode {
			bc, bail := lowerBCFunc(p, name, cf, plans[name])
			cf.bail = bail
			if bc != nil {
				cf.bc = bc
				cf.body = func(fr *frame) flow {
					execBC(fr, bc)
					return flowNormal
				}
				continue
			}
		}
		ct := &compiler{prog: p, opt: cfg.opt, plan: plans[name], ret: cf.info.Decl.Ret.Kind}
		cf.body = ct.block(cf.info.Decl.Body)
	}
}

// newGlobals allocates and initialises global storage for one session.
func (p *Program) newGlobals() *globalStore {
	g := &globalStore{}
	for _, gs := range p.res.Scalars {
		g.scalars = append(g.scalars, gs.Init)
	}
	for _, ga := range p.res.Arrays {
		g.arrays = append(g.arrays, NewArray(ga.Dims...))
	}
	return g
}

// Instance is one execution session over a shared Program: it owns the
// program's global-variable storage, the statement budget, and a frame
// freelist. Creating an Instance is cheap; it is not safe for
// concurrent use — give each goroutine its own.
type Instance struct {
	prog     *Program
	g        *globalStore
	maxSteps int
	steps    int
	// lastSteps is the step count of the most recent call — the
	// measurement tap autotuning layers read (see LastCallSteps).
	lastSteps int
	// limit is the steps value past which step() faults. It normally
	// holds the budget; a CallContext cancellation watcher drops it to
	// -1, so the single hot-path comparison covers both the runaway
	// guard and cancellation. Atomic because the watcher fires from
	// another goroutine; everything else on Instance is owner-only.
	limit atomic.Int64
	ctx   context.Context
	// watchDone flags that the current call's cancellation watcher has
	// finished, so call teardown can drain it (see call).
	watchDone atomic.Bool
	// pools holds the frames of each compiled function, so steady-state
	// calls allocate nothing.
	pools []framePool
	// Resilience state (resilience.go): fb is the session's trusted-tier
	// twin sharing this session's globals; lastFault/degraded are the
	// introspection taps of the most recent call; poisoned flags globals
	// left unrecovered by an internal fault with no snapshot to roll
	// back to. A session owns no snapshot storage: a running call
	// borrows its snapshots from the process-wide free list.
	fb        *Instance
	lastFault *InternalFault
	degraded  bool
	poisoned  bool
	// heldFn names the function whose trial last ended unfinished on
	// this session, heldInj the injector's decision for it (see decide).
	heldFn  string
	heldInj *Fault
}

// NewInstance creates an execution session over p with fresh globals
// and the program's configured step budget. The first NewInstance of a
// program Compile returned lowers its bodies (once; Variant's are
// lowered already), so it costs what the lowering costs.
func (p *Program) NewInstance() *Instance {
	p.lowered()
	s := &Instance{prog: p, g: p.newGlobals(), maxSteps: p.cfg.maxSteps,
		pools: make([]framePool, p.nfun)}
	s.limit.Store(int64(s.maxSteps))
	return s
}

// SetMaxSteps replaces the session's statement budget (n <= 0 restores
// DefaultMaxSteps). Steps accumulate across calls, as they always have.
//
// The budget is strictly per-Instance: no other session of the same
// Program observes the change. When Instances are recycled through an
// InstancePool, Put discards both the accumulated step count and any
// SetMaxSteps override, so a budget adjusted on one checkout can never
// leak into — or starve — the next.
func (s *Instance) SetMaxSteps(n int) {
	if n <= 0 {
		n = DefaultMaxSteps
	}
	s.maxSteps = n
}

// Steps reports the statements executed by this session so far.
func (s *Instance) Steps() int { return s.steps }

// LastCallSteps reports how many statements the most recent
// Call/CallContext executed, including a call that faulted mid-kernel.
// Unlike wall time it is deterministic and machine-independent, which
// makes it a useful cost measurement tap for autotuning layers.
func (s *Instance) LastCallSteps() int { return s.lastSteps }

// InstancePool is a concurrency-safe free list of Instances of one
// Program variant. It exists for selection layers (see
// internal/cminor/autotune) that route concurrent calls through
// whichever variant a policy picks: Get hands out a ready session, Put
// recycles it with a restored budget. Checked-out Instances follow the
// usual rule — one goroutine at a time.
//
// An Instance is a session: its global-variable storage persists across
// checkouts. Pool stateless kernels (the common case); a kernel that
// accumulates state in globals needs dedicated Instances instead.
type InstancePool struct {
	prog *Program
	mu   sync.Mutex
	free []*Instance
	// Checkout accounting (see Stats). A pool in front of a bounded
	// worker set must be provably bounded itself: created never exceeds
	// the peak number of concurrently checked-out sessions, and
	// created - dropped always equals free + in-use.
	created  int64
	inuse    int64
	dropped  int64
	repaired int64
}

// PoolStats is a point-in-time accounting snapshot of an InstancePool.
type PoolStats struct {
	Created  int64 // Instances this pool has ever materialized
	Free     int64 // currently pooled, ready for checkout
	InUse    int64 // checked out and not yet returned
	Dropped  int64 // Put rejections (nil or foreign-Program instances)
	Repaired int64 // poisoned sessions rebuilt with fresh globals by Put
}

// Stats reports the pool's checkout accounting. The invariant a healthy
// pool maintains — and the leak tests assert under churn — is
// Created == Free + InUse: every session this pool made is either
// pooled or checked out, and Created itself never exceeds the peak
// number of concurrent checkouts. (Dropped counts rejected Puts of
// sessions that were never this pool's to begin with.)
func (ip *InstancePool) Stats() PoolStats {
	ip.mu.Lock()
	defer ip.mu.Unlock()
	return PoolStats{
		Created:  ip.created,
		Free:     int64(len(ip.free)),
		InUse:    ip.inuse,
		Dropped:  ip.dropped,
		Repaired: ip.repaired,
	}
}

// NewPool returns an empty Instance pool over p.
func (p *Program) NewPool() *InstancePool { return &InstancePool{prog: p} }

// Get returns a ready Instance of the pool's variant: a recycled one
// when available, a fresh one otherwise.
func (ip *InstancePool) Get() *Instance {
	ip.mu.Lock()
	ip.inuse++
	if n := len(ip.free) - 1; n >= 0 {
		inst := ip.free[n]
		ip.free = ip.free[:n]
		ip.mu.Unlock()
		return inst
	}
	ip.created++
	ip.mu.Unlock()
	return ip.prog.NewInstance()
}

// Put recycles inst into the pool. The session's budget is restored to
// the Program's configured maximum and its accumulated step count is
// zeroed: budgets are per-checkout, so a long-lived pool cycling
// millions of calls never trips the runaway guard on inherited steps,
// and a SetMaxSteps applied during one checkout is not observable in
// the next (see SetMaxSteps). A poisoned session — one whose globals an
// internal fault left half-written with no snapshot to roll back
// (see Instance.Poisoned) — is rebuilt with fresh global storage before
// pooling, so corrupted state can never leak into the next checkout.
// Instances belonging to a different Program are dropped rather than
// pooled.
func (ip *InstancePool) Put(inst *Instance) {
	if inst == nil || inst.prog != ip.prog {
		ip.mu.Lock()
		ip.dropped++
		ip.mu.Unlock()
		return
	}
	inst.steps = 0
	inst.lastSteps = 0
	inst.maxSteps = ip.prog.cfg.maxSteps
	inst.lastFault = nil
	inst.degraded = false
	inst.heldFn, inst.heldInj = "", nil
	repaired := false
	if inst.poisoned {
		inst.poisoned = false
		repaired = true
		inst.g = ip.prog.newGlobals()
		if inst.fb != nil {
			// The trusted-tier twin aliases the session's global frame;
			// re-alias it to the rebuilt one.
			inst.fb.g = inst.g
		}
	}
	ip.mu.Lock()
	ip.inuse--
	if repaired {
		ip.repaired++
	}
	ip.free = append(ip.free, inst)
	ip.mu.Unlock()
}

// ctxDone carries a context error through the panic-based fault path so
// the recovered error still wraps context.Canceled/DeadlineExceeded.
type ctxDone struct{ err error }

// step charges one executed statement. This is the hottest function in
// the engine — it runs once per interpreted statement — so the slow
// path must be a panic: a no-return branch keeps the register
// allocator from spilling loop state around every inlined call site.
// faultCause is only evaluated on the way into the panic.
func (s *Instance) step() {
	s.steps++
	if int64(s.steps) > s.limit.Load() {
		panic(s.faultCause())
	}
}

// faultCause names why the limit was crossed: a cancelled/expired
// context (the watcher dropped the limit), a trial's slice (CallTrial
// set the limit below the budget), or the step budget itself.
func (s *Instance) faultCause() any {
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			return ctxDone{err}
		}
	}
	if s.steps <= s.maxSteps {
		return trialEnd{}
	}
	return &Diag{Msg: "interpreter step budget exceeded"}
}

// trialEnd is the panic value of a trial whose slice is spent. It is
// zero-sized, so raising it allocates nothing.
type trialEnd struct{}

// errTrialEnd is attempt's report of a spent trial slice; run turns it
// into done=false, so no caller ever sees it.
var errTrialEnd = errors.New("cminor: trial slice spent")

// framePool is one compiled function's frames: frames[:live] belong to
// calls in flight, the rest are free. Calls nest, so frames are taken
// and returned in stack order.
type framePool struct {
	frames []*frame
	live   int
}

// getFrame takes a free frame for cf, or allocates one.
func (s *Instance) getFrame(cf *compiledFunc) *frame {
	pool := &s.pools[cf.idx]
	if pool.live < len(pool.frames) {
		fr := pool.frames[pool.live]
		pool.live++
		// A body that falls off its end leaves ret untouched: it must
		// hold the declared kind's zero then.
		fr.ret = cf.zero
		return fr
	}
	fr := &frame{
		ec:      s,
		ret:     cf.zero,
		scalars: make([]Value, cf.nScalars),
		cells:   make([]*Value, cf.nCells),
		arrays:  make([]*Array, cf.nArrays),
	}
	if cf.bc != nil {
		fr.ireg = make([]int64, cf.bc.nI)
		fr.freg = make([]float64, cf.bc.nF)
		fr.dreg = make([][]float64, cf.bc.nD)
	}
	pool.frames = append(pool.frames, fr)
	pool.live++
	return fr
}

// putFrame returns cf's most recently taken frame, fr. Pointer slots
// are cleared so a free frame does not retain caller arrays/cells;
// scalar slots may stay stale because every scalar is written (param
// bind or its declaration statement) before any read.
func (s *Instance) putFrame(cf *compiledFunc, fr *frame) {
	clearFrame(fr)
	s.pools[cf.idx].live--
}

func clearFrame(fr *frame) {
	clear(fr.cells)
	clear(fr.arrays)
	clear(fr.dreg)
}

// freeFrames returns the frames of calls a fault unwound — a trial's
// end, a budget or index fault, a cancellation — to their pools, so
// that a faulted call costs the next one no allocation.
func (s *Instance) freeFrames() {
	for i := range s.pools {
		pool := &s.pools[i]
		for _, fr := range pool.frames[:pool.live] {
			clearFrame(fr)
		}
		pool.live = 0
	}
}

// Call invokes the named function. Arguments bind by bindArg's rule,
// the same on every backend: *Array for array parameters, a non-nil
// *Value for pointer parameters (the shared cell), and Value, int or
// float64 — converted to the declared kind — for scalar parameters (a
// pointer parameter given a scalar gets a fresh cell). Any other
// argument is an error returned before a step is charged. Runtime
// faults — bad subscript, integer division by zero, step budget — are
// returned as positioned errors rather than crashing.
func (s *Instance) Call(name string, args ...any) (Value, error) {
	return s.call(nil, name, args)
}

// CallContext is Call with cancellation: when ctx is cancelled or its
// deadline passes, a watcher drops the session's step limit and the
// next budget check aborts the kernel — the very next statement's on
// every backend, the walker included, or within one run chunk
// (bcRunChunk iterations) where the bytecode backend is running an
// inner loop whole — typically within microseconds, at zero
// per-statement cost. The returned error
// wraps ctx.Err(); partial writes to argument arrays and globals may
// have happened, exactly as with any mid-kernel fault.
func (s *Instance) CallContext(ctx context.Context, name string, args ...any) (Value, error) {
	return s.call(ctx, name, args)
}

// resolveCall looks up the callee, checks arity and binds the arguments
// into a pooled frame (bindArg) — the failures that happen before any
// state is touched or any step is charged.
func (s *Instance) resolveCall(name string, args []any) (*compiledFunc, *frame, error) {
	cf, ok := s.prog.funcs[name]
	if !ok {
		return nil, nil, fmt.Errorf("cminor: no function %q", name)
	}
	params := cf.info.Decl.Params
	if err := checkArity(name, len(params), len(args)); err != nil {
		return nil, nil, err
	}
	fr := s.getFrame(cf)
	for i, p := range params {
		v, cell, arr, err := bindArg(name, p, args[i])
		if err != nil {
			s.putFrame(cf, fr)
			return nil, nil, err
		}
		switch ref := cf.info.Params[i]; ref.Kind {
		case VarArray:
			fr.arrays[ref.Slot] = arr
		case VarCell:
			fr.cells[ref.Slot] = cell
		default:
			fr.scalars[ref.Slot] = v
		}
	}
	return cf, fr, nil
}

// checkArity is the entry-call arity check both executors share.
func checkArity(name string, want, got int) error {
	if got != want {
		return fmt.Errorf("cminor: %s expects %d args, got %d", name, want, got)
	}
	return nil
}

// bindArg is the one entry-call binding rule (resolveCall), so every
// backend accepts, converts and rejects the same arguments with the same
// error text:
//
//   - an array parameter takes a non-nil *Array;
//   - a pointer parameter takes a non-nil *Value holding its pointee
//     kind, shared as its cell, or a scalar boxed into a fresh cell;
//   - a by-value parameter takes a scalar: Value, int or float64.
//
// Scalars convert to the parameter's declared kind (convertKind), and a
// shared cell must already hold it, so every slot and cell holds its
// declared kind — the invariant the typed closures and the bytecode are
// lowered against. The binding is returned in the one result its
// parameter shape uses.
func bindArg(fn string, p *Param, a any) (v Value, cell *Value, arr *Array, err error) {
	t := p.Type
	switch a := a.(type) {
	case *Array:
		if a != nil && t.IsArray() {
			return Value{}, nil, a, nil
		}
	case *Value:
		if a != nil && t.Ptr && a.IsInt == (t.Kind == Int) {
			return Value{}, a, nil, nil
		}
	default:
		if v, ok := scalarArg(a); ok && !t.IsArray() {
			if t.Ptr {
				boxed := convertKind(v, t.Kind)
				return Value{}, &boxed, nil, nil
			}
			return convertKind(v, t.Kind), nil, nil, nil
		}
	}
	return Value{}, nil, nil, argError(fn, p, a)
}

// argError is bindArg's rejection, one text on every backend.
func argError(fn string, p *Param, a any) error {
	what := fmt.Sprintf("%T", a)
	switch v := a.(type) {
	case *Value:
		switch {
		case v == nil:
			what = "nil " + what
		case p.Type.Ptr && v.IsInt:
			what += " holding an int"
		case p.Type.Ptr:
			what += " holding a double"
		}
	case *Array:
		if v == nil {
			what = "nil " + what
		}
	}
	return fmt.Errorf("cminor: %s: cannot bind %s to parameter %q", fn, what, typeString(p.Type, p.Name))
}

// scalarArg unwraps a scalar entry argument.
func scalarArg(a any) (Value, bool) {
	switch a := a.(type) {
	case Value:
		return a, true
	case int:
		return IntV(int64(a)), true
	case float64:
		return FloatV(a), true
	}
	return Value{}, false
}

// CallTrial is CallContext bounded to a slice of at most steps
// statements. A call that finishes inside the slice is the call: done
// is true and every result is exactly CallContext's. A call that needs
// more is rolled back to the snapshot WithFallback captures — globals,
// argument arrays and cells return bit-for-bit to their pre-call
// contents, the slice's step charge is discarded (Steps is unchanged,
// LastCallSteps is 0) — and done is false with a zero Value and a nil
// error; ending a trial allocates nothing. Containment, fallback,
// cancellation and the session's own step budget behave exactly as in
// CallContext: a cancellation is reported as one, never as a trial
// end; a budget that runs out inside the slice faults as it would; an
// injected panic the slice would cut off fires at the trial end, so a
// trial cannot hide a fault, and the next call of the same function on
// the session — the call run in full — reuses the trial's injector
// decision instead of drawing a second one. Without a snapshot to roll
// back to (fallback off, state over MaxSnapshotElems) or with steps <=
// 0, the call simply runs in full. The walker backend always runs in
// full: it is the reference semantics and never snapshots, so its
// trial is the call.
//
// Selection layers use it to price a variant they expect to lose on a
// fraction of a call instead of a whole one (see internal/cminor/autotune).
func (s *Instance) CallTrial(ctx context.Context, steps int, name string, args ...any) (v Value, done bool, err error) {
	v, done, _, err = s.run(ctx, name, args, steps, false)
	return v, done, err
}

// call is one invocation run in full (run without a trial slice).
func (s *Instance) call(ctx context.Context, name string, args []any) (Value, error) {
	v, _, _, err := s.run(ctx, name, args, 0, false)
	return v, err
}

// run is the supervisor tier of one invocation on every backend: it
// resolves the callee, consults the fault injector, snapshots the
// mutable state when it may need to roll back (WithFallback, or an
// audit), runs the attempt inside the containment boundary, and on an
// internal fault either rolls back and re-executes on the trusted tier
// or surfaces the fault and poisons the session (resilience.go).
// trial > 0 with a snapshot bounds the attempt to that many statements
// and rolls a longer call back (CallTrial); done is false only then.
// audit with a snapshot re-executes every attempt on the trusted tier
// and reports whether the two outcomes diverged (CallAudited).
func (s *Instance) run(ctx context.Context, name string, args []any, trial int, audit bool) (v Value, done, diverged bool, err error) {
	// A call that fails before executing anything (pre-cancelled ctx,
	// unknown function, arity mismatch, bad argument) must not leave the
	// previous call's state in the introspection taps.
	s.lastSteps = 0
	s.degraded = false
	s.lastFault = nil
	if err := ctxErr(ctx, name); err != nil {
		return Value{}, true, false, err
	}
	cf, fr, err := s.resolveCall(name, args)
	if err != nil {
		return Value{}, true, false, err
	}
	inj := s.decide(name)
	var pre *stateSnapshot
	if audit || s.prog.cfg.fallback {
		// A rollback restores what the call can write; an audit compares
		// everything the caller can see, so it captures every array.
		writes := cf.info.Writes
		if audit {
			writes = nil
		}
		pre = captureState(s, args, writes)
	}
	snapped := pre != nil
	if snapped {
		defer releaseSnapshot(pre)
	}
	startSteps := s.steps
	limit := s.maxSteps
	if snapped && trial > 0 && trial < s.maxSteps-startSteps {
		limit = startSteps + trial
	}
	v, err, fault := s.attempt(ctx, cf, fr, name, inj, limit)
	if err == errTrialEnd {
		pre.restore(s)
		s.steps = startSteps
		s.lastSteps = 0
		s.heldInj, s.heldFn = inj, name
		return Value{}, false, false, nil
	}
	s.lastFault = fault
	if !snapped && fault != nil {
		// No snapshot to roll back to: the session's globals may hold the
		// attempt's partial writes. Surface the fault and mark the state.
		s.poisoned = true
		return Value{}, true, false, fault
	}
	if !snapped || fault == nil && !audit {
		return v, true, false, err
	}
	var post *stateSnapshot
	if fault == nil {
		post = borrowSnapshot()
		defer releaseSnapshot(post)
		post.capture(s, args, nil) // an audit's: the same shapes as pre, within the bound
	}
	// Restore the pre-call state (globals, argument arrays and cells),
	// discard the attempt's step charge, and re-execute once on the
	// trusted tier. After a fault the caller sees a correct result plus
	// the LastCallDegraded flag, never the panic; the fault is quarantine
	// signal enough, so an audit does not also report a divergence.
	// After a clean audited attempt the reference outcome is what the
	// caller receives, so a silently miscompiling variant cannot leak a
	// wrong result.
	pre.restore(s)
	s.steps = startSteps
	rv, rerr := s.runFallback(ctx, name, args)
	if fault == nil {
		diverged = !outcomeEqual(v, err, rv, rerr) || !post.equalState(s, args)
	}
	s.degraded = fault != nil || diverged
	return rv, true, diverged, rerr
}

// decide consults the fault injector once per call: a call of the
// function whose trial just ended unfinished on this session is that
// trial's call run in full, and reuses the trial's decision.
func (s *Instance) decide(name string) *Fault {
	inj, held := s.heldInj, s.heldFn == name
	s.heldInj, s.heldFn = nil, ""
	if held {
		return inj
	}
	if fi := s.prog.cfg.inject; fi != nil {
		return fi.Decide(s.prog.cfg.backend, s.prog.cfg.opt, name)
	}
	return nil
}

// ctxErr reports a context that is already done before a call starts.
func ctxErr(ctx context.Context, name string) error {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("cminor: calling %s: %w", name, cerr)
		}
	}
	return nil
}

// attempt executes one call, bound into fr by resolveCall, on the
// session's own backend inside the containment boundary: any panic that
// is not a positioned *Diag or a context fault is returned as a
// structured *InternalFault rather than escaping — the process never
// dies on an engine bug. inj, when non-nil, is the fault the injector
// chose for this call; every injection point fires inside the boundary.
// limit is the steps value past which the attempt stops: the budget, or
// a trial's slice end below it, where the attempt returns errTrialEnd.
func (s *Instance) attempt(ctx context.Context, cf *compiledFunc, fr *frame, name string, inj *Fault, limit int) (v Value, err error, fault *InternalFault) {
	s.ctx = ctx
	startSteps := s.steps
	s.limit.Store(int64(limit))
	// Cancellation costs nothing per statement: a watcher drops the
	// limit when ctx fires, and the ordinary budget comparison faults. A
	// context that can never fire (Background) needs no watcher.
	var stopWatch func() bool
	if ctx != nil && ctx.Done() != nil {
		s.watchDone.Store(false)
		stopWatch = context.AfterFunc(ctx, func() {
			s.limit.Store(-1)
			s.watchDone.Store(true)
		})
	}
	defer func() {
		// Recover FIRST, then tear down: teardown runs inside its own
		// recover boundary, so a panic racing the AfterFunc stop/drain can
		// neither escape CallContext nor clobber the in-flight kernel fault.
		r := recover()
		if tr := s.teardown(startSteps, stopWatch); r == nil {
			r = tr
		}
		if r == nil {
			return
		}
		s.freeFrames()
		switch d := r.(type) {
		case *Diag:
			err = fmt.Errorf("cminor: interpreting %s: %w", name, d)
		case ctxDone:
			err = fmt.Errorf("cminor: interpreting %s: %w", name, d.err)
		case trialEnd:
			err = errTrialEnd
			if inj != nil && inj.Kind == FaultPanic {
				// An armed exit panic the slice cut off fires here,
				// where the attempt leaves the variant's code: a trial must
				// degrade and quarantine exactly as the full call would.
				err, fault = nil, s.internalFault(name, &injectedFault{s.prog.cfg.backend, s.prog.cfg.opt, name, inj.Point})
			}
		default:
			// An internal engine fault — anything that is not a positioned
			// program-level diagnostic. Contain it as a structured error;
			// the supervisor (call) decides between fallback and poisoning.
			fault = s.internalFault(name, r)
		}
	}()
	if inj != nil && inj.Kind == FaultPanic && inj.Point == FaultAtEntry {
		panic(&injectedFault{s.prog.cfg.backend, s.prog.cfg.opt, name, FaultAtEntry})
	}
	cf.body(fr)
	if inj != nil && inj.Kind == FaultPanic {
		// FaultAtExit fires after the body completed, when globals and
		// argument arrays hold the attempt's full mutations.
		panic(&injectedFault{s.prog.cfg.backend, s.prog.cfg.opt, name, FaultAtExit})
	}
	ret := fr.ret
	s.putFrame(cf, fr)
	if inj != nil && inj.Kind == FaultWrongResult {
		ret = corruptValue(ret)
	}
	return ret, nil, nil
}

// teardown restores the session invariants after an attempt: detach the
// context, settle the measurement tap and drain the cancellation
// watcher. It runs under its own recover so a panic here is reported to
// the containment boundary instead of escaping.
func (s *Instance) teardown(startSteps int, stopWatch func() bool) (r any) {
	defer func() { r = recover() }()
	s.ctx = nil
	s.lastSteps = s.steps - startSteps
	if stopWatch != nil && !stopWatch() {
		// The watcher ran (or is running). Drain it so it cannot
		// clobber a later call's limit.
		for !s.watchDone.Load() {
			runtime.Gosched()
		}
	}
	return nil
}

// internalFault packages a recovered panic with the variant's full knob
// coordinates and the goroutine stack at the recover point.
func (s *Instance) internalFault(fn string, r any) *InternalFault {
	buf := make([]byte, 16<<10)
	buf = buf[:runtime.Stack(buf, false)]
	return &InternalFault{
		Backend:   s.prog.cfg.backend,
		Opt:       s.prog.cfg.opt,
		Passes:    s.prog.cfg.passes,
		Fn:        fn,
		Recovered: r,
		Stack:     buf,
	}
}

// corruptValue deterministically flips the low bit of a result — the
// injected "silent miscompile" (FaultWrongResult) audits must catch.
func corruptValue(v Value) Value {
	if v.IsInt {
		v.I ^= 1
		return v
	}
	v.F = math.Float64frombits(math.Float64bits(v.F) ^ 1)
	return v
}

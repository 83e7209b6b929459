// Package autotune is the runtime layer of the SOCRATES reproduction:
// online selection among the compile-time variants of one program.
//
// The engine's design-time side compiles a kernel into an immutable
// grid of variants (backend × O0–O3, the O3 passes individually
// gate-able — see cminor.WithOptLevel / cminor.WithPasses), whose
// static costs the benchmark under bench/ probes. This package closes
// the loop the paper describes: an AutoTuner wraps one *cminor.Program,
// measures each variant in production, and converges on the best one
// per (function, input-size class) — challenging the winner when its
// observed cost drifts (re-measuring it against the arms that could
// beat it, or rescaling its estimate when none could), so the choice
// adapts under load.
//
// The policy has no knobs: its values are constants (stats.go,
// quarantine.go), each pinned by a seeded sim. The options are seams —
// the grid, the seed, a Clock or Sampler to measure on, a fault
// injector and an audit cadence — so tests drive convergence,
// exploration and drift deterministically with a fake clock.
//
// Learning is paid on cold sites, so the survey that opens it is
// cheap for the arms that lose: a fresh site surveys the grid's last
// arm (bytecode in DefaultGrid) first, by a full call, and every other
// arm by a trial (cminor.Instance.CallTrial) — a slice of the call that
// is priced, projected to the whole call, and rolled back once the
// projection cannot win, the call then served by the best arm. A near
// tie runs in full; a trial that finishes is the call.
//
//	prog, _ := cminor.Compile(file)
//	tn, _ := autotune.New(prog)
//	v, err := tn.Call("gemm", args...)   // routed to the current best guess
//
// AutoTuner is safe for concurrent use: selection state is mutex-
// guarded, variants materialize lazily exactly once, and every
// execution runs on a pooled per-call Instance (cminor.InstancePool),
// whose Put restores the step budget so no call inherits another's.
package autotune

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// config is the resolved option set of one AutoTuner.
type config struct {
	grid    []VariantSpec
	seed    uint64
	clock   clock.Clock
	sampler Sampler // nil: time the call on clock
	// Fault containment (quarantine.go).
	inject     cm.FaultInjector // deterministic fault-injection seam
	auditEvery int64            // every nth site call runs CallAudited (0 = off)
}

// Option configures New.
type Option func(*config)

// WithGrid replaces the variant grid the tuner selects over (default
// DefaultGrid: compiled O0–O3 plus the bytecode backend).
func WithGrid(specs ...VariantSpec) Option {
	return func(c *config) { c.grid = append([]VariantSpec{}, specs...) }
}

// WithSeed seeds the tuner's deterministic exploration PRNG.
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithClock injects the time source calls are measured on and
// quarantine backoff runs on (default: the wall clock), so tests drive
// measurement, convergence and drift with a fake.
func WithClock(clk clock.Clock) Option { return func(c *config) { c.clock = clk } }

// WithSampler injects the measurement seam itself, replacing the
// Clock-based default — simulation tests substitute a synthetic cost
// model here.
func WithSampler(s Sampler) Option { return func(c *config) { c.sampler = s } }

// siteKey identifies one tuning site.
type siteKey struct {
	fn    string
	class int
}

// variantSlot is one lazily-materialized grid point: the variant
// Program plus its Instance pool, built at most once.
type variantSlot struct {
	once sync.Once
	prog *cm.Program
	pool *cm.InstancePool
	err  error
}

// AutoTuner routes calls to one of several variants of a shared
// Program, learning per-(function, input-class) which variant is
// cheapest. Create with New; safe for concurrent use.
//
// The tuner targets stateless compute kernels — the paper's workload.
// Calls execute on pooled per-variant Instances, and an Instance's
// file-scope global variables persist per session: a kernel that
// accumulates state in globals would observe routing (different
// variants and checkouts see different global histories). Tune only
// kernels whose outputs are a function of their arguments; run
// stateful kernels on a dedicated Instance instead.
type AutoTuner struct {
	base  *cm.Program
	cfg   config
	slots []*variantSlot // parallel to cfg.grid

	mu    sync.Mutex
	rng   splitmix64
	sites map[siteKey]*siteState
}

// New wraps prog in an AutoTuner. The grid is validated eagerly (an
// unknown opt level or pass bit is an error here, not at first call)
// but variants are materialized lazily, on the first call routed to
// them — a tuner over a large grid costs nothing for arms never tried.
func New(prog *cm.Program, opts ...Option) (*AutoTuner, error) {
	cfg := config{grid: DefaultGrid(), seed: 1, clock: clock.Wall{}}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.grid) == 0 {
		return nil, fmt.Errorf("autotune: empty variant grid")
	}
	if cfg.auditEvery < 0 {
		return nil, fmt.Errorf("autotune: audit cadence must be >= 0, got %d", cfg.auditEvery)
	}
	for _, spec := range cfg.grid {
		// Run the engine's own option validation now so a typo'd grid
		// fails fast — without lowering anything; variants still
		// materialize lazily, on first selection.
		if err := prog.CheckOptions(spec.options()...); err != nil {
			return nil, fmt.Errorf("autotune: grid point %v: %w", spec, err)
		}
	}
	t := &AutoTuner{
		base:  prog,
		cfg:   cfg,
		slots: make([]*variantSlot, len(cfg.grid)),
		rng:   splitmix64(cfg.seed),
		sites: map[siteKey]*siteState{},
	}
	for i := range t.slots {
		t.slots[i] = &variantSlot{}
	}
	return t, nil
}

// variant materializes (once) and returns grid point idx. Every
// materialized variant carries the tuner's resilience options: trusted
// fallback, always on (the engine skips it where the copy of what a
// call can write exceeds cm.MaxSnapshotElems), and the fault injector,
// when one is armed.
func (t *AutoTuner) variant(idx int) (*variantSlot, error) {
	s := t.slots[idx]
	s.once.Do(func() {
		opts := t.cfg.grid[idx].options()
		opts = append(opts, cm.WithFallback(true))
		if t.cfg.inject != nil {
			opts = append(opts, cm.WithFaultInjector(t.cfg.inject))
		}
		s.prog, s.err = t.base.Variant(opts...)
		if s.err == nil {
			s.pool = s.prog.NewPool()
		}
	})
	return s, s.err
}

// site returns (creating if needed) the selection state for key.
// Caller holds t.mu.
func (t *AutoTuner) site(key siteKey) *siteState {
	st := t.sites[key]
	if st == nil {
		st = newSiteState(len(t.cfg.grid))
		t.sites[key] = st
	}
	return st
}

// Call routes one invocation of the named function through the
// explore/exploit policy: a variant is selected for the call's
// (function, input-size class) site, the call runs on a pooled
// Instance of that variant, and the measured cost feeds the site's
// estimates. Semantics are those of Instance.Call on whichever variant
// was picked — every variant is bit-exact with the walker, so routing
// is unobservable apart from speed.
func (t *AutoTuner) Call(fn string, args ...any) (cm.Value, error) {
	return t.callOne(nil, fn, args)
}

// CallContext is Call with cancellation, forwarded to
// Instance.CallContext. A cancelled call still counts its pull, but
// its (truncated) cost is not folded into the estimates.
func (t *AutoTuner) CallContext(ctx context.Context, fn string, args ...any) (cm.Value, error) {
	return t.callOne(ctx, fn, args)
}

// callOne is a CallBatch of one (batch.go): the routed-call pipeline
// exists once. The entry lives on this frame — CallBatch retains
// nothing of its batch — so a converged call allocates nothing.
func (t *AutoTuner) callOne(ctx context.Context, fn string, args []any) (cm.Value, error) {
	one := [1]BatchCall{{Ctx: ctx, Args: args}}
	if err := t.CallBatch(fn, one[:]); err != nil {
		return cm.Value{}, err
	}
	return one[0].Ret, one[0].Err
}

// Best reports the winning variant of a converged (function, class)
// site. ok is false while the site is unknown or still exploring.
func (t *AutoTuner) Best(fn string, class int) (spec VariantSpec, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.sites[siteKey{fn: fn, class: class}]
	if st == nil || st.phase != phaseExploit {
		return VariantSpec{}, false
	}
	return t.cfg.grid[st.best], true
}

// Snapshot returns the state of every tuning site, sorted by function
// then class — the introspection surface tests and monitoring read.
func (t *AutoTuner) Snapshot() []SiteReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	reports := make([]SiteReport, 0, len(t.sites))
	for key, st := range t.sites {
		r := SiteReport{
			Fn:              key.fn,
			Class:           key.class,
			Converged:       st.phase == phaseExploit,
			Best:            t.cfg.grid[st.best],
			Pulls:           st.pulls,
			ExplorePulls:    st.explore,
			Reopens:         st.reopens,
			QuarantinedArms: st.nquar,
			Arms:            make([]ArmReport, len(st.arms)),
		}
		for i := range st.arms {
			a := &st.arms[i]
			r.Arms[i] = ArmReport{
				Spec:        t.cfg.grid[i],
				Pulls:       a.pulls,
				EWMA:        time.Duration(a.ewma),
				Sampled:     a.sampled,
				Faults:      a.faults,
				Degraded:    a.degraded,
				Diverged:    a.diverged,
				Quarantines: a.quarantines,
				Quarantined: a.quarantined,
			}
		}
		reports = append(reports, r)
	}
	sort.Slice(reports, func(i, j int) bool {
		if reports[i].Fn != reports[j].Fn {
			return reports[i].Fn < reports[j].Fn
		}
		return reports[i].Class < reports[j].Class
	})
	return reports
}

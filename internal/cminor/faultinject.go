package cminor

import (
	"fmt"
	"sync"
)

// Deterministic fault injection: the test seam of the fault-containment
// layer (resilience.go). A FaultInjector decides, once per call on an
// injection-enabled variant, whether to sabotage that call — panic at a
// chosen point or corrupt the returned value — so the entire detect →
// contain → rollback → fallback → quarantine pipeline can be driven
// deterministically in tests, the same way the autotuner's simulations
// drive convergence with a fake clock. A
// production Program simply never sets WithFaultInjector; the injector
// check is a single nil comparison per call.

// FaultKind selects what an injected fault does to the call.
type FaultKind uint8

const (
	// FaultPanic raises a non-*Diag panic inside the call, at the
	// point selected by Fault.Point — exactly the signature of an
	// internal engine bug, so containment classifies it as an
	// InternalFault.
	FaultPanic FaultKind = iota
	// FaultWrongResult lets the call complete but corrupts the
	// returned Value — a silent miscompile, detectable only by
	// re-execution on the trusted backend (Instance.CallAudited).
	FaultWrongResult
)

// String names the kind.
func (k FaultKind) String() string {
	if k == FaultWrongResult {
		return "wrong-result"
	}
	return "panic"
}

// FaultPoint selects where inside the call a FaultPanic fires.
type FaultPoint uint8

const (
	// FaultAtEntry panics before the body executes: no state has been
	// mutated yet, the cheapest containment case.
	FaultAtEntry FaultPoint = iota
	// FaultAtExit panics after the body completed: globals and argument
	// arrays hold the attempt's full mutations, so rollback (not just
	// re-execution) is what keeps the caller's state correct. In a trial
	// whose slice ends first it fires at the trial end instead (see
	// Instance.CallTrial). Both points fire inside the containment
	// boundary on every backend, the walker included.
	FaultAtExit
)

// String names the point.
func (p FaultPoint) String() string {
	if p == FaultAtExit {
		return "exit"
	}
	return "entry"
}

// Fault is one injection decision: what to do to the call it was
// returned for.
type Fault struct {
	Kind  FaultKind
	Point FaultPoint // FaultPanic only
}

// FaultInjector is consulted once at the entry of every Call /
// CallContext on a variant configured with WithFaultInjector. Returning
// nil leaves the call alone. Implementations must be safe for
// concurrent use: one injector is typically shared by every Instance
// of a variant (and, through the autotuner's passthrough, by every arm
// of a grid).
type FaultInjector interface {
	Decide(backend Backend, opt OptLevel, fn string) *Fault
}

// FaultRule is one trigger of a ScriptedInjector: it matches calls by
// (backend, opt level, function) and fires deterministically by the
// per-rule count of matching calls.
type FaultRule struct {
	Backend Backend
	Opt     OptLevel
	AnyOpt  bool   // match every opt level of Backend
	Fn      string // function name; "" matches every function
	// Call selects the Nth matching call (1-based) — the rule fires
	// exactly once, on that call. Call == 0 fires on every matching
	// call.
	Call  int64
	Kind  FaultKind
	Point FaultPoint
}

func (r FaultRule) String() string {
	fn := r.Fn
	if fn == "" {
		fn = "*"
	}
	opt := r.Opt.String()
	if r.AnyOpt {
		opt = "O*"
	}
	return fmt.Sprintf("%s/%s/%s call=%d %s@%s", r.Backend, opt, fn, r.Call, r.Kind, r.Point)
}

// ScriptedInjector is the deterministic FaultInjector tests use: a
// fixed rule list, each rule counting its own matching calls, so the
// same call sequence always faults at the same places. Safe for
// concurrent use.
type ScriptedInjector struct {
	mu    sync.Mutex
	rules []FaultRule
	seen  []int64 // matching calls observed per rule
	fired []int64 // faults injected per rule
}

// NewScriptedInjector builds an injector over the given rules. Rules
// are evaluated in order; the first rule that fires wins the call.
func NewScriptedInjector(rules ...FaultRule) *ScriptedInjector {
	return &ScriptedInjector{
		rules: append([]FaultRule{}, rules...),
		seen:  make([]int64, len(rules)),
		fired: make([]int64, len(rules)),
	}
}

// Decide implements FaultInjector.
func (si *ScriptedInjector) Decide(backend Backend, opt OptLevel, fn string) *Fault {
	si.mu.Lock()
	defer si.mu.Unlock()
	var hit *Fault
	for i := range si.rules {
		r := &si.rules[i]
		if r.Backend != backend || (!r.AnyOpt && r.Opt != opt) || (r.Fn != "" && r.Fn != fn) {
			continue
		}
		si.seen[i]++
		if hit == nil && (r.Call == 0 || r.Call == si.seen[i]) {
			si.fired[i]++
			hit = &Fault{Kind: r.Kind, Point: r.Point}
		}
	}
	return hit
}

// Fired reports how many faults rule i has injected so far.
func (si *ScriptedInjector) Fired(i int) int64 {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.fired[i]
}

// TotalFired reports the injector-wide injected-fault count.
func (si *ScriptedInjector) TotalFired() int64 {
	si.mu.Lock()
	defer si.mu.Unlock()
	var n int64
	for _, f := range si.fired {
		n += f
	}
	return n
}

// WithFaultInjector arms a variant with a fault injector: every Call /
// CallContext on its Instances consults inj once at entry and applies
// the returned Fault. nil disarms injection (the default). Variants
// derived with Program.Variant inherit the injector unless overridden;
// the trusted reference variant that fallback re-execution and audits
// run on is always injector-free.
func WithFaultInjector(inj FaultInjector) Option {
	return func(c *config) { c.inject = inj }
}

// injectedFault is the panic value FaultPanic raises. It is not a
// *Diag, so the containment boundary classifies it — like any
// unexpected panic inside an optimized backend — as an InternalFault.
type injectedFault struct {
	backend Backend
	opt     OptLevel
	fn      string
	point   FaultPoint
}

func (f *injectedFault) String() string {
	return fmt.Sprintf("injected panic at %s of %s [%s %s]", f.point, f.fn, f.backend, f.opt)
}

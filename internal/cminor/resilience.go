package cminor

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// Fault containment and graceful degradation. The engine's optimized
// backends — the closure compiler at O1–O3 and the flat-bytecode
// machine at O4 — are large, aggressive lowerings; a lowering bug, a
// bad range proof or an index error inside them must not take down a
// process that serves many tenants from one shared Program. This file
// implements the supervisor tier:
//
//	detect    every call runs inside a recover boundary that separates
//	          program-level faults (positioned *Diag, ctx cancellation,
//	          step budget) from internal engine panics;
//	contain   an internal panic becomes a structured *InternalFault
//	          carrying the variant's full knob coordinates and the
//	          recovered value + stack — the process never dies;
//	rollback  with WithFallback enabled, the state the call can write
//	          (the instance's global frame, the argument cells, and the
//	          argument arrays bound to parameters in the function's
//	          write set, FuncInfo.Writes) is snapshotted on the way in
//	          and restored after an internal fault, so a half-written
//	          attempt leaves no trace; an audit (CallAudited) captures
//	          every argument array instead, since it compares all the
//	          caller can see; the snapshot's storage is borrowed from
//	          a process-wide free list for the length of the call, so
//	          it scales with the calls in flight, not with the
//	          Instances that exist;
//	fallback  the call is transparently re-executed once on the trusted
//	          reference tier (the generic O0 closures), so the caller
//	          sees a correct result plus an introspectable "degraded"
//	          flag (Instance.LastCallDegraded) instead of an error;
//	quarantine the autotuner (internal/cminor/autotune) reads the same
//	          introspection taps to pull a faulting variant out of
//	          routing with exponential backoff.
//
// Containment is always on. Rollback + fallback are opt-in
// (WithFallback) because the snapshot is a real copy of the state the
// call can write; without it an internal fault poisons the instance
// (Instance.Poisoned) — its globals may hold partial writes from the
// aborted attempt — and InstancePool.Put rebuilds poisoned sessions
// rather than recycling their state.

// InternalFault is a contained internal engine panic: anything
// recovered at the call boundary that is not a positioned program-level
// *Diag or a context cancellation. It identifies the exact variant that
// misbehaved — backend, opt level, pass mask — so a selection layer can
// quarantine that arm, and carries the recovered value and stack for
// diagnosis.
type InternalFault struct {
	Backend   Backend
	Opt       OptLevel
	Passes    PassMask
	Fn        string
	Recovered any    // the recovered panic value
	Stack     []byte // goroutine stack at the recover point
}

// Error renders the fault with its variant coordinates.
func (f *InternalFault) Error() string {
	return fmt.Sprintf("internal fault in %s [%s %s passes=%s]: %v",
		f.Fn, f.Backend, f.Opt, f.Passes, f.Recovered)
}

// WithFallback enables trusted-fallback re-execution: each call on the
// variant snapshots the state it can write (the instance's global frame,
// the argument cells, and the argument arrays bound to parameters in
// the function's write set, FuncInfo.Writes) before executing, and an
// internal fault rolls the state back and re-executes the call once on
// the trusted reference tier — the generic O0 closures, injector-free.
// The caller then sees the reference result and
// Instance.LastCallDegraded reports true; without fallback an internal
// fault surfaces as an *InternalFault error and poisons the instance.
// The snapshot is a real
// copy of the whole global frame, every argument cell and each written
// argument array (once, however many parameters it is bound to); an
// array bound only to parameters the function never writes is left as
// it is, since no attempt can change it. The copy is bounded by
// MaxSnapshotElems; calls whose copy would exceed the bound run
// uncontained-state (fault ⇒ poisoned), never half-protected. Its
// storage is not the instance's: the call borrows it from a
// process-wide free list and returns it when it ends, so memory for
// snapshots grows with the number of calls running at once, and a
// warm call allocates none.
// Fallback is inert on the walker backend: it is the reference
// semantics, so it never snapshots, and an internal fault there
// poisons the session.
func WithFallback(on bool) Option {
	return func(c *config) { c.fallback = on }
}

// MaxSnapshotElems bounds the float64 elements a snapshot copies: the
// global arrays plus the argument arrays it takes (the written ones for
// a WithFallback call, all of them for an audit), each counted once.
// Beyond it the call skips the snapshot and an internal fault poisons
// the instance instead of degrading gracefully. It is a variable so
// harnesses can tighten it to exercise the overflow path (a negative
// bound refuses even an empty copy).
var MaxSnapshotElems = 4 << 20

// stateSnapshot is one call's copy of the mutable state the caller can
// observe: the instance's global frame, the argument cells (*Value args,
// which bind only to pointer parameters), and the argument arrays the
// call can write — every argument array when it is an audit's. A call
// borrows it from snapshotFree (borrowSnapshot) and returns it when it
// ends (releaseSnapshot); its buffers are reused by whichever call
// borrows it next, so steady-state resilient calls allocate only when
// shapes grow past every shape seen before.
type stateSnapshot struct {
	scalars  []Value
	arrays   [][]float64
	argArrs  []*Array
	argData  [][]float64
	cells    []*Value
	cellVals []Value
}

// snapshotFree is the process-wide free list of snapshots: a mutex and
// a slice, as InstancePool keeps its Instances. It holds at most as
// many snapshots as calls have ever run at once (two per audited call).
// It is not a sync.Pool: a GC empties one, and the next warm call would
// allocate its buffers again.
var snapshotFree struct {
	mu   sync.Mutex
	list []*stateSnapshot
}

// borrowSnapshot takes a snapshot off the free list, or makes one.
func borrowSnapshot() *stateSnapshot {
	snapshotFree.mu.Lock()
	defer snapshotFree.mu.Unlock()
	n := len(snapshotFree.list)
	if n == 0 {
		return new(stateSnapshot)
	}
	sn := snapshotFree.list[n-1]
	snapshotFree.list = snapshotFree.list[:n-1]
	return sn
}

// releaseSnapshot returns sn to the free list. It first drops its
// references to the caller's arrays and cells, so a pooled snapshot
// keeps no caller storage alive.
func releaseSnapshot(sn *stateSnapshot) {
	clear(sn.argArrs)
	clear(sn.cells)
	snapshotFree.mu.Lock()
	snapshotFree.list = append(snapshotFree.list, sn)
	snapshotFree.mu.Unlock()
}

// captureState borrows a snapshot and copies the call's mutable state
// into it: the global frame, the argument cells, and the argument
// arrays bound to the parameters writes marks (all of them when writes
// is nil). It returns nil, borrowing nothing, on the walker backend
// (the reference: nothing to roll back to or audit against) and when
// the copy would exceed MaxSnapshotElems.
func captureState(s *Instance, args []any, writes []bool) *stateSnapshot {
	if s.prog.cfg.backend == BackendWalker || snapshotSize(s, args, writes) > MaxSnapshotElems {
		return nil
	}
	sn := borrowSnapshot()
	sn.capture(s, args, writes)
	return sn
}

// snapshotSize totals the elements a snapshot of (s, args) under writes
// would copy. args are already bound (resolveCall), so no pointer among
// them is nil.
func snapshotSize(s *Instance, args []any, writes []bool) int {
	total := 0
	for _, a := range s.g.arrays {
		total += len(a.Data)
	}
	for i := range args {
		if arr := snapArray(args, writes, i); arr != nil {
			total += len(arr.Data)
		}
	}
	return total
}

// snapArray returns args[i] when a snapshot under writes copies it: an
// *Array bound to a written parameter (to any parameter when writes is
// nil) that no earlier copied argument already is. An array bound to a
// written and a read-only parameter is copied once, for the written one;
// a read-only argument is never written, so it needs no copy.
func snapArray(args []any, writes []bool, i int) *Array {
	arr, ok := args[i].(*Array)
	if !ok || writes != nil && !writes[i] {
		return nil
	}
	for j := range i {
		if args[j] == any(arr) && (writes == nil || writes[j]) {
			return nil
		}
	}
	return arr
}

// grow returns dst resized to n, reusing its backing store when it can.
func grow(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// capture copies the call's mutable state — the whole global frame,
// every argument cell, and the argument arrays snapArray selects under
// writes — into sn, reusing sn's buffers.
func (sn *stateSnapshot) capture(s *Instance, args []any, writes []bool) {
	sn.scalars = append(sn.scalars[:0], s.g.scalars...)
	if cap(sn.arrays) < len(s.g.arrays) {
		sn.arrays = make([][]float64, len(s.g.arrays))
	}
	sn.arrays = sn.arrays[:len(s.g.arrays)]
	for i, a := range s.g.arrays {
		sn.arrays[i] = grow(sn.arrays[i], len(a.Data))
		copy(sn.arrays[i], a.Data)
	}
	sn.argArrs = sn.argArrs[:0]
	sn.cells = sn.cells[:0]
	sn.cellVals = sn.cellVals[:0]
	n := 0
	for i, a := range args {
		if v, ok := a.(*Value); ok {
			sn.cells = append(sn.cells, v)
			sn.cellVals = append(sn.cellVals, *v)
			continue
		}
		arr := snapArray(args, writes, i)
		if arr == nil {
			continue
		}
		sn.argArrs = append(sn.argArrs, arr)
		if cap(sn.argData) <= n {
			sn.argData = append(sn.argData, nil)
		}
		sn.argData = sn.argData[:n+1]
		sn.argData[n] = grow(sn.argData[n], len(arr.Data))
		copy(sn.argData[n], arr.Data)
		n++
	}
	sn.argData = sn.argData[:n]
}

// restore writes the captured state back: globals, argument arrays and
// argument cells return bit-for-bit to their pre-call contents.
func (sn *stateSnapshot) restore(s *Instance) {
	copy(s.g.scalars, sn.scalars)
	for i, a := range s.g.arrays {
		copy(a.Data, sn.arrays[i])
	}
	for i, arr := range sn.argArrs {
		copy(arr.Data, sn.argData[i])
	}
	for i, c := range sn.cells {
		*c = sn.cellVals[i]
	}
}

// equalState reports whether the captured state matches the CURRENT
// state of (s, args) bit-for-bit — the audit comparison between an
// attempt's post-state and the reference re-execution's post-state.
func (sn *stateSnapshot) equalState(s *Instance, args []any) bool {
	for i, v := range sn.scalars {
		if !valueBitsEqual(v, s.g.scalars[i]) {
			return false
		}
	}
	for i, a := range s.g.arrays {
		if !floatBitsEqual(sn.arrays[i], a.Data) {
			return false
		}
	}
	for i, arr := range sn.argArrs {
		if !floatBitsEqual(sn.argData[i], arr.Data) {
			return false
		}
	}
	for i, c := range sn.cells {
		if !valueBitsEqual(sn.cellVals[i], *c) {
			return false
		}
	}
	return true
}

// valueBitsEqual is bit-exact Value equality (NaNs compare by payload,
// like the differential fuzz oracle).
func valueBitsEqual(a, b Value) bool {
	return a.IsInt == b.IsInt && a.I == b.I &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func floatBitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// reference returns (building once) the trusted tier of this program:
// the same resolved source lowered with the generic O0 closures,
// injector-free and fallback-free. Fallback re-execution and audits run
// on it; it shares the front-end side tables with p, so its global slot
// layout is identical and an Instance's global frame can be shared
// between the optimized and the reference tier.
func (p *Program) reference() *Program {
	p.refOnce.Do(func() {
		cfg := p.cfg
		cfg.backend = BackendCompiled
		cfg.opt = O0
		cfg.passes = 0
		cfg.fallback = false
		cfg.inject = nil
		p.ref = lower(p.fname, p.res, cfg)
	})
	return p.ref
}

// fallbackInstance returns (building once) the session's trusted-tier
// twin: an Instance of the reference variant that aliases THIS
// session's global frame, so a fallback re-execution reads the
// rolled-back globals and its writes persist in the session.
func (s *Instance) fallbackInstance() *Instance {
	if s.fb == nil {
		s.fb = s.prog.reference().NewInstance()
		s.fb.g = s.g
	}
	return s.fb
}

// runFallback re-executes the call on the trusted tier after rollback,
// keeping the session's step accounting continuous: the faulted
// attempt's steps were rolled back with the state, so the committed
// execution is the only one the session (and LastCallSteps) charges.
func (s *Instance) runFallback(ctx context.Context, name string, args []any) (Value, error) {
	fb := s.fallbackInstance()
	fb.maxSteps = s.maxSteps
	fb.steps = s.steps
	v, err := fb.call(ctx, name, args)
	s.steps = fb.steps
	s.lastSteps = fb.lastSteps
	if fb.lastFault != nil || fb.poisoned {
		// The trusted tier itself faulted internally: the shared global
		// frame is suspect, and there is no tier left to degrade to.
		s.poisoned = true
	}
	return v, err
}

// LastCallDegraded reports whether the most recent Call/CallContext was
// served by trusted-fallback re-execution (or, for CallAudited, whether
// the audit found the attempt faulty or divergent) rather than by the
// variant's own backend. The result the caller received is correct
// either way; the flag is the routing signal selection layers consume.
func (s *Instance) LastCallDegraded() bool { return s.degraded }

// LastCallFault returns the contained InternalFault of the most recent
// call, or nil if it ran clean. It is set both when the fault was
// degraded away (fallback succeeded) and when it surfaced as an error.
func (s *Instance) LastCallFault() *InternalFault { return s.lastFault }

// Poisoned reports whether an internal fault left this session's global
// state unrecovered (no snapshot was available to roll back). Calls on
// a poisoned session still execute, but its file-scope globals may hold
// partial writes from the aborted attempt; InstancePool.Put rebuilds
// poisoned sessions instead of recycling their state.
func (s *Instance) Poisoned() bool { return s.poisoned }

// GlobalScalar returns a copy of the named file-scope scalar's current
// value in this session. It is the introspection tap differential
// harnesses use to assert globals bit-exactly across backends.
func (s *Instance) GlobalScalar(name string) (Value, bool) {
	for i := range s.prog.res.Scalars {
		if s.prog.res.Scalars[i].Name == name {
			return s.g.scalars[i], true
		}
	}
	return Value{}, false
}

// GlobalArray returns the named file-scope array of this session (the
// live storage, not a copy).
func (s *Instance) GlobalArray(name string) (*Array, bool) {
	for i := range s.prog.res.Arrays {
		if s.prog.res.Arrays[i].Name == name {
			return s.g.arrays[i], true
		}
	}
	return nil, false
}

// CallAudited is Call with a trust audit: the call executes on this
// session's variant, then — from the same pre-call state, restored by
// rollback — once more on the trusted reference tier, and the two
// outcomes are compared bit-exactly (returned value, error, globals,
// argument arrays and cells). The reference outcome is what the caller
// receives, so a silently-miscompiling variant cannot leak a wrong
// result through an audited call; diverged reports the mismatch.
// Selection layers sample audits to catch wrong-result faults that
// containment alone cannot see. States larger than MaxSnapshotElems,
// and every call on the walker backend (the reference itself), run as
// an ordinary call with diverged=false. The audit borrows its two
// snapshots from the process-wide free list, so a warm session audits
// without allocating.
func (s *Instance) CallAudited(ctx context.Context, name string, args ...any) (v Value, diverged bool, err error) {
	v, _, diverged, err = s.run(ctx, name, args, 0, true)
	return v, diverged, err
}

// outcomeEqual compares two call outcomes bit-exactly: equal values on
// success, equal fault text on failure (the parity contract guarantees
// identical fault text and position across backends).
func outcomeEqual(v1 Value, err1 error, v2 Value, err2 error) bool {
	if (err1 == nil) != (err2 == nil) {
		return false
	}
	if err1 != nil {
		return err1.Error() == err2.Error()
	}
	return valueBitsEqual(v1, v2)
}

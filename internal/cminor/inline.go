package cminor

// The inliner is the first of the O3 passes: call sites whose callee is
// a small, call-free leaf function are spliced into the caller at
// compile time. Because the AST is immutable (and shared between
// variants), nothing is cloned or rewritten — instead each inlined call
// site gets a fresh block of slots appended to the caller's frame, and
// the callee's body is lowered a second time with its slot references
// relocated into that block. By-value parameter semantics fall out of
// the renumbering: the callee's scalars live in their own slots, so
// writes to them never reach the caller's variables, exactly as with a
// real call frame. Pointer (cell) and array parameters bind the
// caller's storage, as the ordinary call binders do.
//
// Inlining also feeds the loop optimizer: a counted-loop body whose
// only calls are inlined no longer defeats the "call-free body" rule —
// analyzeLoopBody descends into the callee with the same relocation and
// accounts for everything it can touch, so bodies with small helper
// calls now reach the native-loop fast path. The bytecode lowerer splices
// the same plan (bytecode_lower.go's spliceCall).
//
// Step accounting and fault behaviour are preserved bit-for-bit: the
// inlined body charges exactly the statements the called body would,
// return statements terminate only the inlined region, and the caller's
// pending return value is saved around it.

// inlineMaxNodes is the callee size budget: bodies with more AST nodes
// than this stay ordinary calls. Small accessors and arithmetic helpers
// fit comfortably; anything loop-heavy is left alone (it amortizes its
// own call overhead).
const inlineMaxNodes = 64

// inlineSite is one planned splice: which callee, and where its three
// slot classes land in the caller's frame.
type inlineSite struct {
	callee    *FuncInfo
	scalarOff int
	cellOff   int
	arrayOff  int
}

// apply relocates a callee-frame slot reference into the caller's
// frame. Global references are frame-independent and pass through. A
// nil site is the identity (no inlined body active).
func (s *inlineSite) apply(ref VarRef) VarRef {
	if s == nil {
		return ref
	}
	switch ref.Kind {
	case VarScalar:
		ref.Slot += s.scalarOff
	case VarCell:
		ref.Slot += s.cellOff
	case VarArray:
		ref.Slot += s.arrayOff
	}
	return ref
}

// inlinePlan is one caller's inlining decisions: the sites keyed by
// CallExpr NodeID and the grown frame sizes. Relocated slots keep their
// declared kind (VarRef.Base), so no kind table is extended.
type inlinePlan struct {
	sites      map[NodeID]*inlineSite
	numScalars int
	numCells   int
	numArrays  int
}

// inlinable reports whether fn qualifies as an inline callee: a leaf
// (no user calls anywhere in the body — builtins are fine) within the
// node budget. Both facts come from the resolver's body summary.
func inlinable(fn *FuncInfo) bool {
	return fn.UserCalls == 0 && fn.BodyNodes <= inlineMaxNodes
}

// planInlining decides, for every function in res, which of its call
// sites are inlined, and lays out a fresh slot block per site. It reads
// the shared resolve results and writes only new structures, so
// concurrent lowerings of the same front end stay race-free.
func planInlining(res *ResolvedFile) map[string]*inlinePlan {
	candidates := map[string]*FuncInfo{}
	for name, fi := range res.Funcs {
		if inlinable(fi) {
			candidates[name] = fi
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	plans := map[string]*inlinePlan{}
	for name, fi := range res.Funcs {
		if fi.UserCalls == 0 {
			continue // nothing to inline into a leaf
		}
		pl := &inlinePlan{
			sites:      map[NodeID]*inlineSite{},
			numScalars: fi.NumScalars,
			numCells:   fi.NumCells,
			numArrays:  fi.NumArrays,
		}
		Walk(fi.Decl.Body, func(n Node) bool {
			call, ok := n.(*CallExpr)
			if !ok || res.builtins[call.ID] {
				return true
			}
			callee := candidates[call.Fun]
			if callee == nil {
				return true
			}
			pl.sites[call.ID] = &inlineSite{
				callee:    callee,
				scalarOff: pl.numScalars,
				cellOff:   pl.numCells,
				arrayOff:  pl.numArrays,
			}
			pl.numScalars += callee.NumScalars
			pl.numCells += callee.NumCells
			pl.numArrays += callee.NumArrays
			return true
		})
		if len(pl.sites) == 0 {
			continue
		}
		plans[name] = pl
	}
	return plans
}

// siteFor returns the inlining decision for a call site (nil when the
// call stays a call). Inlined callees are leaves, so no site is ever
// looked up while a relocation is already active.
func (c *compiler) siteFor(e *CallExpr) *inlineSite {
	if c.plan == nil {
		return nil
	}
	return c.plan.sites[e.ID]
}

// inlineCall lowers a planned call site: argument binders evaluate in
// the caller's context and write the relocated parameter slots, then
// the callee's body — compiled against the caller's frame layout — runs
// in place, its returns converting to the callee's declared kind. The
// caller's pending return value is saved around the splice so a caller
// that falls off its end still yields its own zero, and the callee's
// flowReturn never escapes the site.
func (c *compiler) inlineCall(e *CallExpr, site *inlineSite) evalFn {
	fi := site.callee
	binders := make([]func(fr *frame), len(e.Args))
	for i, a := range e.Args {
		p := fi.Decl.Params[i]
		ref := site.apply(fi.Params[i])
		slot := ref.Slot
		switch ref.Kind {
		case VarArray:
			id, _ := stripArg(a)
			if id == nil {
				c.bug(a.Pos(), "array argument is not a variable")
			}
			src := c.arrayRef(id)
			binders[i] = func(fr *frame) { fr.arrays[slot] = src(fr) }
		case VarCell:
			id, _ := stripArg(a)
			if id == nil {
				c.bug(a.Pos(), "pointer argument is not a variable")
			}
			src := c.cellRef(id)
			binders[i] = func(fr *frame) { fr.cells[slot] = src(fr) }
		default:
			// By-value scalars normalize to the declared parameter kind,
			// exactly like the out-of-line internal call binders.
			if p.Type.Kind == Int {
				v := c.asInt(a)
				binders[i] = func(fr *frame) { fr.scalars[slot] = IntV(v(fr)) }
			} else {
				v := c.asFloat(a)
				binders[i] = func(fr *frame) { fr.scalars[slot] = FloatV(v(fr)) }
			}
		}
	}
	saved, savedRet := c.remap, c.ret
	c.remap, c.ret = site, fi.Decl.Ret.Kind
	body := c.block(fi.Decl.Body)
	c.remap, c.ret = saved, savedRet
	zero := convertKind(Value{}, fi.Decl.Ret.Kind)
	return func(fr *frame) Value {
		for _, bind := range binders {
			bind(fr)
		}
		outer := fr.ret
		fr.ret = zero
		body(fr)
		ret := fr.ret
		fr.ret = outer
		return ret
	}
}

// markInlinedCall accounts an inlined call site into a counted loop's
// modification sets: parameter binds rewrite the relocated slots every
// iteration, cell arguments expose the argument variable to writes from
// the callee, and the callee body is analysed like inline code (with
// relocation active). Used by analyzeLoopBody, which previously had to
// reject any body containing a user call.
func (c *compiler) markInlinedCall(lc *loopCtx, e *CallExpr, site *inlineSite, visit func(Node) bool) {
	fi := site.callee
	for i, pref := range fi.Params {
		ref := site.apply(pref)
		switch ref.Kind {
		case VarScalar:
			lc.modScalars.add(ref.Slot)
		case VarArray:
			// The slot is rebound at every call, like a per-iteration
			// declaration: accesses through it must not be proven at
			// loop entry.
			lc.declArrays.add(ref.Slot)
		case VarCell:
			// The callee may store through the cell: whatever variable the
			// caller passed is no longer invariant.
			if id, _ := stripArg(e.Args[i]); id != nil {
				c.markWrite(lc, id)
			} else {
				lc.writesCells = true
			}
		}
	}
	// Argument expressions run in caller context (they may themselves
	// contain assignments); the callee body is walked with its slots
	// relocated so its writes land in the right sets.
	for _, a := range e.Args {
		Walk(a, visit)
	}
	savedRemap := c.remap
	c.remap = site
	Walk(fi.Decl.Body, visit)
	c.remap = savedRemap
}

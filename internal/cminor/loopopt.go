package cminor

import "math"

// The loop optimizer recognizes the canonical counted loop
//
//	for (i = lo; i < hi; i++) { ... }   (also <=, "i += 1", "i = i + 1",
//	                                     and "for (int i = lo; ...)")
//
// over a statically-int induction variable and compiles it into a native
// Go loop over one body: the bound is evaluated once (it must be a pure
// loop-invariant int expression), the condition becomes a machine
// integer compare, and the increment a machine add, with the induction
// slot kept in sync for body reads. The step budget is still charged per
// iteration, and every subscript in the body keeps its checked accessor.
//
// The same recognition and body analysis (countedShape, invariant,
// classifySubs, affineInRange) drive the bytecode lowerer, which proves
// a loop's affine subscripts in range once at entry and runs its body
// unchecked (bytecode_lower.go).

// loopCtx is the per-counted-loop analysis: what the body modifies, for
// invariance checks.
type loopCtx struct {
	ivSlot      int
	modScalars  slotSet
	modGlobals  slotSet
	declArrays  slotSet
	writesCells bool
}

// slotSet is a set of slot numbers: slot s < 64 is bit s of low, and a
// higher one spills into high, which only a frame that large allocates.
type slotSet struct {
	low  uint64
	high []uint64 // slot 64(k+1)+b is bit b of high[k]
}

func (ss *slotSet) add(slot int) {
	if slot < 64 {
		ss.low |= 1 << slot
		return
	}
	k := slot/64 - 1
	if k >= len(ss.high) {
		ss.high = append(ss.high, make([]uint64, k+1-len(ss.high))...)
	}
	ss.high[k] |= 1 << (slot % 64)
}

func (ss *slotSet) has(slot int) bool {
	if slot < 64 {
		return ss.low&(1<<slot) != 0
	}
	k := slot/64 - 1
	return k < len(ss.high) && ss.high[k]&(1<<(slot%64)) != 0
}

// affineInRange reports whether iv+off stays inside [0, n) for every iv
// in [iv0, ivLast]. The additions are overflow-checked: a wrapping
// index must fail validation (the bytecode loop's checked body then
// reproduces whatever the generic wrapping arithmetic does, positioned
// faults included).
func affineInRange(iv0, ivLast, off int64, n int) bool {
	lo := iv0 + off
	if (off > 0 && lo < iv0) || (off < 0 && lo > iv0) {
		return false
	}
	hi := ivLast + off
	if (off > 0 && hi < ivLast) || (off < 0 && hi > ivLast) {
		return false
	}
	return lo >= 0 && hi < int64(n)
}

// countedShape matches the counted-for shape both optimizing lowerers
// specialize (the closure loop below and the bytecode backend's
// versioned loop):
//
//	for (iv = lo | int iv [= lo]; iv < hi | iv <= hi; iv++ | iv += 1 | iv = iv + 1)
//
// over an int scalar the body never writes, with a loop-invariant int
// bound and no user calls in the body (they could mutate anything). A
// nil lo means 0 (an uninitialised "for (int i; ...)" decl); lc is the
// body analysis both lowerers classify subscripts against.
func (c *compiler) countedShape(s *ForStmt) (ivRef VarRef, lo, hi Expr, strict bool, lc *loopCtx, ok bool) {
	// Every early return leaves ok false; callers read nothing else then.
	if s.Init == nil || s.Cond == nil || s.Post == nil {
		return
	}
	// Induction variable and lower bound from the init clause.
	switch init := s.Init.(type) {
	case *ExprStmt:
		a, isAssign := init.X.(*AssignExpr)
		if !isAssign || a.Op != ASSIGN {
			return
		}
		id, isIdent := stripParens(a.LHS).(*Ident)
		if !isIdent {
			return
		}
		ref := c.refOf(id)
		if ref.Kind != VarScalar {
			return
		}
		ivRef, lo = ref, a.RHS
	case *DeclStmt:
		ref := c.declRef(init)
		if ref.Kind != VarScalar || init.Type.Kind != Int {
			return
		}
		ivRef, lo = ref, init.Init
	default:
		return
	}
	if ivRef.Base != Int {
		return
	}
	// Condition: iv < hi or iv <= hi.
	cond, isBin := stripParens(s.Cond).(*BinExpr)
	if !isBin || (cond.Op != LT && cond.Op != LEQ) {
		return
	}
	cid, isIdent := stripParens(cond.X).(*Ident)
	if !isIdent || !c.isIVIdent(cid, ivRef.Slot) {
		return
	}
	hi = cond.Y
	if c.kindOf(hi) != kInt {
		return
	}
	// Post: iv++, iv += 1, or iv = iv + 1.
	if !c.isUnitStep(s.Post, ivRef.Slot) {
		return
	}
	// Body analysis: no user calls, the induction variable untouched,
	// and the bound loop-invariant.
	lc = c.analyzeLoopBody(s.Body, ivRef.Slot)
	if lc == nil || lc.modScalars.has(ivRef.Slot) || !c.invariant(hi, lc) {
		return
	}
	return ivRef, lo, hi, cond.Op == LT, lc, true
}

// countedLoop recognizes and compiles the counted-for fast path,
// returning nil when s doesn't fit the shape (the caller then emits the
// generic loop).
func (c *compiler) countedLoop(s *ForStmt) stmtFn {
	ivRef, lo, hi, strict, _, ok := c.countedShape(s)
	if !ok {
		return nil
	}
	var loFn evalIntFn
	if lo != nil {
		loFn = c.asInt(lo)
	}
	hiFn := c.asInt(hi)
	ivSlot := ivRef.Slot
	body := c.block(s.Body)
	return func(fr *frame) flow {
		fr.ec.step() // the for statement itself
		fr.ec.step() // its init statement
		var iv int64
		if loFn != nil {
			iv = loFn(fr)
		}
		fr.scalars[ivSlot] = IntV(iv)
		last := hiFn(fr)
		if strict {
			if last == math.MinInt64 {
				return flowNormal
			}
			last--
		}
		if iv > last {
			return flowNormal
		}
		for {
			if f := body(fr); f != flowNormal {
				return f
			}
			iv++
			fr.scalars[ivSlot].I = iv
			fr.ec.step()
			if iv > last {
				return flowNormal
			}
		}
	}
}

// isIVIdent reports whether id resolves to the induction slot.
func (c *compiler) isIVIdent(id *Ident, ivSlot int) bool {
	ref := c.refOf(id)
	return ref.Kind == VarScalar && ref.Slot == ivSlot
}

// isUnitStep reports whether post is a unit increment of the induction
// slot: iv++, iv += 1, or iv = iv + 1.
func (c *compiler) isUnitStep(post Expr, ivSlot int) bool {
	switch p := stripParens(post).(type) {
	case *IncDecExpr:
		id, ok := stripParens(p.X).(*Ident)
		return ok && p.Op == INC && c.isIVIdent(id, ivSlot)
	case *AssignExpr:
		id, ok := stripParens(p.LHS).(*Ident)
		if !ok || !c.isIVIdent(id, ivSlot) {
			return false
		}
		switch p.Op {
		case ADDASSIGN:
			lit, ok := stripParens(p.RHS).(*IntLit)
			return ok && lit.V == 1
		case ASSIGN:
			b, ok := stripParens(p.RHS).(*BinExpr)
			if !ok || b.Op != PLUS {
				return false
			}
			bid, ok := stripParens(b.X).(*Ident)
			if !ok || !c.isIVIdent(bid, ivSlot) {
				return false
			}
			lit, ok := stripParens(b.Y).(*IntLit)
			return ok && lit.V == 1
		}
	}
	return false
}

// analyzeLoopBody collects what the loop body can modify. It returns
// nil when the body contains an out-of-line user function call — a call
// can mutate globals, arrays, and any variable whose address was taken,
// which defeats every invariance argument the optimizer relies on.
// Calls the O3 inliner splices into this body are not opaque: their
// parameter binds and body writes are accounted like inline code (with
// slot relocation active), so small helper calls no longer force the
// generic loop.
func (c *compiler) analyzeLoopBody(b *Block, ivSlot int) *loopCtx {
	lc := &loopCtx{ivSlot: ivSlot}
	ok := true
	var visit func(Node) bool
	visit = func(n Node) bool {
		switch n := n.(type) {
		case *CallExpr:
			if c.isBuiltin(n) {
				return true
			}
			site := c.siteFor(n)
			if site == nil {
				ok = false
				return false
			}
			c.markInlinedCall(lc, n, site, visit)
			return false // arguments and callee body were walked above
		case *DeclStmt:
			switch ref := c.declRef(n); ref.Kind {
			case VarScalar:
				// A declaration re-initializes its slot every iteration,
				// so the slot is not invariant across the loop.
				lc.modScalars.add(ref.Slot)
			case VarArray:
				lc.declArrays.add(ref.Slot)
			case VarCell:
				lc.writesCells = true
			}
		case *AssignExpr:
			c.markWrite(lc, n.LHS)
		case *IncDecExpr:
			c.markWrite(lc, n.X)
		}
		return true
	}
	Walk(b, visit)
	if !ok {
		return nil
	}
	return lc
}

// markWrite records an assignment target in the loop's modified sets.
func (c *compiler) markWrite(lc *loopCtx, target Expr) {
	switch t := stripParens(target).(type) {
	case *Ident:
		switch ref := c.refOf(t); ref.Kind {
		case VarScalar:
			lc.modScalars.add(ref.Slot)
		case VarGlobalScalar:
			lc.modGlobals.add(ref.Slot)
		case VarCell:
			// A cell may point at a global (or any caller variable), so
			// writing through it dirties everything non-local.
			lc.writesCells = true
		}
	case *IndexExpr:
		// Array element writes don't affect scalar invariance; element
		// reads are never treated as invariant anyway.
	}
}

// invariant reports whether e is pure (cannot fault, no side effects)
// and yields the same value on every iteration of the loop: literals
// and unmodified non-induction scalars combined with non-faulting
// operators. Division is excluded — evaluating it once at loop entry
// would reorder a potential fault.
func (c *compiler) invariant(e Expr, lc *loopCtx) bool {
	switch e := e.(type) {
	case *IntLit, *FloatLit:
		return true
	case *Ident:
		switch ref := c.refOf(e); ref.Kind {
		case VarScalar:
			return ref.Slot != lc.ivSlot && !lc.modScalars.has(ref.Slot)
		case VarGlobalScalar:
			return !lc.writesCells && !lc.modGlobals.has(ref.Slot)
		}
		return false // cells alias caller storage; be conservative
	case *ParenExpr:
		return c.invariant(e.X, lc)
	case *CastExpr:
		return c.invariant(e.X, lc)
	case *UnExpr:
		return (e.Op == MINUS || e.Op == NOT) && c.invariant(e.X, lc)
	case *BinExpr:
		switch e.Op {
		case PLUS, MINUS, STAR, EQ, NEQ, LT, GT, LEQ, GEQ, ANDAND, OROR:
			return c.invariant(e.X, lc) && c.invariant(e.Y, lc)
		}
		return false // / and % can fault; don't reorder that
	}
	return false
}

// ivAffine matches i, i+c, c+i, i-c against the induction slot,
// returning the constant offset c.
func (c *compiler) ivAffine(e Expr, ivSlot int) (int64, bool) {
	switch x := stripParens(e).(type) {
	case *Ident:
		if c.isIVIdent(x, ivSlot) {
			return 0, true
		}
	case *BinExpr:
		id, iOK := stripParens(x.X).(*Ident)
		lit, lOK := stripParens(x.Y).(*IntLit)
		switch x.Op {
		case PLUS:
			if iOK && lOK && c.isIVIdent(id, ivSlot) {
				return lit.V, true
			}
			// c + i
			lit2, lOK2 := stripParens(x.X).(*IntLit)
			id2, iOK2 := stripParens(x.Y).(*Ident)
			if lOK2 && iOK2 && c.isIVIdent(id2, ivSlot) {
				return lit2.V, true
			}
		case MINUS:
			if iOK && lOK && c.isIVIdent(id, ivSlot) {
				return -lit.V, true
			}
		}
	}
	return 0, false
}

// subClass is one subscript of an access inside a counted loop: iv+off
// when iv is set, loop-invariant otherwise.
type subClass struct {
	iv  bool
	off int64
}

// classifySubs classifies every subscript of an access of rank 1 or 2
// against loop lc. ok is false when some subscript is neither IV-affine
// nor invariant — the access fits no strength-reduced pattern.
func (c *compiler) classifySubs(subs []Expr, lc *loopCtx) (cls [2]subClass, ok bool) {
	ok = true
	for i, sx := range subs {
		if off, affine := c.ivAffine(sx, lc.ivSlot); affine {
			cls[i] = subClass{iv: true, off: off}
		} else if !c.invariant(sx, lc) {
			ok = false
		}
	}
	return cls, ok
}

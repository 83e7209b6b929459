package cminor

import "math"

// The loop optimizer recognizes the canonical counted loop
//
//	for (i = lo; i < hi; i++) { ... }   (also <=, "i += 1", "i = i + 1",
//	                                     and "for (int i = lo; ...)")
//
// over a statically-int induction variable and compiles it into a native
// Go loop: the bound is evaluated once (it must be a pure loop-invariant
// int expression), the condition becomes a machine integer compare, and
// the increment a machine add, with the induction slot kept in sync for
// body reads. The step budget is still charged per iteration.
//
// Inside such a loop, rank-1/2 subscripts are strength-reduced when
// their indices split into a loop-invariant part and an affine function
// of the induction variable (i, i+c, c+i, i-c):
//
//	colIV   A[row][i+c]  row invariant      → off = hoistBase + i
//	rowIV   A[i+c][col]  col invariant      → off = hoistBase, += stride
//	allInv  A[row][col]  both invariant     → off = hoistBase
//
// Array resolution, the row/col-invariant indices, their bounds checks,
// and the affine range check over [lo, last] are all hoisted into a
// per-entry preamble. Safety is preserved by loop versioning: the body
// is compiled twice, and if any preamble check fails (or the array rank
// is wrong) the loop runs the fully-checked safe body instead, which
// faults at exactly the statement and iteration the unoptimized
// pipeline would — the preamble itself is side-effect free, so the
// fallback decision is unobservable.

// Hoisted-subscript patterns.
const (
	hColIV uint8 = iota
	hRowIV
	hAllInv
)

// maxHoistDepth bounds how many nested counted-loop levels may register
// hoisted subscripts (and therefore compile versioned fast/safe
// bodies); see tryHoist.
const maxHoistDepth = 6

// loopCtx is the per-counted-loop compile context: what the body
// modifies (for invariance checks) and the subscripts hoisted so far.
type loopCtx struct {
	ivSlot      int
	modScalars  map[int]bool
	modGlobals  map[int]bool
	declArrays  map[int]bool
	writesCells bool
	hoisted     []*hoistAccess
}

// hoistAccess is one strength-reduced subscript: how to re-derive its
// array, base offset and step at loop entry, and which frame hoist slot
// carries that state.
type hoistAccess struct {
	hslot   int
	pattern uint8
	rank    int
	ivSlot  int // the registering loop's induction slot (hColIV loads)
	arrGet  func(fr *frame) *Array
	rowFn   evalIntFn // invariant row (rank 2, colIV/allInv)
	colFn   evalIntFn // invariant col (rowIV/allInv)
	ivOff   int64     // c in "i + c"
}

// setup validates this access over the whole iteration range
// [iv0, ivLast] and installs its hoist state. It is pure apart from the
// hoist slot write; a false return means "run the safe body".
func (h *hoistAccess) setup(fr *frame, iv0, ivLast int64) bool {
	a := h.arrGet(fr)
	if len(a.Dims) != h.rank {
		return false
	}
	hc := &fr.hoists[h.hslot]
	switch h.pattern {
	case hColIV:
		if !affineInRange(iv0, ivLast, h.ivOff, a.Dims[h.rank-1]) {
			return false
		}
		base := int(h.ivOff)
		if h.rank == 2 {
			row := h.rowFn(fr)
			if uint64(row) >= uint64(a.Dims[0]) {
				return false
			}
			base += int(row) * a.Dims[1]
		}
		hc.arr, hc.base, hc.step = a, base, 0
	case hRowIV:
		col := h.colFn(fr)
		if uint64(col) >= uint64(a.Dims[1]) {
			return false
		}
		if !affineInRange(iv0, ivLast, h.ivOff, a.Dims[0]) {
			return false
		}
		hc.arr = a
		hc.base = int(iv0+h.ivOff)*a.Dims[1] + int(col)
		hc.step = a.Dims[1]
	case hAllInv:
		base := 0
		if h.rank == 2 {
			row := h.rowFn(fr)
			if uint64(row) >= uint64(a.Dims[0]) {
				return false
			}
			base = int(row) * a.Dims[1]
		}
		col := h.colFn(fr)
		if uint64(col) >= uint64(a.Dims[h.rank-1]) {
			return false
		}
		hc.arr, hc.base, hc.step = a, base+int(col), 0
	}
	return true
}

// affineInRange reports whether iv+off stays inside [0, n) for every iv
// in [iv0, ivLast]. The additions are overflow-checked: a wrapping
// index must fail validation (the safe body then reproduces whatever
// the generic wrapping arithmetic does, positioned faults included).
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
// specialize (the closure fast path below and the bytecode backend's
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
	if c.varKind(ivRef) != kInt {
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
	hk := c.kindOf(hi)
	c.constKind(hi, &hk)
	if hk != kInt {
		return
	}
	// Post: iv++, iv += 1, or iv = iv + 1.
	if !c.isUnitStep(s.Post, ivRef.Slot) {
		return
	}
	// Body analysis: no user calls, the induction variable untouched,
	// and the bound loop-invariant.
	lc = c.analyzeLoopBody(s.Body, ivRef.Slot)
	if lc == nil || lc.modScalars[ivRef.Slot] || !c.invariant(hi, lc) {
		return
	}
	return ivRef, lo, hi, cond.Op == LT, lc, true
}

// countedLoop recognizes and compiles the counted-for fast path,
// returning nil when s doesn't fit the shape (the caller then emits the
// generic loop).
func (c *compiler) countedLoop(s *ForStmt) stmtFn {
	ivRef, lo, hi, strict, lc, ok := c.countedShape(s)
	if !ok {
		return nil
	}

	var loFn evalIntFn
	if lo != nil {
		loFn = c.asInt(lo)
	}
	hiFn := c.asInt(hi)
	ivSlot := ivRef.Slot

	// Compile the body with the loop context active so elemFn can
	// register strength-reduced subscripts; when any were registered,
	// compile a second, fully-checked version for the fallback. At O3 a
	// single-assignment body ("s = s + expr" reductions, stencil stores)
	// skips the statement dispatch entirely: its store is compiled
	// store-only and the loop is unrolled 4-wide with a scalar remainder.
	c.loops = append(c.loops, lc)
	var fastBody stmtFn
	var redOp evalVoidFn
	stepExact := false
	if c.passOn(PassUnroll) {
		if es := singleAssignStmt(s.Body); es != nil {
			redOp = c.exprVoid(es.X)
			// An inlined callee inside the store charges its own steps, so
			// a 4-wide group no longer costs exactly 8: the amortized
			// budget check would fault late. Such bodies keep the full
			// per-statement step() so budget faults stay bit-exact.
			Walk(es.X, func(n Node) bool {
				if call, ok := n.(*CallExpr); ok && !c.isBuiltin(call) {
					stepExact = true
				}
				return true
			})
		}
	}
	if redOp == nil {
		fastBody = c.block(s.Body)
	}
	c.loops = c.loops[:len(c.loops)-1]
	safeBody := fastBody
	if len(lc.hoisted) > 0 {
		safeBody = c.block(s.Body)
	}
	hoists := lc.hoisted
	var incs []int // hoist slots needing a per-iteration stride add
	for _, h := range hoists {
		if h.pattern == hRowIV {
			incs = append(incs, h.hslot)
		}
	}

	if redOp != nil {
		return c.unrolledStoreLoop(loFn, hiFn, strict, ivSlot, hoists, incs, redOp, safeBody, stepExact)
	}

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
		useFast := true
		for _, h := range hoists {
			if !h.setup(fr, iv, last) {
				useFast = false
				break
			}
		}
		body := fastBody
		if !useFast {
			body = safeBody
		}
		if useFast && len(incs) == 1 {
			// One striding access is the common stencil/matmul shape;
			// keep its per-iteration bump free of the slice walk.
			hs := incs[0]
			for {
				if f := body(fr); f != flowNormal {
					return f
				}
				fr.hoists[hs].base += fr.hoists[hs].step
				iv++
				fr.scalars[ivSlot].I = iv
				fr.ec.step()
				if iv > last {
					return flowNormal
				}
			}
		}
		if useFast && len(incs) > 1 {
			for {
				if f := body(fr); f != flowNormal {
					return f
				}
				for _, hs := range incs {
					fr.hoists[hs].base += fr.hoists[hs].step
				}
				iv++
				fr.scalars[ivSlot].I = iv
				fr.ec.step()
				if iv > last {
					return flowNormal
				}
			}
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

// singleAssignStmt returns the loop body's sole statement when it is a
// lone assignment (or ++/--) expression statement — the store-loop /
// reduction shape the O3 unroller compiles directly — else nil.
func singleAssignStmt(b *Block) *ExprStmt {
	if len(b.Stmts) != 1 {
		return nil
	}
	es, ok := b.Stmts[0].(*ExprStmt)
	if !ok {
		return nil
	}
	switch stripParens(es.X).(type) {
	case *AssignExpr, *IncDecExpr:
		return es
	}
	return nil
}

// unrolledStoreLoop emits the O3 fast path for a counted loop whose
// body is a single store statement: the store runs without statement
// dispatch, four iterations per trip with a scalar remainder. Every
// iteration still charges exactly the two step()s and performs exactly
// the stores of the generic counted loop, in the same order, so step
// budgets, faults and partial state stay bit-identical. iv advances
// with Go's wrapping ++ like the generic skeleton, and the 4-wide
// guard compares the remaining trip count in exact uint64 arithmetic,
// so even bound-of-MaxInt64 pathologies behave identically.
//
// Kept out of countedLoop (go:noinline) deliberately: if this body is
// inlined there, the emitted closure is re-parented into that much
// larger function and the compiler stops inlining step() at the hot
// call sites — measured at ~10% on gemm.
//
//go:noinline
func (c *compiler) unrolledStoreLoop(loFn, hiFn evalIntFn, strict bool, ivSlot int,
	hoists []*hoistAccess, incs []int, op evalVoidFn, safeBody stmtFn, stepExact bool) stmtFn {
	singleInc := -1
	if len(incs) == 1 {
		singleInc = incs[0]
	}
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
		for _, h := range hoists {
			if h.setup(fr, iv, last) {
				continue
			}
			// Loop versioning: a failed preamble check runs the
			// fully-checked body one iteration at a time, like the generic
			// counted loop.
			for {
				if f := safeBody(fr); f != flowNormal {
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
		// The 4-wide groups run only while ≥4 iterations remain — the
		// uint64 difference is exact for iv <= last, so the guard cannot
		// mispredict the trip count even at the int64 extremes; the tail
		// runs the same per-iteration sequence one at a time.
		switch {
		case singleInc >= 0:
			hs := singleInc
			for {
				// A 4-wide group charges 8 statements. Pre-checking the
				// budget once lets the group use plain increments — the
				// counts stay exact at every statement (faults included),
				// only the limit comparison is amortized. Near the limit
				// (or after a cancellation watcher dropped it) the tail
				// path's full step() faults at the exact statement. Bodies
				// with inlined calls charge more than 8 per group, so they
				// pin stepExact and always take the tail path.
				ec := fr.ec
				if !stepExact && uint64(last)-uint64(iv) >= 3 && int64(ec.steps) <= ec.limit.Load()-8 {
					ec.steps++
					op(fr)
					fr.hoists[hs].base += fr.hoists[hs].step
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps += 2
					op(fr)
					fr.hoists[hs].base += fr.hoists[hs].step
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps += 2
					op(fr)
					fr.hoists[hs].base += fr.hoists[hs].step
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps += 2
					op(fr)
					fr.hoists[hs].base += fr.hoists[hs].step
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps++
					if iv > last {
						return flowNormal
					}
					continue
				}
				fr.ec.step()
				op(fr)
				fr.hoists[hs].base += fr.hoists[hs].step
				iv++
				fr.scalars[ivSlot].I = iv
				fr.ec.step()
				if iv > last {
					return flowNormal
				}
			}
		case len(incs) > 1:
			for {
				fr.ec.step()
				op(fr)
				for _, hs := range incs {
					fr.hoists[hs].base += fr.hoists[hs].step
				}
				iv++
				fr.scalars[ivSlot].I = iv
				fr.ec.step()
				if iv > last {
					return flowNormal
				}
			}
		default:
			for {
				ec := fr.ec
				if !stepExact && uint64(last)-uint64(iv) >= 3 && int64(ec.steps) <= ec.limit.Load()-8 {
					ec.steps++
					op(fr)
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps += 2
					op(fr)
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps += 2
					op(fr)
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps += 2
					op(fr)
					iv++
					fr.scalars[ivSlot].I = iv
					ec.steps++
					if iv > last {
						return flowNormal
					}
					continue
				}
				fr.ec.step()
				op(fr)
				iv++
				fr.scalars[ivSlot].I = iv
				fr.ec.step()
				if iv > last {
					return flowNormal
				}
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
	lc := &loopCtx{
		ivSlot:     ivSlot,
		modScalars: map[int]bool{},
		modGlobals: map[int]bool{},
		declArrays: map[int]bool{},
	}
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
				lc.modScalars[ref.Slot] = true
			case VarArray:
				lc.declArrays[ref.Slot] = true
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
			lc.modScalars[ref.Slot] = true
		case VarGlobalScalar:
			lc.modGlobals[ref.Slot] = true
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
// operators. Division is excluded — hoisting it would reorder a
// potential fault.
func (c *compiler) invariant(e Expr, lc *loopCtx) bool {
	switch e := e.(type) {
	case *IntLit, *FloatLit:
		return true
	case *Ident:
		switch ref := c.refOf(e); ref.Kind {
		case VarScalar:
			return ref.Slot != lc.ivSlot && !lc.modScalars[ref.Slot]
		case VarGlobalScalar:
			return !lc.writesCells && !lc.modGlobals[ref.Slot]
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

// classifySubs classifies every subscript of an access against loop
// lc. ok is false when some subscript is neither IV-affine nor
// invariant — the access fits no strength-reduced pattern.
func (c *compiler) classifySubs(subs []Expr, lc *loopCtx) (cls []subClass, ok bool) {
	cls = make([]subClass, len(subs))
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

// tryHoist classifies and registers a strength-reduced subscript chain
// against the innermost counted loop, returning its hoistAccess — nil
// when the access doesn't qualify and must stay checked. Callers build
// the actual accessor closure with hoistElem / hoistFloatLoad /
// hoistElemPtr.
func (c *compiler) tryHoist(root *Ident, subs []Expr) *hoistAccess {
	if len(c.loops) == 0 || len(subs) < 1 || len(subs) > 2 {
		return nil
	}
	// Every loop level that hoists compiles its body twice (fast +
	// safe), so closure count can grow as 2^depth for a nest that
	// hoists at every level. Polybench nests are ≤4 deep; past a
	// generous bound, deeper levels fall back to checked accesses to
	// keep compilation linear.
	if len(c.loops) > maxHoistDepth {
		return nil
	}
	lc := c.loops[len(c.loops)-1]
	// The array binding must be stable across the loop (local array
	// declarations in the body rebind their slot).
	switch ref := c.refOf(root); ref.Kind {
	case VarArray:
		if lc.declArrays[ref.Slot] {
			return nil
		}
	case VarGlobalArray:
		// Global arrays are never rebound.
	default:
		return nil
	}
	cls, ok := c.classifySubs(subs, lc)
	if !ok || (len(subs) == 2 && cls[0].iv && cls[1].iv) {
		// Diagonal walks (A[i][i+c]) and subscripts that are neither
		// IV-affine nor invariant miss the strength-reduced patterns and
		// keep the fully-checked accessor.
		return nil
	}
	h := &hoistAccess{hslot: c.numHoist, rank: len(subs), arrGet: c.arrayRef(root),
		ivSlot: lc.ivSlot}
	switch {
	case len(subs) == 1 && cls[0].iv:
		h.pattern, h.ivOff = hColIV, cls[0].off
	case len(subs) == 1:
		h.pattern = hAllInv
		h.colFn = c.asInt(subs[0])
	case cls[1].iv:
		h.pattern, h.ivOff = hColIV, cls[1].off
		h.rowFn = c.asInt(subs[0])
	case cls[0].iv:
		h.pattern, h.ivOff = hRowIV, cls[0].off
		h.colFn = c.asInt(subs[1])
	default:
		h.pattern = hAllInv
		h.rowFn = c.asInt(subs[0])
		h.colFn = c.asInt(subs[1])
	}
	c.numHoist++
	lc.hoisted = append(lc.hoisted, h)
	return h
}

// hoistElem builds the (array, flat offset) accessor for a registered
// hoist — the general form used where an *Array is needed.
func (c *compiler) hoistElem(h *hoistAccess) func(fr *frame) (*Array, int) {
	hslot := h.hslot
	switch h.pattern {
	case hColIV:
		ivSlot := h.ivSlot
		return func(fr *frame) (*Array, int) {
			hc := &fr.hoists[hslot]
			return hc.arr, hc.base + int(fr.scalars[ivSlot].I)
		}
	default: // hRowIV, hAllInv: the incremental/constant offset is the state
		return func(fr *frame) (*Array, int) {
			hc := &fr.hoists[hslot]
			return hc.arr, hc.base
		}
	}
}

// hoistFloatLoad builds a fused element load for a registered hoist:
// one closure, no (array, offset) accessor hop. Element reads inside
// hot loops go through here.
func (c *compiler) hoistFloatLoad(h *hoistAccess) evalFloatFn {
	hslot := h.hslot
	switch h.pattern {
	case hColIV:
		ivSlot := h.ivSlot
		return func(fr *frame) float64 {
			hc := &fr.hoists[hslot]
			return hc.arr.Data[hc.base+int(fr.scalars[ivSlot].I)]
		}
	default:
		return func(fr *frame) float64 {
			hc := &fr.hoists[hslot]
			return hc.arr.Data[hc.base]
		}
	}
}

// hoistElemPtr builds a fused element-pointer accessor for store sites:
// the returned *float64 is read and/or written exactly where the
// checked path would load and store.
func (c *compiler) hoistElemPtr(h *hoistAccess) func(fr *frame) *float64 {
	hslot := h.hslot
	switch h.pattern {
	case hColIV:
		ivSlot := h.ivSlot
		return func(fr *frame) *float64 {
			hc := &fr.hoists[hslot]
			return &hc.arr.Data[hc.base+int(fr.scalars[ivSlot].I)]
		}
	default:
		return func(fr *frame) *float64 {
			hc := &fr.hoists[hslot]
			return &hc.arr.Data[hc.base]
		}
	}
}

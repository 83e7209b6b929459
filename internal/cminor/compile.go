package cminor

import (
	"fmt"
	"math"
)

// The compiler is the second stage of the resolve → compile → execute
// pipeline. It lowers each resolved function into a tree of
// closures ("closure compilation"): operator dispatch, identifier binding
// and subscript-chain shape are all decided once, at compile time, so the
// execute stage performs only array-indexed frame accesses and direct
// calls. Runtime faults (bad subscript, integer division by zero, step
// budget) surface as positioned *Diag errors instead of crashes.
//
// Every expression has a static kind, int or double (typecheck.go), so
// above O0 the compiler emits *specialized evaluator families*:
// unboxed func(*frame) int64 / func(*frame) float64 / func(*frame) bool
// evaluators that never construct or branch on the tagged Value struct.
// O0 compiles the generic Value closures instead, the trusted tier that
// fallback and audits run on (resilience.go); they convert every store
// and return to the declared kind by the same rules.
// Literal subtrees are constant-folded at compile time.
//
// The loop optimizer recognizes the canonical counted shape
// "for (i = lo; i < hi; i++)" over a statically-int induction variable
// and compiles it into a native Go loop with the bound evaluated once
// (it must be a pure, loop-invariant expression) over one body whose
// subscripts stay fully checked (loopopt.go).
//
// Each function is compiled once. A scalar slot always holds its
// declared kind — declarations, stores and both call bindings convert,
// and a pointer binds only a cell of its pointee kind — so the typed
// body is safe for every call. Which passes run is selected per Program
// variant by OptLevel (see engine.go): O0 compiles the generic body, O1
// the typed specialization, O2 adds the loop optimizer and O3 the
// inliner (inline.go).
//
// The compiler reads the AST and the resolver's side tables but writes
// neither: lowering the same resolved file repeatedly — even
// concurrently — is safe, which is what Program.Variant relies on.

// flow is the statement-level control-flow result.
type flow uint8

const (
	flowNormal flow = iota
	flowReturn
)

// evalFn is a compiled expression; the typed variants are the unboxed
// specializations; stmtFn is a compiled statement.
type evalFn func(fr *frame) Value
type evalIntFn func(fr *frame) int64
type evalFloatFn func(fr *frame) float64
type evalBoolFn func(fr *frame) bool
type evalVoidFn func(fr *frame)
type stmtFn func(fr *frame) flow

// frame is the slot-indexed activation record of one compiled call. The
// three slices are the storage classes assigned by the resolver; every
// variable access is a constant-index load/store. Frames are pooled per
// Instance (its ec field) and recycled between calls.
type frame struct {
	ec      *Instance
	scalars []Value
	cells   []*Value
	arrays  []*Array
	// ireg/freg are the bytecode backend's register files (nil for
	// closure-compiled variants). Slots [0, NumScalars) shadow the
	// function's scalar variables by static kind; higher registers are
	// single-assignment temporaries.
	ireg []int64
	freg []float64
	// dreg holds array backing stores hoisted by opProve so fast-body
	// accesses index the data directly.
	dreg [][]float64
	ret  Value
}

// globalStore holds per-Instance storage for file-scope variables.
type globalStore struct {
	scalars []Value
	arrays  []*Array
}

// compiledFunc pairs a function's resolver summary with its compiled
// body. Bodies are filled in after all shells exist so (mutually)
// recursive calls can capture the shell pointer. body is the variant's
// one lowering; idx names the function's frame pool within an Instance.
type compiledFunc struct {
	info *FuncInfo
	idx  int
	body stmtFn
	// Per-variant frame sizes. They start at the resolver's counts and
	// grow when the O3 inliner renumbers callee slots into this frame.
	nScalars int
	nCells   int
	nArrays  int
	// bc is the flat-bytecode lowering that body runs (BackendBytecode
	// variants only); nil when the function bailed to the closures, and
	// bail then says why.
	bc   *bcFunc
	bail *bcBail
	// zero is the declared return kind's zero, what a call that falls
	// off the end yields (getFrame presets it).
	zero Value
}

// rtPanic raises a positioned runtime diagnostic; Instance.Call recovers
// it into the returned error.
func rtPanic(file string, p Pos, format string, args ...any) {
	panic(diagf(file, p, format, args...))
}

type compiler struct {
	prog *Program
	// opt selects the generic closures (O0), the typed ones (O1) and the
	// loop optimizer (O2 and up).
	opt OptLevel
	// ret is the declared return kind of the function whose body is
	// being lowered (the inlined callee's while one is active).
	ret BasicKind
	// plan is the O3 inlining plan for the function being compiled (nil
	// below O3 and for the generic body); remap is non-nil while an
	// inlined callee's body is being lowered, relocating its frame slots
	// into the caller's slot spaces.
	plan  *inlinePlan
	remap *inlineSite
}

// refOf reads an identifier's resolved slot from the side table,
// relocated into the caller's frame when an inlined body is active.
func (c *compiler) refOf(e *Ident) VarRef { return c.remap.apply(c.prog.res.refs[e.ID]) }

// declRef reads a declaration's resolved slot from the side table
// (relocated like refOf).
func (c *compiler) declRef(s *DeclStmt) VarRef { return c.remap.apply(c.prog.res.refs[s.ID]) }

// isBuiltin reports whether the resolver marked e as a math builtin.
func (c *compiler) isBuiltin(e *CallExpr) bool { return c.prog.res.builtins[e.ID] }

// kindOf returns e's static kind, or kNone in the generic O0 body.
func (c *compiler) kindOf(e Expr) kind {
	if c.opt == O0 {
		return kNone
	}
	return c.prog.res.kindOf(e)
}

// bug reports an internal inconsistency: the resolver accepted something
// the compiler cannot lower. It should be unreachable.
func (c *compiler) bug(p Pos, format string, args ...any) {
	panic(fmt.Sprintf("cminor: internal: %s: %s", p, fmt.Sprintf(format, args...)))
}

// ---- statements ----

func (c *compiler) block(b *Block) stmtFn {
	stmts := make([]stmtFn, len(b.Stmts))
	for i, s := range b.Stmts {
		stmts[i] = c.stmt(s)
	}
	if len(stmts) == 1 {
		return stmts[0]
	}
	return func(fr *frame) flow {
		for _, s := range stmts {
			if f := s(fr); f != flowNormal {
				return f
			}
		}
		return flowNormal
	}
}

func (c *compiler) stmt(s Stmt) stmtFn {
	switch s := s.(type) {
	case *Block:
		inner := c.block(s)
		return func(fr *frame) flow {
			fr.ec.step()
			return inner(fr)
		}
	case *DeclStmt:
		return c.declStmt(s)
	case *ExprStmt:
		x := c.exprVoid(s.X)
		return func(fr *frame) flow {
			fr.ec.step()
			x(fr)
			return flowNormal
		}
	case *ForStmt:
		return c.forStmt(s)
	case *WhileStmt:
		cond := c.boolExpr(s.Cond)
		body := c.block(s.Body)
		return func(fr *frame) flow {
			fr.ec.step()
			for cond(fr) {
				if f := body(fr); f != flowNormal {
					return f
				}
				fr.ec.step()
			}
			return flowNormal
		}
	case *IfStmt:
		cond := c.boolExpr(s.Cond)
		then := c.block(s.Then)
		var els stmtFn
		if s.Else != nil {
			els = c.stmt(s.Else)
		}
		return func(fr *frame) flow {
			fr.ec.step()
			if cond(fr) {
				return then(fr)
			}
			if els != nil {
				return els(fr)
			}
			return flowNormal
		}
	case *ReturnStmt:
		// The value converts to the declared return kind; a bare return
		// yields that kind's zero.
		zero := convertKind(Value{}, c.ret)
		var x evalFn
		if s.X != nil {
			x = c.convert(s.X, c.ret)
		}
		return func(fr *frame) flow {
			fr.ec.step()
			if x != nil {
				fr.ret = x(fr)
			} else {
				fr.ret = zero
			}
			return flowReturn
		}
	case *PragmaStmt:
		return func(fr *frame) flow {
			fr.ec.step()
			return flowNormal
		}
	}
	c.bug(s.Pos(), "unsupported statement %T", s)
	return nil
}

func (c *compiler) declStmt(s *DeclStmt) stmtFn {
	ref := c.declRef(s)
	if s.Type.IsArray() {
		slot := ref.Slot
		if ref.Kind != VarArray {
			c.bug(s.P, "array decl %q resolved as %s", s.Name, ref.Kind)
		}
		// Constant dimensions are folded at compile time; VLA-style dims
		// ("double tmp[n]") are evaluated at declaration time.
		if dims, ok := constDims(s.Type.Dims); ok {
			return func(fr *frame) flow {
				fr.ec.step()
				fr.arrays[slot] = NewArray(dims...)
				return flowNormal
			}
		}
		dimFns := make([]evalIntFn, len(s.Type.Dims))
		for i, d := range s.Type.Dims {
			dimFns[i] = c.asInt(d)
		}
		return func(fr *frame) flow {
			fr.ec.step()
			dims := make([]int, len(dimFns))
			for i, df := range dimFns {
				dims[i] = int(df(fr))
			}
			fr.arrays[slot] = NewArray(dims...)
			return flowNormal
		}
	}
	slot := ref.Slot
	switch ref.Kind {
	case VarScalar:
		// Declarations normalize to the declared kind (C initialisation
		// conversion), so the stores are emitted unboxed.
		if s.Type.Kind == Int {
			var init evalIntFn
			if s.Init != nil {
				init = c.asInt(s.Init)
			}
			return func(fr *frame) flow {
				fr.ec.step()
				var v int64
				if init != nil {
					v = init(fr)
				}
				fr.scalars[slot] = IntV(v)
				return flowNormal
			}
		}
		var init evalFloatFn
		if s.Init != nil {
			init = c.asFloat(s.Init)
		}
		return func(fr *frame) flow {
			fr.ec.step()
			var v float64
			if init != nil {
				v = init(fr)
			}
			fr.scalars[slot] = FloatV(v)
			return flowNormal
		}
	case VarCell:
		// A local declared "double *p" gets a fresh cell.
		var init evalFn
		if s.Init != nil {
			init = c.expr(s.Init)
		}
		kindC := s.Type.Kind
		return func(fr *frame) flow {
			fr.ec.step()
			var v Value
			if init != nil {
				v = init(fr)
			}
			cell := convertKind(v, kindC)
			fr.cells[slot] = &cell
			return flowNormal
		}
	}
	c.bug(s.P, "scalar decl %q resolved as %s", s.Name, ref.Kind)
	return nil
}

func constDims(dims []Expr) ([]int, bool) {
	out := make([]int, len(dims))
	for i, d := range dims {
		v, ok := constEval(d)
		if !ok {
			return nil, false
		}
		out[i] = int(v.Int())
	}
	return out, true
}

func (c *compiler) forStmt(s *ForStmt) stmtFn {
	if c.opt >= O2 {
		if fn := c.countedLoop(s); fn != nil {
			return fn
		}
	}
	var init stmtFn
	if s.Init != nil {
		init = c.stmt(s.Init)
	}
	var cond evalBoolFn
	if s.Cond != nil {
		cond = c.boolExpr(s.Cond)
	}
	var post evalVoidFn
	if s.Post != nil {
		post = c.exprVoid(s.Post)
	}
	body := c.block(s.Body)
	return func(fr *frame) flow {
		fr.ec.step()
		if init != nil {
			if f := init(fr); f != flowNormal {
				return f
			}
		}
		for cond == nil || cond(fr) {
			if f := body(fr); f != flowNormal {
				return f
			}
			if post != nil {
				post(fr)
			}
			fr.ec.step()
		}
		return flowNormal
	}
}

// ---- expressions ----

// expr compiles e to a generic Value evaluator, wrapping the unboxed
// specialization when the static kind is known.
func (c *compiler) expr(e Expr) evalFn {
	if v, ok := constEval(e); ok {
		return func(*frame) Value { return v }
	}
	switch c.kindOf(e) {
	case kInt:
		f := c.intExpr(e)
		return func(fr *frame) Value { return IntV(f(fr)) }
	case kFloat:
		f := c.floatExpr(e)
		return func(fr *frame) Value { return FloatV(f(fr)) }
	}
	return c.dynExpr(e)
}

// convert compiles e converted to kind k, as by assignment (convertKind).
func (c *compiler) convert(e Expr, k BasicKind) evalFn {
	if v, ok := constEval(e); ok {
		v = convertKind(v, k)
		return func(*frame) Value { return v }
	}
	if k == Int {
		x := c.asInt(e)
		return func(fr *frame) Value { return IntV(x(fr)) }
	}
	x := c.asFloat(e)
	return func(fr *frame) Value { return FloatV(x(fr)) }
}

// asInt compiles e to an int64 evaluator with Value.Int() coercion
// semantics (exact for int expressions, C-truncating otherwise).
func (c *compiler) asInt(e Expr) evalIntFn {
	if v, ok := constEval(e); ok {
		n := v.Int()
		return func(*frame) int64 { return n }
	}
	switch c.kindOf(e) {
	case kInt:
		return c.intExpr(e)
	case kFloat:
		f := c.floatExpr(e)
		return func(fr *frame) int64 { return int64(f(fr)) }
	}
	x := c.dynExpr(e)
	return func(fr *frame) int64 { return x(fr).Int() }
}

// asFloat compiles e to a float64 evaluator with Value.Float()
// semantics (exact for both int and double expressions).
func (c *compiler) asFloat(e Expr) evalFloatFn {
	if v, ok := constEval(e); ok {
		f := v.Float()
		return func(*frame) float64 { return f }
	}
	switch c.kindOf(e) {
	case kInt:
		f := c.intExpr(e)
		return func(fr *frame) float64 { return float64(f(fr)) }
	case kFloat:
		return c.floatExpr(e)
	}
	x := c.dynExpr(e)
	return func(fr *frame) float64 { return x(fr).Float() }
}

// boolExpr compiles e to a bool evaluator with C truthiness; comparisons
// and logical operators compile directly to branches without
// materializing 0/1 values.
func (c *compiler) boolExpr(e Expr) evalBoolFn {
	if v, ok := constEval(e); ok {
		b := v.Bool()
		return func(*frame) bool { return b }
	}
	switch e := e.(type) {
	case *ParenExpr:
		return c.boolExpr(e.X)
	case *UnExpr:
		if e.Op == NOT {
			x := c.boolExpr(e.X)
			return func(fr *frame) bool { return !x(fr) }
		}
	case *BinExpr:
		switch e.Op {
		case ANDAND:
			x, y := c.boolExpr(e.X), c.boolExpr(e.Y)
			return func(fr *frame) bool { return x(fr) && y(fr) }
		case OROR:
			x, y := c.boolExpr(e.X), c.boolExpr(e.Y)
			return func(fr *frame) bool { return x(fr) || y(fr) }
		case EQ, NEQ, LT, GT, LEQ, GEQ:
			return c.cmpExpr(e)
		}
	}
	switch c.kindOf(e) {
	case kInt:
		f := c.intExpr(e)
		return func(fr *frame) bool { return f(fr) != 0 }
	case kFloat:
		f := c.floatExpr(e)
		return func(fr *frame) bool { return f(fr) != 0 }
	}
	x := c.dynExpr(e)
	return func(fr *frame) bool { return x(fr).Bool() }
}

// cmpExpr compiles a comparison to an unboxed bool evaluator: an int
// compare when both operands are int, a double one when either is
// double. In the O0 body only constants have a kind; other operands
// fall back to the generic op.
func (c *compiler) cmpExpr(e *BinExpr) evalBoolFn {
	xk, yk := c.kindOf(e.X), c.kindOf(e.Y)
	c.constKind(e.X, &xk)
	c.constKind(e.Y, &yk)
	if xk == kInt && yk == kInt {
		x, y := c.asInt(e.X), c.asInt(e.Y)
		switch e.Op {
		case EQ:
			return func(fr *frame) bool { return x(fr) == y(fr) }
		case NEQ:
			return func(fr *frame) bool { return x(fr) != y(fr) }
		case LT:
			return func(fr *frame) bool { return x(fr) < y(fr) }
		case GT:
			return func(fr *frame) bool { return x(fr) > y(fr) }
		case LEQ:
			return func(fr *frame) bool { return x(fr) <= y(fr) }
		case GEQ:
			return func(fr *frame) bool { return x(fr) >= y(fr) }
		}
	}
	if xk == kFloat || yk == kFloat {
		x, y := c.asFloat(e.X), c.asFloat(e.Y)
		switch e.Op {
		case EQ:
			return func(fr *frame) bool { return x(fr) == y(fr) }
		case NEQ:
			return func(fr *frame) bool { return x(fr) != y(fr) }
		case LT:
			return func(fr *frame) bool { return x(fr) < y(fr) }
		case GT:
			return func(fr *frame) bool { return x(fr) > y(fr) }
		case LEQ:
			return func(fr *frame) bool { return x(fr) <= y(fr) }
		case GEQ:
			return func(fr *frame) bool { return x(fr) >= y(fr) }
		}
	}
	op := c.valueOp(e.Op, e.P)
	x, y := c.expr(e.X), c.expr(e.Y)
	return func(fr *frame) bool { return op(x(fr), y(fr)).I != 0 }
}

// constKind gives a constant operand its literal kind where kindOf
// reports kNone, so literal subtrees take the unboxed comparisons even
// in the generic O0 body.
func (c *compiler) constKind(e Expr, k *kind) {
	if *k != kNone {
		return
	}
	if v, ok := constEval(e); ok {
		*k = kFloat
		if v.IsInt {
			*k = kInt
		}
	}
}

// intExpr compiles a statically-int expression to an unboxed int64
// evaluator. Callers must have checked kindOf(e) == kInt (or pass a
// constant-foldable int subtree).
func (c *compiler) intExpr(e Expr) evalIntFn {
	if v, ok := constEval(e); ok {
		n := v.Int()
		return func(*frame) int64 { return n }
	}
	switch e := e.(type) {
	case *IntLit:
		n := e.V
		return func(*frame) int64 { return n }
	case *Ident:
		ref := c.refOf(e)
		slot := ref.Slot
		switch ref.Kind {
		case VarScalar:
			return func(fr *frame) int64 { return fr.scalars[slot].I }
		case VarCell:
			return func(fr *frame) int64 { return fr.cells[slot].I }
		case VarGlobalScalar:
			return func(fr *frame) int64 { return fr.ec.g.scalars[slot].I }
		}
	case *ParenExpr:
		return c.intExpr(e.X)
	case *CastExpr:
		return c.asInt(e.X)
	case *UnExpr:
		switch e.Op {
		case MINUS:
			x := c.intExpr(e.X)
			return func(fr *frame) int64 { return -x(fr) }
		case NOT:
			x := c.boolExpr(e.X)
			return func(fr *frame) int64 {
				if x(fr) {
					return 0
				}
				return 1
			}
		}
	case *BinExpr:
		return c.intBin(e)
	case *CondExpr:
		cond := c.boolExpr(e.Cond)
		then, els := c.intExpr(e.Then), c.intExpr(e.Else)
		return func(fr *frame) int64 {
			if cond(fr) {
				return then(fr)
			}
			return els(fr)
		}
	case *AssignExpr:
		return c.intAssign(e)
	case *IncDecExpr:
		id, ok := stripParens(e.X).(*Ident)
		if !ok {
			break
		}
		cell := c.cellRef(id)
		inc := e.Op == INC
		return func(fr *frame) int64 {
			cl := cell(fr)
			old := cl.I
			if inc {
				cl.I = old + 1
			} else {
				cl.I = old - 1
			}
			return old
		}
	case *CallExpr:
		call := c.call(e)
		return func(fr *frame) int64 { return call(fr).I }
	}
	c.bug(e.Pos(), "expression %T not compilable as int", e)
	return nil
}

func (c *compiler) intBin(e *BinExpr) evalIntFn {
	switch e.Op {
	case ANDAND, OROR, EQ, NEQ, LT, GT, LEQ, GEQ:
		b := c.boolExpr(e)
		return func(fr *frame) int64 {
			if b(fr) {
				return 1
			}
			return 0
		}
	}
	x, y := c.intExpr(e.X), c.intExpr(e.Y)
	file, pos := c.prog.fname, e.P
	switch e.Op {
	case PLUS:
		return func(fr *frame) int64 { return x(fr) + y(fr) }
	case MINUS:
		return func(fr *frame) int64 { return x(fr) - y(fr) }
	case STAR:
		return func(fr *frame) int64 { return x(fr) * y(fr) }
	case SLASH:
		return func(fr *frame) int64 {
			a, b := x(fr), y(fr)
			if b == 0 {
				rtPanic(file, pos, "integer division by zero")
			}
			return a / b
		}
	case PERCENT:
		return func(fr *frame) int64 {
			a, b := x(fr), y(fr)
			if b == 0 {
				rtPanic(file, pos, "integer modulo by zero")
			}
			return a % b
		}
	}
	c.bug(e.P, "unsupported int binary op %s", e.Op)
	return nil
}

// intAssign compiles a store into an int scalar, the only assignment
// whose value is int (an element store yields the stored double).
func (c *compiler) intAssign(e *AssignExpr) evalIntFn {
	id, ok := stripParens(e.LHS).(*Ident)
	if !ok {
		c.bug(e.LHS.Pos(), "invalid assignment target %T", e.LHS)
	}
	cell := c.cellRef(id)
	if e.Op == ASSIGN {
		rhs := c.asInt(e.RHS)
		return func(fr *frame) int64 {
			v := rhs(fr)
			*cell(fr) = IntV(v)
			return v
		}
	}
	base, ok := compoundBase(e.Op)
	if !ok {
		c.bug(e.P, "unsupported assignment op %s", e.Op)
	}
	file, pos := c.prog.fname, e.P
	if c.kindOf(e.RHS) == kInt {
		rhs := c.intExpr(e.RHS)
		return func(fr *frame) int64 {
			v := rhs(fr)
			cl := cell(fr)
			old := cl.I
			var nv int64
			switch base {
			case PLUS:
				nv = old + v
			case MINUS:
				nv = old - v
			case STAR:
				nv = old * v
			case SLASH:
				if v == 0 {
					rtPanic(file, pos, "integer division by zero")
				}
				nv = old / v
			case PERCENT:
				if v == 0 {
					rtPanic(file, pos, "integer modulo by zero")
				}
				nv = old % v
			}
			*cl = IntV(nv)
			return nv
		}
	}
	// int var ⊕= double rhs: the arithmetic happens in double, then the
	// store truncates back to int.
	rhs := c.floatExpr(e.RHS)
	fop := floatArith(base)
	return func(fr *frame) int64 {
		v := rhs(fr)
		cl := cell(fr)
		nv := int64(fop(float64(cl.I), v))
		*cl = IntV(nv)
		return nv
	}
}

// floatExpr compiles a statically-double expression to an unboxed
// float64 evaluator.
func (c *compiler) floatExpr(e Expr) evalFloatFn {
	if v, ok := constEval(e); ok {
		f := v.Float()
		return func(*frame) float64 { return f }
	}
	switch e := e.(type) {
	case *FloatLit:
		f := e.V
		return func(*frame) float64 { return f }
	case *Ident:
		ref := c.refOf(e)
		slot := ref.Slot
		switch ref.Kind {
		case VarScalar:
			return func(fr *frame) float64 { return fr.scalars[slot].F }
		case VarCell:
			return func(fr *frame) float64 { return fr.cells[slot].F }
		case VarGlobalScalar:
			return func(fr *frame) float64 { return fr.ec.g.scalars[slot].F }
		}
	case *ParenExpr:
		return c.floatExpr(e.X)
	case *CastExpr:
		return c.asFloat(e.X)
	case *UnExpr:
		if e.Op == MINUS {
			x := c.floatExpr(e.X)
			return func(fr *frame) float64 { return -x(fr) }
		}
	case *BinExpr:
		// A statically-float binary op evaluates both operands as
		// floats regardless of their runtime kinds (the "both int"
		// branch is statically unreachable).
		x, y := c.asFloat(e.X), c.asFloat(e.Y)
		switch e.Op {
		case PLUS:
			return func(fr *frame) float64 { return x(fr) + y(fr) }
		case MINUS:
			return func(fr *frame) float64 { return x(fr) - y(fr) }
		case STAR:
			return func(fr *frame) float64 { return x(fr) * y(fr) }
		case SLASH:
			return func(fr *frame) float64 { return x(fr) / y(fr) }
		case PERCENT:
			return func(fr *frame) float64 { return math.Mod(x(fr), y(fr)) }
		}
	case *CondExpr:
		// A double conditional may have one int branch.
		cond := c.boolExpr(e.Cond)
		then, els := c.asFloat(e.Then), c.asFloat(e.Else)
		return func(fr *frame) float64 {
			if cond(fr) {
				return then(fr)
			}
			return els(fr)
		}
	case *IndexExpr:
		return c.floatIndexLoad(e)
	case *AssignExpr:
		return c.floatAssign(e)
	case *IncDecExpr:
		inc := e.Op == INC
		if ix, ok := stripParens(e.X).(*IndexExpr); ok {
			p := c.elemPtr(ix)
			return func(fr *frame) float64 {
				pp := p(fr)
				old := *pp
				if inc {
					*pp = old + 1
				} else {
					*pp = old - 1
				}
				return old
			}
		}
		id, ok := stripParens(e.X).(*Ident)
		if !ok {
			break
		}
		cell := c.cellRef(id)
		return func(fr *frame) float64 {
			cl := cell(fr)
			old := cl.F
			if inc {
				cl.F = old + 1
			} else {
				cl.F = old - 1
			}
			return old
		}
	case *CallExpr:
		if c.isBuiltin(e) {
			return c.floatBuiltin(e)
		}
		call := c.call(e)
		return func(fr *frame) float64 { return call(fr).F }
	}
	c.bug(e.Pos(), "expression %T not compilable as float", e)
	return nil
}

// floatArith returns the unboxed float implementation of an arithmetic
// operator (float division by zero yields ±Inf, not an error).
func floatArith(op TokenKind) func(a, b float64) float64 {
	switch op {
	case PLUS:
		return func(a, b float64) float64 { return a + b }
	case MINUS:
		return func(a, b float64) float64 { return a - b }
	case STAR:
		return func(a, b float64) float64 { return a * b }
	case SLASH:
		return func(a, b float64) float64 { return a / b }
	case PERCENT:
		return math.Mod
	}
	panic(fmt.Sprintf("cminor: internal: no float op %s", op))
}

// floatAssign compiles an assignment whose value is statically double.
func (c *compiler) floatAssign(e *AssignExpr) evalFloatFn {
	if ix, ok := stripParens(e.LHS).(*IndexExpr); ok {
		p := c.elemPtr(ix)
		if e.Op == ASSIGN {
			rhs := c.asFloat(e.RHS)
			return func(fr *frame) float64 {
				// Match the tree-walker's evaluation order: RHS first,
				// then the target subscripts.
				v := rhs(fr)
				*p(fr) = v
				return v
			}
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			c.bug(e.P, "unsupported assignment op %s", e.Op)
		}
		// Compound array stores read the float element first, so the
		// arithmetic is always float.
		rhs := c.asFloat(e.RHS)
		fop := floatArith(base)
		return func(fr *frame) float64 {
			v := rhs(fr)
			pp := p(fr)
			nv := fop(*pp, v)
			*pp = nv
			return nv
		}
	}
	id, ok := stripParens(e.LHS).(*Ident)
	if !ok {
		c.bug(e.LHS.Pos(), "invalid assignment target %T", e.LHS)
	}
	cell := c.cellRef(id)
	if e.Op == ASSIGN {
		rhs := c.asFloat(e.RHS)
		return func(fr *frame) float64 {
			v := rhs(fr)
			*cell(fr) = FloatV(v)
			return v
		}
	}
	base, ok := compoundBase(e.Op)
	if !ok {
		c.bug(e.P, "unsupported assignment op %s", e.Op)
	}
	rhs := c.asFloat(e.RHS)
	fop := floatArith(base)
	return func(fr *frame) float64 {
		v := rhs(fr)
		cl := cell(fr)
		nv := fop(cl.F, v)
		*cl = FloatV(nv)
		return nv
	}
}

// exprVoid compiles e for statement position: assignment and ++/--
// side effects are emitted store-only, with no result materialized.
func (c *compiler) exprVoid(e Expr) evalVoidFn {
	switch e := e.(type) {
	case *ParenExpr:
		return c.exprVoid(e.X)
	case *AssignExpr:
		if ix, ok := stripParens(e.LHS).(*IndexExpr); ok {
			p := c.elemPtr(ix)
			rhs := c.asFloat(e.RHS)
			if e.Op == ASSIGN {
				return func(fr *frame) {
					v := rhs(fr)
					*p(fr) = v
				}
			}
			base, ok := compoundBase(e.Op)
			if !ok {
				c.bug(e.P, "unsupported assignment op %s", e.Op)
			}
			// The compound ops kernels live in compile to direct machine
			// arithmetic; % keeps the shared closure.
			switch base {
			case PLUS:
				return func(fr *frame) {
					v := rhs(fr)
					pp := p(fr)
					*pp += v
				}
			case MINUS:
				return func(fr *frame) {
					v := rhs(fr)
					pp := p(fr)
					*pp -= v
				}
			case STAR:
				return func(fr *frame) {
					v := rhs(fr)
					pp := p(fr)
					*pp *= v
				}
			case SLASH:
				return func(fr *frame) {
					v := rhs(fr)
					pp := p(fr)
					*pp /= v
				}
			}
			fop := floatArith(base)
			return func(fr *frame) {
				v := rhs(fr)
				pp := p(fr)
				*pp = fop(*pp, v)
			}
		}
	case *IncDecExpr:
		if ix, ok := stripParens(e.X).(*IndexExpr); ok {
			p := c.elemPtr(ix)
			inc := e.Op == INC
			return func(fr *frame) {
				pp := p(fr)
				if inc {
					*pp++
				} else {
					*pp--
				}
			}
		}
	}
	// Typed statement expressions run their unboxed evaluator directly,
	// skipping the Value-boxing wrapper a discarded c.expr would build.
	if _, ok := constEval(e); ok {
		return func(*frame) {} // pure constant in statement position
	}
	switch c.kindOf(e) {
	case kInt:
		f := c.intExpr(e)
		return func(fr *frame) { f(fr) }
	case kFloat:
		f := c.floatExpr(e)
		return func(fr *frame) { f(fr) }
	}
	x := c.dynExpr(e)
	return func(fr *frame) { x(fr) }
}

// dynExpr compiles e down the generic tagged-Value path: the O0 body,
// which reads the kind of every value from its tag.
func (c *compiler) dynExpr(e Expr) evalFn {
	switch e := e.(type) {
	case *IntLit:
		v := IntV(e.V)
		return func(*frame) Value { return v }
	case *FloatLit:
		v := FloatV(e.V)
		return func(*frame) Value { return v }
	case *Ident:
		return c.identLoad(e)
	case *ParenExpr:
		return c.expr(e.X)
	case *CastExpr:
		if e.To.Kind == Int {
			x := c.asInt(e.X)
			return func(fr *frame) Value { return IntV(x(fr)) }
		}
		x := c.asFloat(e.X)
		return func(fr *frame) Value { return FloatV(x(fr)) }
	case *UnExpr:
		x := c.expr(e.X)
		switch e.Op {
		case MINUS:
			return func(fr *frame) Value {
				v := x(fr)
				if v.IsInt {
					return IntV(-v.I)
				}
				return FloatV(-v.F)
			}
		case NOT:
			return func(fr *frame) Value {
				if x(fr).Bool() {
					return IntV(0)
				}
				return IntV(1)
			}
		}
		c.bug(e.P, "unsupported unary op %s", e.Op)
	case *BinExpr:
		return c.bin(e)
	case *CondExpr:
		cond := c.boolExpr(e.Cond)
		var then, els evalFn
		if c.prog.res.kindOf(e) == kInt {
			then, els = c.expr(e.Then), c.expr(e.Else)
		} else {
			// A double conditional converts an int branch.
			then, els = c.convert(e.Then, Double), c.convert(e.Else, Double)
		}
		return func(fr *frame) Value {
			if cond(fr) {
				return then(fr)
			}
			return els(fr)
		}
	case *IndexExpr:
		elem := c.elemFn(e)
		return func(fr *frame) Value {
			a, off := elem(fr)
			return FloatV(a.Data[off])
		}
	case *AssignExpr:
		return c.assign(e)
	case *IncDecExpr:
		return c.incDec(e)
	case *CallExpr:
		return c.call(e)
	}
	c.bug(e.Pos(), "unsupported expression %T", e)
	return nil
}

// identLoad compiles a scalar variable read to a direct slot access.
func (c *compiler) identLoad(e *Ident) evalFn {
	ref := c.refOf(e)
	slot := ref.Slot
	switch ref.Kind {
	case VarScalar:
		return func(fr *frame) Value { return fr.scalars[slot] }
	case VarCell:
		return func(fr *frame) Value { return *fr.cells[slot] }
	case VarGlobalScalar:
		return func(fr *frame) Value { return fr.ec.g.scalars[slot] }
	}
	c.bug(e.P, "%q (%s) read as a scalar", e.Name, ref.Kind)
	return nil
}

// cellRef compiles an addressable scalar variable to a cell accessor.
func (c *compiler) cellRef(e *Ident) func(fr *frame) *Value {
	ref := c.refOf(e)
	slot := ref.Slot
	switch ref.Kind {
	case VarScalar:
		return func(fr *frame) *Value { return &fr.scalars[slot] }
	case VarCell:
		return func(fr *frame) *Value { return fr.cells[slot] }
	case VarGlobalScalar:
		return func(fr *frame) *Value { return &fr.ec.g.scalars[slot] }
	}
	c.bug(e.P, "%q (%s) used as a scalar cell", e.Name, ref.Kind)
	return nil
}

// arrayRef compiles an array variable to an accessor for its *Array.
func (c *compiler) arrayRef(e *Ident) func(fr *frame) *Array {
	ref := c.refOf(e)
	slot := ref.Slot
	switch ref.Kind {
	case VarArray:
		return func(fr *frame) *Array { return fr.arrays[slot] }
	case VarGlobalArray:
		return func(fr *frame) *Array { return fr.ec.g.arrays[slot] }
	}
	c.bug(e.P, "%q (%s) used as an array", e.Name, ref.Kind)
	return nil
}

// elemFn compiles a full subscript chain to an (array, flat offset)
// accessor with bounds checks. Rank 1 and 2 — the shapes Polybench
// kernels live in — get rank-specialized accessors.
func (c *compiler) elemFn(e *IndexExpr) func(fr *frame) (*Array, int) {
	var buf [2]Expr
	root, subs := splitIndexChain(e, &buf)
	if root == nil {
		c.bug(e.P, "indexed expression is not a variable")
	}
	return c.checkedElem(e, root, subs)
}

// floatIndexLoad compiles an element read through the checked accessor.
func (c *compiler) floatIndexLoad(e *IndexExpr) evalFloatFn {
	elem := c.elemFn(e)
	return func(fr *frame) float64 {
		a, off := elem(fr)
		return a.Data[off]
	}
}

// elemPtr compiles an element access for store sites to a *float64
// accessor. The pointer is materialized at exactly the point the
// checked path evaluates its subscripts, so evaluation order (and
// faults) are unchanged.
func (c *compiler) elemPtr(e *IndexExpr) func(fr *frame) *float64 {
	elem := c.elemFn(e)
	return func(fr *frame) *float64 {
		a, off := elem(fr)
		return &a.Data[off]
	}
}

// checkedElem is the fully-checked (array, offset) accessor.
func (c *compiler) checkedElem(e *IndexExpr, root *Ident, subs []Expr) func(fr *frame) (*Array, int) {
	arrGet := c.arrayRef(root)
	file := c.prog.fname
	pos := e.P
	idxFns := make([]evalIntFn, len(subs))
	for i, sx := range subs {
		idxFns[i] = c.asInt(sx)
	}
	switch len(idxFns) {
	case 1:
		i0 := idxFns[0]
		return func(fr *frame) (*Array, int) {
			a := arrGet(fr)
			if len(a.Dims) != 1 {
				rtPanic(file, pos, "array rank %d indexed with 1 subscript", len(a.Dims))
			}
			i := int(i0(fr))
			if uint(i) >= uint(a.Dims[0]) {
				rtPanic(file, pos, "index %d out of range [0,%d)", i, a.Dims[0])
			}
			return a, i
		}
	case 2:
		i0, i1 := idxFns[0], idxFns[1]
		return func(fr *frame) (*Array, int) {
			a := arrGet(fr)
			if len(a.Dims) != 2 {
				rtPanic(file, pos, "array rank %d indexed with 2 subscripts", len(a.Dims))
			}
			i := int(i0(fr))
			j := int(i1(fr))
			if uint(i) >= uint(a.Dims[0]) {
				rtPanic(file, pos, "index %d out of range [0,%d) in dim 0", i, a.Dims[0])
			}
			if uint(j) >= uint(a.Dims[1]) {
				rtPanic(file, pos, "index %d out of range [0,%d) in dim 1", j, a.Dims[1])
			}
			return a, i*a.Dims[1] + j
		}
	default:
		return func(fr *frame) (*Array, int) {
			a := arrGet(fr)
			if len(a.Dims) != len(idxFns) {
				rtPanic(file, pos, "array rank %d indexed with %d subscripts",
					len(a.Dims), len(idxFns))
			}
			off := 0
			for k, fn := range idxFns {
				i := int(fn(fr))
				if uint(i) >= uint(a.Dims[k]) {
					rtPanic(file, pos, "index %d out of range [0,%d) in dim %d", i, a.Dims[k], k)
				}
				off = off*a.Dims[k] + i
			}
			return a, off
		}
	}
}

func boolV(b bool) Value {
	if b {
		return IntV(1)
	}
	return IntV(0)
}

// compoundBase maps compound-assignment operators to their arithmetic op.
func compoundBase(op TokenKind) (TokenKind, bool) {
	switch op {
	case ADDASSIGN:
		return PLUS, true
	case SUBASSIGN:
		return MINUS, true
	case MULASSIGN:
		return STAR, true
	case DIVASSIGN:
		return SLASH, true
	case MODASSIGN:
		return PERCENT, true
	}
	return 0, false
}

// valueOp builds a two-operand arithmetic/comparison function with the
// operator dispatch resolved at compile time. Division faults report the
// given source position.
func (c *compiler) valueOp(op TokenKind, p Pos) func(Value, Value) Value {
	file := c.prog.fname
	switch op {
	case PLUS:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return IntV(x.I + y.I)
			}
			return FloatV(x.Float() + y.Float())
		}
	case MINUS:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return IntV(x.I - y.I)
			}
			return FloatV(x.Float() - y.Float())
		}
	case STAR:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return IntV(x.I * y.I)
			}
			return FloatV(x.Float() * y.Float())
		}
	case SLASH:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				if y.I == 0 {
					rtPanic(file, p, "integer division by zero")
				}
				return IntV(x.I / y.I)
			}
			return FloatV(x.Float() / y.Float())
		}
	case PERCENT:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				if y.I == 0 {
					rtPanic(file, p, "integer modulo by zero")
				}
				return IntV(x.I % y.I)
			}
			return FloatV(math.Mod(x.Float(), y.Float()))
		}
	case EQ:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return boolV(x.I == y.I)
			}
			return boolV(x.Float() == y.Float())
		}
	case NEQ:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return boolV(x.I != y.I)
			}
			return boolV(x.Float() != y.Float())
		}
	case LT:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return boolV(x.I < y.I)
			}
			return boolV(x.Float() < y.Float())
		}
	case GT:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return boolV(x.I > y.I)
			}
			return boolV(x.Float() > y.Float())
		}
	case LEQ:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return boolV(x.I <= y.I)
			}
			return boolV(x.Float() <= y.Float())
		}
	case GEQ:
		return func(x, y Value) Value {
			if x.IsInt && y.IsInt {
				return boolV(x.I >= y.I)
			}
			return boolV(x.Float() >= y.Float())
		}
	}
	c.bug(p, "unsupported binary op %s", op)
	return nil
}

func (c *compiler) bin(e *BinExpr) evalFn {
	switch e.Op {
	case ANDAND, OROR, EQ, NEQ, LT, GT, LEQ, GEQ:
		b := c.boolExpr(e)
		return func(fr *frame) Value { return boolV(b(fr)) }
	}
	x, y := c.expr(e.X), c.expr(e.Y)
	op := c.valueOp(e.Op, e.P)
	return func(fr *frame) Value { return op(x(fr), y(fr)) }
}

func (c *compiler) assign(e *AssignExpr) evalFn {
	rhs := c.expr(e.RHS)
	// Array-element target.
	if ix, ok := stripParens(e.LHS).(*IndexExpr); ok {
		elem := c.elemFn(ix)
		if e.Op == ASSIGN {
			return func(fr *frame) Value {
				// Match the tree-walker's evaluation order: RHS first,
				// then the target subscripts. The value is the stored
				// double.
				nv := FloatV(rhs(fr).Float())
				a, off := elem(fr)
				a.Data[off] = nv.F
				return nv
			}
		}
		base, ok := compoundBase(e.Op)
		if !ok {
			c.bug(e.P, "unsupported assignment op %s", e.Op)
		}
		op := c.valueOp(base, e.P)
		return func(fr *frame) Value {
			v := rhs(fr)
			a, off := elem(fr)
			nv := op(FloatV(a.Data[off]), v)
			a.Data[off] = nv.Float()
			return nv
		}
	}
	// Scalar target: the stored value converts to the declared kind.
	id, ok := stripParens(e.LHS).(*Ident)
	if !ok {
		c.bug(e.LHS.Pos(), "invalid assignment target %T", e.LHS)
	}
	cell := c.cellRef(id)
	k := c.refOf(id).Base
	if e.Op == ASSIGN {
		return func(fr *frame) Value {
			nv := convertKind(rhs(fr), k)
			*cell(fr) = nv
			return nv
		}
	}
	base, ok := compoundBase(e.Op)
	if !ok {
		c.bug(e.P, "unsupported assignment op %s", e.Op)
	}
	op := c.valueOp(base, e.P)
	return func(fr *frame) Value {
		v := rhs(fr)
		cl := cell(fr)
		nv := convertKind(op(*cl, v), k)
		*cl = nv
		return nv
	}
}

func (c *compiler) incDec(e *IncDecExpr) evalFn {
	inc := e.Op == INC
	if ix, ok := stripParens(e.X).(*IndexExpr); ok {
		elem := c.elemFn(ix)
		return func(fr *frame) Value {
			a, off := elem(fr)
			old := a.Data[off]
			if inc {
				a.Data[off] = old + 1
			} else {
				a.Data[off] = old - 1
			}
			return FloatV(old)
		}
	}
	id, ok := stripParens(e.X).(*Ident)
	if !ok {
		c.bug(e.X.Pos(), "invalid %s target %T", e.Op, e.X)
	}
	cell := c.cellRef(id)
	return func(fr *frame) Value {
		cl := cell(fr)
		old := *cl
		if cl.IsInt {
			if inc {
				cl.I++
			} else {
				cl.I--
			}
		} else {
			if inc {
				cl.F++
			} else {
				cl.F--
			}
		}
		return old
	}
}

func stripParens(e Expr) Expr {
	for {
		pe, ok := e.(*ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// argBinder copies one evaluated argument from the caller's frame into
// the callee's.
type argBinder func(caller, callee *frame)

func (c *compiler) call(e *CallExpr) evalFn {
	if c.isBuiltin(e) {
		f := c.floatBuiltin(e)
		return func(fr *frame) Value { return FloatV(f(fr)) }
	}
	if site := c.siteFor(e); site != nil {
		return c.inlineCall(e, site)
	}
	cf := c.prog.funcs[e.Fun]
	if cf == nil {
		c.bug(e.P, "call to unresolved function %q", e.Fun)
	}
	binders := make([]argBinder, len(e.Args))
	for i, a := range e.Args {
		p := cf.info.Decl.Params[i]
		ref := cf.info.Params[i]
		switch ref.Kind {
		case VarArray:
			id, _ := stripArg(a)
			if id == nil {
				c.bug(a.Pos(), "array argument is not a variable")
			}
			src := c.arrayRef(id)
			slot := ref.Slot
			binders[i] = func(caller, callee *frame) { callee.arrays[slot] = src(caller) }
		case VarCell:
			id, _ := stripArg(a)
			if id == nil {
				c.bug(a.Pos(), "pointer argument is not a variable")
			}
			src := c.cellRef(id)
			slot := ref.Slot
			binders[i] = func(caller, callee *frame) { callee.cells[slot] = src(caller) }
		default:
			slot := ref.Slot
			// Internal call sites always normalize scalar arguments to
			// the declared parameter kind, so callee typed bodies are
			// safe regardless of the argument's kind.
			if p.Type.Kind == Int {
				v := c.asInt(a)
				binders[i] = func(caller, callee *frame) {
					callee.scalars[slot] = IntV(v(caller))
				}
			} else {
				v := c.asFloat(a)
				binders[i] = func(caller, callee *frame) {
					callee.scalars[slot] = FloatV(v(caller))
				}
			}
		}
	}
	return func(fr *frame) Value {
		ec := fr.ec
		callee := ec.getFrame(cf)
		for _, bind := range binders {
			bind(fr, callee)
		}
		cf.body(callee)
		ret := callee.ret
		ec.putFrame(cf, callee)
		return ret
	}
}

// floatBuiltin lowers a math-builtin call to a direct unboxed closure —
// no argument slice and no Value boxing, so builtins in inner loops stay
// allocation-free.
func (c *compiler) floatBuiltin(e *CallExpr) evalFloatFn {
	argFns := make([]evalFloatFn, len(e.Args))
	for i, a := range e.Args {
		argFns[i] = c.asFloat(a)
	}
	switch e.Fun {
	case "sqrt":
		a0 := argFns[0]
		return func(fr *frame) float64 { return math.Sqrt(a0(fr)) }
	case "fabs":
		a0 := argFns[0]
		return func(fr *frame) float64 { return math.Abs(a0(fr)) }
	case "pow":
		a0, a1 := argFns[0], argFns[1]
		return func(fr *frame) float64 { return math.Pow(a0(fr), a1(fr)) }
	case "exp":
		a0 := argFns[0]
		return func(fr *frame) float64 { return math.Exp(a0(fr)) }
	case "log":
		a0 := argFns[0]
		return func(fr *frame) float64 { return math.Log(a0(fr)) }
	case "floor":
		a0 := argFns[0]
		return func(fr *frame) float64 { return math.Floor(a0(fr)) }
	case "ceil":
		a0 := argFns[0]
		return func(fr *frame) float64 { return math.Ceil(a0(fr)) }
	}
	// Fallback for any future builtin without a fast path. Arguments are
	// passed as raw Values exactly as the walker does, so a builtin that
	// inspects argument kinds cannot diverge between the backends; the
	// builtin contract (see value.go) requires a float result.
	bf := builtins[e.Fun]
	if bf == nil {
		c.bug(e.P, "unknown builtin %q", e.Fun)
	}
	rawArgs := make([]evalFn, len(e.Args))
	for i, a := range e.Args {
		rawArgs[i] = c.expr(a)
	}
	return func(fr *frame) float64 {
		args := make([]Value, len(rawArgs))
		for i, fn := range rawArgs {
			args[i] = fn(fr)
		}
		return bf(args).Float()
	}
}

// stripArg unwraps parentheses and a leading & from a call argument,
// returning the root identifier (nil when there is none).
func stripArg(a Expr) (*Ident, Expr) {
	for {
		switch x := a.(type) {
		case *ParenExpr:
			a = x.X
			continue
		case *UnExpr:
			if x.Op == AMP {
				a = x.X
				continue
			}
		}
		break
	}
	id, _ := a.(*Ident)
	return id, a
}

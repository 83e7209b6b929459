package cminor

// The typechecker is the pass between resolve and compile: it assigns
// every expression a static kind (int, double, or dynamic) so the
// compiler can emit monomorphic, unboxed evaluators — func(*frame) int64
// and func(*frame) float64 — instead of the generic Value closures.
//
// The inference is driven by the runtime's (walker-pinned) assignment
// rule: a store into a scalar cell coerces the new value only when the
// cell currently holds an int ("if cl.IsInt { nv = IntV(nv.Int()) }").
// Two invariants fall out:
//
//   - An int-declared scalar slot holds an int Value forever: its
//     declaration normalizes, and every later store re-coerces. Int vars
//     are therefore statically int, unconditionally.
//   - A double-declared slot stays float only while every value stored
//     into it is statically float; assigning an int-kinded expression
//     flips the slot to int at runtime (and then it sticks). Double vars
//     are therefore float only until a non-float store site is found, at
//     which point they demote to dynamic — which can invalidate other
//     expressions' kinds, so inference iterates to a fixpoint.
//
// A double variable whose address escapes to a pointer parameter (cell
// argument) can be stored through by the callee with arbitrary kinds, so
// it demotes too. Function results start at the declared return kind
// (void and fall-off-the-end both produce the zero Value, which reads as
// float) and demote sticky to dynamic on any disagreement with the join
// of the function's return statements.
//
// Parameters start at their declared kinds because every binding
// normalizes: entry calls convert Value/int/float64 arguments to the
// declared kind and bind *Value only to pointer parameters (bindArg in
// engine.go), and internal call sites convert likewise. Typed bodies
// are therefore safe for every call.

// kind is the static kind lattice: int and double are precise, kDyn
// means "must use the generic tagged-Value path".
type kind uint8

const (
	kDyn kind = iota
	kInt
	kFloat
)

func (k kind) String() string {
	switch k {
	case kInt:
		return "int"
	case kFloat:
		return "double"
	}
	return "dyn"
}

func kindOfBasic(b BasicKind) kind {
	if b == Int {
		return kInt
	}
	return kFloat
}

// joinKind is the lattice join: equal kinds keep their precision, mixed
// kinds fall to dynamic.
func joinKind(a, b kind) kind {
	if a == b {
		return a
	}
	return kDyn
}

// fnTypes is the typechecker's result for one function.
type fnTypes struct {
	// scalars is the static kind of each VarScalar slot.
	scalars []kind
	// expr caches the static kind of every typed expression node.
	expr map[Expr]kind
}

// fork returns a mutable copy of ft for variant-local extension — the
// O3 inliner appends relocated callee slots and merges callee
// expression kinds. The shared typecheck results are never written
// after the fixpoint, which is what keeps concurrent lowerings of one
// front end race-free.
func (ft *fnTypes) fork() *fnTypes {
	c := &fnTypes{
		scalars: append([]kind(nil), ft.scalars...),
		expr:    make(map[Expr]kind, len(ft.expr)),
	}
	for e, k := range ft.expr {
		c.expr[e] = k
	}
	return c
}

// typeInfo is the typechecker's result for a whole file.
type typeInfo struct {
	res     *ResolvedFile
	funcs   map[string]*fnTypes
	globals []kind
	// results is the static kind of each function's returned Value.
	results map[string]kind
}

// typecheck infers static kinds for res. It cannot fail: anything it
// cannot prove simply stays dynamic and compiles down the generic path.
func typecheck(res *ResolvedFile) *typeInfo {
	ti := &typeInfo{
		res:     res,
		funcs:   map[string]*fnTypes{},
		results: map[string]kind{},
	}
	for _, gs := range res.Scalars {
		ti.globals = append(ti.globals, kindOfBasic(gs.Kind))
	}
	for name, fi := range res.Funcs {
		ft := &fnTypes{scalars: make([]kind, fi.NumScalars), expr: map[Expr]kind{}}
		for i, p := range fi.Decl.Params {
			if ref := fi.Params[i]; ref.Kind == VarScalar {
				ft.scalars[ref.Slot] = kindOfBasic(p.Type.Kind)
			}
		}
		Walk(fi.Decl.Body, func(n Node) bool {
			if d, ok := n.(*DeclStmt); ok {
				if ref := res.refs[d.ID]; ref.Kind == VarScalar {
					ft.scalars[ref.Slot] = kindOfBasic(d.Type.Kind)
				}
			}
			return true
		})
		ti.funcs[name] = ft
		if fi.Decl.Ret != nil && fi.Decl.Ret.Kind != Void {
			ti.results[name] = kindOfBasic(fi.Decl.Ret.Kind)
		} else {
			ti.results[name] = kFloat // void calls yield the zero Value
		}
	}
	// Iterate to a fixpoint: every pass can only demote (precise → kDyn),
	// so the loop terminates after at most one pass per variable.
	for changed := true; changed; {
		changed = false
		for name, fi := range res.Funcs {
			tc := &checker{ti: ti, ft: ti.funcs[name]}
			tc.block(fi.Decl.Body)
			r := tc.retJoin
			if !tc.sawReturn || !alwaysReturns(fi.Decl.Body) {
				r = joinKind(r, kFloat)
			}
			if r != ti.results[name] && ti.results[name] != kDyn {
				ti.results[name] = kDyn
				tc.changed = true
			}
			changed = changed || tc.changed
		}
	}
	return ti
}

// alwaysReturns reports whether every execution path through s ends in a
// return statement (conservatively: loops are assumed skippable).
func alwaysReturns(s Stmt) bool {
	switch s := s.(type) {
	case *ReturnStmt:
		return true
	case *Block:
		for _, st := range s.Stmts {
			if alwaysReturns(st) {
				return true
			}
		}
	case *IfStmt:
		return s.Else != nil && alwaysReturns(s.Then) && alwaysReturns(s.Else)
	}
	return false
}

// checker runs one inference pass over one function.
type checker struct {
	ti        *typeInfo
	ft        *fnTypes
	changed   bool
	sawReturn bool
	retJoin   kind
}

// refOf reads an identifier's resolved slot from the side table.
func (tc *checker) refOf(e *Ident) VarRef { return tc.ti.res.refs[e.ID] }

func (tc *checker) varKind(ref VarRef) kind {
	switch ref.Kind {
	case VarScalar:
		return tc.ft.scalars[ref.Slot]
	case VarGlobalScalar:
		return tc.ti.globals[ref.Slot]
	}
	// Cells alias caller storage of unknown runtime kind.
	return kDyn
}

// demoteFloat drops a float-typed variable to dynamic (int variables
// never demote: stores into them coerce).
func (tc *checker) demoteFloat(ref VarRef) {
	switch ref.Kind {
	case VarScalar:
		if tc.ft.scalars[ref.Slot] == kFloat {
			tc.ft.scalars[ref.Slot] = kDyn
			tc.changed = true
		}
	case VarGlobalScalar:
		if tc.ti.globals[ref.Slot] == kFloat {
			tc.ti.globals[ref.Slot] = kDyn
			tc.changed = true
		}
	}
}

func (tc *checker) block(b *Block) {
	for _, s := range b.Stmts {
		tc.stmt(s)
	}
}

func (tc *checker) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		tc.block(s)
	case *DeclStmt:
		if s.Type.IsArray() {
			for _, d := range s.Type.Dims {
				tc.expr(d)
			}
		} else if s.Init != nil {
			tc.expr(s.Init)
		}
	case *ExprStmt:
		tc.expr(s.X)
	case *ForStmt:
		if s.Init != nil {
			tc.stmt(s.Init)
		}
		if s.Cond != nil {
			tc.expr(s.Cond)
		}
		if s.Post != nil {
			tc.expr(s.Post)
		}
		tc.block(s.Body)
	case *WhileStmt:
		tc.expr(s.Cond)
		tc.block(s.Body)
	case *IfStmt:
		tc.expr(s.Cond)
		tc.block(s.Then)
		if s.Else != nil {
			tc.stmt(s.Else)
		}
	case *ReturnStmt:
		k := kFloat // bare "return;" yields the zero Value (float 0)
		if s.X != nil {
			k = tc.expr(s.X)
		}
		if !tc.sawReturn {
			tc.sawReturn = true
			tc.retJoin = k
		} else {
			tc.retJoin = joinKind(tc.retJoin, k)
		}
	case *PragmaStmt:
	}
}

// expr infers and records the static kind of e.
func (tc *checker) expr(e Expr) kind {
	k := tc.exprKind(e)
	tc.ft.expr[e] = k
	return k
}

func (tc *checker) exprKind(e Expr) kind {
	switch e := e.(type) {
	case *IntLit:
		return kInt
	case *FloatLit:
		return kFloat
	case *Ident:
		return tc.varKind(tc.refOf(e))
	case *ParenExpr:
		return tc.expr(e.X)
	case *CastExpr:
		tc.expr(e.X)
		return kindOfBasic(e.To.Kind)
	case *UnExpr:
		k := tc.expr(e.X)
		if e.Op == NOT {
			return kInt
		}
		return k // unary minus preserves the operand kind
	case *BinExpr:
		switch e.Op {
		case ANDAND, OROR, EQ, NEQ, LT, GT, LEQ, GEQ:
			tc.expr(e.X)
			tc.expr(e.Y)
			return kInt
		}
		x, y := tc.expr(e.X), tc.expr(e.Y)
		// Arithmetic is float whenever either side is statically float
		// (the "both int" runtime branch is then unreachable), int when
		// both are int, and dynamic otherwise.
		if x == kFloat || y == kFloat {
			return kFloat
		}
		if x == kInt && y == kInt {
			return kInt
		}
		return kDyn
	case *CondExpr:
		tc.expr(e.Cond)
		return joinKind(tc.expr(e.Then), tc.expr(e.Else))
	case *IndexExpr:
		tc.index(e)
		return kFloat
	case *AssignExpr:
		return tc.assign(e)
	case *IncDecExpr:
		if ix, ok := stripParens(e.X).(*IndexExpr); ok {
			tc.index(ix)
			return kFloat
		}
		if id, ok := stripParens(e.X).(*Ident); ok {
			return tc.varKind(tc.refOf(id)) // ++/-- preserves the slot kind
		}
		return kDyn
	case *CallExpr:
		return tc.call(e)
	}
	return kDyn
}

func (tc *checker) index(e *IndexExpr) {
	_, subs := splitIndexChain(e)
	for _, sx := range subs {
		tc.expr(sx)
	}
}

func (tc *checker) assign(e *AssignExpr) kind {
	rhs := tc.expr(e.RHS)
	if ix, ok := stripParens(e.LHS).(*IndexExpr); ok {
		tc.index(ix)
		if e.Op == ASSIGN {
			return rhs // plain array store yields the unconverted RHS
		}
		return kFloat // compound reads the (float) element first
	}
	id, ok := stripParens(e.LHS).(*Ident)
	if !ok {
		return kDyn
	}
	switch tc.varKind(tc.refOf(id)) {
	case kInt:
		return kInt // stores coerce to int
	case kFloat:
		if e.Op == ASSIGN && rhs != kFloat {
			// A non-float store flips the slot's runtime kind: the
			// variable is no longer statically double.
			tc.demoteFloat(tc.refOf(id))
			return kDyn
		}
		// Compound assigns read the float old value first, so the
		// arithmetic (and the stored result) stays float.
		return kFloat
	}
	return kDyn
}

func (tc *checker) call(e *CallExpr) kind {
	if tc.ti.res.builtins[e.ID] {
		for _, a := range e.Args {
			tc.expr(a)
		}
		return kFloat // every math builtin returns a double
	}
	fi := tc.ti.res.Funcs[e.Fun]
	if fi == nil {
		return kDyn
	}
	for i, a := range e.Args {
		if i >= len(fi.Decl.Params) {
			break
		}
		p := fi.Decl.Params[i]
		switch {
		case p.Type.IsArray():
			// Array arguments rebind a slot; elements are always float64.
		case p.Type.Ptr:
			// The callee can store values of any kind through the cell, so
			// a float variable whose address escapes loses its static kind.
			if id, _ := stripArg(a); id != nil {
				tc.demoteFloat(tc.refOf(id))
			}
		default:
			tc.expr(a)
		}
	}
	return tc.ti.results[e.Fun]
}

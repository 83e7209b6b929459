package cminor

import "slices"

// The resolver is the first stage of the compiled execution pipeline
// (resolve → compile → execute). It walks the AST exactly
// once, binds every identifier to a numbered frame slot, checks
// arity/rank/lvalue rules, and evaluates constant array dimensions, so
// the later stages never consult names or re-discover structure inside
// loops. The bindings are recorded in NodeID-indexed side tables on the
// ResolvedFile — the AST itself is never written to, so one *File can
// be resolved (and the resulting Program shared) concurrently.

// FuncInfo is the resolver's summary of one function definition: the slot
// counts that size its execution frame, the storage class of each
// parameter, and the body-shape facts later passes piggyback on (the O3
// inliner reads BodyNodes/UserCalls instead of re-walking bodies per
// variant).
type FuncInfo struct {
	Decl   *FuncDecl
	Params []VarRef
	// Slot-space sizes for a frame of this function.
	NumScalars int
	NumCells   int
	NumArrays  int
	// BodyNodes counts AST nodes in the body; UserCalls counts call
	// sites that name a user function (builtins excluded).
	BodyNodes int
	UserCalls int
	// Writes marks, per parameter, an array the function can write: the
	// root of an indexed store (=, op=, ++, --) or an argument to a user
	// function (conservatively: the callee's own set is not consulted).
	// Array arguments are plain array names and pointer parameters bind
	// only scalars, so nothing else writes an array: a call leaves every
	// argument array outside the set as it found it, and the fallback
	// snapshot copies only the marked ones (resilience.go).
	Writes []bool
}

// GlobalScalar describes a resolved file-scope scalar.
type GlobalScalar struct {
	Name string
	Kind BasicKind
	Init Value
}

// GlobalArray describes a resolved file-scope array with constant
// dimensions.
type GlobalArray struct {
	Name string
	Dims []int
}

// ResolvedFile is the output of Resolve: the (unmodified) AST plus the
// per-function and global slot tables the compiler lowers against, and
// the NodeID-indexed annotation tables that replace in-tree writes.
type ResolvedFile struct {
	File    *File
	Funcs   map[string]*FuncInfo
	Scalars []GlobalScalar
	Arrays  []GlobalArray
	// refs is the resolved slot of every Ident/DeclStmt, indexed by
	// NodeID; builtins marks CallExprs that name a math builtin.
	refs     []VarRef
	builtins []bool
}

// RefOf returns the slot binding the resolver assigned to n (an *Ident
// or *DeclStmt). Unannotated nodes report VarUnresolved.
func (res *ResolvedFile) RefOf(n Node) VarRef {
	switch x := n.(type) {
	case *Ident:
		return res.refs[x.ID]
	case *DeclStmt:
		return res.refs[x.ID]
	}
	return VarRef{}
}

// numIDs sizes the annotation tables: the parser's count, defensively
// widened for hand-assembled trees that carry IDs past it. It also
// reports whether any two annotatable nodes share an ID — a
// hand-assembled tree whose nodes were left at the zero ID would
// otherwise alias one table entry and mis-bind silently.
func numIDs(f *File) (n int, dup Node) {
	n = f.NumIDs
	var ids []Node // ids[id] = first node seen with that ID
	Walk(f, func(nd Node) bool {
		var id NodeID
		switch x := nd.(type) {
		case *Ident:
			id = x.ID
		case *DeclStmt:
			id = x.ID
		case *CallExpr:
			id = x.ID
		default:
			return true
		}
		if int(id) >= n {
			n = int(id) + 1
		}
		for int(id) >= len(ids) {
			ids = append(ids, nil)
		}
		if ids[id] != nil && dup == nil {
			dup = nd
		}
		ids[id] = nd
		return true
	})
	return n, dup
}

type symbol struct {
	ref  VarRef
	rank int
	kind BasicKind
}

type resolver struct {
	file   *File
	res    *ResolvedFile
	diags  DiagList
	scopes []map[string]*symbol
	funcs  map[string]*FuncDecl // functions with bodies
	cur    *FuncInfo
}

// setRef records the slot binding for an annotatable node.
func (r *resolver) setRef(id NodeID, ref VarRef) { r.res.refs[id] = ref }

// Resolve semantically analyses f: every Ident/DeclStmt gets a VarRef in
// the side table, and undeclared identifiers, rank mismatches, call-arity
// mismatches and invalid lvalues are reported as positioned diagnostics.
// f itself is not modified.
func Resolve(f *File) (*ResolvedFile, error) {
	n, dup := numIDs(f)
	if dup != nil {
		return nil, DiagList{diagf(f.Name, dup.Pos(),
			"duplicate node ID: the AST must come from Parse")}
	}
	res := &ResolvedFile{File: f, Funcs: map[string]*FuncInfo{},
		refs: make([]VarRef, n), builtins: make([]bool, n)}
	r := &resolver{file: f, res: res, funcs: map[string]*FuncDecl{}}
	r.push() // module scope
	for _, g := range f.Globals {
		r.global(res, g)
	}
	for _, fn := range f.Funcs {
		if fn.Body == nil {
			continue
		}
		if _, dup := r.funcs[fn.Name]; dup {
			r.errorf(fn.P, "function %q redefined", fn.Name)
			continue
		}
		r.funcs[fn.Name] = fn
	}
	for _, fn := range f.Funcs {
		if fn.Body == nil || r.funcs[fn.Name] != fn {
			continue
		}
		res.Funcs[fn.Name] = r.function(fn)
	}
	if len(r.diags) > 0 {
		return nil, r.diags
	}
	return res, nil
}

func (r *resolver) errorf(p Pos, format string, args ...any) {
	r.diags = append(r.diags, diagf(r.file.Name, p, format, args...))
}

func (r *resolver) push()                   { r.scopes = append(r.scopes, map[string]*symbol{}) }
func (r *resolver) pop()                    { r.scopes = r.scopes[:len(r.scopes)-1] }
func (r *resolver) top() map[string]*symbol { return r.scopes[len(r.scopes)-1] }
func (r *resolver) lookup(name string) *symbol {
	for i := len(r.scopes) - 1; i >= 0; i-- {
		if s, ok := r.scopes[i][name]; ok {
			return s
		}
	}
	return nil
}

// global resolves a file-scope declaration; array dimensions and scalar
// initialisers must be constant expressions.
func (r *resolver) global(res *ResolvedFile, g *DeclStmt) {
	if _, exists := r.scopes[0][g.Name]; exists {
		r.errorf(g.P, "global %q redeclared", g.Name)
		return
	}
	if g.Type.IsArray() {
		dims := make([]int, len(g.Type.Dims))
		for i, d := range g.Type.Dims {
			v, ok := constEval(d)
			if !ok {
				r.errorf(d.Pos(), "dimension %d of global array %q is not a constant expression",
					i, g.Name)
				continue
			}
			dims[i] = int(v.Int())
		}
		ref := VarRef{Kind: VarGlobalArray, Slot: len(res.Arrays), Base: g.Type.Kind}
		res.Arrays = append(res.Arrays, GlobalArray{Name: g.Name, Dims: dims})
		r.setRef(g.ID, ref)
		r.scopes[0][g.Name] = &symbol{ref: ref, rank: len(dims), kind: g.Type.Kind}
		return
	}
	var init Value
	if g.Init != nil {
		v, ok := constEval(g.Init)
		if !ok {
			r.errorf(g.Init.Pos(), "initialiser of global %q is not a constant expression", g.Name)
		} else {
			init = v
		}
	}
	ref := VarRef{Kind: VarGlobalScalar, Slot: len(res.Scalars), Base: g.Type.Kind}
	res.Scalars = append(res.Scalars, GlobalScalar{Name: g.Name, Kind: g.Type.Kind,
		Init: convertKind(init, g.Type.Kind)})
	r.setRef(g.ID, ref)
	r.scopes[0][g.Name] = &symbol{ref: ref, kind: g.Type.Kind}
}

// alloc assigns the next free slot in the storage class selected by t.
func (r *resolver) alloc(t *Type) VarRef {
	switch {
	case t.IsArray():
		s := r.cur.NumArrays
		r.cur.NumArrays++
		return VarRef{Kind: VarArray, Slot: s, Base: t.Kind}
	case t.Ptr:
		s := r.cur.NumCells
		r.cur.NumCells++
		return VarRef{Kind: VarCell, Slot: s, Base: t.Kind}
	default:
		s := r.cur.NumScalars
		r.cur.NumScalars++
		return VarRef{Kind: VarScalar, Slot: s, Base: t.Kind}
	}
}

func (r *resolver) function(fn *FuncDecl) *FuncInfo {
	info := &FuncInfo{Decl: fn, Writes: make([]bool, len(fn.Params))}
	r.cur = info
	r.push()
	for _, p := range fn.Params {
		if _, dup := r.top()[p.Name]; dup {
			r.errorf(p.P, "parameter %q duplicated in %s", p.Name, fn.Name)
		}
		ref := r.alloc(p.Type)
		info.Params = append(info.Params, ref)
		// Parameter array dimensions (e.g. "double A[n][n]") are
		// documentation: the runtime Array carries its own dims, so the
		// dimension expressions are deliberately not resolved — Polybench
		// sources routinely spell them with preprocessor macros the lexer
		// discards.
		r.top()[p.Name] = &symbol{ref: ref, rank: len(p.Type.Dims), kind: p.Type.Kind}
	}
	r.block(fn.Body)
	// Body-shape summary for later passes; the builtin marks are fresh
	// from the walk above, so user calls are exactly the unmarked ones.
	Walk(fn.Body, func(n Node) bool {
		info.BodyNodes++
		if call, ok := n.(*CallExpr); ok && !r.res.builtins[call.ID] {
			info.UserCalls++
		}
		return true
	})
	r.pop()
	r.cur = nil
	return info
}

func (r *resolver) block(b *Block) {
	r.push()
	for _, s := range b.Stmts {
		r.stmt(s)
	}
	r.pop()
}

func (r *resolver) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		r.block(s)
	case *DeclStmt:
		r.decl(s)
	case *ExprStmt:
		r.expr(s.X)
	case *ForStmt:
		// The for-init declaration scopes over cond/post/body.
		r.push()
		if s.Init != nil {
			r.stmt(s.Init)
		}
		if s.Cond != nil {
			r.expr(s.Cond)
		}
		if s.Post != nil {
			r.expr(s.Post)
		}
		r.block(s.Body)
		r.pop()
	case *WhileStmt:
		r.expr(s.Cond)
		r.block(s.Body)
	case *IfStmt:
		r.expr(s.Cond)
		r.block(s.Then)
		if s.Else != nil {
			r.stmt(s.Else)
		}
	case *ReturnStmt:
		if s.X != nil {
			r.expr(s.X)
			if fn := r.cur.Decl; fn.Ret.Kind == Void {
				r.errorf(s.P, "void function %s returns a value", fn.Name)
			}
		}
	case *PragmaStmt:
		// No names to resolve.
	}
}

func (r *resolver) decl(s *DeclStmt) {
	if s.Type.IsArray() {
		// Local array dimensions are ordinary expressions evaluated at
		// declaration time (VLA-style, e.g. "double tmp[n]").
		for _, d := range s.Type.Dims {
			r.expr(d)
		}
	} else if s.Init != nil {
		r.expr(s.Init)
	}
	ref := r.alloc(s.Type)
	r.setRef(s.ID, ref)
	r.top()[s.Name] = &symbol{ref: ref, rank: len(s.Type.Dims), kind: s.Type.Kind}
}

// expr resolves e in value context.
func (r *resolver) expr(e Expr) {
	switch e := e.(type) {
	case nil:
	case *IntLit, *FloatLit:
	case *Ident:
		sym := r.lookup(e.Name)
		if sym == nil {
			r.errorf(e.P, "undeclared identifier %q", e.Name)
			return
		}
		r.setRef(e.ID, sym.ref)
		if sym.ref.Kind == VarArray || sym.ref.Kind == VarGlobalArray {
			r.errorf(e.P, "array %q used as a scalar value", e.Name)
		}
	case *ParenExpr:
		r.expr(e.X)
	case *CastExpr:
		r.expr(e.X)
	case *UnExpr:
		if e.Op == AMP {
			r.errorf(e.P, "address-of is only supported as a pointer-parameter argument")
			return
		}
		r.expr(e.X)
	case *BinExpr:
		r.expr(e.X)
		r.expr(e.Y)
	case *CondExpr:
		r.expr(e.Cond)
		r.expr(e.Then)
		r.expr(e.Else)
	case *IndexExpr:
		r.index(e)
	case *AssignExpr:
		r.lvalue(e.LHS)
		r.expr(e.RHS)
	case *IncDecExpr:
		r.lvalue(e.X)
	case *CallExpr:
		r.call(e)
	}
}

// lvalue resolves e in assignment-target context.
func (r *resolver) lvalue(e Expr) {
	switch e := e.(type) {
	case *Ident:
		sym := r.lookup(e.Name)
		if sym == nil {
			r.errorf(e.P, "undeclared identifier %q", e.Name)
			return
		}
		r.setRef(e.ID, sym.ref)
		if sym.ref.Kind == VarArray || sym.ref.Kind == VarGlobalArray {
			r.errorf(e.P, "cannot assign to array %q without subscripts", e.Name)
		}
	case *ParenExpr:
		r.lvalue(e.X)
	case *IndexExpr:
		r.write(r.index(e))
	default:
		r.errorf(e.Pos(), "expression is not assignable")
	}
}

// splitIndexChain unwinds a chained subscript expression, returning the
// root identifier (nil when the root is not a variable) and the subscript
// expressions outermost-first. The subscripts are collected into buf,
// the caller's room for the usual rank, so splitting an access of rank
// 1 or 2 allocates nothing; a deeper one grows out of it.
func splitIndexChain(e Expr, buf *[2]Expr) (*Ident, []Expr) {
	subs := buf[:0]
	cur := e
	for {
		switch x := cur.(type) {
		case *IndexExpr:
			subs = append(subs, x.Idx)
			cur = x.X
		case *ParenExpr:
			cur = x.X
		default:
			slices.Reverse(subs)
			root, _ := x.(*Ident)
			return root, subs
		}
	}
}

// index resolves an element access and returns its array's binding
// (the zero VarRef when the root is not an array).
func (r *resolver) index(e *IndexExpr) VarRef {
	var buf [2]Expr
	root, subs := splitIndexChain(e, &buf)
	for _, sx := range subs {
		r.expr(sx)
	}
	if root == nil {
		r.errorf(e.P, "indexed expression is not a variable")
		return VarRef{}
	}
	sym := r.lookup(root.Name)
	if sym == nil {
		r.errorf(root.P, "undeclared identifier %q", root.Name)
		return VarRef{}
	}
	r.setRef(root.ID, sym.ref)
	if sym.ref.Kind != VarArray && sym.ref.Kind != VarGlobalArray {
		r.errorf(root.P, "%q is not an array", root.Name)
		return VarRef{}
	}
	if len(subs) != sym.rank {
		r.errorf(e.P, "array %q has rank %d but is indexed with %d subscript(s)",
			root.Name, sym.rank, len(subs))
	}
	return sym.ref
}

// write adds the array parameter ref names, if it names one, to the
// current function's write set.
func (r *resolver) write(ref VarRef) {
	if ref.Kind != VarArray {
		return
	}
	for i, p := range r.cur.Params {
		if p == ref {
			r.cur.Writes[i] = true
		}
	}
}

func (r *resolver) call(e *CallExpr) {
	if n, ok := builtinArity[e.Fun]; ok {
		r.res.builtins[e.ID] = true
		if len(e.Args) != n {
			r.errorf(e.P, "builtin %s expects %d argument(s), got %d", e.Fun, n, len(e.Args))
		}
		for _, a := range e.Args {
			r.expr(a)
		}
		return
	}
	fn := r.funcs[e.Fun]
	if fn == nil {
		r.errorf(e.P, "call to undefined function %q", e.Fun)
		return
	}
	if len(e.Args) != len(fn.Params) {
		r.errorf(e.P, "%s expects %d argument(s), got %d", e.Fun, len(fn.Params), len(e.Args))
		return
	}
	for i, a := range e.Args {
		p := fn.Params[i]
		switch {
		case p.Type.IsArray():
			r.arrayArg(a, p, e.Fun)
		case p.Type.Ptr:
			r.cellArg(a, p, e.Fun)
		default:
			r.expr(a)
		}
	}
}

// arrayArg resolves an argument bound to an array parameter: it must be a
// plain array variable whose declared rank matches the parameter's.
func (r *resolver) arrayArg(a Expr, p *Param, fun string) {
	for {
		pe, ok := a.(*ParenExpr)
		if !ok {
			break
		}
		a = pe.X
	}
	id, ok := a.(*Ident)
	if !ok {
		r.errorf(a.Pos(), "argument for array parameter %q of %s must be an array variable",
			p.Name, fun)
		return
	}
	sym := r.lookup(id.Name)
	if sym == nil {
		r.errorf(id.P, "undeclared identifier %q", id.Name)
		return
	}
	r.setRef(id.ID, sym.ref)
	if sym.ref.Kind != VarArray && sym.ref.Kind != VarGlobalArray {
		r.errorf(id.P, "%q is not an array", id.Name)
		return
	}
	r.write(sym.ref)
	if sym.rank != len(p.Type.Dims) {
		r.errorf(id.P, "rank mismatch: %q has rank %d but parameter %q of %s expects rank %d",
			id.Name, sym.rank, p.Name, fun, len(p.Type.Dims))
	}
}

// cellArg resolves an argument bound to a pointer parameter: a scalar
// variable of the pointee kind, optionally written &x.
func (r *resolver) cellArg(a Expr, p *Param, fun string) {
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
	id, ok := a.(*Ident)
	if !ok {
		r.errorf(a.Pos(), "argument for pointer parameter must be a scalar variable")
		return
	}
	sym := r.lookup(id.Name)
	if sym == nil {
		r.errorf(id.P, "undeclared identifier %q", id.Name)
		return
	}
	r.setRef(id.ID, sym.ref)
	switch {
	case sym.ref.Kind == VarArray || sym.ref.Kind == VarGlobalArray:
		r.errorf(id.P, "array %q cannot bind a pointer parameter", id.Name)
	case sym.kind != p.Type.Kind:
		r.errorf(id.P, "cannot bind %s %q to parameter %q of %s",
			sym.kind, id.Name, typeString(p.Type, p.Name), fun)
	}
}

// constEval evaluates a constant expression at resolve time. It reports
// ok=false for anything that depends on runtime state (or would fault,
// e.g. division by a zero constant).
func constEval(e Expr) (Value, bool) {
	switch e := e.(type) {
	case *IntLit:
		return IntV(e.V), true
	case *FloatLit:
		return FloatV(e.V), true
	case *ParenExpr:
		return constEval(e.X)
	case *CastExpr:
		v, ok := constEval(e.X)
		if !ok {
			return Value{}, false
		}
		return convertKind(v, e.To.Kind), true
	case *UnExpr:
		v, ok := constEval(e.X)
		if !ok {
			return Value{}, false
		}
		switch e.Op {
		case MINUS:
			if v.IsInt {
				return IntV(-v.I), true
			}
			return FloatV(-v.F), true
		case NOT:
			if v.Bool() {
				return IntV(0), true
			}
			return IntV(1), true
		}
		return Value{}, false
	case *BinExpr:
		x, ok := constEval(e.X)
		if !ok {
			return Value{}, false
		}
		y, ok := constEval(e.Y)
		if !ok {
			return Value{}, false
		}
		switch e.Op {
		case PLUS, MINUS, STAR, SLASH, PERCENT:
			if (e.Op == SLASH || e.Op == PERCENT) && x.IsInt && y.IsInt && y.I == 0 {
				return Value{}, false
			}
			return arith(e.Op, x, y, "", Pos{}), true
		case EQ, NEQ, LT, GT, LEQ, GEQ:
			return compare(e.Op, x, y), true
		}
		return Value{}, false
	case *CondExpr:
		// Both branches must fold: the result takes their joined kind.
		c, ok := constEval(e.Cond)
		if !ok {
			return Value{}, false
		}
		t, ok := constEval(e.Then)
		if !ok {
			return Value{}, false
		}
		f, ok := constEval(e.Else)
		if !ok {
			return Value{}, false
		}
		v := f
		if c.Bool() {
			v = t
		}
		if t.IsInt && f.IsInt {
			return v, true
		}
		return FloatV(v.Float()), true
	}
	return Value{}, false
}

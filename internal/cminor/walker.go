package cminor

// walker is the original single-pass tree-walking interpreter, reached
// only as the BackendWalker backend. Every identifier is looked up by
// name in a per-call map and every node re-dispatches on its dynamic
// type, so it is slow; it is kept as a semantics oracle, and parity
// tests assert every other backend produces bit-identical results,
// step counts and faults. It shares nothing with them but the call
// contract: lower gives each function a body that runs the walker on
// the arguments resolveCall bound, so the step budget, cancellation,
// fault injection and containment are Instance.run's, and file-scope
// names bind to the session's global store.
//
// The walker applies the conversion rules (typecheck.go) on its own
// bindings rather than through the compiler's kindOf: every binding's
// tag is its declared kind, each store converts to the target's tag,
// return to the function's declared kind, and a conditional's kind is
// found over the bindings (isInt). A declaration in a nested block
// shadows an outer binding until the block ends.
type walker struct {
	file  *File
	funcs map[string]*FuncDecl
	// globals maps each file-scope name to its slot in the session's
	// globalStore (res.Scalars / res.Arrays).
	globals map[string]VarRef
}

type wbinding struct {
	scalar *Value
	arr    *Array
}

// wframe is one walker call: its session, its function, its variables
// by name and its result, which starts as the declared kind's zero.
type wframe struct {
	s    *Instance
	fn   *FuncDecl
	vars map[string]wbinding
	// shadowed holds, for every declaration in an open block, the
	// binding its name had before (ok=false: none), restored when the
	// block ends.
	shadowed []wshadow
	ret      Value
}

type wshadow struct {
	name string
	b    wbinding
	ok   bool
}

func newWFrame(s *Instance, fn *FuncDecl) *wframe {
	return &wframe{s: s, fn: fn, vars: make(map[string]wbinding, len(fn.Params)),
		ret: convertKind(Value{}, fn.Ret.Kind)}
}

// declare binds name in the innermost open block.
func (fr *wframe) declare(name string, b wbinding) {
	old, ok := fr.vars[name]
	fr.shadowed = append(fr.shadowed, wshadow{name, old, ok})
	fr.vars[name] = b
}

// unscope closes the blocks opened since mark: each name declared in
// them gets back the binding it shadowed, or none.
func (fr *wframe) unscope(mark int) {
	for i := len(fr.shadowed) - 1; i >= mark; i-- {
		if sh := fr.shadowed[i]; sh.ok {
			fr.vars[sh.name] = sh.b
		} else {
			delete(fr.vars, sh.name)
		}
	}
	fr.shadowed = fr.shadowed[:mark]
}

func newWalker(res *ResolvedFile) *walker {
	w := &walker{file: res.File, funcs: map[string]*FuncDecl{}, globals: map[string]VarRef{}}
	for _, fn := range res.File.Funcs {
		if fn.Body != nil {
			w.funcs[fn.Name] = fn
		}
	}
	for i, g := range res.Scalars {
		w.globals[g.Name] = VarRef{Kind: VarGlobalScalar, Slot: i}
	}
	for i, g := range res.Arrays {
		w.globals[g.Name] = VarRef{Kind: VarGlobalArray, Slot: i}
	}
	return w
}

// body is cf's walker body: it names the parameters resolveCall bound
// into fr's slots and runs the function's statements.
func (w *walker) body(cf *compiledFunc) stmtFn {
	decl := cf.info.Decl
	return func(fr *frame) flow {
		wf := newWFrame(fr.ec, decl)
		for i, p := range decl.Params {
			switch ref := cf.info.Params[i]; ref.Kind {
			case VarArray:
				wf.vars[p.Name] = wbinding{arr: fr.arrays[ref.Slot]}
			case VarCell:
				wf.vars[p.Name] = wbinding{scalar: fr.cells[ref.Slot]}
			default:
				wf.vars[p.Name] = wbinding{scalar: &fr.scalars[ref.Slot]}
			}
		}
		w.execBlock(decl.Body, wf)
		fr.ret = wf.ret
		return flowNormal
	}
}

// lookup resolves a name in the call frame, falling back to the
// file-scope globals.
func (w *walker) lookup(fr *wframe, name string) (wbinding, bool) {
	if b, ok := fr.vars[name]; ok {
		return b, true
	}
	ref, ok := w.globals[name]
	switch {
	case !ok:
		return wbinding{}, false
	case ref.Kind == VarGlobalArray:
		return wbinding{arr: fr.s.g.arrays[ref.Slot]}, true
	}
	return wbinding{scalar: &fr.s.g.scalars[ref.Slot]}, true
}

// wfault is one of the walker's own program faults: a *Diag without a
// position, so its text is the message alone.
func wfault(format string, args ...any) *Diag { return diagf("", Pos{}, format, args...) }

// execBlock runs b's statements in a scope of their own and reports
// whether one returned (the call's bindings are dead then).
func (w *walker) execBlock(b *Block, fr *wframe) bool {
	mark := len(fr.shadowed)
	for _, s := range b.Stmts {
		if w.exec(s, fr) {
			return true
		}
	}
	fr.unscope(mark)
	return false
}

// exec runs s and reports whether it returned from the function.
func (w *walker) exec(s Stmt, fr *wframe) bool {
	fr.s.step()
	switch s := s.(type) {
	case *Block:
		return w.execBlock(s, fr)
	case *DeclStmt:
		if s.Type.IsArray() {
			dims := make([]int, len(s.Type.Dims))
			for i, d := range s.Type.Dims {
				dims[i] = int(w.eval(d, fr).Int())
			}
			fr.declare(s.Name, wbinding{arr: NewArray(dims...)})
			return false
		}
		var v Value
		if s.Init != nil {
			v = w.eval(s.Init, fr)
		}
		v = convertKind(v, s.Type.Kind)
		fr.declare(s.Name, wbinding{scalar: &v})
	case *ExprStmt:
		w.eval(s.X, fr)
	case *ForStmt:
		// A declaration in the init clause scopes over the loop.
		mark := len(fr.shadowed)
		if s.Init != nil {
			w.exec(s.Init, fr)
		}
		for s.Cond == nil || w.eval(s.Cond, fr).Bool() {
			if w.execBlock(s.Body, fr) {
				return true
			}
			if s.Post != nil {
				w.eval(s.Post, fr)
			}
			fr.s.step()
		}
		fr.unscope(mark)
	case *WhileStmt:
		for w.eval(s.Cond, fr).Bool() {
			if w.execBlock(s.Body, fr) {
				return true
			}
			fr.s.step()
		}
	case *IfStmt:
		if w.eval(s.Cond, fr).Bool() {
			return w.execBlock(s.Then, fr)
		} else if s.Else != nil {
			return w.exec(s.Else, fr)
		}
	case *ReturnStmt:
		// The value converts to the declared return kind; a bare return
		// yields its zero.
		var v Value
		if s.X != nil {
			v = w.eval(s.X, fr)
		}
		fr.ret = convertKind(v, fr.fn.Ret.Kind)
		return true
	case *PragmaStmt:
		// Pragmas have no interpretation-time effect.
	}
	return false
}

// lvalue resolves an assignment target to its scalar cell or, for a
// subscripted array, its element.
func (w *walker) lvalue(e Expr, fr *wframe) (cell *Value, elem *float64) {
	switch e := e.(type) {
	case *Ident:
		b, ok := w.lookup(fr, e.Name)
		if !ok || b.scalar == nil {
			panic(wfault("invalid lvalue %q", e.Name))
		}
		return b.scalar, nil
	case *ParenExpr:
		return w.lvalue(e.X, fr)
	case *IndexExpr:
		return nil, w.elem(e, fr)
	}
	panic(wfault("invalid lvalue %T", e))
}

// elem evaluates a subscripted array access to its element, faulting at
// e's position with the compiled accessors' text on a rank mismatch or
// an index out of range. Like them it checks the rank first, then
// evaluates every subscript of a rank-1 or rank-2 access before checking
// any, and checks each subscript of a deeper one as it is evaluated.
func (w *walker) elem(e *IndexExpr, fr *wframe) *float64 {
	var buf [2]Expr
	root, subs := splitIndexChain(e, &buf)
	var a *Array
	if root != nil {
		b, _ := w.lookup(fr, root.Name)
		a = b.arr
	}
	if a == nil {
		panic(wfault("indexed expression is not an array"))
	}
	fault := func(format string, args ...any) { panic(diagf(w.file.Name, e.P, format, args...)) }
	if len(a.Dims) != len(subs) {
		noun := "subscripts"
		if len(subs) == 1 {
			noun = "subscript"
		}
		fault("array rank %d indexed with %d %s", len(a.Dims), len(subs), noun)
	}
	var ibuf [2]int
	idx := ibuf[:0]
	check := func(k int) {
		switch i := idx[k]; {
		case uint(i) < uint(a.Dims[k]):
		case len(subs) == 1:
			fault("index %d out of range [0,%d)", i, a.Dims[k])
		default:
			fault("index %d out of range [0,%d) in dim %d", i, a.Dims[k], k)
		}
	}
	for k, sx := range subs {
		idx = append(idx, int(w.eval(sx, fr).Int()))
		if len(subs) > 2 {
			check(k)
		}
	}
	off := 0
	for k, i := range idx {
		if len(subs) <= 2 {
			check(k)
		}
		off = off*a.Dims[k] + i
	}
	return &a.Data[off]
}

// isInt reports whether e is int-valued, by the conversion rules over
// the walker's own bindings (a binding's tag is its declared kind).
func (w *walker) isInt(e Expr, fr *wframe) bool {
	switch e := e.(type) {
	case *IntLit:
		return true
	case *Ident:
		b, _ := w.lookup(fr, e.Name)
		return b.scalar != nil && b.scalar.IsInt
	case *ParenExpr:
		return w.isInt(e.X, fr)
	case *CastExpr:
		return e.To.Kind == Int
	case *UnExpr:
		return e.Op == NOT || w.isInt(e.X, fr)
	case *BinExpr:
		switch e.Op {
		case ANDAND, OROR, EQ, NEQ, LT, GT, LEQ, GEQ:
			return true
		}
		return w.isInt(e.X, fr) && w.isInt(e.Y, fr)
	case *CondExpr:
		return w.isInt(e.Then, fr) && w.isInt(e.Else, fr)
	case *AssignExpr:
		return w.isInt(e.LHS, fr)
	case *IncDecExpr:
		return w.isInt(e.X, fr)
	case *CallExpr:
		fn := w.funcs[e.Fun]
		return fn != nil && fn.Ret.Kind == Int
	}
	return false // a double literal or an array element
}

func (w *walker) eval(e Expr, fr *wframe) Value {
	switch e := e.(type) {
	case *Ident:
		b, ok := w.lookup(fr, e.Name)
		if !ok {
			panic(wfault("undefined variable %q", e.Name))
		}
		if b.scalar == nil {
			panic(wfault("array %q used as scalar", e.Name))
		}
		return *b.scalar
	case *IntLit:
		return IntV(e.V)
	case *FloatLit:
		return FloatV(e.V)
	case *ParenExpr:
		return w.eval(e.X, fr)
	case *CastExpr:
		return convertKind(w.eval(e.X, fr), e.To.Kind)
	case *UnExpr:
		v := w.eval(e.X, fr)
		switch e.Op {
		case MINUS:
			if v.IsInt {
				return IntV(-v.I)
			}
			return FloatV(-v.F)
		case NOT:
			if v.Bool() {
				return IntV(0)
			}
			return IntV(1)
		}
		panic(wfault("unsupported unary op %s", e.Op))
	case *BinExpr:
		return w.evalBin(e, fr)
	case *CondExpr:
		// An int branch converts when the other one is double.
		v, other := Value{}, e.Else
		if w.eval(e.Cond, fr).Bool() {
			v = w.eval(e.Then, fr)
		} else {
			v, other = w.eval(e.Else, fr), e.Then
		}
		if v.IsInt && !w.isInt(other, fr) {
			v = FloatV(v.Float())
		}
		return v
	case *IndexExpr:
		return FloatV(*w.elem(e, fr))
	case *AssignExpr:
		// The value is the stored one: converted to the scalar's kind,
		// or the element's double.
		rhs := w.eval(e.RHS, fr)
		cell, elem := w.lvalue(e.LHS, fr)
		if elem != nil {
			nv := FloatV(applyCompound(e.Op, FloatV(*elem), rhs, w.file.Name, e.P).Float())
			*elem = nv.F
			return nv
		}
		nv := applyCompound(e.Op, *cell, rhs, w.file.Name, e.P)
		if cell.IsInt {
			nv = IntV(nv.Int())
		} else {
			nv = FloatV(nv.Float())
		}
		*cell = nv
		return nv
	case *IncDecExpr:
		cell, elem := w.lvalue(e.X, fr)
		if elem != nil {
			old := *elem
			if e.Op == INC {
				*elem = old + 1
			} else {
				*elem = old - 1
			}
			return FloatV(old)
		}
		old := *cell
		if cell.IsInt {
			if e.Op == INC {
				cell.I++
			} else {
				cell.I--
			}
		} else {
			if e.Op == INC {
				cell.F++
			} else {
				cell.F--
			}
		}
		return old
	case *CallExpr:
		return w.call(e, fr)
	}
	panic(wfault("unsupported expression %T", e))
}

func (w *walker) evalBin(e *BinExpr, fr *wframe) Value {
	switch e.Op {
	case ANDAND:
		if !w.eval(e.X, fr).Bool() {
			return IntV(0)
		}
		if w.eval(e.Y, fr).Bool() {
			return IntV(1)
		}
		return IntV(0)
	case OROR:
		if w.eval(e.X, fr).Bool() {
			return IntV(1)
		}
		if w.eval(e.Y, fr).Bool() {
			return IntV(1)
		}
		return IntV(0)
	}
	x := w.eval(e.X, fr)
	y := w.eval(e.Y, fr)
	switch e.Op {
	case PLUS, MINUS, STAR, SLASH, PERCENT:
		return arith(e.Op, x, y, w.file.Name, e.P)
	case EQ, NEQ, LT, GT, LEQ, GEQ:
		return compare(e.Op, x, y)
	}
	panic(wfault("unsupported binary op %s", e.Op))
}

func (w *walker) call(e *CallExpr, fr *wframe) Value {
	if bf, ok := builtins[e.Fun]; ok {
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			args[i] = w.eval(a, fr)
		}
		return bf(args)
	}
	fn, ok := w.funcs[e.Fun]
	if !ok {
		panic(wfault("call to undefined function %q", e.Fun))
	}
	if len(e.Args) != len(fn.Params) {
		panic(wfault("%s expects %d args, got %d", e.Fun, len(fn.Params), len(e.Args)))
	}
	callee := newWFrame(fr.s, fn)
	for i, p := range fn.Params {
		if p.Type.IsArray() || p.Type.Ptr {
			// The array, or the scalar's cell, binds by reference.
			id, _ := stripArg(e.Args[i])
			var b wbinding
			if id != nil {
				b, _ = w.lookup(fr, id.Name)
			}
			if b.arr == nil && b.scalar == nil {
				panic(wfault("argument %d of %s must be a variable", i, e.Fun))
			}
			callee.vars[p.Name] = b
			continue
		}
		v := convertKind(w.eval(e.Args[i], fr), p.Type.Kind)
		callee.vars[p.Name] = wbinding{scalar: &v}
	}
	w.execBlock(fn.Body, callee)
	return callee.ret
}

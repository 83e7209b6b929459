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
// Caveat: the walker keeps one flat variable map per call, so a
// declaration in a nested block overwrites (and outlives) an outer
// variable of the same name. The compiled pipeline is lexically scoped.
// Parity therefore holds only for programs without shadowed
// declarations — which covers every Polybench kernel this repo targets.
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

// wframe is one walker call: its session, its variables by name and,
// once a return statement ran, its result.
type wframe struct {
	s    *Instance
	vars map[string]wbinding
	ret  Value
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
		wf := &wframe{s: fr.ec, vars: make(map[string]wbinding, len(decl.Params))}
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

// execBlock runs b's statements and reports whether one returned.
func (w *walker) execBlock(b *Block, fr *wframe) bool {
	for _, s := range b.Stmts {
		if w.exec(s, fr) {
			return true
		}
	}
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
			fr.vars[s.Name] = wbinding{arr: NewArray(dims...)}
			return false
		}
		var v Value
		if s.Init != nil {
			v = w.eval(s.Init, fr)
		}
		v = convertKind(v, s.Type.Kind)
		fr.vars[s.Name] = wbinding{scalar: &v}
	case *ExprStmt:
		w.eval(s.X, fr)
	case *ForStmt:
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
		fr.ret = Value{}
		if s.X != nil {
			fr.ret = w.eval(s.X, fr)
		}
		return true
	case *PragmaStmt:
		// Pragmas have no interpretation-time effect.
	}
	return false
}

// lvalue resolution: returns either a scalar cell or an array+index.
func (w *walker) lvalue(e Expr, fr *wframe) (cell *Value, arr *Array, idx []int) {
	switch e := e.(type) {
	case *Ident:
		b, ok := w.lookup(fr, e.Name)
		if !ok {
			panic(wfault("undefined variable %q", e.Name))
		}
		if b.arr != nil {
			return nil, b.arr, nil
		}
		return b.scalar, nil, nil
	case *ParenExpr:
		return w.lvalue(e.X, fr)
	case *IndexExpr:
		// Collect the subscript chain.
		var subs []Expr
		cur := Expr(e)
		for {
			ix, ok := cur.(*IndexExpr)
			if !ok {
				break
			}
			subs = append([]Expr{ix.Idx}, subs...)
			cur = ix.X
		}
		id, ok := cur.(*Ident)
		if !ok {
			panic(wfault("indexed expression is not a variable"))
		}
		b, ok := w.lookup(fr, id.Name)
		if !ok || b.arr == nil {
			panic(wfault("%q is not an array", id.Name))
		}
		idx = make([]int, len(subs))
		for i, sx := range subs {
			idx[i] = int(w.eval(sx, fr).Int())
		}
		return nil, b.arr, idx
	case *UnExpr:
		if e.Op == AMP {
			return w.lvalue(e.X, fr)
		}
	}
	panic(wfault("invalid lvalue %T", e))
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
		if w.eval(e.Cond, fr).Bool() {
			return w.eval(e.Then, fr)
		}
		return w.eval(e.Else, fr)
	case *IndexExpr:
		_, arr, idx := w.lvalue(e, fr)
		if idx == nil {
			panic(wfault("array value used without full subscripts"))
		}
		return FloatV(arr.At(idx...))
	case *AssignExpr:
		rhs := w.eval(e.RHS, fr)
		cell, arr, idx := w.lvalue(e.LHS, fr)
		if arr != nil {
			old := FloatV(arr.At(idx...))
			nv := applyCompound(e.Op, old, rhs, w.file.Name, e.P)
			arr.Set(nv.Float(), idx...)
			return nv
		}
		nv := applyCompound(e.Op, *cell, rhs, w.file.Name, e.P)
		if cell.IsInt {
			nv = IntV(nv.Int())
		}
		*cell = nv
		return nv
	case *IncDecExpr:
		cell, arr, idx := w.lvalue(e.X, fr)
		if arr != nil {
			old := arr.At(idx...)
			if e.Op == INC {
				arr.Set(old+1, idx...)
			} else {
				arr.Set(old-1, idx...)
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
	callee := &wframe{s: fr.s, vars: map[string]wbinding{}}
	for i, p := range fn.Params {
		if p.Type.IsArray() {
			_, arr, _ := w.lvalue(e.Args[i], fr)
			if arr == nil {
				panic(wfault("argument %d of %s must be an array", i, e.Fun))
			}
			callee.vars[p.Name] = wbinding{arr: arr}
			continue
		}
		if p.Type.Ptr {
			cell, _, _ := w.lvalue(e.Args[i], fr)
			callee.vars[p.Name] = wbinding{scalar: cell}
			continue
		}
		v := convertKind(w.eval(e.Args[i], fr), p.Type.Kind)
		callee.vars[p.Name] = wbinding{scalar: &v}
	}
	w.execBlock(fn.Body, callee)
	return callee.ret
}

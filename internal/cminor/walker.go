package cminor

import (
	"context"
	"fmt"
	"runtime"
)

// Walker is the original single-pass tree-walking interpreter. Every
// identifier is looked up in a per-call map and every node re-dispatches
// on its dynamic type, so it is slow — the compiled pipeline (see
// resolve.go / compile.go / engine.go) replaces it on the hot path. It is
// kept as a semantics oracle: parity tests assert the compiled pipeline
// produces bit-identical results, and benchmarks measure the speedup.
//
// Caveat: the walker keeps one flat variable map per call, so a
// declaration in a nested block overwrites (and outlives) an outer
// variable of the same name. The compiled pipeline is lexically scoped.
// Parity therefore holds only for programs without shadowed
// declarations — which covers every Polybench kernel this repo targets.
type Walker struct {
	file  *File
	funcs map[string]*FuncDecl
	// globals holds file-scope bindings, shared by every call (and
	// persisting across calls, like the compiled engine's per-Instance
	// global store). Array dims and initialisers must be constant.
	globals map[string]*wbinding
	// Steps counts executed statements, as a cheap runaway guard.
	Steps    int
	MaxSteps int
	// ctx, when set by a walker-backend Instance, is polled at step
	// checkpoints so CallContext cancellation works on this backend too.
	ctx context.Context
	// pollPanic, when armed by the fault injector (engine.walkerCall), is
	// raised at the next cancellation-poll checkpoint — the mid-kernel
	// point that races CallContext teardown.
	pollPanic any
}

type wbinding struct {
	scalar *Value
	arr    *Array
}

type wframe struct {
	vars map[string]*wbinding
}

// lookup resolves a name in the call frame, falling back to the
// file-scope globals.
func (w *Walker) lookup(fr *wframe, name string) (*wbinding, bool) {
	if b, ok := fr.vars[name]; ok {
		return b, true
	}
	b, ok := w.globals[name]
	return b, ok
}

// NewWalker builds a tree-walking interpreter over f.
func NewWalker(f *File) *Walker {
	w := &Walker{file: f, funcs: map[string]*FuncDecl{},
		globals: map[string]*wbinding{}, MaxSteps: DefaultMaxSteps}
	for _, fn := range f.Funcs {
		if fn.Body != nil {
			w.funcs[fn.Name] = fn
		}
	}
	for _, g := range f.Globals {
		if g.Type.IsArray() {
			dims := make([]int, len(g.Type.Dims))
			for i, d := range g.Type.Dims {
				if v, ok := constEval(d); ok {
					dims[i] = int(v.Int())
				}
			}
			w.globals[g.Name] = &wbinding{arr: NewArray(dims...)}
			continue
		}
		var init Value
		if g.Init != nil {
			if v, ok := constEval(g.Init); ok {
				init = v
			}
		}
		v := convertKind(init, g.Type.Kind)
		w.globals[g.Name] = &wbinding{scalar: &v}
	}
	return w
}

type returnSignal struct{ v Value }

// GlobalScalar returns a copy of the named file-scope scalar's current
// value — the walker half of the Instance.GlobalScalar introspection
// tap differential harnesses compare across backends.
func (w *Walker) GlobalScalar(name string) (Value, bool) {
	b, ok := w.globals[name]
	if !ok || b.scalar == nil {
		return Value{}, false
	}
	return *b.scalar, true
}

// GlobalArray returns the named file-scope array (the live storage, not
// a copy).
func (w *Walker) GlobalArray(name string) (*Array, bool) {
	b, ok := w.globals[name]
	if !ok || b.arr == nil {
		return nil, false
	}
	return b.arr, true
}

// Call invokes the named function. Arguments bind by the engine's one
// entry rule (bindArg), so a call the walker accepts, converts or
// rejects is accepted, converted or rejected alike on every backend.
func (w *Walker) Call(name string, args ...any) (Value, error) {
	fn, fr, err := w.bind(name, args)
	if err != nil {
		return Value{}, err
	}
	return w.run(name, fn, fr)
}

// bind resolves the callee, checks arity and binds the arguments — the
// failures that happen before any step is charged.
func (w *Walker) bind(name string, args []any) (*FuncDecl, *wframe, error) {
	fn, ok := w.funcs[name]
	if !ok {
		return nil, nil, fmt.Errorf("cminor: no function %q", name)
	}
	if err := checkArity(name, len(fn.Params), len(args)); err != nil {
		return nil, nil, err
	}
	fr := &wframe{vars: map[string]*wbinding{}}
	for i, p := range fn.Params {
		v, cell, arr, err := bindArg(name, p, args[i])
		if err != nil {
			return nil, nil, err
		}
		switch {
		case arr != nil:
			fr.vars[p.Name] = &wbinding{arr: arr}
		case cell != nil:
			fr.vars[p.Name] = &wbinding{scalar: cell}
		default:
			fr.vars[p.Name] = &wbinding{scalar: &v}
		}
	}
	return fn, fr, nil
}

// run executes fn's body in the bound frame fr, turning the walker's
// panics into the call's result or error.
func (w *Walker) run(name string, fn *FuncDecl, fr *wframe) (v Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch rr := r.(type) {
			case returnSignal:
				v = rr.v
			case ctxDone:
				err = fmt.Errorf("cminor: interpreting %s: %w", name, rr.err)
			case *Diag, string:
				// The walker's program-level faults: positioned diagnostics
				// from the shared runtime (arith, subscripts) and the
				// historical string panics (step budget, undefined names).
				err = fmt.Errorf("cminor: interpreting %s: %v", name, r)
			default:
				// Anything else is an internal fault — an engine bug or an
				// injected panic (possibly at the cancellation-poll
				// checkpoint, racing CallContext teardown). Contain it as a
				// structured error; it must never escape as a panic.
				buf := make([]byte, 16<<10)
				buf = buf[:runtime.Stack(buf, false)]
				err = &InternalFault{Backend: BackendWalker, Fn: name,
					Recovered: r, Stack: buf}
			}
		}
	}()
	w.execBlock(fn.Body, fr)
	return Value{}, nil
}

func (w *Walker) step() {
	w.Steps++
	if w.Steps > w.MaxSteps {
		panic("interpreter step budget exceeded")
	}
	if (w.ctx != nil || w.pollPanic != nil) && w.Steps&(ctxPollStride-1) == 0 {
		if p := w.pollPanic; p != nil {
			w.pollPanic = nil
			panic(p)
		}
		if err := w.ctx.Err(); err != nil {
			panic(ctxDone{err})
		}
	}
}

func (w *Walker) execBlock(b *Block, fr *wframe) {
	for _, s := range b.Stmts {
		w.exec(s, fr)
	}
}

func (w *Walker) exec(s Stmt, fr *wframe) {
	w.step()
	switch s := s.(type) {
	case *Block:
		w.execBlock(s, fr)
	case *DeclStmt:
		if s.Type.IsArray() {
			dims := make([]int, len(s.Type.Dims))
			for i, d := range s.Type.Dims {
				dims[i] = int(w.eval(d, fr).Int())
			}
			fr.vars[s.Name] = &wbinding{arr: NewArray(dims...)}
			return
		}
		var v Value
		if s.Init != nil {
			v = w.eval(s.Init, fr)
		}
		v = convertKind(v, s.Type.Kind)
		fr.vars[s.Name] = &wbinding{scalar: &v}
	case *ExprStmt:
		w.eval(s.X, fr)
	case *ForStmt:
		if s.Init != nil {
			w.exec(s.Init, fr)
		}
		for s.Cond == nil || w.eval(s.Cond, fr).Bool() {
			w.execBlock(s.Body, fr)
			if s.Post != nil {
				w.eval(s.Post, fr)
			}
			w.step()
		}
	case *WhileStmt:
		for w.eval(s.Cond, fr).Bool() {
			w.execBlock(s.Body, fr)
			w.step()
		}
	case *IfStmt:
		if w.eval(s.Cond, fr).Bool() {
			w.execBlock(s.Then, fr)
		} else if s.Else != nil {
			w.exec(s.Else, fr)
		}
	case *ReturnStmt:
		var v Value
		if s.X != nil {
			v = w.eval(s.X, fr)
		}
		panic(returnSignal{v: v})
	case *PragmaStmt:
		// Pragmas have no interpretation-time effect.
	}
}

// lvalue resolution: returns either a scalar cell or an array+index.
func (w *Walker) lvalue(e Expr, fr *wframe) (cell *Value, arr *Array, idx []int) {
	switch e := e.(type) {
	case *Ident:
		b, ok := w.lookup(fr, e.Name)
		if !ok {
			panic(fmt.Sprintf("undefined variable %q", e.Name))
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
			panic("indexed expression is not a variable")
		}
		b, ok := w.lookup(fr, id.Name)
		if !ok || b.arr == nil {
			panic(fmt.Sprintf("%q is not an array", id.Name))
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
	panic(fmt.Sprintf("invalid lvalue %T", e))
}

func (w *Walker) eval(e Expr, fr *wframe) Value {
	switch e := e.(type) {
	case *Ident:
		b, ok := w.lookup(fr, e.Name)
		if !ok {
			panic(fmt.Sprintf("undefined variable %q", e.Name))
		}
		if b.scalar == nil {
			panic(fmt.Sprintf("array %q used as scalar", e.Name))
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
		panic(fmt.Sprintf("unsupported unary op %s", e.Op))
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
			panic("array value used without full subscripts")
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
	panic(fmt.Sprintf("unsupported expression %T", e))
}

func (w *Walker) evalBin(e *BinExpr, fr *wframe) Value {
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
	panic(fmt.Sprintf("unsupported binary op %s", e.Op))
}

func (w *Walker) call(e *CallExpr, fr *wframe) Value {
	if bf, ok := builtins[e.Fun]; ok {
		args := make([]Value, len(e.Args))
		for i, a := range e.Args {
			args[i] = w.eval(a, fr)
		}
		return bf(args)
	}
	fn, ok := w.funcs[e.Fun]
	if !ok {
		panic(fmt.Sprintf("call to undefined function %q", e.Fun))
	}
	if len(e.Args) != len(fn.Params) {
		panic(fmt.Sprintf("%s expects %d args, got %d", e.Fun, len(fn.Params), len(e.Args)))
	}
	callee := &wframe{vars: map[string]*wbinding{}}
	for i, p := range fn.Params {
		if p.Type.IsArray() {
			_, arr, _ := w.lvalue(e.Args[i], fr)
			if arr == nil {
				panic(fmt.Sprintf("argument %d of %s must be an array", i, e.Fun))
			}
			callee.vars[p.Name] = &wbinding{arr: arr}
			continue
		}
		if p.Type.Ptr {
			cell, _, _ := w.lvalue(e.Args[i], fr)
			callee.vars[p.Name] = &wbinding{scalar: cell}
			continue
		}
		v := convertKind(w.eval(e.Args[i], fr), p.Type.Kind)
		callee.vars[p.Name] = &wbinding{scalar: &v}
	}
	ret := Value{}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if rs, ok := r.(returnSignal); ok {
					ret = rs.v
					return
				}
				panic(r)
			}
		}()
		w.execBlock(fn.Body, callee)
	}()
	return ret
}

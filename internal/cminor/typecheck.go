package cminor

// The typecheck gives every expression its static kind, int or double,
// under the conversion rules C applies and every backend shares:
//
//   - A scalar keeps its declared kind for its whole life. Its
//     declaration and every store into it — plain, compound, ++/--,
//     through a pointer cell — convert the value to that kind, as do
//     by-value argument bindings (internal calls and bindArg). A pointer
//     parameter binds only a scalar of its pointee kind: the resolver
//     rejects &x of another kind, bindArg a host *Value of another kind.
//   - An assignment yields the stored value: the target scalar's kind,
//     or double for an array element, which holds doubles.
//   - A call yields its function's declared return kind: return converts
//     to it and falling off the end yields its zero. A void call reads as
//     the zero Value, a double.
//   - Arithmetic is int when both operands are, else double; a
//     comparison or logical operator is int; unary minus keeps its
//     operand's kind; a conditional is int when both branches are, else
//     double.
//
// Every kind therefore follows from declarations the resolver records
// in VarRef.Base, so kindOf is one syntax-directed function: no table,
// no fixpoint, and the inliner's relocated slots keep their Base. The
// walker applies the same rules on its own bindings (walker.go), so it
// stays an independent oracle.

// kind is the static kind of an expression. kNone marks code that uses
// no static kind: the O0 generic closures, or a value the caller
// discards.
type kind uint8

const (
	kNone kind = iota
	kInt
	kFloat
)

func kindOfBasic(b BasicKind) kind {
	if b == Int {
		return kInt
	}
	return kFloat
}

// promote is the usual arithmetic conversion: int when both operands
// are int, else double.
func promote(a, b kind) kind {
	if a == kInt && b == kInt {
		return kInt
	}
	return kFloat
}

// kindOf returns e's static kind. e must come from a resolved function
// body of res.
func (res *ResolvedFile) kindOf(e Expr) kind {
	switch e := e.(type) {
	case *IntLit:
		return kInt
	case *Ident:
		return kindOfBasic(res.refs[e.ID].Base)
	case *ParenExpr:
		return res.kindOf(e.X)
	case *CastExpr:
		return kindOfBasic(e.To.Kind)
	case *UnExpr:
		if e.Op == NOT {
			return kInt
		}
		return res.kindOf(e.X)
	case *BinExpr:
		switch e.Op {
		case ANDAND, OROR, EQ, NEQ, LT, GT, LEQ, GEQ:
			return kInt
		}
		return promote(res.kindOf(e.X), res.kindOf(e.Y))
	case *CondExpr:
		return promote(res.kindOf(e.Then), res.kindOf(e.Else))
	case *AssignExpr:
		return res.targetKind(e.LHS)
	case *IncDecExpr:
		return res.targetKind(e.X)
	case *CallExpr:
		if res.builtins[e.ID] {
			return kFloat
		}
		return kindOfBasic(res.Funcs[e.Fun].Decl.Ret.Kind)
	}
	return kFloat // a double literal or an array element
}

// targetKind is the kind a store into lhs converts to.
func (res *ResolvedFile) targetKind(lhs Expr) kind {
	if id, ok := stripParens(lhs).(*Ident); ok {
		return kindOfBasic(res.refs[id.ID].Base)
	}
	return kFloat
}

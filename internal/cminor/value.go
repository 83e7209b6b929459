package cminor

import (
	"fmt"
	"math"
)

// Value is a scalar runtime value with C-style int/double typing.
type Value struct {
	IsInt bool
	I     int64
	F     float64
}

// IntV makes an int Value.
func IntV(i int64) Value { return Value{IsInt: true, I: i} }

// FloatV makes a double Value.
func FloatV(f float64) Value { return Value{F: f} }

// Float returns the value as float64 regardless of its static type.
func (v Value) Float() float64 {
	if v.IsInt {
		return float64(v.I)
	}
	return v.F
}

// Int returns the value as int64, truncating doubles (C cast semantics).
func (v Value) Int() int64 {
	if v.IsInt {
		return v.I
	}
	return int64(v.F)
}

// Bool applies C truthiness.
func (v Value) Bool() bool {
	if v.IsInt {
		return v.I != 0
	}
	return v.F != 0
}

// convertKind coerces v to the given scalar base kind, mirroring C
// initialisation/parameter-passing conversions.
func convertKind(v Value, k BasicKind) Value {
	if k == Int {
		return IntV(v.Int())
	}
	return FloatV(v.Float())
}

// Array is a dense row-major multi-dimensional array of doubles (ints are
// stored as doubles; Polybench kernels only index with int scalars).
type Array struct {
	Dims []int
	Data []float64
}

// NewArray allocates a zeroed array with the given dimensions.
func NewArray(dims ...int) *Array {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			n = 0
			break
		}
		n *= d
	}
	return &Array{Dims: append([]int(nil), dims...), Data: make([]float64, n)}
}

// Offset returns the flat row-major offset of the given index vector, or
// an error when the rank does not match or an index is out of range.
func (a *Array) Offset(idx ...int) (int, error) {
	if len(idx) != len(a.Dims) {
		return 0, fmt.Errorf("cminor: array rank %d indexed with %d subscripts",
			len(a.Dims), len(idx))
	}
	off := 0
	for k, i := range idx {
		if i < 0 || i >= a.Dims[k] {
			return 0, fmt.Errorf("cminor: index %d out of range [0,%d) in dim %d",
				i, a.Dims[k], k)
		}
		off = off*a.Dims[k] + i
	}
	return off, nil
}

// At reads the element at the given index vector. It is a convenience for
// Go-side test code and panics on a bad index; interpreted code goes
// through the compiled accessors, which report positioned diagnostics.
func (a *Array) At(idx ...int) float64 {
	off, err := a.Offset(idx...)
	if err != nil {
		panic(err)
	}
	return a.Data[off]
}

// Set writes the element at the given index vector (see At for the
// panicking contract).
func (a *Array) Set(v float64, idx ...int) {
	off, err := a.Offset(idx...)
	if err != nil {
		panic(err)
	}
	a.Data[off] = v
}

// applyCompound applies a possibly-compound assignment operator.
// Division faults surface as positioned *Diag panics (recovered into
// errors by the interpreter entry points), honouring the file:line:col
// contract of every other runtime fault.
func applyCompound(op TokenKind, old, rhs Value, file string, p Pos) Value {
	switch op {
	case ASSIGN:
		return rhs
	case ADDASSIGN:
		return arith(PLUS, old, rhs, file, p)
	case SUBASSIGN:
		return arith(MINUS, old, rhs, file, p)
	case MULASSIGN:
		return arith(STAR, old, rhs, file, p)
	case DIVASSIGN:
		return arith(SLASH, old, rhs, file, p)
	case MODASSIGN:
		return arith(PERCENT, old, rhs, file, p)
	}
	panic(fmt.Sprintf("unsupported assignment op %s", op))
}

func arith(op TokenKind, x, y Value, file string, p Pos) Value {
	if x.IsInt && y.IsInt {
		switch op {
		case PLUS:
			return IntV(x.I + y.I)
		case MINUS:
			return IntV(x.I - y.I)
		case STAR:
			return IntV(x.I * y.I)
		case SLASH:
			if y.I == 0 {
				panic(diagf(file, p, "integer division by zero"))
			}
			return IntV(x.I / y.I)
		case PERCENT:
			if y.I == 0 {
				panic(diagf(file, p, "integer modulo by zero"))
			}
			return IntV(x.I % y.I)
		}
	}
	a, b := x.Float(), y.Float()
	switch op {
	case PLUS:
		return FloatV(a + b)
	case MINUS:
		return FloatV(a - b)
	case STAR:
		return FloatV(a * b)
	case SLASH:
		return FloatV(a / b)
	case PERCENT:
		return FloatV(math.Mod(a, b))
	}
	panic(fmt.Sprintf("unsupported arithmetic op %s", op))
}

func compare(op TokenKind, x, y Value) Value {
	var r bool
	if x.IsInt && y.IsInt {
		switch op {
		case EQ:
			r = x.I == y.I
		case NEQ:
			r = x.I != y.I
		case LT:
			r = x.I < y.I
		case GT:
			r = x.I > y.I
		case LEQ:
			r = x.I <= y.I
		case GEQ:
			r = x.I >= y.I
		}
	} else {
		a, b := x.Float(), y.Float()
		switch op {
		case EQ:
			r = a == b
		case NEQ:
			r = a != b
		case LT:
			r = a < b
		case GT:
			r = a > b
		case LEQ:
			r = a <= b
		case GEQ:
			r = a >= b
		}
	}
	if r {
		return IntV(1)
	}
	return IntV(0)
}

// builtins are the math functions available to kernels. Contract: a
// builtin receives the evaluated arguments as raw (unconverted) Values
// and must return a float Value — the typechecker statically kinds
// every builtin call as double, and both backends rely on that.
var builtins = map[string]func(args []Value) Value{
	"sqrt":  func(a []Value) Value { return FloatV(math.Sqrt(a[0].Float())) },
	"fabs":  func(a []Value) Value { return FloatV(math.Abs(a[0].Float())) },
	"pow":   func(a []Value) Value { return FloatV(math.Pow(a[0].Float(), a[1].Float())) },
	"exp":   func(a []Value) Value { return FloatV(math.Exp(a[0].Float())) },
	"log":   func(a []Value) Value { return FloatV(math.Log(a[0].Float())) },
	"floor": func(a []Value) Value { return FloatV(math.Floor(a[0].Float())) },
	"ceil":  func(a []Value) Value { return FloatV(math.Ceil(a[0].Float())) },
}

// builtinArity maps each builtin to its required argument count; the
// resolver rejects calls with the wrong arity.
var builtinArity = map[string]int{
	"sqrt": 1, "fabs": 1, "pow": 2, "exp": 1, "log": 1, "floor": 1, "ceil": 1,
}

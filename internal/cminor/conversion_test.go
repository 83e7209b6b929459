package cminor

import (
	"errors"
	"fmt"
	"testing"
)

// conversionBackends are the executors every conversion case runs on:
// the walker oracle, the generic closures, the inlining typed closures
// and the bytecode.
var conversionBackends = []struct {
	name string
	opts []Option
}{
	{"walker", []Option{WithBackend(BackendWalker)}},
	{"O0", []Option{WithOptLevel(O0)}},
	{"O3", []Option{WithOptLevel(O3)}},
	{"bytecode", []Option{WithBackend(BackendBytecode), WithOptLevel(O3)}},
}

// outcomeOf renders one call as its value with its kind tag, or its
// error text.
func outcomeOf(v Value, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case v.IsInt:
		return fmt.Sprintf("int %d", v.I)
	}
	return fmt.Sprintf("double %g", v.F)
}

// TestConversionRules is the table of the C conversion rules on every
// backend: a store converts to the target scalar's declared kind and
// yields the stored value, return converts to the declared return kind,
// falling off an int function yields int 0, a conditional with one
// double branch is double, and a pointer binds only a cell of its
// pointee kind. Each row pins the outcome (value and kind tag, or error text);
// every backend must reach it in the walker's number of steps.
func TestConversionRules(t *testing.T) {
	cases := []struct {
		name, src, fn string
		args          func() []any
		want          string
	}{
		{"int-into-double", `double f() { double s = 0.5; s = 3; s = s / 2; return s; }`,
			"f", nil, "double 1.5"},
		{"double-into-int", `double f() { int k = 0; return (k = 2.7) + 0.25; }`,
			"f", nil, "double 2.25"},
		{"global-double-into-int", `int g; int f() { g = 2.7; g += 1.9; return g; }`,
			"f", nil, "int 3"},
		{"compound-and-incdec", `double f() {
  double d = 1.0; int k = 1;
  d += 2; k += 2.5; k *= 1.5; d++; k--;
  return d * 100 + (k -= 0.5) + (d++ / 2);
}`, "f", nil, "double 404"},
		{"int-array-store-as-value", `double f(double a[2]) { return (a[0] = 3) / 2; }`,
			"f", func() []any { return []any{NewArray(2)} }, "double 1.5"},
		{"return-converts", `int f() { return 2.9; }`, "f", nil, "int 2"},
		{"void-returns-no-value", `void f() { return 1; }`, "f", nil,
			"t.c:1:12: void function f returns a value"},
		{"return-converts-spliced", `int half(double x) { return x / 2; }
double f() { return half(5.0) / 2; }`, "f", nil, "double 1"},
		{"fall-off-int", `int f(int a) { if (a > 0) { return 1; } }`,
			"f", func() []any { return []any{0} }, "int 0"},
		{"fall-off-int-spliced", `int pos(int a) { if (a > 0) { return 1; } }
int f() { return pos(0) + pos(2); }`, "f", nil, "int 1"},
		{"mixed-conditional", `double f(int a) { return (a > 0 ? 3 : 0.5) / 2; }`,
			"f", func() []any { return []any{1} }, "double 1.5"},
		{"int-cell", `void tally(int *p, double d) { p = p + d; }
int f() { int k = 1; tally(&k, 2.5); return k; }`, "f", nil, "int 3"},
		{"addr-of-int-to-double-ptr", `void set(double *p) { p = 1; }
double f() { int k = 0; set(&k); return k; }`, "f", nil,
			`t.c:2:30: cannot bind int "k" to parameter "double *p" of set`},
		{"host-int-cell-to-double-ptr", `double f(double *p) { p = p + 0.5; return p; }`,
			"f", func() []any { v := IntV(3); return []any{&v} },
			`cminor: f: cannot bind *cminor.Value holding an int to parameter "double *p"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := MustParse("t.c", tc.src)
			wsteps := -1
			for _, be := range conversionBackends {
				prog, err := Compile(f, be.opts...)
				if err != nil {
					if got := err.Error(); got != tc.want {
						t.Errorf("%s: Compile: %q, want %q", be.name, got, tc.want)
					}
					continue
				}
				var args []any
				if tc.args != nil {
					args = tc.args()
				}
				inst := prog.NewInstance()
				if got := outcomeOf(inst.Call(tc.fn, args...)); got != tc.want {
					t.Errorf("%s: %s, want %s", be.name, got, tc.want)
				}
				if wsteps < 0 {
					wsteps = inst.LastCallSteps()
				} else if s := inst.LastCallSteps(); s != wsteps {
					t.Errorf("%s: %d steps, walker %d", be.name, s, wsteps)
				}
			}
		})
	}
}

// TestWalkerSubscriptFaults pins the walker's out-of-range and rank
// faults to the text every other backend reports — a positioned program
// fault, not an internal one that would poison the session — for a
// read, a store, a compound store, ++ and a rank mismatch.
func TestWalkerSubscriptFaults(t *testing.T) {
	cases := []struct {
		name, src string
		args      func() []any
		want      string
	}{
		{"read", `double f(double a[4]) { return a[4]; }`,
			func() []any { return []any{NewArray(4)} },
			"cminor: interpreting f: oob.c:1:33: index 4 out of range [0,4)"},
		{"store", `double f(double a[4]) { a[-1] = 1.0; return 0.0; }`,
			func() []any { return []any{NewArray(4)} },
			"cminor: interpreting f: oob.c:1:26: index -1 out of range [0,4)"},
		{"compound", `double f(double a[2][3]) { a[1][3] += 1.0; return 0.0; }`,
			func() []any { return []any{NewArray(2, 3)} },
			"cminor: interpreting f: oob.c:1:32: index 3 out of range [0,3) in dim 1"},
		{"incdec", `double f(double a[2][3]) { a[2][0]++; return 0.0; }`,
			func() []any { return []any{NewArray(2, 3)} },
			"cminor: interpreting f: oob.c:1:32: index 2 out of range [0,2) in dim 0"},
		{"rank", `double f(double a[4]) { return a[0]; }`,
			func() []any { return []any{NewArray(2, 2)} },
			"cminor: interpreting f: oob.c:1:33: array rank 2 indexed with 1 subscript"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := MustParse("oob.c", tc.src)
			for _, be := range conversionBackends {
				inst := newInst(t, f, be.opts...)
				_, err := inst.Call("f", tc.args()...)
				if err == nil || err.Error() != tc.want {
					t.Errorf("%s: err = %v, want %q", be.name, err, tc.want)
				}
				var ifault *InternalFault
				if errors.As(err, &ifault) {
					t.Errorf("%s: subscript fault is internal: %v", be.name, err)
				}
			}
		})
	}
}

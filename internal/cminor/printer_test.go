package cminor

import (
	"strings"
	"testing"
)

// TestPrintRoundTrip: printing is a fixed point after one round trip
// — the printed source re-parses to a file that prints identically —
// over the mini kernel and every benchmark kernel.
func TestPrintRoundTrip(t *testing.T) {
	srcs := map[string]string{"axpy_mini.c": miniKernel}
	for _, k := range BenchKernels {
		srcs[k.File] = k.Src
	}
	for name, src := range srcs {
		out := Print(MustParse(name, src))
		f2, err := Parse(name, out)
		if err != nil {
			t.Fatalf("%s: re-parse failed: %v\nsource:\n%s", name, err, out)
		}
		if again := Print(f2); again != out {
			t.Errorf("%s: the round trip changed the printed source:\n%s\nthen:\n%s", name, out, again)
		}
	}
}

func TestPrintContainsPragma(t *testing.T) {
	f := MustParse("axpy.c", miniKernel)
	out := Print(f)
	if !strings.Contains(out, "#pragma omp parallel for num_threads(NT) proc_bind(close)") {
		t.Errorf("pragma missing from output:\n%s", out)
	}
}

func TestPrintFuncPragmas(t *testing.T) {
	f := MustParse("t.c", "void f() { return; }")
	fn := f.Func("f")
	fn.Pragmas = append(fn.Pragmas, &Pragma{Text: `GCC optimize ("O2")`})
	out := Print(f)
	if !strings.HasPrefix(out, "#pragma GCC optimize") {
		t.Errorf("GCC pragma should precede the function:\n%s", out)
	}
}

func TestExprStringPrecedenceParens(t *testing.T) {
	f := MustParse("t.c", "void f(int a, int b, double z[4]) { z[0] = (a + b) * 2; }")
	out := Print(f)
	if !strings.Contains(out, "(a + b) * 2") {
		t.Errorf("parens lost: %s", out)
	}
}

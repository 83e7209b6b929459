package cminor

import (
	"hash/fnv"
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

// FuzzPrintRoundTrip: for any input that parses, printing the reparse
// of the print gives the print again, and for any input that also
// compiles, the SourceHash the printer streams into the hash equals
// FNV-64a of Print's text. The corpus starts from TestPrintRoundTrip's
// sources: the mini kernel and the ten benchmark kernels.
func FuzzPrintRoundTrip(f *testing.F) {
	f.Add(miniKernel)
	for _, k := range BenchKernels {
		f.Add(k.Src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse("fuzz.c", src)
		if err != nil {
			return
		}
		out := Print(file)
		again, err := Parse("fuzz.c", out)
		if err != nil {
			t.Fatalf("the print does not re-parse: %v\nsource:\n%s\nprint:\n%s", err, src, out)
		}
		if out2 := Print(again); out2 != out {
			t.Fatalf("the round trip changed the print:\n%s\nthen:\n%s", out, out2)
		}
		prog, err := Compile(file)
		if err != nil {
			return
		}
		h := fnv.New64a()
		h.Write([]byte(out))
		if got, want := prog.SourceHash(), h.Sum64(); got != want {
			t.Fatalf("SourceHash = %x, FNV-64a of the print = %x\n%s", got, want, out)
		}
	})
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

package cminor

import (
	"strings"
	"testing"
)

const miniKernel = `
void kernel_axpy(int n, double alpha, double x[n], double y[n]) {
  int i;
#pragma omp parallel for num_threads(NT) proc_bind(close)
  for (i = 0; i < n; i++) {
    y[i] = y[i] + alpha * x[i];
  }
}
`

func TestParseFunction(t *testing.T) {
	f, err := Parse("axpy.c", miniKernel)
	if err != nil {
		t.Fatal(err)
	}
	fn := f.Func("kernel_axpy")
	if fn == nil {
		t.Fatal("kernel_axpy not found")
	}
	if len(fn.Params) != 4 {
		t.Fatalf("got %d params, want 4", len(fn.Params))
	}
	if !fn.Params[2].Type.IsArray() {
		t.Error("x should be an array parameter")
	}
	if fn.Params[0].Type.Kind != Int {
		t.Error("n should be int")
	}
}

func TestParseAttachesPragmaToFor(t *testing.T) {
	f := MustParse("axpy.c", miniKernel)
	fn := f.Func("kernel_axpy")
	var loops []*ForStmt
	Walk(fn, func(n Node) bool {
		if l, ok := n.(*ForStmt); ok {
			loops = append(loops, l)
		}
		return true
	})
	if len(loops) != 1 {
		t.Fatalf("got %d loops, want 1", len(loops))
	}
	if len(loops[0].Pragmas) != 1 {
		t.Fatalf("pragma not attached to loop: %+v", loops[0].Pragmas)
	}
	if got, want := loops[0].Pragmas[0].Text, "omp parallel for num_threads(NT) proc_bind(close)"; got != want {
		t.Errorf("pragma text = %q, want %q", got, want)
	}
}

func TestParseCommaDeclSplit(t *testing.T) {
	f := MustParse("t.c", "void f(void) { int i, j, k; i = j + k; }")
	fn := f.Func("f")
	decls := 0
	for _, s := range fn.Body.Stmts {
		if _, ok := s.(*DeclStmt); ok {
			decls++
		}
	}
	if decls != 3 {
		t.Errorf("got %d decls, want 3", decls)
	}
}

func TestParseVoidParamList(t *testing.T) {
	// "void f(void)" — the void param shows up as a nameless param; we
	// accept and record it only when it has a name, so expect an error
	// path to be tolerated. Simplest contract: f() and f(void) both parse.
	if _, err := Parse("t.c", "void f() { return; }"); err != nil {
		t.Fatalf("f(): %v", err)
	}
}

func TestParsePrecedence(t *testing.T) {
	f := MustParse("t.c", "void f(int a, int b, int c, int *out) { out[0] = a + b * c; }")
	fn := f.Func("f")
	es := fn.Body.Stmts[0].(*ExprStmt)
	asn := es.X.(*AssignExpr)
	add, ok := asn.RHS.(*BinExpr)
	if !ok || add.Op != PLUS {
		t.Fatalf("rhs = %T, want + at root", asn.RHS)
	}
	mul, ok := add.Y.(*BinExpr)
	if !ok || mul.Op != STAR {
		t.Fatalf("rhs.Y = %T, want *", add.Y)
	}
}

func TestParseTernaryAndCast(t *testing.T) {
	src := "double f(int a, int b) { return a >= b ? (double)a : (double)b; }"
	f := MustParse("t.c", src)
	ret := f.Func("f").Body.Stmts[0].(*ReturnStmt)
	cond, ok := ret.X.(*CondExpr)
	if !ok {
		t.Fatalf("return expr = %T, want CondExpr", ret.X)
	}
	if _, ok := cond.Then.(*CastExpr); !ok {
		t.Errorf("then branch = %T, want CastExpr", cond.Then)
	}
}

func TestParseMultiDimIndex(t *testing.T) {
	f := MustParse("t.c", "void f(int n, double A[n][n]) { A[1][2] = 3.0; }")
	es := f.Func("f").Body.Stmts[0].(*ExprStmt)
	asn := es.X.(*AssignExpr)
	ix, ok := asn.LHS.(*IndexExpr)
	if !ok {
		t.Fatalf("lhs = %T", asn.LHS)
	}
	if _, ok := ix.X.(*IndexExpr); !ok {
		t.Fatalf("expected chained IndexExpr, inner = %T", ix.X)
	}
}

func TestParseScopMarkers(t *testing.T) {
	src := `
void f(int n, double A[n]) {
  int i;
#pragma scop
  for (i = 0; i < n; i++) {
    A[i] = 0.0;
  }
#pragma endscop
}
`
	f := MustParse("t.c", src)
	fn := f.Func("f")
	found := 0
	Walk(fn, func(n Node) bool {
		switch n := n.(type) {
		case *PragmaStmt:
			if n.Pragma.Text == "scop" || n.Pragma.Text == "endscop" {
				found++
			}
		case *ForStmt:
			for _, p := range n.Pragmas {
				if p.Text == "scop" || p.Text == "endscop" {
					found++
				}
			}
		}
		return true
	})
	if found != 2 {
		t.Errorf("found %d scop markers, want 2", found)
	}
}

func TestParseErrorReported(t *testing.T) {
	_, err := Parse("bad.c", "void f( { }")
	if err == nil {
		t.Fatal("expected a parse error")
	}
	if !strings.Contains(err.Error(), "bad.c") {
		t.Errorf("error should mention the file name: %v", err)
	}
}

func TestParseForWithDeclInit(t *testing.T) {
	f := MustParse("t.c", "void f(int n, double A[n]) { for (int i = 0; i < n; i++) { A[i] = 1.0; } }")
	loop := f.Func("f").Body.Stmts[0].(*ForStmt)
	if _, ok := loop.Init.(*DeclStmt); !ok {
		t.Fatalf("for init = %T, want DeclStmt", loop.Init)
	}
}

func TestParseGlobalDecl(t *testing.T) {
	f := MustParse("t.c", "int threshold = 10;\nvoid f() { return; }")
	if len(f.Globals) != 1 || f.Globals[0].Name != "threshold" {
		t.Fatalf("globals = %+v", f.Globals)
	}
}

func TestParsePrototype(t *testing.T) {
	f := MustParse("t.c", "void g(int n);\nvoid f() { g(3); }")
	var g *FuncDecl
	for _, fn := range f.Funcs {
		if fn.Name == "g" {
			g = fn
		}
	}
	if g == nil || g.Body != nil {
		t.Fatalf("prototype g not recorded correctly: %+v", g)
	}
}

func TestParseIfElseChain(t *testing.T) {
	src := `
int f(int a) {
  if (a > 10) { return 2; }
  else if (a > 5) { return 1; }
  else { return 0; }
}
`
	f := MustParse("t.c", src)
	s := f.Func("f").Body.Stmts[0].(*IfStmt)
	if _, ok := s.Else.(*IfStmt); !ok {
		t.Fatalf("else = %T, want IfStmt", s.Else)
	}
}

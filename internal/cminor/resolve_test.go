package cminor

import (
	"strings"
	"testing"
)

// mustResolveErr parses src, resolves it, and asserts resolution fails
// with a diagnostic containing want and a file:line:col prefix.
func mustResolveErr(t *testing.T, src, want string) {
	t.Helper()
	f := MustParse("t.c", src)
	_, err := Resolve(f)
	if err == nil {
		t.Fatalf("Resolve succeeded, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error = %q, want substring %q", err, want)
	}
	if !strings.Contains(err.Error(), "t.c:") {
		t.Errorf("error should carry a file:line:col position: %q", err)
	}
}

func TestResolveUndeclaredIdent(t *testing.T) {
	mustResolveErr(t, "void f() { x = 1; }", `undeclared identifier "x"`)
}

func TestResolveUndeclaredInExpr(t *testing.T) {
	mustResolveErr(t, "int f(int a) { return a + b; }", `undeclared identifier "b"`)
}

func TestResolveRankMismatchIndex(t *testing.T) {
	mustResolveErr(t, "void f(int n, double A[n][n]) { A[0] = 1.0; }",
		"rank 2 but is indexed with 1 subscript")
}

func TestResolveRankMismatchArg(t *testing.T) {
	src := `
void g(int n, double B[n][n]) { B[0][0] = 1.0; }
void f(int n, double A[n]) { g(n, A); }
`
	mustResolveErr(t, src, "rank mismatch")
}

func TestResolveArityMismatch(t *testing.T) {
	src := `
double g(double x) { return x; }
double f() { return g(1.0, 2.0); }
`
	mustResolveErr(t, src, "g expects 1 argument(s), got 2")
}

func TestResolveBuiltinArity(t *testing.T) {
	mustResolveErr(t, "double f(double x) { return sqrt(x, x); }",
		"builtin sqrt expects 1 argument(s), got 2")
}

func TestResolveArrayUsedAsScalar(t *testing.T) {
	mustResolveErr(t, "void f(int n, double A[n]) { double s = A; }",
		`array "A" used as a scalar value`)
}

func TestResolveScalarIndexed(t *testing.T) {
	mustResolveErr(t, "void f(double x) { x[0] = 1.0; }", `"x" is not an array`)
}

func TestResolveUndefinedCall(t *testing.T) {
	mustResolveErr(t, "void f() { g(); }", `call to undefined function "g"`)
}

func TestResolvePrototypeOnlyCall(t *testing.T) {
	mustResolveErr(t, "void g(int n);\nvoid f() { g(3); }",
		`call to undefined function "g"`)
}

func TestResolveAssignToArray(t *testing.T) {
	mustResolveErr(t, "void f(int n, double A[n]) { A = 1.0; }",
		"cannot assign to array")
}

func TestResolveAnnotatesSlots(t *testing.T) {
	f := MustParse("t.c", miniKernel)
	res, err := Resolve(f)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Funcs["kernel_axpy"]
	if info == nil {
		t.Fatal("kernel_axpy not resolved")
	}
	// Params: n (scalar), alpha (scalar), x (array), y (array); plus local i.
	if info.NumScalars != 3 || info.NumArrays != 2 || info.NumCells != 0 {
		t.Fatalf("slot counts = %d scalars, %d cells, %d arrays; want 3/0/2",
			info.NumScalars, info.NumCells, info.NumArrays)
	}
	// Every identifier in the loop body must carry a resolved slot in
	// the side table (the AST itself stays unannotated).
	unresolved := 0
	Walk(info.Decl.Body, func(n Node) bool {
		if id, ok := n.(*Ident); ok && res.RefOf(id).Kind == VarUnresolved {
			unresolved++
		}
		return true
	})
	if unresolved != 0 {
		t.Errorf("%d identifiers left unresolved", unresolved)
	}
}

// TestResolveRejectsDuplicateNodeIDs: the annotation side tables are
// keyed by NodeID, so a tree with aliased IDs (a subtree spliced into
// its own file a second time) must be rejected loudly, not mis-bound
// silently.
func TestResolveRejectsDuplicateNodeIDs(t *testing.T) {
	f := MustParse("t.c", "int f(int a) { return a + a; }")
	body := f.Funcs[0].Body
	body.Stmts = append(body.Stmts, body.Stmts[0])
	if _, err := Resolve(f); err == nil || !strings.Contains(err.Error(), "duplicate node ID") {
		t.Fatalf("err = %v, want duplicate-node-ID diagnostic", err)
	}
}

func TestResolveGlobalConstDims(t *testing.T) {
	src := `
double table[2 * 4];
int scale = 3;
void f() { table[0] = 1.0; }
`
	res, err := Resolve(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Arrays) != 1 || res.Arrays[0].Dims[0] != 8 {
		t.Fatalf("global arrays = %+v, want one with dim 8", res.Arrays)
	}
	if len(res.Scalars) != 1 || res.Scalars[0].Init.Int() != 3 {
		t.Fatalf("global scalars = %+v, want scale=3", res.Scalars)
	}
}

func TestResolveGlobalNonConstDim(t *testing.T) {
	mustResolveErr(t, "int n = 4;\ndouble table[n];\nvoid f() { return; }",
		"not a constant expression")
}

func TestResolveScopeShadowing(t *testing.T) {
	src := `
int f(int a) {
  int s = 0;
  if (a > 0) {
    int s = 10;
    s = s + a;
  }
  return s;
}
`
	res, err := Resolve(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	// Outer s and inner s must live in distinct slots: a + two s's.
	if got := res.Funcs["f"].NumScalars; got != 3 {
		t.Errorf("NumScalars = %d, want 3 (param + shadowed locals)", got)
	}
}

// writtenParams names the parameters in fn's write set, in order.
func writtenParams(res *ResolvedFile, fn string) []string {
	info := res.Funcs[fn]
	var names []string
	for i, w := range info.Writes {
		if w {
			names = append(names, info.Decl.Params[i].Name)
		}
	}
	return names
}

// TestResolveWriteSets pins the write set of every benchmark kernel and
// each rule that puts a parameter in one: an indexed store, compound
// store or increment on its array, or passing the array to a user
// function, which marks it whether or not the callee writes it. A read,
// a builtin call, a pointer parameter and a local array that shadows a
// parameter mark nothing.
func TestResolveWriteSets(t *testing.T) {
	want := map[string]string{
		"gemm": "C", "jacobi": "A B", "axpy": "y", "2mm": "tmp D", "seidel2d": "A",
		"atax": "y tmp", "mvt": "x1 x2", "trisolv": "x", "cholesky": "A", "norms": "out",
	}
	for _, k := range BenchKernels {
		res, err := Resolve(MustParse(k.File, k.Src))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(writtenParams(res, k.Fn), " "); got != want[k.Name] {
			t.Errorf("%s writes [%s], want [%s]", k.Name, got, want[k.Name])
		}
	}
	const src = `
void fill(int n, double v[n]) { v[0] = 1.0; }
double peek(int n, double r[n]) { return r[0]; }
double k(int n, double a[n], double b[n], double c[n], double d[n], double e[n], double g[n], double *p) {
  fill(n, a);
  double s = peek(n, b);
  e[1] += sqrt(c[0]);
  g[n - 1]--;
  p = c[1] + d[0];
  if (n > 2) {
    double d[4];
    d[0] = s;
  }
  double loc[n];
  loc[0] = c[2];
  return s;
}
`
	res, err := Resolve(MustParse("w.c", src))
	if err != nil {
		t.Fatal(err)
	}
	for fn, want := range map[string]string{"fill": "v", "peek": "", "k": "a b e g"} {
		if got := strings.Join(writtenParams(res, fn), " "); got != want {
			t.Errorf("%s writes [%s], want [%s]", fn, got, want)
		}
	}
}

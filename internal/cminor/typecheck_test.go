package cminor

import "testing"

func resolveForTest(t *testing.T, src string) *ResolvedFile {
	t.Helper()
	res, err := Resolve(MustParse("t.c", src))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// kindsIn returns the static kind of every return value and expression
// statement in fn's body, in source order.
func kindsIn(res *ResolvedFile, fn string) []kind {
	var ks []kind
	Walk(res.Funcs[fn].Decl.Body, func(n Node) bool {
		switch n := n.(type) {
		case *ReturnStmt:
			ks = append(ks, res.kindOf(n.X))
		case *ExprStmt:
			ks = append(ks, res.kindOf(n.X))
		}
		return true
	})
	return ks
}

func wantKinds(t *testing.T, res *ResolvedFile, fn string, want ...kind) {
	t.Helper()
	got := kindsIn(res, fn)
	if len(got) != len(want) {
		t.Fatalf("%s: %d kinded statements, want %d", fn, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: statement %d has kind %d, want %d", fn, i, got[i], want[i])
		}
	}
}

func TestTypecheckStableKinds(t *testing.T) {
	res := resolveForTest(t, `
double f(int n, double x) {
  int i = 0;
  double s = 0.0;
  for (i = 0; i < n; i++) {
    s += x * 2.0;
    s = s * 0.5;
  }
  i;
  return s;
}`)
	// The for's init i = 0, s += …, s = …, i, return s.
	wantKinds(t, res, "f", kInt, kFloat, kFloat, kInt, kFloat)
}

// A store converts to the target's declared kind, and the assignment's
// value is the stored value: an int stored into a double is a double,
// a double stored into an int is an int, and an element store yields
// the element's double whatever its right-hand side.
func TestTypecheckStoresKeepDeclaredKind(t *testing.T) {
	res := resolveForTest(t, `
double f(double a[2]) {
  double s = 0.0;
  int k = 0;
  s = 1;
  k = 2.5;
  k += 0.5;
  s++;
  k--;
  a[0] = k;
  a[1] += k;
  return s;
}`)
	wantKinds(t, res, "f", kFloat, kInt, kInt, kFloat, kInt, kFloat, kFloat, kFloat)
}

// A pointer parameter is a cell of its pointee kind: stores through it
// convert, and the caller's variable keeps its kind.
func TestTypecheckCellKeepsDeclaredKind(t *testing.T) {
	res := resolveForTest(t, `
void set(double *p, int *q) { p = 1; q = 2.5; }
double f() {
  double x = 0.0;
  int y = 0;
  set(&x, &y);
  x;
  y;
  return x + y;
}`)
	wantKinds(t, res, "set", kFloat, kInt)
	wantKinds(t, res, "f", kFloat, kFloat, kInt, kFloat)
}

// A call has its function's declared return kind, whether or not the
// body can fall off its end, and a conditional with one double branch
// is double.
func TestTypecheckResultKinds(t *testing.T) {
	res := resolveForTest(t, `
int always(int a) {
  if (a > 0) { return 1; }
  return 0;
}
int mayFallOff(int a) {
  if (a > 0) { return 1; }
}
void nothing() { }
double callsInt(int a) {
  always(a);
  mayFallOff(a);
  nothing();
  a > 0 ? 1 : 0;
  a > 0 ? 1 : 0.5;
  return always(a) + 0.5;
}
`)
	wantKinds(t, res, "callsInt", kInt, kInt, kFloat, kInt, kFloat, kFloat)
}

package cminor

// The Polybench-shaped kernel corpus shared by the benchmark sweep
// (bench_test.go), the per-pass parity tests, and the autotuning
// layer's tuned-vs-static benchmarks (internal/cminor/autotune). Each
// entry carries the source, the entry function, and a builder for a
// fresh argument set at the canonical benchmark size — argument arrays
// are mutated by the kernels, so every run wants its own copy.

const benchGemmSrc = `
void gemm(int n, double alpha, double beta, double A[n][n], double B[n][n], double C[n][n]) {
  int i, j, k;
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      C[i][j] = C[i][j] * beta;
      for (k = 0; k < n; k++) {
        C[i][j] += alpha * A[i][k] * B[k][j];
      }
    }
  }
}
`

const benchJacobiSrc = `
void jacobi(int n, int steps, double A[n][n], double B[n][n]) {
  int t, i, j;
  for (t = 0; t < steps; t++) {
    for (i = 1; i < n - 1; i++) {
      for (j = 1; j < n - 1; j++) {
        B[i][j] = 0.2 * (A[i][j] + A[i][j - 1] + A[i][j + 1] + A[i - 1][j] + A[i + 1][j]);
      }
    }
    for (i = 1; i < n - 1; i++) {
      for (j = 1; j < n - 1; j++) {
        A[i][j] = B[i][j];
      }
    }
  }
}
`

const benchAxpySrc = `
void axpy(int n, double alpha, double x[n], double y[n]) {
  int i;
  for (i = 0; i < n; i++) {
    y[i] = y[i] + alpha * x[i];
  }
}
`

const bench2mmSrc = `
void mm2(int ni, int nj, int nk, int nl, double alpha, double beta,
         double tmp[ni][nj], double A[ni][nk], double B[nk][nj],
         double C[nj][nl], double D[ni][nl]) {
  int i, j, k;
  for (i = 0; i < ni; i++) {
    for (j = 0; j < nj; j++) {
      tmp[i][j] = 0.0;
      for (k = 0; k < nk; k++) {
        tmp[i][j] += alpha * A[i][k] * B[k][j];
      }
    }
  }
  for (i = 0; i < ni; i++) {
    for (j = 0; j < nl; j++) {
      D[i][j] *= beta;
      for (k = 0; k < nj; k++) {
        D[i][j] += tmp[i][k] * C[k][j];
      }
    }
  }
}
`

const benchSeidelSrc = `
void seidel2d(int tsteps, int n, double A[n][n]) {
  int t, i, j;
  for (t = 0; t < tsteps; t++) {
    for (i = 1; i < n - 1; i++) {
      for (j = 1; j < n - 1; j++) {
        A[i][j] = (A[i - 1][j - 1] + A[i - 1][j] + A[i - 1][j + 1]
                 + A[i][j - 1] + A[i][j] + A[i][j + 1]
                 + A[i + 1][j - 1] + A[i + 1][j] + A[i + 1][j + 1]) / 9.0;
      }
    }
  }
}
`

const benchAtaxSrc = `
void atax(int m, int n, double A[m][n], double x[n], double y[n], double tmp[m]) {
  int i, j;
  for (i = 0; i < n; i++) {
    y[i] = 0.0;
  }
  for (i = 0; i < m; i++) {
    tmp[i] = 0.0;
    for (j = 0; j < n; j++) {
      tmp[i] = tmp[i] + A[i][j] * x[j];
    }
    for (j = 0; j < n; j++) {
      y[j] = y[j] + A[i][j] * tmp[i];
    }
  }
}
`

// mvt, trisolv and cholesky extend the suite with triangular loops and
// diagonal accesses, which the strength-reduced subscript patterns miss
// and which therefore stay fully checked.

const benchMvtSrc = `
void mvt(int n, double x1[n], double x2[n], double y1[n], double y2[n], double A[n][n]) {
  int i, j;
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      x1[i] = x1[i] + A[i][j] * y1[j];
    }
  }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      x2[i] = x2[i] + A[j][i] * y2[j];
    }
  }
}
`

const benchTrisolvSrc = `
void trisolv(int n, double L[n][n], double x[n], double b[n]) {
  int i, j;
  for (i = 0; i < n; i++) {
    x[i] = b[i];
    for (j = 0; j < i; j++) {
      x[i] = x[i] - L[i][j] * x[j];
    }
    x[i] = x[i] / L[i][i];
  }
}
`

const benchCholeskySrc = `
void cholesky(int n, double A[n][n]) {
  int i, j, k;
  for (i = 0; i < n; i++) {
    for (j = 0; j < i; j++) {
      for (k = 0; k < j; k++) {
        A[i][j] -= A[i][k] * A[j][k];
      }
      A[i][j] /= A[j][j];
    }
    for (k = 0; k < i; k++) {
      A[i][i] -= A[i][k] * A[i][k];
    }
    A[i][i] = sqrt(A[i][i]);
  }
}
`

// benchNormsSrc exercises the O3 inliner: the inner loop's only call is
// a tiny leaf, which blocks every loop optimization below O3. At O3 the
// closures inline it and the bytecode splices it, which makes the inner
// loop one run.mac whose body charges three steps (the call's return
// the third).
const benchNormsSrc = `
double sq(double x) { return x * x; }
void norms(int n, double A[n][n], double out[n]) {
  int i, j;
  for (i = 0; i < n; i++) {
    out[i] = 0.0;
    for (j = 0; j < n; j++) {
      out[i] = out[i] + sq(A[i][j]);
    }
  }
}
`

func benchMatrix(n int) *Array {
	a := NewArray(n, n)
	for i := range a.Data {
		a.Data[i] = float64(i%13) * 0.37
	}
	return a
}

func benchVector(n int) *Array {
	a := NewArray(n)
	for i := range a.Data {
		a.Data[i] = float64(i%7) * 1.1
	}
	return a
}

func benchGemmArgs(n int) []any {
	return []any{IntV(int64(n)), FloatV(1.5), FloatV(0.5),
		benchMatrix(n), benchMatrix(n), benchMatrix(n)}
}

func benchJacobiArgs(n int) []any {
	return []any{IntV(int64(n)), IntV(4), benchMatrix(n), benchMatrix(n)}
}

func bench2mmArgs(n int) []any {
	return []any{IntV(int64(n)), IntV(int64(n)), IntV(int64(n)), IntV(int64(n)),
		FloatV(1.5), FloatV(0.5),
		benchMatrix(n), benchMatrix(n), benchMatrix(n), benchMatrix(n), benchMatrix(n)}
}

func benchSeidelArgs(n int) []any {
	return []any{IntV(4), IntV(int64(n)), benchMatrix(n)}
}

func benchAtaxArgs(n int) []any {
	return []any{IntV(int64(n)), IntV(int64(n)), benchMatrix(n),
		benchVector(n), benchVector(n), benchVector(n)}
}

func benchMvtArgs(n int) []any {
	return []any{IntV(int64(n)), benchVector(n), benchVector(n), benchVector(n),
		benchVector(n), benchMatrix(n)}
}

func benchTrisolvArgs(n int) []any {
	L := NewArray(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			L.Set(float64(i+j)/float64(n)+1.0, i, j)
		}
	}
	return []any{IntV(int64(n)), L, NewArray(n), benchVector(n)}
}

func benchCholeskyArgs(n int) []any {
	A := NewArray(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.01 * float64((i*j)%13)
			if i == j {
				v = float64(n) + 2.0 // diagonally dominant
			}
			A.Set(v, i, j)
		}
	}
	return []any{IntV(int64(n)), A}
}

func benchNormsArgs(n int) []any {
	return []any{IntV(int64(n)), benchMatrix(n), benchVector(n)}
}

// BenchKernel is one corpus entry: a compilable kernel plus a builder
// for a fresh canonical argument set.
type BenchKernel struct {
	Name string       // short name used in benchmark and tuning output
	File string       // source file name carried into diagnostics
	Fn   string       // entry function
	Src  string       // C-minor source
	Args func() []any // fresh (deep) argument set at the canonical size
}

// BenchKernels is the shared ten-kernel corpus, every entry stateless
// (no file-scope globals) so repeated calls with fresh arguments are
// independent — the property the benchmark sweep, the pass-parity
// tests, and the autotuner's instance pooling all rely on.
var BenchKernels = []BenchKernel{
	{"gemm", "gemm.c", "gemm", benchGemmSrc, func() []any { return benchGemmArgs(32) }},
	{"jacobi", "jacobi.c", "jacobi", benchJacobiSrc, func() []any { return benchJacobiArgs(48) }},
	{"axpy", "axpy.c", "axpy", benchAxpySrc, func() []any {
		return []any{IntV(4096), FloatV(2.0), benchVector(4096), benchVector(4096)}
	}},
	{"2mm", "2mm.c", "mm2", bench2mmSrc, func() []any { return bench2mmArgs(24) }},
	{"seidel2d", "seidel.c", "seidel2d", benchSeidelSrc, func() []any { return benchSeidelArgs(48) }},
	{"atax", "atax.c", "atax", benchAtaxSrc, func() []any { return benchAtaxArgs(48) }},
	{"mvt", "mvt.c", "mvt", benchMvtSrc, func() []any { return benchMvtArgs(48) }},
	{"trisolv", "trisolv.c", "trisolv", benchTrisolvSrc, func() []any { return benchTrisolvArgs(64) }},
	{"cholesky", "cholesky.c", "cholesky", benchCholeskySrc, func() []any { return benchCholeskyArgs(32) }},
	{"norms", "norms.c", "norms", benchNormsSrc, func() []any { return benchNormsArgs(48) }},
}

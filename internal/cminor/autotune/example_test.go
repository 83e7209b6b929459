package autotune_test

import (
	"fmt"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// exampleSampler is a deterministic stand-in for the wall clock so the
// example's output is stable: O2 "measures" fastest for this kernel.
type exampleSampler struct{}

func (exampleSampler) Sample(_ string, spec autotune.VariantSpec, _ int, call func() error) (time.Duration, error) {
	err := call()
	cost := map[string]time.Duration{
		"O0":       400 * time.Microsecond,
		"O1":       250 * time.Microsecond,
		"O2":       90 * time.Microsecond,
		"O3":       110 * time.Microsecond,
		"bytecode": 130 * time.Microsecond,
	}[spec.String()]
	return cost, err
}

// ExampleAutoTuner tunes a dot-product kernel over the default grid
// (O0–O3 plus the flat-bytecode backend):
// after the measure phase (one call per arm, then three calls for each
// arm within 2× the best) the tuner routes to whichever variant
// measured cheapest for this input class.
func ExampleAutoTuner() {
	src := `
double dot(int n, double a[n], double b[n]) {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + a[i] * b[i];
  }
  return s;
}
`
	prog, err := cm.Compile(cm.MustParse("dot.c", src))
	if err != nil {
		panic(err)
	}
	// In production, drop WithSampler: calls are timed with the real
	// clock. The injected sampler keeps this example deterministic.
	tn, err := autotune.New(prog,
		autotune.WithSampler(exampleSampler{}),
	)
	if err != nil {
		panic(err)
	}

	mk := func() (*cm.Array, *cm.Array) {
		a, b := cm.NewArray(256), cm.NewArray(256)
		for i := range a.Data {
			a.Data[i], b.Data[i] = float64(i), 2.0
		}
		return a, b
	}
	var last cm.Value
	for i := 0; i < 20; i++ {
		a, b := mk()
		v, err := tn.Call("dot", cm.IntV(256), a, b)
		if err != nil {
			panic(err)
		}
		last = v
	}

	a, _ := mk()
	class := autotune.SizeClass([]any{cm.IntV(256), a, a})
	best, _ := tn.Best("dot", class)
	fmt.Printf("dot = %v\n", last.F)
	fmt.Printf("winner for class %d: %v\n", class, best)
	// Output:
	// dot = 65280
	// winner for class 10: O2
}

package autotune

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cm "socrates/internal/cminor"
)

// rotatingSampler keeps a shared site switching winners: its costs are
// a ladder over the grid (100µs, 200µs, …) that rotates by one arm
// every period sampled calls, so the standing winner becomes the
// dearest arm and the site moves off it — by the hysteresis switch or by
// a drift challenge that re-measures the others, on whichever
// goroutines' calls land there. Safe for concurrent use.
type rotatingSampler struct {
	rank   map[string]int64
	period int64
	calls  atomic.Int64
}

func newRotatingSampler(grid []VariantSpec, period int64) *rotatingSampler {
	s := &rotatingSampler{rank: map[string]int64{}, period: period}
	for i, spec := range grid {
		s.rank[spec.String()] = int64(i)
	}
	return s
}

func (s *rotatingSampler) Sample(_ string, spec VariantSpec, _ int, call func() error) (time.Duration, error) {
	err := call()
	n := int64(len(s.rank))
	step := (s.rank[spec.String()] + s.calls.Add(1)/s.period) % n
	return time.Duration(step+1) * 100 * time.Microsecond, err
}

// Concurrency stress: one AutoTuner shared by 12 goroutines. Variant
// materialization, pool checkout, selection, survey trials and
// measurement ingestion must all be race-free (CI runs this under
// -race), and every routed call must stay bit-exact regardless of which
// variant the policy picked, and of whether its survey trial finished,
// was cut or ran again in full — arrays and return values are compared
// against a walker reference on every single call.
func TestConcurrentTunerStress(t *testing.T) {
	const n = 8
	gemm := cm.BenchKernels[0] // gemm; args rebuilt small below for speed
	if gemm.Name != "gemm" {
		t.Fatal("corpus order changed; update the test")
	}
	mkArgs := func() []any {
		m := func() *cm.Array {
			a := cm.NewArray(n, n)
			for i := range a.Data {
				a.Data[i] = float64(i%13) * 0.37
			}
			return a
		}
		return []any{cm.IntV(n), cm.FloatV(1.5), cm.FloatV(0.5), m(), m(), m()}
	}

	f := cm.MustParse(gemm.File, gemm.Src)
	// Walker reference: the bit pattern every routed call must produce.
	refArgs := mkArgs()
	walker, err := cm.Compile(f, cm.WithBackend(cm.BackendWalker))
	if err != nil {
		t.Fatal(err)
	}
	refVal, err := walker.NewInstance().Call(gemm.Fn, refArgs...)
	if err != nil {
		t.Fatal(err)
	}
	ref := refArgs[5].(*cm.Array)

	prog, err := cm.Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	// All backends in play; bytecode, last, is surveyed first, and the
	// walker, which cannot roll back, runs its trial as a full call.
	grid := append([]VariantSpec{{Backend: cm.BackendWalker}}, DefaultGrid()...)
	tn, err := New(prog, WithGrid(grid...), WithSampler(newRotatingSampler(grid, 40)), WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	// One call before the goroutines start gives the site the full-call
	// sample the concurrent survey pulls are sliced from.
	if _, err := tn.Call(gemm.Fn, mkArgs()...); err != nil {
		t.Fatal(err)
	}

	const goroutines = 12
	const callsPer = 60
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < callsPer; i++ {
				args := mkArgs()
				v, err := tn.Call(gemm.Fn, args...)
				if err != nil {
					errc <- err
					return
				}
				if v.IsInt != refVal.IsInt || v.F != refVal.F || v.I != refVal.I {
					t.Errorf("return value diverged under concurrency")
					return
				}
				got := args[5].(*cm.Array)
				for k := range ref.Data {
					if math.Float64bits(got.Data[k]) != math.Float64bits(ref.Data[k]) {
						t.Errorf("array bit divergence at %d", k)
						return
					}
				}
			}
		}()
	}
	// A reader goroutine hammers the introspection surface concurrently.
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tn.Snapshot()
				tn.Best(gemm.Fn, SizeClass(refArgs))
			}
		}
	}()
	wg.Wait()
	close(done)
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	rep := tn.Snapshot()
	if len(rep) != 1 {
		t.Fatalf("expected 1 tuning site, got %d", len(rep))
	}
	tn.mu.Lock()
	trials := tn.sites[siteKey{fn: gemm.Fn, class: SizeClass(refArgs)}].trials
	tn.mu.Unlock()
	if trials == 0 {
		t.Fatal("no survey pull ran as a trial")
	}
	if want := int64(goroutines*callsPer + 1); rep[0].Pulls != want {
		t.Fatalf("lost pulls under concurrency: %d, want %d", rep[0].Pulls, want)
	}
	// Arm pulls are measure quotas that a drift re-measure zeroes for the
	// arms it challenges, so they only bound the site total from above:
	// an in-flight observe that challenges after the last selection can
	// leave every arm at 0.
	var armPulls int64
	for _, a := range rep[0].Arms {
		if a.Pulls < 0 {
			t.Fatalf("arm %v has %d pulls", a.Spec, a.Pulls)
		}
		armPulls += a.Pulls
	}
	if want := int64(goroutines*callsPer + 1); armPulls > want {
		t.Fatalf("per-arm pulls inconsistent: %d of %d total", armPulls, want)
	}
	// The ladder rotated 18 times over the run (721 samples, a rotation
	// every 40): the site must have re-measured at least once.
	if rep[0].Reopens == 0 {
		t.Fatal("the site never re-measured: the stress ran on one variant")
	}
}

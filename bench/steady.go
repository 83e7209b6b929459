package main

import (
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// workload is one traffic shape. setUp is timed as setup_s and may be
// called again after tearDown; measure drives requests for about d,
// recording spans into tr when it is not nil.
type workload interface {
	setUp() error
	measure(d time.Duration, tr *tracer) (*samples, error)
	tearDown()
}

// convergeCalls is the fixed warm-up every tuner gets in set-up: the
// default grid's measure phase is 15 calls, the rest settles the EWMAs.
const convergeCalls = 200

// steadyCalls is how often each kernel is called per round: about
// 30 ms of each, so a round of ten is about 0.3 s and every kernel
// gets the same share of the window whatever its cost.
var steadyCalls = map[string]int{
	"trisolv": 1200, "axpy": 800, "atax": 600, "mvt": 600, "norms": 600,
	"cholesky": 400, "jacobi": 110, "2mm": 85, "seidel2d": 80, "gemm": 70,
}

// steadyDirect is the closed loop of one client calling converged
// tuners directly: the engine does nearly all the work, serve and
// persist none.
type steadyDirect struct {
	seed   uint64
	ks     []*kernel
	tuners []*autotune.AutoTuner
	args   []*argSet
	calls  []int64 // per kernel, over the workload's life: the oracle stride
}

func newTuner(k *kernel, seed uint64) (*autotune.AutoTuner, error) {
	f, err := cm.Parse(k.File, k.Src)
	if err != nil {
		return nil, err
	}
	prog, err := cm.Compile(f)
	if err != nil {
		return nil, err
	}
	return autotune.New(prog, autotune.WithSeed(seed))
}

func (w *steadyDirect) setUp() error {
	n := len(w.ks)
	w.tuners, w.args, w.calls = make([]*autotune.AutoTuner, n), make([]*argSet, n), make([]int64, n)
	for i, k := range w.ks {
		tn, err := newTuner(k, w.seed)
		if err != nil {
			return err
		}
		w.tuners[i], w.args[i] = tn, k.newArgs()
		for c := 0; c < convergeCalls; c++ {
			w.args[i].restore()
			if _, err := tn.Call(k.Fn, w.args[i].args...); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *steadyDirect) tearDown() { w.tuners, w.args = nil, nil }

func (w *steadyDirect) measure(d time.Duration, tr *tracer) (*samples, error) {
	s := &samples{lat: make([][]int64, len(w.ks))}
	for i, k := range w.ks {
		s.lat[i] = make([]int64, 0, steadyCalls[k.Name]*int(8*d.Seconds()+16))
	}
	// The last response of each kernel is checked after the window.
	last, lastOK := make([]cm.Value, len(w.ks)), make([]bool, len(w.ks))
	rng := newRand(w.seed, streamSteady)
	sl := newSlicer(nil)
	win := openWindow()
	sl.open()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for _, i := range rng.Perm(len(w.ks)) {
			k, tn, a := w.ks[i], w.tuners[i], w.args[i]
			first := len(s.lat[i])
			for c := steadyCalls[k.Name]; c > 0; c-- {
				root := tr.begin(spRequest, 0, s.attempted)
				sp := tr.begin(spRestore, root, s.attempted)
				a.restore()
				tr.end(sp)
				t0 := time.Now()
				sp = tr.begin(spCall, root, s.attempted)
				v, err := tn.Call(k.Fn, a.args...)
				tr.end(sp)
				s.lat[i] = append(s.lat[i], int64(time.Since(t0)))
				if err != nil {
					s.failed++
				} else if w.calls[i]%checkEvery == 0 {
					sp = tr.begin(spCheck, root, s.attempted)
					if !k.ref.matches(v, a) {
						s.failed++
					}
					tr.end(sp)
				}
				tr.end(root)
				last[i], lastOK[i] = v, err == nil
				w.calls[i]++
				s.attempted++
			}
			sl.close(i, len(s.lat[i])-first, s.lat[i][first:])
		}
	}
	win.close(s)
	s.setTypical(sl)
	for i, k := range w.ks {
		if lastOK[i] && !k.ref.matches(last[i], w.args[i]) {
			s.failed++
		}
	}
	return s, nil
}

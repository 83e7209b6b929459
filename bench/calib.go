package main

import (
	"sync/atomic"
	"time"
)

// The gate runs on shared boxes whose speed changes under it: on the
// 2-vCPU box it was sized on, the same static Instance.Call loop ran at
// 91, 111 or 160 µs per call depending on what the neighbours were
// doing, for seconds or minutes at a time. No window length averages
// that out. So the harness measures the box while it measures the
// system: between slices of a workload it times a fixed piece of work
// of its own, and scales the slice's times to what they would have been
// on the reference box. Counts (allocations, bytes, steps) need none of
// this and get none.

// calRefNs is how long one calibration pass takes on the reference
// box — the box the gate was sized on, when it is left alone. Times
// the harness reports are in that box's microseconds.
const calRefNs = 20_000

// calibrator owns the calibration work: the shape of what the closure
// back end executes (indirect calls through a frame, bounds-checked
// float64 loads and stores, an 8 KB working set), so that it slows down
// with the system under test, but none of the system's code, so that
// no change to the system can move it.
type calibrator struct {
	x, y []float64
	i    int
	ops  []func(*calibrator)
}

func newCalibrator() *calibrator {
	c := &calibrator{x: make([]float64, 512), y: make([]float64, 512)}
	for i := range c.x {
		c.x[i] = float64(i%7) * 1.1
	}
	loadX := func(c *calibrator) float64 { return c.x[c.i] }
	loadY := func(c *calibrator) float64 { return c.y[c.i] }
	mul := func(c *calibrator) float64 { return 2.0 * loadX(c) }
	add := func(c *calibrator) float64 { return loadY(c) + mul(c) }
	c.ops = []func(*calibrator){func(c *calibrator) { c.y[c.i] = add(c) * 0.5 }}
	return c
}

func (c *calibrator) pass() {
	for rep := 0; rep < 8; rep++ {
		for c.i = 0; c.i < len(c.x); c.i++ {
			for _, op := range c.ops {
				op(c)
			}
		}
	}
}

// factor times three passes and returns what to multiply a time
// measured just now by to get reference-box time: below 1 when the box
// is running slow.
func (c *calibrator) factor() float64 {
	var ns [3]int64
	for i := range ns {
		t0 := time.Now()
		c.pass()
		ns[i] = int64(time.Since(t0))
	}
	med := max(min(ns[0], ns[1]), min(max(ns[0], ns[1]), ns[2]))
	return calRefNs / float64(med)
}

// sliceRec is one closed slice, in reference-box nanoseconds.
type sliceRec struct {
	group     int // slices are only compared within a group (a kernel)
	n         int // requests the slice's owner completed in it
	wall, cpu float64
	cpuN      int // requests the whole process completed in it
}

// slicer cuts a measurement window into slices and converts each to
// reference-box time with a calibration taken at its end. The
// calibration's own time belongs to no slice.
type slicer struct {
	cal   *calibrator
	at    time.Time
	cpuAt time.Duration
	// done, when set, counts the requests the whole process has
	// completed; the process's CPU over a slice is divided by its
	// advance. Otherwise the slice's owner is the only client.
	done   *atomic.Int64
	doneAt int64

	recs []sliceRec
	sumF float64 // sum of the slices' factors
}

// newSlicer allocates everything the slicer will need; create it before
// the window opens, and open the first slice inside it.
func newSlicer(done *atomic.Int64) *slicer {
	return &slicer{cal: newCalibrator(), done: done, recs: make([]sliceRec, 0, 1<<14)}
}

// open starts a slice now.
func (s *slicer) open() {
	s.at, s.cpuAt = time.Now(), cpuNow()
	if s.done != nil {
		s.doneAt = s.done.Load()
	}
}

// close ends the current slice, in which the owner completed n requests
// of the given group, scales the latency samples taken in it (in place)
// and starts the next slice.
func (s *slicer) close(group, n int, samples ...[]int64) {
	wall, cpu, cpuN := time.Since(s.at), cpuNow()-s.cpuAt, n
	if s.done != nil {
		cpuN = int(s.done.Load() - s.doneAt)
	}
	f := s.cal.factor()
	for _, ns := range samples {
		for i, v := range ns {
			ns[i] = int64(float64(v) * f)
		}
	}
	if n > 0 && cpuN > 0 {
		s.recs = append(s.recs, sliceRec{group, n, float64(wall) * f, float64(cpu) * f, cpuN})
		s.sumF += f
	}
	s.open()
}

// typical is what a request typically cost, in reference-box
// nanoseconds of wall time (of its client) and of the process's CPU:
// per group the median over slices of the per-request cost, then the
// mean over groups weighted by their requests. A stall — the
// hypervisor taking the vCPU away for some milliseconds, a neighbour's
// burst — lands in the slices it hits and leaves the medians alone,
// where a plain total over the window would carry all of it.
func (s *slicer) typical() (wall, cpu float64) {
	groups := map[int][]sliceRec{}
	for _, r := range s.recs {
		groups[r.group] = append(groups[r.group], r)
	}
	total := 0.0
	for _, recs := range groups {
		var ws, cs []float64
		n := 0
		for _, r := range recs {
			ws, cs = append(ws, r.wall/float64(r.n)), append(cs, r.cpu/float64(r.cpuN))
			n += r.n
		}
		wall, cpu, total = wall+float64(n)*median(ws), cpu+float64(n)*median(cs), total+float64(n)
	}
	return wall / total, cpu / total
}

// speed is the box's mean speed over the window's slices (1 = the
// reference box).
func (s *slicer) speed() float64 { return s.sumF / float64(len(s.recs)) }

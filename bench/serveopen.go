package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"socrates/internal/cminor/autotune"
	"socrates/internal/cminor/serve"
)

// The open loop's shape. 400 bursts/s of 1–4 requests is about 1000
// requests/s, about a fifth of two cores: at 2000–3000 the p90 swung
// 2–8× between runs on a 2-vCPU box.
const (
	openBurstsPerSec = 400
	openTenants      = 3
	openMaxBatch     = 8
	openBatchDelay   = 100 * time.Microsecond
	openQueueDepth   = 4096
	// openArgSets bounds the requests of one kernel in flight at once
	// without the generator having to allocate.
	openArgSets = 32
	// openSlice is how many requests the generator sends between
	// calibrations: about 60 ms of them.
	openSlice = 64
)

// serveOpen is the open loop: requests leave on a seeded schedule
// whether or not earlier ones have been answered, so the queue, the
// batch hold and same-site coalescing all work.
type serveOpen struct {
	seed   uint64
	ks     []*kernel
	srv    *serve.Server
	tuners []*autotune.AutoTuner
	free   []chan *argSet // per kernel, pristine sets ready to send
	calls  []int64
}

func (w *serveOpen) setUp() error {
	srv, err := serve.New(serve.WithMaxBatch(openMaxBatch),
		serve.WithMaxBatchDelay(openBatchDelay), serve.WithQueueDepth(openQueueDepth))
	if err != nil {
		return err
	}
	w.srv = srv
	if w.tuners, err = hostKernels(srv, w.ks, w.seed); err != nil {
		return err
	}
	srv.Start()
	w.free, w.calls = make([]chan *argSet, len(w.ks)), make([]int64, len(w.ks))
	for i, k := range w.ks {
		w.free[i] = make(chan *argSet, openArgSets) // holds every set of the kernel
		for n := 0; n < openArgSets; n++ {
			w.free[i] <- k.newArgs()
		}
	}
	// Converge in full batches: a lone request would sit out the batch
	// hold, a batch of openMaxBatch dispatches at once.
	ctx := context.Background()
	for wave := 0; wave < convergeCalls/openMaxBatch; wave++ {
		var pend []*serve.Pending
		var sets []*argSet
		for i, k := range w.ks {
			for n := 0; n < openMaxBatch; n++ {
				a := <-w.free[i]
				p, err := srv.Submit(ctx, serve.Request{Tenant: "t0", Function: k.Fn, Args: a.args})
				if err != nil {
					return err
				}
				pend, sets = append(pend, p), append(sets, a)
			}
		}
		for n, p := range pend {
			if resp := p.Wait(); resp.Err != nil {
				return resp.Err
			}
			sets[n].restore()
			w.free[sets[n].k.idx] <- sets[n]
		}
	}
	return nil
}

func (w *serveOpen) tearDown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

func (w *serveOpen) measure(d time.Duration, tr *tracer) (*samples, error) {
	sched := openSchedule(w.seed, d, openBurstsPerSec, len(w.ks), openTenants)
	// The last scheduled request of each kernel is checked whatever its
	// position in the stride.
	lastOf := make([]int, len(w.ks))
	for n, r := range sched {
		lastOf[r.kernel] = n
	}
	tenants := make([]string, openTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("t%d", i)
	}
	lat := make([]int64, len(sched)) // per request; 0 = failed before a reply
	var detail []serveSample
	var late []int64
	if tr != nil {
		detail, late = make([]serveSample, len(sched)), make([]int64, len(sched))
	}
	var failed atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()

	var snap0 serve.Snapshot
	if tr != nil {
		snap0 = w.srv.Snapshot()
	}
	// Only CPU is converted to reference-box time here. Latency and
	// throughput follow the schedule and the timers, which run at the
	// same speed however slow the box is.
	sl := newSlicer(nil)
	win := openWindow()
	sl.open()
	start := time.Now()
	for n, r := range sched {
		if n%openSlice == openSlice-1 {
			sl.close(0, openSlice)
		}
		// time.Sleep, late as it is (harness.gen_late_*): with the
		// generator's thread parked in nanosleep(2) instead, lateness fell
		// from 0.5 to 0.12 ms but the p50 spread 27% between runs, not 6%,
		// and CPU per request rose by a third.
		if wait := time.Until(start.Add(r.due)); wait > 0 {
			time.Sleep(wait)
		}
		k := w.ks[r.kernel]
		var a *argSet
		select {
		case a = <-w.free[r.kernel]:
		default:
			a = k.newArgs() // more than openArgSets of one kernel in flight
		}
		check := w.calls[r.kernel]%checkEvery == 0 || n == lastOf[r.kernel]
		w.calls[r.kernel]++
		due := start.Add(r.due)
		t0 := time.Now()
		p, err := w.srv.Submit(ctx, serve.Request{Tenant: tenants[r.tenant], Function: k.Fn, Args: a.args})
		if err != nil {
			failed.Add(1)
			continue
		}
		var submitted time.Time
		if tr != nil {
			submitted = time.Now()
		}
		wg.Add(1)
		// One goroutine per request in flight, as independent callers
		// would have; each writes only its own slots.
		go func() {
			defer wg.Done()
			resp := p.Wait()
			seen := time.Now()
			switch {
			case resp.Err != nil, resp.Steps != k.ref.steps:
				failed.Add(1)
			case check && !k.ref.matches(resp.Value, a):
				failed.Add(1)
			}
			if resp.Err == nil {
				lat[n] = int64(seen.Sub(due))
			}
			if tr != nil && resp.Err == nil {
				root := tr.add(spRequest, 0, int64(n), due, seen)
				tr.add(spGenLate, root, int64(n), due, t0)
				serveSpans(tr, root, int64(n), t0, submitted, seen, &resp)
				late[n] = int64(t0.Sub(due))
				detail[n] = serveSample{
					kernel: r.kernel, batched: int32(resp.Batched), submit: int64(submitted.Sub(t0)),
					wait: int64(resp.Wait), total: int64(resp.Total), observed: int64(seen.Sub(t0)),
				}
			}
			a.restore()
			select {
			case w.free[r.kernel] <- a:
			default: // an overflow set; let it go
			}
		}()
	}
	wg.Wait()
	sl.close(0, len(sched)%openSlice)
	s := &samples{lat: make([][]int64, len(w.ks)), attempted: int64(len(sched)), failed: failed.Load()}
	win.close(s)
	s.setTypical(sl)
	s.rps = float64(s.attempted) / s.wall.Seconds()
	if tr != nil {
		s.snap0, s.snap1 = snap0, w.srv.Snapshot()
	}
	for n, r := range sched {
		if lat[n] > 0 {
			s.lat[r.kernel] = append(s.lat[r.kernel], lat[n])
			if tr != nil {
				s.serve, s.genLate = append(s.serve, detail[n]), append(s.genLate, late[n])
			}
		}
	}
	return s, nil
}

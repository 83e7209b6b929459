package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
	"socrates/internal/cminor/serve"
)

// closedKernels are the four cheapest kernels (22–45 µs tuned): on
// them the server's fixed per-request path is as large a share of a
// request as it can be.
var closedKernels = []string{"axpy", "atax", "mvt", "trisolv"}

// closedClients is the number of closed-loop clients: one per vCPU of
// the box the gate was sized on. With a single client the p50 was
// bimodal from run to run.
const closedClients = 2

// closedSlice is how many requests a client sends between
// calibrations: about 12 ms of them.
const closedSlice = 256

// serveSample is what the harness keeps of one served request when
// tracing: the server's own account of it (Wait, Total, Batched) and
// the client's (how long Submit took, when the reply was seen).
type serveSample struct {
	kernel   uint8
	batched  int32
	submit   int64 // ns inside Server.Submit
	wait     int64 // Response.Wait
	total    int64 // Response.Total
	observed int64 // ns from Submit's start to the client seeing the reply
}

// hostKernels compiles each kernel and hosts it on srv, one tuner per
// kernel, returning the tuners in kernel order.
func hostKernels(srv *serve.Server, ks []*kernel, seed uint64) ([]*autotune.AutoTuner, error) {
	tuners := make([]*autotune.AutoTuner, len(ks))
	for i, k := range ks {
		f, err := cm.Parse(k.File, k.Src)
		if err != nil {
			return nil, err
		}
		prog, err := cm.Compile(f)
		if err != nil {
			return nil, err
		}
		if tuners[i], err = srv.Host(prog, autotune.WithSeed(seed)); err != nil {
			return nil, err
		}
	}
	return tuners, nil
}

// serveSpans records one served request under parent: the Submit call
// the harness timed, and the queue / exec / wake intervals cut from the
// server's own Wait and Total.
func serveSpans(tr *tracer, parent int32, req int64, t0, submitted, seen time.Time, resp *serve.Response) {
	if tr == nil {
		return
	}
	sp := tr.add(spServe, parent, req, t0, seen)
	dispatched, finished := t0.Add(resp.Wait), t0.Add(resp.Total)
	if finished.After(seen) {
		finished = seen
	}
	if dispatched.After(finished) {
		dispatched = finished
	}
	tr.add(spSubmit, sp, req, t0, submitted)
	tr.add(spQueue, sp, req, t0, dispatched)
	tr.add(spExec, sp, req, dispatched, finished)
	tr.add(spWake, sp, req, finished, seen)
}

// serveClosed is the closed loop of closedClients clients against a
// default server. Quotas are set but never bind, so the ledger runs and
// refuses nothing; with batch delay 0 and two clients every batch is
// of one.
type serveClosed struct {
	seed   uint64
	ks     []*kernel
	srv    *serve.Server
	tuners []*autotune.AutoTuner
	args   [closedClients][]*argSet
	calls  [closedClients][]int64
}

func (w *serveClosed) setUp() error {
	quota := serve.TenantQuota{MaxInFlight: 64, Rate: 1e6, StepRate: 1e12}
	srv, err := serve.New(serve.WithTenantQuota("t0", quota), serve.WithTenantQuota("t1", quota))
	if err != nil {
		return err
	}
	w.srv = srv
	if w.tuners, err = hostKernels(srv, w.ks, w.seed); err != nil {
		return err
	}
	srv.Start()
	for c := range w.args {
		w.args[c], w.calls[c] = make([]*argSet, len(w.ks)), make([]int64, len(w.ks))
		for i, k := range w.ks {
			w.args[c][i] = k.newArgs()
		}
	}
	for i, k := range w.ks {
		a := w.args[0][i]
		for c := 0; c < convergeCalls; c++ {
			a.restore()
			if _, err := srv.Do(context.Background(), serve.Request{Tenant: "t0", Function: k.Fn, Args: a.args}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *serveClosed) tearDown() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// client is one closed-loop client: its next request leaves when the
// previous reply is in.
func (w *serveClosed) client(c int, deadline time.Time, tr *tracer, out *samples, sl *slicer, done *atomic.Int64) {
	marks, tails := make([]int, len(w.ks)), make([][]int64, len(w.ks))
	closeSlice := func(n int) {
		for i := range marks {
			tails[i], marks[i] = out.lat[i][marks[i]:], len(out.lat[i])
		}
		sl.close(0, n, tails...)
	}
	sl.open()
	rng := newRand(w.seed, streamClosed+uint64(c))
	tenant := fmt.Sprintf("t%d", c)
	ctx := context.Background()
	last, lastOK := make([]cm.Value, len(w.ks)), make([]bool, len(w.ks))
	for n := int64(0); time.Now().Before(deadline); n++ {
		i := rng.IntN(len(w.ks))
		k, a := w.ks[i], w.args[c][i]
		req := n*closedClients + int64(c)
		root := tr.begin(spRequest, 0, req)
		sp := tr.begin(spRestore, root, req)
		a.restore()
		tr.end(sp)
		// Submit then Wait is Server.Do spelled out, so that Submit can
		// be timed on its own when tracing.
		t0 := time.Now()
		p, err := w.srv.Submit(ctx, serve.Request{Tenant: tenant, Function: k.Fn, Args: a.args})
		var submitted time.Time
		if tr != nil {
			submitted = time.Now()
		}
		var resp serve.Response
		if err == nil {
			resp = p.Wait()
			err = resp.Err
		}
		seen := time.Now()
		out.lat[i] = append(out.lat[i], int64(seen.Sub(t0)))
		out.attempted++
		switch {
		case err != nil, resp.Steps != k.ref.steps:
			out.failed++
		case w.calls[c][i]%checkEvery == 0:
			sp = tr.begin(spCheck, root, req)
			if !k.ref.matches(resp.Value, a) {
				out.failed++
			}
			tr.end(sp)
		}
		if tr != nil && err == nil {
			serveSpans(tr, root, req, t0, submitted, seen, &resp)
			out.serve = append(out.serve, serveSample{
				kernel: uint8(i), batched: int32(resp.Batched), submit: int64(submitted.Sub(t0)),
				wait: int64(resp.Wait), total: int64(resp.Total), observed: int64(seen.Sub(t0)),
			})
		}
		tr.end(root)
		last[i], lastOK[i] = resp.Value, err == nil
		w.calls[c][i]++
		done.Add(1)
		if n%closedSlice == closedSlice-1 {
			closeSlice(closedSlice)
		}
	}
	closeSlice(int(out.attempted % closedSlice))
	for i, k := range w.ks {
		if lastOK[i] && !k.ref.matches(last[i], w.args[c][i]) {
			out.failed++
		}
	}
}

func (w *serveClosed) measure(d time.Duration, tr *tracer) (*samples, error) {
	var per [closedClients]*samples
	for c := range per {
		per[c] = &samples{lat: make([][]int64, len(w.ks))}
		for i := range w.ks {
			per[c].lat[i] = make([]int64, 0, int(8000*d.Seconds()+1024))
		}
	}
	var snap0 serve.Snapshot
	if tr != nil {
		snap0 = w.srv.Snapshot()
	}
	var done atomic.Int64 // requests completed by all clients
	var slicers [closedClients]*slicer
	for c := range slicers {
		slicers[c] = newSlicer(&done)
	}
	win := openWindow()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.client(c, deadline, tr, per[c], slicers[c], &done)
		}()
	}
	wg.Wait()
	s := per[0]
	win.close(s)
	s.setTypical(slicers[:]...)
	if tr != nil {
		s.snap0, s.snap1 = snap0, w.srv.Snapshot()
	}
	for _, o := range per[1:] {
		for i := range s.lat {
			s.lat[i] = append(s.lat[i], o.lat[i]...)
		}
		s.attempted += o.attempted
		s.failed += o.failed
		s.serve = append(s.serve, o.serve...)
	}
	return s, nil
}

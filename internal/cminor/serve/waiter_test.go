package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// Tests of waiter-run dispatch (Pending.Wait, claim): a caller waiting
// on its request runs its own batch when that batch is the one a
// worker's scan would take next, and otherwise blocks as a plain
// waiter. The first three run on a fake clock against a server that
// claim sees as started but that has no worker goroutines, so every
// dispatch is one the test makes; `make serve-sim` runs the TestWaiter*
// tests and the live stress test ten times under -race.

// newClaimServer builds a fake-clock server over the probe program that
// Wait treats as running workers, without launching any.
func newClaimServer(t *testing.T, clk *clock.Fake, opts ...Option) *Server {
	t.Helper()
	s := newSimServer(t, clk, append(opts, WithWorkers(1))...)
	s.mu.Lock()
	s.started = true
	s.mu.Unlock()
	return s
}

// awaitLocked returns once cond, evaluated under s.mu, holds.
func awaitLocked(t *testing.T, s *Server, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		s.mu.Lock()
		ok := cond()
		s.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waited 10s for %s", what)
		}
	}
}

// claimAndRun is Wait's dispatch half: it reports whether p's waiter
// was handed its batch, and runs it if so.
func claimAndRun(s *Server, p *Pending) bool {
	g, now, _ := s.claim(p)
	if g == nil {
		return false
	}
	s.runGroup(g, now)
	s.wg.Done()
	return true
}

// TestWaiterClaimsOnlyFirstReadyGroup pins the scheduler core's rule:
// a waiter is handed its group only when that group is the first ready
// one in the queue — not while an older group is ready, not while its
// own is still inside the batch hold, and not once it has been
// dispatched.
func TestWaiterClaimsOnlyFirstReadyGroup(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newClaimServer(t, clk, WithMaxBatch(2), WithMaxBatchDelay(time.Millisecond))
	defer s.Close()

	small := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	big := Request{Tenant: "acme", Function: "probe", Args: simArgs(4096)}
	submit := func(req Request) *Pending {
		t.Helper()
		p, err := s.Submit(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := submit(small)
	if claimAndRun(s, a) {
		t.Fatal("a waiter was handed its batch inside the hold")
	}
	b := submit(big)
	clk.Advance(time.Millisecond)
	if claimAndRun(s, b) {
		t.Fatal("a waiter was handed its batch while an older one was ready")
	}
	if !claimAndRun(s, a) {
		t.Fatal("the first ready batch was not handed to its waiter")
	}
	if claimAndRun(s, a) {
		t.Fatal("a dispatched batch was handed out again")
	}
	if !claimAndRun(s, b) {
		t.Fatal("the second batch was not handed over once it was first")
	}
	for _, p := range []*Pending{a, b} {
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 1 {
			t.Fatalf("response: %+v", resp)
		}
	}
	// A full batch needs no hold: its newest member's waiter takes it.
	c, d := submit(small), submit(small)
	if !claimAndRun(s, d) {
		t.Fatal("a full batch was not handed to its waiter")
	}
	for _, p := range []*Pending{c, d} {
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 2 {
			t.Fatalf("response: %+v", resp)
		}
	}
	if snap := s.Snapshot(); snap.Batches != 3 || snap.Completed != 4 || snap.Queued != 0 {
		t.Fatalf("accounting: %s", snap.StatusLine())
	}
}

// TestWaiterShedInScanRunsNothing pins the one way a waiter's own scan
// can end its request: its deadline expired in the queue, so the scan
// sheds it. The batch it leaves behind is ready and first, but it is
// no longer the waiter's, so the waiter runs nothing and returns the
// shed; the batch's remaining rider gets it.
func TestWaiterShedInScanRunsNothing(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newClaimServer(t, clk, WithMaxBatch(4), WithMaxBatchDelay(10*time.Millisecond))
	defer s.Close()

	args := simArgs(16)
	short, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: args,
		Deadline: simStart().Add(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	rider, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	if claimAndRun(s, short) {
		t.Fatal("a waiter whose request was shed ran its former batch")
	}
	if resp := short.Wait(); !errors.Is(resp.Err, ErrShed) {
		t.Fatalf("want ErrShed, got %+v", resp)
	}
	if !claimAndRun(s, rider) {
		t.Fatal("the remaining rider was not handed the batch")
	}
	if resp := rider.Wait(); resp.Err != nil || resp.Batched != 1 {
		t.Fatalf("response: %+v", resp)
	}
}

// TestWaiterBlocksBehindOlderReadyGroup drives the same rule through
// Wait itself: with an older batch ready, the waiter blocks instead of
// running its own, and is released only by the dispatches of others.
// With no ready batch ahead, Wait (here via Do) serves the request on
// the calling goroutine, since this server has no worker to do it.
func TestWaiterBlocksBehindOlderReadyGroup(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newClaimServer(t, clk, WithMaxBatch(1))
	defer s.Close()

	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	older, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Response)
	go func() { got <- mine.Wait() }()
	select {
	case resp := <-got:
		t.Fatalf("the waiter did not block behind an older ready batch: %+v", resp)
	case <-time.After(20 * time.Millisecond):
	}
	if !s.Tick() {
		t.Fatal("the older batch was not queued")
	}
	if resp := older.Wait(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if !s.Tick() {
		t.Fatal("the waiter's batch was not left queued")
	}
	if resp := <-got; resp.Err != nil || resp.Batched != 1 {
		t.Fatalf("response: %+v", resp)
	}
	if resp, err := s.Do(context.Background(), req); err != nil || resp.Batched != 1 {
		t.Fatalf("Do with no worker and nothing ahead: %+v, %v", resp, err)
	}
}

// TestWaiterManualPumpDispatchesNothing pins WithWorkers(0): even after
// Start, Wait only waits, and a batch runs only when Tick runs it.
func TestWaiterManualPumpDispatchesNothing(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk)
	defer s.Close()
	s.Start()

	p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Response)
	go func() { got <- p.Wait() }()
	select {
	case resp := <-got:
		t.Fatalf("Wait dispatched under WithWorkers(0): %+v", resp)
	case <-time.After(20 * time.Millisecond):
	}
	if snap := s.Snapshot(); snap.Queued != 1 || snap.Batches != 0 {
		t.Fatalf("accounting before Tick: %s", snap.StatusLine())
	}
	if !s.Tick() {
		t.Fatal("the batch was not left queued")
	}
	if resp := <-got; resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

// TestWaiterRunStress submits and waits from many goroutines on a live
// server with one worker and with four, so batches are run by waiters
// and by workers at once. Each goroutine submits two requests of
// different sizes and waits on the later one first. Every response must
// be bit- and step-exact against a direct call, and the server's and
// tenants' ledgers must account for every submission.
func TestWaiterRunStress(t *testing.T) {
	prog := simProgram(t)
	sizes := []int{16, 64, 256}
	type ref struct {
		v     cm.Value
		steps int
	}
	want := map[int]ref{}
	in := prog.NewInstance()
	for _, n := range sizes {
		v, err := in.Call("probe", simArgs(n)...)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = ref{v, in.LastCallSteps()}
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, err := New(WithWorkers(workers), WithQueueDepth(64), WithMaxBatch(4))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Host(prog,
				autotune.WithGrid(autotune.VariantSpec{Opt: cm.O0}, autotune.VariantSpec{Opt: cm.O2}),
			); err != nil {
				t.Fatal(err)
			}
			s.Start()

			const (
				clients = 16
				pairs   = 30
			)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					tenant := fmt.Sprintf("t%d", c%3)
					for i := 0; i < pairs; i++ {
						n0, n1 := sizes[(c+i)%len(sizes)], sizes[(c+i+1)%len(sizes)]
						p0, err0 := s.Submit(nil, Request{Tenant: tenant, Function: "probe", Args: simArgs(n0)})
						p1, err1 := s.Submit(nil, Request{Tenant: tenant, Function: "probe", Args: simArgs(n1)})
						if err0 != nil || err1 != nil {
							t.Errorf("client %d pair %d: %v, %v", c, i, err0, err1)
							return
						}
						for _, w := range []struct {
							p *Pending
							n int
						}{{p1, n1}, {p0, n0}} {
							resp := w.p.Wait()
							if r := want[w.n]; resp.Err != nil || resp.Value != r.v || resp.Steps != r.steps {
								t.Errorf("client %d pair %d n=%d: got %v in %d steps (err %v), want %v in %d",
									c, i, w.n, resp.Value, resp.Steps, resp.Err, r.v, r.steps)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			s.Close()
			if t.Failed() {
				return
			}
			const total = clients * pairs * 2
			snap := s.Snapshot()
			if snap.Submitted != total || snap.Admitted != total || snap.Completed != total ||
				snap.Failed != 0 || snap.Shed() != 0 || snap.Rejected() != 0 {
				t.Fatalf("outcome accounting: %s", snap.StatusLine())
			}
			if snap.Queued != 0 || snap.Running != 0 || snap.BatchedCalls != total {
				t.Fatalf("work accounting: queued %d running %d batched calls %d",
					snap.Queued, snap.Running, snap.BatchedCalls)
			}
			var submitted, completed int64
			for _, ts := range snap.Tenants {
				if ts.InFlight != 0 {
					t.Fatalf("tenant %q left %d in flight", ts.Tenant, ts.InFlight)
				}
				submitted += ts.Submitted
				completed += ts.Completed
			}
			if submitted != total || completed != total {
				t.Fatalf("tenant ledgers: submitted %d completed %d, want %d", submitted, completed, total)
			}
		})
	}
}

// TestDoAllocations pins the cost of a served call on a started server
// once its site has converged: the request's entry is all it allocates.
// The batch it opens lives in the entry, Do's Wait runs that batch
// itself and so never makes a done channel, and a Background context
// arms no cancellation watcher in the engine.
func TestDoAllocations(t *testing.T) {
	s := newLiveServer(t)
	s.Start()
	defer s.Close()
	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := s.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("a served call allocates %v times, want at most 1", n)
	}
}

// TestSubmitWaitAllocations pins the same for Submit + Wait when the
// waiter runs its own batch: the entry, and no done channel.
func TestSubmitWaitAllocations(t *testing.T) {
	s := newClaimServer(t, clock.NewFake(simStart()))
	defer s.Close()
	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	call := func() {
		p, err := s.Submit(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp := p.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	for i := 0; i < 20; i++ {
		call()
	}
	if n := testing.AllocsPerRun(200, call); n > 1 {
		t.Fatalf("a waiter-run request allocates %v times, want at most 1", n)
	}
}

// countingClock counts the reads of the clock it wraps.
type countingClock struct {
	clock.Clock
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Clock.Now()
}

// TestWaiterRunReadsClockThrice pins one clock read per dispatch: a
// waiter-run request reads the server's clock at Submit, at claim
// (whose reading stamps the dispatch) and at completion.
func TestWaiterRunReadsClockThrice(t *testing.T) {
	clk := clock.NewFake(simStart())
	cc := &countingClock{Clock: clk}
	s := newClaimServer(t, clk, WithClock(cc))
	defer s.Close()
	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	serve := func() {
		t.Helper()
		p, err := s.Submit(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 1 {
			t.Fatalf("response: %+v", resp)
		}
	}
	serve() // the tenant's first request also reads the clock for its buckets
	cc.reads = 0
	serve()
	if cc.reads != 3 {
		t.Fatalf("a waiter-run request read the clock %d times, want 3", cc.reads)
	}
}

// TestWaiterDoneChannel pins Done's contract, whose channel is made on
// demand: one taken before completion closes when the request
// completes, one taken after is already closed, and so is the Done of
// a request shed in the queue, whether taken before the shed or after.
func TestWaiterDoneChannel(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk)
	defer s.Close()
	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	submit := func(req Request) *Pending {
		t.Helper()
		p, err := s.Submit(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}

	p := submit(req)
	before := p.Done()
	if closed(before) {
		t.Fatal("Done is closed before the request ran")
	}
	if !s.Tick() {
		t.Fatal("the request was not queued")
	}
	if !closed(before) {
		t.Fatal("a Done taken before completion did not close on completion")
	}
	p = submit(req)
	if !s.Tick() {
		t.Fatal("the request was not queued")
	}
	if !closed(p.Done()) {
		t.Fatal("a Done taken after completion is not closed")
	}

	short := req
	short.Deadline = clk.Now().Add(time.Millisecond)
	early, late := submit(short), submit(short)
	earlyDone := early.Done()
	clk.Advance(time.Millisecond)
	if s.Tick() {
		t.Fatal("an expired request ran")
	}
	if !closed(earlyDone) || !closed(late.Done()) {
		t.Fatal("the Done of a request shed in the queue is not closed")
	}
	for _, p := range []*Pending{early, late} {
		if resp := p.Wait(); !errors.Is(resp.Err, ErrShed) {
			t.Fatalf("want ErrShed, got %+v", resp)
		}
	}
}

// TestWaiterWaitTwiceSameResponse: a second Wait, whether the first ran
// the batch itself or blocked (made its done channel) until a Tick ran
// it, returns the same Response, stamped with the clock reading that
// dispatched it.
func TestWaiterWaitTwiceSameResponse(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newClaimServer(t, clk, WithMaxBatch(1))
	defer s.Close()
	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	older, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Millisecond)
	got := make(chan Response)
	go func() { got <- mine.Wait() }()
	awaitLocked(t, s, "the waiter behind an older ready batch to block", func() bool { return mine.done != nil })
	first := older.Wait() // runs older's batch itself
	if !s.Tick() {
		t.Fatal("the blocked waiter's batch was not left queued")
	}
	blocked := <-got
	for _, w := range []struct {
		p    *Pending
		want Response
	}{{older, first}, {mine, blocked}} {
		if w.want.Err != nil {
			t.Fatal(w.want.Err)
		}
		if again := w.p.Wait(); !reflect.DeepEqual(again, w.want) {
			t.Fatalf("a second Wait returned %+v, the first %+v", again, w.want)
		}
	}
	if blocked.Wait != time.Millisecond {
		t.Fatalf("the blocked request waited %v on the server clock, want 1ms", blocked.Wait)
	}
}

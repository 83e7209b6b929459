package serve

import (
	"context"
	"sync"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// Tests of how live workers wait out a batch hold (nextGroup): the
// single timekeeper, who is woken for what, and the HoldLate gauge.
// They assert on counts and on fake clocks, or on margins of seconds,
// so they run under the race detector; the test of the hold's real
// accuracy is in timing_test.go, which does not.

// newLiveServer builds a server over the probe program with real
// workers; Start is left to the caller.
func newLiveServer(t *testing.T, opts ...Option) *Server {
	t.Helper()
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Host(simProgram(t),
		autotune.WithGrid(autotune.VariantSpec{Opt: cm.O2}),
	); err != nil {
		t.Fatal(err)
	}
	return s
}

// awaitIdle returns once parked workers wait on the cond and, if
// keeping, another is asleep as the timekeeper.
func awaitIdle(t *testing.T, s *Server, parked int, keeping bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		p, k := s.parked, s.keeping
		s.mu.Unlock()
		if p == parked && k == keeping {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 10s: %d workers parked, timekeeper %v; want %d, %v", p, k, parked, keeping)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// jumpClock is a Clock for live workers that stands still until armed,
// then jumps once after a set number of further reads: it places a
// clock step between two particular reads of the code under test.
type jumpClock struct {
	mu    sync.Mutex
	t     time.Time
	reads int // reads left before the jump; 0 = not armed
	jump  time.Duration
}

func (c *jumpClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.t
	if c.reads > 0 {
		if c.reads--; c.reads == 0 {
			c.t = c.t.Add(c.jump)
		}
	}
	return now
}

func (c *jumpClock) jumpAfter(reads int, d time.Duration) {
	c.mu.Lock()
	c.reads, c.jump = reads, d
	c.mu.Unlock()
}

// TestRipenBetweenClockReadsRescans pins the worker's second clock
// read: a batch that is unripe at the queue scan's read and ripe at the
// next one is dispatched by an immediate second scan. (The worker used
// to sleep a full millisecond on finding the remaining hold <= 0.)
func TestRipenBetweenClockReadsRescans(t *testing.T) {
	const delay = 100 * time.Microsecond
	clk := &jumpClock{t: simStart()}
	s := newLiveServer(t, WithWorkers(1), WithClock(clk), WithMaxBatchDelay(delay))
	defer s.Close()
	p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	// The worker's scan reads the born time, 100µs before the ripen
	// time; every read after it is 50µs past it.
	clk.jumpAfter(1, delay+50*time.Microsecond)
	s.Start()
	resp := p.Wait()
	if resp.Err != nil || resp.Batched != 1 {
		t.Fatalf("response: %+v", resp)
	}
	if want := delay + 50*time.Microsecond; resp.Wait != want {
		t.Fatalf("Wait = %v on the server clock, want %v", resp.Wait, want)
	}
	s.mu.Lock()
	holds := s.holds
	s.mu.Unlock()
	if holds != 0 {
		t.Fatalf("the worker slept %d times for a batch that was already ripe", holds)
	}
}

// TestHeldBatchWakesOneWorker counts wake-ups for one held batch with
// four idle workers: the lone request that opens the batch wakes one
// follower, which becomes the timekeeper; its two joiners wake nobody,
// and nobody is woken when the batch is done. (Before the timekeeper,
// every worker armed its own timer for the hold, every joiner signalled
// one more and every finished batch another.)
func TestHeldBatchWakesOneWorker(t *testing.T) {
	const workers = 4
	s := newLiveServer(t, WithWorkers(workers), WithMaxBatchDelay(50*time.Millisecond))
	defer s.Close()
	s.Start()
	awaitIdle(t, s, workers, false)

	var pend []*Pending
	for i := 0; i < 3; i++ {
		p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for _, p := range pend {
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 3 {
			t.Fatalf("response: %+v", resp)
		}
	}
	awaitIdle(t, s, workers, false)
	s.mu.Lock()
	wakes, holds := s.wakes, s.holds
	s.mu.Unlock()
	if wakes != 1 {
		t.Errorf("%d worker wake-ups for one held batch, want 1", wakes)
	}
	// All but the last millisecond on the runtime timer, the rest in
	// one or (the timer being late) no precise sleep.
	if holds < 1 || holds > 2 {
		t.Errorf("the timekeeper slept %d times for one 50ms hold, want 1 or 2", holds)
	}
}

// TestFilledBatchSkipsHold: a batch that reaches maxBatch during its
// hold is dispatched then, not when the hold ends — by a parked
// follower when there is one, and with a single worker by cutting the
// timekeeper's own sleep short.
func TestFilledBatchSkipsHold(t *testing.T) {
	const hold = 20 * time.Second
	for _, workers := range []int{1, 4} {
		s := newLiveServer(t, WithWorkers(workers), WithMaxBatch(4), WithMaxBatchDelay(hold))
		s.Start()
		awaitIdle(t, s, workers, false)
		start := time.Now()
		var pend []*Pending
		for i := 0; i < 4; i++ {
			if i == 3 {
				// The timekeeper is asleep when the batch fills.
				awaitIdle(t, s, workers-1, true)
			}
			p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
			if err != nil {
				t.Fatal(err)
			}
			pend = append(pend, p)
		}
		for _, p := range pend {
			if resp := p.Wait(); resp.Err != nil || resp.Batched != 4 {
				t.Fatalf("workers=%d: response: %+v", workers, resp)
			}
		}
		if took := time.Since(start); took > hold/2 {
			t.Errorf("workers=%d: a full batch took %v under a %v hold", workers, took, hold)
		}
		if late := s.Snapshot().HoldLate; late != 0 {
			t.Errorf("workers=%d: HoldLate = %v after a batch that filled", workers, late)
		}
		s.Close()
	}
}

// TestCloseCutsHoldShort: Close flushes a held batch through a single
// worker that is asleep as its timekeeper.
func TestCloseCutsHoldShort(t *testing.T) {
	const hold = 20 * time.Second
	s := newLiveServer(t, WithWorkers(1), WithMaxBatchDelay(hold))
	s.Start()
	awaitIdle(t, s, 1, false)
	start := time.Now()
	p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	awaitIdle(t, s, 0, true)
	s.Close()
	select {
	case <-p.Done():
	default:
		t.Fatal("Close returned with the held request unserved")
	}
	if resp := p.Wait(); resp.Err != nil || resp.Batched != 1 {
		t.Fatalf("response: %+v", resp)
	}
	if took := time.Since(start); took > hold/2 {
		t.Errorf("Close took %v to flush a %v hold", took, hold)
	}
	if late := s.Snapshot().HoldLate; late != 0 {
		t.Errorf("HoldLate = %v after a batch flushed by Close", late)
	}
}

// TestHoldLateGauge drives Snapshot.HoldLate on the fake clock: a held
// batch ticked exactly at its ripen time reads 0, one ticked later
// reads how much later, and a batch that fills leaves the gauge alone.
func TestHoldLateGauge(t *testing.T) {
	const delay = 300 * time.Microsecond
	for _, late := range []time.Duration{0, 70 * time.Microsecond} {
		clk := clock.NewFake(simStart())
		s := newSimServer(t, clk, WithMaxBatch(2), WithMaxBatchDelay(delay))
		submit := func() *Pending {
			t.Helper()
			p, err := s.Submit(context.Background(), Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		p := submit()
		clk.Advance(delay - time.Nanosecond)
		if s.Tick() {
			t.Fatal("dispatched inside the hold")
		}
		clk.Advance(time.Nanosecond + late)
		if !s.Tick() {
			t.Fatal("ripe batch not dispatched")
		}
		if resp := p.Wait(); resp.Err != nil || resp.Wait != delay+late {
			t.Fatalf("late %v: response: %+v", late, resp)
		}
		if got := s.Snapshot().HoldLate; got != late {
			t.Fatalf("HoldLate = %v, want %v", got, late)
		}
		// A batch that fills is dispatched at once and is not a sample,
		// however long after that it is ticked.
		submit()
		p = submit()
		clk.Advance(5 * delay)
		if !s.Tick() {
			t.Fatal("full batch not dispatched")
		}
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 2 {
			t.Fatalf("response: %+v", resp)
		}
		if got := s.Snapshot().HoldLate; got != late {
			t.Fatalf("HoldLate = %v after a full batch, want %v still", got, late)
		}
		s.Close()
	}
}

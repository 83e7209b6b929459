package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// Tests of the wake rule (wakeOneLocked): a parked worker is woken only
// while fewer workers are on their way to the queue (s.waking) than it
// holds batches. The first two run on a claim server whose parked count
// is set by hand, so every reservation is one the test can see; the
// last two run on live workers. `make serve-sim` runs the TestWake*
// tests ten times under -race.

// setParked sets how many workers a claim server (which launches none)
// believes are parked.
func setParked(s *Server, n int) {
	s.mu.Lock()
	s.parked = n
	s.mu.Unlock()
}

// wakeState reads the parked and waking counts under s.mu.
func wakeState(s *Server) (parked, waking int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parked, s.waking
}

// TestWakeSkippedWhileWorkerOnItsWay is serve_closed's pattern: r1's
// Submit wakes a worker, r1's own waiter claims the batch before that
// worker arrives, and r2's Submit then wakes nobody, because the worker
// still on its way scans the queue r2 joins.
func TestWakeSkippedWhileWorkerOnItsWay(t *testing.T) {
	s := newClaimServer(t, clock.NewFake(simStart()))
	defer s.Close()
	setParked(s, 4)
	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}

	r1, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if p, w := wakeState(s); p != 3 || w != 1 {
		t.Fatalf("after r1: parked %d, waking %d; want 3, 1", p, w)
	}
	if !claimAndRun(s, r1) {
		t.Fatal("r1's waiter was not handed its batch")
	}
	r2, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if p, w := wakeState(s); p != 3 || w != 1 {
		t.Fatalf("after r2: parked %d, waking %d; want 3, 1 (no second wake)", p, w)
	}
	if !claimAndRun(s, r2) {
		t.Fatal("r2's waiter was not handed its batch")
	}
	for _, p := range []*Pending{r1, r2} {
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 1 {
			t.Fatalf("response: %+v", resp)
		}
	}
}

// TestWakeBurstWakesOnePerBatch: ready batches submitted with nobody
// claiming them wake one worker each until the parked ones run out,
// min(parked, batches) in all, at once rather than one per hand-over.
// Distinct size classes open distinct batches.
func TestWakeBurstWakesOnePerBatch(t *testing.T) {
	for _, parked := range []int{4, 2} {
		s := newClaimServer(t, clock.NewFake(simStart()))
		setParked(s, parked)
		for _, n := range []int{16, 64, 4096} {
			if _, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(n)}); err != nil {
				t.Fatal(err)
			}
		}
		want := min(parked, 3)
		if p, w := wakeState(s); p != parked-want || w != want {
			t.Errorf("parked %d, three batches: parked %d, waking %d; want %d, %d",
				parked, p, w, parked-want, want)
		}
		s.Close()
	}
}

// TestWakeLiveFireAndForget submits from four goroutines over two
// functions and several size classes without waiting, so workers alone
// serve every batch: each request completes, and once the workers are
// idle none is counted on its way and all are parked.
func TestWakeLiveFireAndForget(t *testing.T) {
	const workers = 4
	s := newLiveServer(t, WithWorkers(workers))
	defer s.Close()
	s.Start()
	reqs := []Request{
		{Tenant: "acme", Function: "probe", Args: simArgs(16)},
		{Tenant: "acme", Function: "probe", Args: simArgs(64)},
		{Tenant: "beta", Function: "probe", Args: simArgs(256)},
		{Tenant: "beta", Function: "sq", Args: []any{cm.FloatV(1.5)}},
	}
	const clients, each = 4, 16
	pend := make([][]*Pending, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p, err := s.Submit(nil, reqs[(c+i)%len(reqs)])
				if err != nil {
					t.Errorf("client %d request %d: %v", c, i, err)
					return
				}
				pend[c] = append(pend[c], p)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	timeout := time.After(10 * time.Second)
	for c, ps := range pend {
		for i, p := range ps {
			select {
			case <-p.Done():
			case <-timeout:
				t.Fatalf("client %d request %d not done after 10s", c, i)
			}
			if resp := p.Wait(); resp.Err != nil {
				t.Fatalf("client %d request %d: %v", c, i, resp.Err)
			}
		}
	}
	awaitLocked(t, s, fmt.Sprintf("all %d workers parked, none waking", workers), func() bool {
		return s.waking == 0 && s.parked == workers
	})
	if snap := s.Snapshot(); snap.Completed != clients*each || snap.Queued != 0 {
		t.Fatalf("accounting: %s", snap.StatusLine())
	}
}

// TestWakeCloseWithWorkerOnItsWay: Close serves the queue and returns
// while a worker's wake is reserved but its Signal not yet sent, the
// window Submit's signal after unlocking opens. The request queued
// behind that reservation wakes nobody, and Close's broadcast is what
// gets the worker to it; the late Signal then finds nobody to wake.
func TestWakeCloseWithWorkerOnItsWay(t *testing.T) {
	s := newLiveServer(t, WithWorkers(1))
	s.Start()
	awaitLocked(t, s, "the worker to park", func() bool { return s.parked == 1 })
	s.mu.Lock()
	s.parked--
	s.waking++
	s.mu.Unlock()

	p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	if pk, w := wakeState(s); pk != 0 || w != 1 {
		t.Fatalf("after Submit: parked %d, waking %d; want 0, 1", pk, w)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return within 10s")
	}
	s.cond.Signal()
	if resp := p.Wait(); resp.Err != nil || resp.Batched != 1 {
		t.Fatalf("response: %+v", resp)
	}
	if pk, w := wakeState(s); pk != 0 || w != 0 {
		t.Fatalf("after Close: parked %d, waking %d; want 0, 0", pk, w)
	}
	if snap := s.Snapshot(); snap.Completed != 1 || snap.Queued != 0 {
		t.Fatalf("accounting: %s", snap.StatusLine())
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// TestServerLiveStress runs the production configuration — real wall
// clock, real workers, batching on — under 12 client goroutines mixing
// tenants and input classes, and holds the server to the engine's
// bit-exactness bar: every response must equal the value a direct
// Instance.Call produces for the same input. CI runs this under -race;
// it doubles as the scheduler's lock-discipline test.
func TestServerLiveStress(t *testing.T) {
	prog := simProgram(t)
	sizes := []int{16, 64, 256}
	want := map[int]cm.Value{}
	ref := prog.NewInstance()
	for _, n := range sizes {
		v, err := ref.Call("probe", simArgs(n)...)
		if err != nil {
			t.Fatal(err)
		}
		want[n] = v
	}

	s, err := New(
		WithWorkers(4),
		WithQueueDepth(64),
		WithMaxBatch(4),
		WithMaxBatchDelay(200*time.Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Host(prog,
		autotune.WithGrid(
			autotune.VariantSpec{Opt: cm.O0},
			autotune.VariantSpec{Opt: cm.O2},
			autotune.VariantSpec{Opt: cm.O3},
		),
	); err != nil {
		t.Fatal(err)
	}
	s.Start()

	const (
		clients = 12
		perEach = 40
	)
	// A lost wake fails the test and names the client instead of hanging
	// it: each call has 10 s, as TestWakeLiveFireAndForget gives each
	// Done. A call past it reports itself on stuck.
	stuck := make(chan string, clients)
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("g%d", g%5) // tenants shared across goroutines
			for i := 0; i < perEach; i++ {
				n := sizes[(g+i)%len(sizes)]
				late := time.AfterFunc(10*time.Second, func() {
					stuck <- fmt.Sprintf("g%d call %d (n=%d)", g, i, n)
				})
				resp, err := s.Do(context.Background(), Request{
					Tenant: tenant, Function: "probe", Args: simArgs(n),
				})
				late.Stop()
				if err != nil {
					t.Errorf("g%d call %d: %v", g, i, err)
					return
				}
				if resp.Value != want[n] {
					t.Errorf("g%d call %d: n=%d got %v, want %v (batched %d)",
						g, i, n, resp.Value, want[n], resp.Batched)
					return
				}
				if resp.Steps == 0 || resp.Batched < 1 {
					t.Errorf("g%d call %d: bad accounting %+v", g, i, resp)
					return
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case who := <-stuck:
		t.Fatalf("%s not done after 10s", who)
	}
	s.Close()
	if t.Failed() {
		return
	}

	const total = clients * perEach
	snap := s.Snapshot()
	if snap.Completed != total || snap.Failed != 0 || snap.Shed() != 0 || snap.Rejected() != 0 {
		t.Fatalf("outcome accounting: %s", snap.StatusLine())
	}
	if snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("work left behind: queued %d running %d", snap.Queued, snap.Running)
	}
	if snap.BatchedCalls != total || snap.Batches > total {
		t.Fatalf("batch accounting: calls %d in %d batches", snap.BatchedCalls, snap.Batches)
	}
	var tenantDone, tenantSteps int64
	for _, ts := range snap.Tenants {
		tenantDone += ts.Completed
		tenantSteps += ts.Steps
	}
	if tenantDone != total || tenantSteps == 0 {
		t.Fatalf("tenant ledgers: completed %d steps %d", tenantDone, tenantSteps)
	}

	// The server is drained and closed: admission refuses.
	if _, err := s.Submit(nil, Request{Tenant: "late", Function: "probe", Args: simArgs(16)}); err == nil {
		t.Fatal("closed server admitted a request")
	}
}

// TestDeadlineAbortsRunning pins the wall-clock leg of shedding:
// under the production clock, Request.Deadline is armed as a context
// deadline, so a kernel still running when it expires is aborted
// through the engine's zero-cost cancellation checkpoint and accounted
// a running shed — the request does not run to completion.
func TestDeadlineAbortsRunning(t *testing.T) {
	const spinSrc = `
double spin(int reps, int n, double a[n]) {
  int r;
  int i;
  double s;
  s = 0.0;
  for (r = 0; r < reps; r++) {
    for (i = 0; i < n; i++) {
      s = s + a[i] * a[i];
    }
  }
  return s;
}
`
	prog, err := cm.Compile(cm.MustParse("spin.c", spinSrc))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(WithWorkers(0), WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Host(prog,
		autotune.WithGrid(autotune.VariantSpec{Opt: cm.O2}),
	); err != nil {
		t.Fatal(err)
	}
	// ~80M inner iterations: hundreds of ms uninterrupted, aborted
	// after 30ms by the armed deadline.
	a := cm.NewArray(4096)
	p, err := s.Submit(nil, Request{
		Tenant: "acme", Function: "spin",
		Args:     []any{cm.IntV(20000), cm.IntV(4096), a},
		Deadline: time.Now().Add(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if !s.Tick() {
		t.Fatal("no dispatch")
	}
	resp := p.Wait()
	if !errors.Is(resp.Err, ErrShed) {
		t.Fatalf("want ErrShed from mid-kernel deadline, got %v", resp.Err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("abort took %v; the deadline did not cut the kernel short", elapsed)
	}
	snap := s.Snapshot()
	if snap.ShedRunning != 1 || snap.Completed != 0 || snap.Failed != 0 {
		t.Fatalf("accounting: %s", snap.StatusLine())
	}
}

// TestBadArgumentIsAnErrorResponse sends a started server a request the
// engine's entry binder rejects — a nil *Value for a scalar parameter —
// and requires an error Response, not a dead worker, then a correct
// answer to the next, valid request.
func TestBadArgumentIsAnErrorResponse(t *testing.T) {
	s := newLiveServer(t)
	s.Start()
	defer s.Close()
	resp, err := s.Do(context.Background(), Request{
		Tenant: "t0", Function: "probe", Args: []any{(*cm.Value)(nil), cm.NewArray(4)},
	})
	if err == nil || resp.Err != err || !strings.Contains(err.Error(), "cannot bind nil *cminor.Value") {
		t.Fatalf("nil *Value argument: resp.Err = %v, err = %v; want the binder's error", resp.Err, err)
	}
	want, err := simProgram(t).NewInstance().Call("probe", simArgs(16)...)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = s.Do(context.Background(), Request{Tenant: "t0", Function: "probe", Args: simArgs(16)})
	if err != nil || resp.Value != want {
		t.Fatalf("valid request after a rejected one: %v, %v; want %v", resp.Value, err, want)
	}
}

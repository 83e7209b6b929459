package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// Deterministic scheduler simulations: the server runs with
// WithWorkers(0) and an injected fake clock, so every policy decision —
// admission order, quota refill, batch ripening, shed points — is
// driven call-by-call with Tick and asserted exactly. The routed
// program is a real kernel, so each simulated dispatch still exercises
// the full engine path (pool checkout, variant selection, execution,
// step accounting).

// simSrc mirrors the autotuner simulations' probe kernel: cheap,
// stateless, deterministic step count.
const simSrc = `
double sq(double x) { return x * x; }
double probe(int n, double a[n]) {
  int i;
  double s;
  s = 0.0;
  for (i = 0; i < n; i++) {
    s = s + sq(a[i]);
  }
  return s;
}
`

func simProgram(t testing.TB) *cm.Program {
	t.Helper()
	prog, err := cm.Compile(cm.MustParse("sim.c", simSrc))
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func simArgs(n int) []any {
	a := cm.NewArray(n)
	for i := range a.Data {
		a.Data[i] = float64(i%5) * 0.5
	}
	return []any{cm.IntV(int64(n)), a}
}

func simStart() time.Time {
	return time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
}

// newSimServer builds a manual-pump server over the probe program.
func newSimServer(t *testing.T, clk *clock.Fake, opts ...Option) *Server {
	t.Helper()
	opts = append([]Option{WithWorkers(0), WithClock(clk)}, opts...)
	s, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Host(simProgram(t),
		autotune.WithGrid(autotune.VariantSpec{Opt: cm.O1}, autotune.VariantSpec{Opt: cm.O2}),
		autotune.WithClock(clk),
	); err != nil {
		t.Fatal(err)
	}
	return s
}

func drain(s *Server) int {
	n := 0
	for s.Tick() {
		n++
	}
	return n
}

// TestQueueFullRejection pins the bounded-queue contract: the
// queueDepth-plus-first submission is rejected with ErrQueueFull, and
// draining the queue restores admission.
func TestQueueFullRejection(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithQueueDepth(2), WithMaxBatch(1))
	defer s.Close()

	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	p1, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(nil, req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: want ErrQueueFull, got %v", err)
	}
	snap := s.Snapshot()
	if snap.Queued != 2 || snap.RejectedFull != 1 || snap.Admitted != 2 || snap.Submitted != 3 {
		t.Fatalf("snapshot after overflow: %+v", snap)
	}
	if n := drain(s); n != 2 {
		t.Fatalf("drained %d batches, want 2", n)
	}
	if resp := p1.Wait(); resp.Err != nil {
		t.Fatalf("queued request failed: %v", resp.Err)
	}
	// Space again: admission recovers.
	if _, err := s.Submit(nil, req); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
	drain(s)
	snap = s.Snapshot()
	if snap.Completed != 3 || snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("final snapshot: %+v", snap)
	}
}

// TestSubmissionConservation pins the admission ledger's conservation
// law across every way a submission can end: after each step of a mix
// of unknown-function, queue-full and admitted submissions, the server
// and every tenant satisfy submitted = admitted + rejected. An unhosted
// function used to count a submission and nothing else.
func TestSubmissionConservation(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithQueueDepth(2), WithMaxBatch(1))
	defer s.Close()

	conserved := func(step string) Snapshot {
		t.Helper()
		snap := s.Snapshot()
		if snap.Submitted != snap.Admitted+snap.Rejected() {
			t.Fatalf("%s: server submitted %d != admitted %d + rejected %d",
				step, snap.Submitted, snap.Admitted, snap.Rejected())
		}
		var submitted int64
		for _, ts := range snap.Tenants {
			if ts.Submitted != ts.Admitted+ts.Rejected {
				t.Fatalf("%s: tenant %q submitted %d != admitted %d + rejected %d",
					step, ts.Tenant, ts.Submitted, ts.Admitted, ts.Rejected)
			}
			submitted += ts.Submitted
		}
		if submitted != snap.Submitted {
			t.Fatalf("%s: tenants saw %d submissions, the server %d", step, submitted, snap.Submitted)
		}
		return snap
	}
	good := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	steps := []struct {
		name string
		req  Request
		want error // nil: admitted
	}{
		{"unknown first", Request{Tenant: "acme", Function: "nope", Args: simArgs(16)}, ErrUnknownFunction},
		{"admit 1", good, nil},
		{"unknown, other tenant", Request{Tenant: "zeta", Function: "nope"}, ErrUnknownFunction},
		{"admit 2", good, nil},
		{"queue full", good, ErrQueueFull},
		{"unknown while full", Request{Tenant: "acme", Function: "nope"}, ErrUnknownFunction},
	}
	for _, st := range steps {
		if _, err := s.Submit(nil, st.req); !errors.Is(err, st.want) {
			t.Fatalf("%s: want %v, got %v", st.name, st.want, err)
		}
		conserved(st.name)
	}
	drain(s)
	snap := conserved("drained")
	if snap.RejectedUnknown != 3 || snap.RejectedFull != 1 || snap.Admitted != 2 || snap.Completed != 2 {
		t.Fatalf("final ledger: %+v", snap)
	}
}

// TestTenantRateQuota pins request-rate token buckets: Burst admissions
// pass, the next is rejected with ErrTenantRate, and advancing the
// clock refills exactly rate*dt tokens.
func TestTenantRateQuota(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(1),
		WithTenantQuota("metered", TenantQuota{Rate: 2, Burst: 2}))
	defer s.Close()

	req := Request{Tenant: "metered", Function: "probe", Args: simArgs(16)}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(nil, req); err != nil {
			t.Fatalf("burst submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrTenantRate) {
		t.Fatalf("want ErrTenantRate, got %v", err)
	}
	// Other tenants are unaffected.
	if _, err := s.Submit(nil, Request{Tenant: "other", Function: "probe", Args: simArgs(16)}); err != nil {
		t.Fatalf("other tenant: %v", err)
	}
	// 250ms at 2 tokens/s = half a token: still rejected.
	clk.Advance(250 * time.Millisecond)
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrTenantRate) {
		t.Fatalf("after 250ms: want ErrTenantRate, got %v", err)
	}
	// Another 250ms completes one token: admitted, and the bucket is
	// empty again.
	clk.Advance(250 * time.Millisecond)
	if _, err := s.Submit(nil, req); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrTenantRate) {
		t.Fatalf("bucket should be empty again, got %v", err)
	}
	drain(s)
	snap := s.Snapshot()
	if snap.RejectedRate != 3 {
		t.Fatalf("RejectedRate = %d, want 3", snap.RejectedRate)
	}
	for _, ts := range snap.Tenants {
		if ts.Tenant == "metered" && (ts.Admitted != 3 || ts.Rejected != 3) {
			t.Fatalf("metered tenant ledger: %+v", ts)
		}
	}
}

// TestTenantInFlightQuota pins the in-flight cap: queued-plus-running
// requests above MaxInFlight are rejected until completions free slots.
func TestTenantInFlightQuota(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(1),
		WithTenantQuota("capped", TenantQuota{MaxInFlight: 2}))
	defer s.Close()

	req := Request{Tenant: "capped", Function: "probe", Args: simArgs(16)}
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(nil, req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrTenantInFlight) {
		t.Fatalf("want ErrTenantInFlight, got %v", err)
	}
	if !s.Tick() {
		t.Fatal("no batch ready")
	}
	// One completion freed one slot.
	if _, err := s.Submit(nil, req); err != nil {
		t.Fatalf("after completion: %v", err)
	}
	drain(s)
	if snap := s.Snapshot(); snap.RejectedInFlight != 1 || snap.Completed != 3 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestTenantStepBudget pins the post-paid step budget: any positive
// credit admits, the completed call's deterministic step count is
// debited (driving the balance negative), and the tenant is locked out
// until the refill catches back up above zero.
func TestTenantStepBudget(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(1),
		WithTenantQuota("steppy", TenantQuota{StepRate: 100, StepBurst: 10}))
	defer s.Close()

	req := Request{Tenant: "steppy", Function: "probe", Args: simArgs(16)}
	p, err := s.Submit(nil, req)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	drain(s)
	resp := p.Wait()
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Steps <= 10 {
		t.Fatalf("probe(16) ran %d steps; the scenario needs it to overdraw the 10-step burst", resp.Steps)
	}
	// The balance is now 10 - Steps < 0: post-paid overdraft.
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrTenantSteps) {
		t.Fatalf("want ErrTenantSteps after overdraft, got %v", err)
	}
	// Refill at 100 steps/s. Just before the balance crosses zero the
	// tenant stays locked out; just after, it admits again.
	debt := float64(resp.Steps) - 10
	notYet := time.Duration(debt/100*float64(time.Second)) - time.Millisecond
	clk.Advance(notYet)
	if _, err := s.Submit(nil, req); !errors.Is(err, ErrTenantSteps) {
		t.Fatalf("still in debt: want ErrTenantSteps, got %v", err)
	}
	clk.Advance(2 * time.Millisecond)
	p2, err := s.Submit(nil, req)
	if err != nil {
		t.Fatalf("after refill: %v", err)
	}
	drain(s)
	if resp := p2.Wait(); resp.Err != nil {
		t.Fatal(resp.Err)
	}
	snap := s.Snapshot()
	if snap.RejectedSteps != 2 || snap.Completed != 2 {
		t.Fatalf("snapshot: %+v", snap)
	}
	var ts TenantSnapshot
	for _, cand := range snap.Tenants {
		if cand.Tenant == "steppy" {
			ts = cand
		}
	}
	if ts.Steps != int64(2*resp.Steps) {
		t.Fatalf("tenant step ledger %d, want %d", ts.Steps, 2*resp.Steps)
	}
}

// TestBatchCoalescing pins the batching contract: same-(function,
// class) requests ride one dispatch (sharing a warm instance and one
// variant decision), an unfilled batch waits out maxBatchDelay before
// dispatching, and a full batch goes immediately.
func TestBatchCoalescing(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(4), WithMaxBatchDelay(10*time.Millisecond))
	defer s.Close()

	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	var pend []*Pending
	for i := 0; i < 3; i++ {
		p, err := s.Submit(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	// Three of four: the batch is unripe — Tick must hold it.
	if s.Tick() {
		t.Fatal("dispatched an unripe batch")
	}
	clk.Advance(10 * time.Millisecond)
	if !s.Tick() {
		t.Fatal("ripe batch did not dispatch")
	}
	for i, p := range pend {
		resp := p.Wait()
		if resp.Err != nil {
			t.Fatalf("entry %d: %v", i, resp.Err)
		}
		if resp.Batched != 3 {
			t.Fatalf("entry %d: Batched = %d, want 3", i, resp.Batched)
		}
		// All three were submitted at the same instant and rode the
		// delay out in full.
		if resp.Wait != 10*time.Millisecond {
			t.Fatalf("entry %d: Wait = %v, want 10ms", i, resp.Wait)
		}
	}
	// A full batch dispatches with no delay.
	for i := 0; i < 4; i++ {
		if _, err := s.Submit(nil, req); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Tick() {
		t.Fatal("full batch did not dispatch immediately")
	}
	// Different input classes never share a batch.
	if _, err := s.Submit(nil, req); err != nil {
		t.Fatal(err)
	}
	big := Request{Tenant: "acme", Function: "probe", Args: simArgs(4096)}
	if _, err := s.Submit(nil, big); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	n := drain(s)
	if n != 2 {
		t.Fatalf("mixed classes drained in %d batches, want 2", n)
	}
	snap := s.Snapshot()
	if snap.Batches != 4 || snap.BatchedCalls != 9 || snap.Completed != 9 {
		t.Fatalf("batch accounting: %+v", snap)
	}
}

// TestFullBatchKeepsNewerGroupOpen pins the open-group bookkeeping of a
// dispatch: sending a batch that its last joiner filled must not stop
// the newer same-site batch forming behind it from taking joiners. The
// dispatch used to close whatever group its site had open, so the third
// and fourth requests below rode batches of one.
func TestFullBatchKeepsNewerGroupOpen(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(2), WithMaxBatchDelay(time.Millisecond))
	defer s.Close()

	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	var pend []*Pending
	submit := func() {
		t.Helper()
		p, err := s.Submit(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		pend = append(pend, p)
	}
	for i := 0; i < 3; i++ {
		submit()
	}
	if !s.Tick() {
		t.Fatal("full batch did not dispatch")
	}
	submit()
	clk.Advance(time.Millisecond)
	drain(s)
	for i, p := range pend {
		if resp := p.Wait(); resp.Err != nil || resp.Batched != 2 {
			t.Fatalf("request %d: Batched = %d, err %v; want a batch of 2", i, resp.Batched, resp.Err)
		}
	}
	if snap := s.Snapshot(); snap.Batches != 2 {
		t.Fatalf("%d batches for four requests, want 2", snap.Batches)
	}
}

// TestDeadlineShedQueued pins queued-work shedding: a request whose
// deadline expires while still queued is dropped unrun with ErrShed,
// and an already-expired deadline is rejected outright at admission.
func TestDeadlineShedQueued(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(1))
	defer s.Close()

	// Already expired at admission: rejected, not queued.
	past := Request{Tenant: "acme", Function: "probe", Args: simArgs(16),
		Deadline: clk.Now().Add(-time.Millisecond)}
	if _, err := s.Submit(nil, past); !errors.Is(err, ErrDeadlineExpired) {
		t.Fatalf("want ErrDeadlineExpired, got %v", err)
	}

	// Expires while queued: shed at the next queue scan, never run.
	doomed := Request{Tenant: "acme", Function: "probe", Args: simArgs(16),
		Deadline: clk.Now().Add(5 * time.Millisecond)}
	p, err := s.Submit(nil, doomed)
	if err != nil {
		t.Fatal(err)
	}
	fine := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	p2, err := s.Submit(nil, fine)
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Millisecond)
	if n := drain(s); n != 1 {
		t.Fatalf("drained %d batches, want 1 (the shed entry must not run)", n)
	}
	resp := p.Wait()
	if !errors.Is(resp.Err, ErrShed) {
		t.Fatalf("doomed request: want ErrShed, got %v", resp.Err)
	}
	if resp2 := p2.Wait(); resp2.Err != nil {
		t.Fatalf("undoomed neighbour: %v", resp2.Err)
	}
	snap := s.Snapshot()
	if snap.ShedQueued != 1 || snap.RejectedExpired != 1 || snap.Completed != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}
	for _, ts := range snap.Tenants {
		if ts.Tenant == "acme" && ts.Shed != 1 {
			t.Fatalf("tenant shed ledger: %+v", ts)
		}
	}
}

// TestCancelShedsRunning pins running-work shedding: a request whose
// context is cancelled after admission aborts through the engine's
// zero-cost call checkpoint and is accounted a running shed, not a
// failure.
func TestCancelShedsRunning(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithMaxBatch(1))
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	p, err := s.Submit(ctx, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // cancelled between admission and dispatch
	if !s.Tick() {
		t.Fatal("batch did not dispatch")
	}
	resp := p.Wait()
	if !errors.Is(resp.Err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", resp.Err)
	}
	snap := s.Snapshot()
	if snap.ShedRunning != 1 || snap.Failed != 0 || snap.Completed != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
}

// TestDegradedAccounting pins degradation-aware routing: an injected
// internal fault is contained by trusted-fallback re-execution, the
// tenant still gets the correct value, and both the fault and the
// degradation land in the tenant's ledger — no worker dies, no error
// surfaces.
func TestDegradedAccounting(t *testing.T) {
	clk := clock.NewFake(simStart())
	want, err := simProgram(t).NewInstance().Call("probe", simArgs(16)...)
	if err != nil {
		t.Fatal(err)
	}
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendCompiled, Opt: cm.O2, Fn: "probe",
		Call: 1, Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	s, err := New(WithWorkers(0), WithClock(clk), WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Host(simProgram(t),
		autotune.WithGrid(autotune.VariantSpec{Opt: cm.O2}),
		autotune.WithClock(clk),
		autotune.WithFaultInjector(inj),
	); err != nil {
		t.Fatal(err)
	}

	req := Request{Tenant: "acme", Function: "probe", Args: simArgs(16)}
	p, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Tick() {
		t.Fatal("no dispatch")
	}
	resp := p.Wait()
	if resp.Err != nil {
		t.Fatalf("degraded call must still succeed: %v", resp.Err)
	}
	if !resp.Degraded || resp.Fault == nil {
		t.Fatalf("degradation taps not set: %+v", resp)
	}
	if resp.Value != want {
		t.Fatalf("degraded value %v, want %v", resp.Value, want)
	}
	// A clean follow-up call keeps the ledger apart.
	p2, err := s.Submit(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	drain(s)
	if resp2 := p2.Wait(); resp2.Err != nil || resp2.Degraded {
		t.Fatalf("clean call: %+v", resp2)
	}
	snap := s.Snapshot()
	if snap.Completed != 2 || snap.Degraded != 1 || snap.Faults != 1 || snap.Failed != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	for _, ts := range snap.Tenants {
		if ts.Tenant == "acme" && (ts.Degraded != 1 || ts.Faults != 1 || ts.Completed != 2) {
			t.Fatalf("tenant ledger: %+v", ts)
		}
	}
}

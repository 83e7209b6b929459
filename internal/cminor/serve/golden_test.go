package serve

import (
	"testing"
	"time"

	"socrates/internal/clock"
)

// TestStatusLineGolden pins the operator surface byte-for-byte: a fixed
// fake-clock scenario must render exactly this status line, and the
// backing Snapshot must carry exactly these numbers. Any formatting or
// accounting drift is a deliberate, test-visible change.
func TestStatusLineGolden(t *testing.T) {
	clk := clock.NewFake(simStart())
	s := newSimServer(t, clk, WithQueueDepth(8), WithMaxBatch(1))
	defer s.Close()

	// Empty server: zeroed gauges render their fixed forms.
	if got, want := s.StatusLine(),
		"[q 0/8 r 0] ok 0 err 0 rej 0 shed 0 deg 0 | 0.0 req/s | p50 0ns p99 0ns"; got != want {
		t.Fatalf("empty status line:\n got %q\nwant %q", got, want)
	}

	// Request A: queued 2ms, then served.
	pa, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Millisecond)
	if !s.Tick() {
		t.Fatal("A did not dispatch")
	}
	// Request B from another tenant: queued 3ms, completing 4ms after A.
	clk.Advance(time.Millisecond)
	pb, err := s.Submit(nil, Request{Tenant: "bob", Function: "probe", Args: simArgs(16)})
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Millisecond)
	if !s.Tick() {
		t.Fatal("B did not dispatch")
	}
	// Request C: dead on arrival.
	if _, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe",
		Args: simArgs(16), Deadline: clk.Now().Add(-time.Second)}); err == nil {
		t.Fatal("expired deadline admitted")
	}
	if ra, rb := pa.Wait(), pb.Wait(); ra.Err != nil || rb.Err != nil {
		t.Fatalf("completions: %v, %v", ra.Err, rb.Err)
	}

	// Latencies 2ms and 3ms; one inter-completion gap of 4ms = 250/s.
	if got, want := s.StatusLine(),
		"[q 0/8 r 0] ok 2 err 0 rej 1 shed 0 deg 0 | 250 req/s | p50 3.0ms p99 3.0ms"; got != want {
		t.Fatalf("status line:\n got %q\nwant %q", got, want)
	}

	snap := s.Snapshot()
	if snap.Submitted != 3 || snap.Admitted != 2 || snap.Completed != 2 ||
		snap.RejectedExpired != 1 || snap.Rejected() != 1 ||
		snap.Batches != 2 || snap.BatchedCalls != 2 ||
		snap.Queued != 0 || snap.Running != 0 {
		t.Fatalf("snapshot counters: %+v", snap)
	}
	if snap.Uptime != 6*time.Millisecond {
		t.Fatalf("uptime %v, want 6ms", snap.Uptime)
	}
	// latEWMA: seeded 2ms, then 0.2*3ms + 0.8*2ms = 2.2ms.
	if snap.LatencyEWMA != 2200*time.Microsecond {
		t.Fatalf("latency EWMA %v, want 2.2ms", snap.LatencyEWMA)
	}
	if snap.Throughput != 250 {
		t.Fatalf("throughput %v, want 250", snap.Throughput)
	}
	if snap.P50 != 3*time.Millisecond || snap.P99 != 3*time.Millisecond {
		t.Fatalf("percentiles p50=%v p99=%v, want 3ms/3ms", snap.P50, snap.P99)
	}
	if len(snap.Tenants) != 2 ||
		snap.Tenants[0].Tenant != "acme" || snap.Tenants[1].Tenant != "bob" {
		t.Fatalf("tenant ordering: %+v", snap.Tenants)
	}
	acme, bob := snap.Tenants[0], snap.Tenants[1]
	if acme.Submitted != 2 || acme.Admitted != 1 || acme.Rejected != 1 || acme.Completed != 1 {
		t.Fatalf("acme ledger: %+v", acme)
	}
	if bob.Submitted != 1 || bob.Completed != 1 || bob.Rejected != 0 {
		t.Fatalf("bob ledger: %+v", bob)
	}

	// The snapshot renders the same line as the server: one code path.
	if snap.StatusLine() != s.StatusLine() {
		t.Fatal("Snapshot.StatusLine diverges from Server.StatusLine")
	}
}

// TestFormatHelpers pins the deterministic unit formatting the status
// line depends on.
func TestFormatHelpers(t *testing.T) {
	rates := map[float64]string{
		0:       "0.0",
		3.14:    "3.1",
		99.94:   "99.9",
		100:     "100",
		831:     "831",
		1500:    "1.5k",
		2340000: "2.3M",
		// Rounding boundaries: each value sits where the next-lower
		// format's rounding overflows its width, so it must already be
		// promoted (thresholds at 1e3/1e6/100 printed 999.96 as "1000",
		// 99.96 as "100.0", 999960 as "1000.0k").
		99.96:  "100",
		999.4:  "999",
		999.96: "1.0k",
		999940: "999.9k",
		999960: "1.0M",
	}
	for in, want := range rates {
		if got := fmtRate(in); got != want {
			t.Errorf("fmtRate(%v) = %q, want %q", in, got, want)
		}
	}
	durs := map[time.Duration]string{
		0:                        "0ns",
		740 * time.Nanosecond:    "740ns",
		12500 * time.Nanosecond:  "12.5µs",
		1200 * time.Microsecond:  "1.2ms",
		8940 * time.Microsecond:  "8.9ms",
		2340 * time.Millisecond:  "2.34s",
		15600 * time.Millisecond: "15.60s",
	}
	for in, want := range durs {
		if got := fmtDur(in); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", in, got, want)
		}
	}
}

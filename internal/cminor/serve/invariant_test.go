package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// A state-machine checker for the scheduler: a seeded sequence of
// operations — submits from limited and unlimited tenants, some with a
// cancelled context, an expired or a near deadline, a faulting argument
// or an unknown function; Ticks; clock advances; and Close part-way —
// runs at WithWorkers(0) on a fake clock, and after every operation the
// request ledger must balance, for the server and for each tenant:
//
//	submitted = admitted + rejected
//	admitted  = completed + failed + shed + queued + running
//
// Every Pending settles exactly once, and Close drains the queue. The
// same ledger must balance in every Snapshot taken under live load.

// checkLedger fails unless s's counters balance, and returns how many
// admitted requests have settled.
func checkLedger(t *testing.T, s *Server, op string) int64 {
	t.Helper()
	snap := s.Snapshot()
	rejected := snap.RejectedUnknown + snap.RejectedClosed + snap.RejectedExpired + snap.RejectedFull +
		snap.RejectedInFlight + snap.RejectedRate + snap.RejectedSteps
	if snap.Submitted != snap.Admitted+rejected {
		t.Fatalf("%s: server submitted %d != admitted %d + rejected %d", op, snap.Submitted, snap.Admitted, rejected)
	}
	settled := snap.Completed + snap.Failed + snap.ShedQueued + snap.ShedRunning
	if open := int64(snap.Queued + snap.Running); snap.Admitted != settled+open {
		t.Fatalf("%s: server admitted %d != settled %d + queued %d + running %d",
			op, snap.Admitted, settled, snap.Queued, snap.Running)
	}
	var tenantSubmitted int64
	for _, ts := range snap.Tenants {
		if ts.Submitted != ts.Admitted+ts.Rejected {
			t.Fatalf("%s: tenant %s submitted %d != admitted %d + rejected %d",
				op, ts.Tenant, ts.Submitted, ts.Admitted, ts.Rejected)
		}
		if ts.Admitted != ts.Completed+ts.Failed+ts.Shed+int64(ts.InFlight) {
			t.Fatalf("%s: tenant %s admitted %d != completed %d + failed %d + shed %d + in flight %d",
				op, ts.Tenant, ts.Admitted, ts.Completed, ts.Failed, ts.Shed, ts.InFlight)
		}
		tenantSubmitted += ts.Submitted
	}
	if tenantSubmitted != snap.Submitted {
		t.Fatalf("%s: tenants submitted %d, server %d", op, tenantSubmitted, snap.Submitted)
	}
	return settled
}

// settledPending is one admitted request and, once it has settled, the
// response it settled with.
type settledPending struct {
	p    *Pending
	done bool
	resp Response
}

// checkSettled fails if a settled Pending's response changed (it
// settled twice) and returns how many have settled.
func checkSettled(t *testing.T, pend []*settledPending, op string) int64 {
	t.Helper()
	var n int64
	for i, sp := range pend {
		select {
		case <-sp.p.Done():
		default:
			if sp.done {
				t.Fatalf("%s: request %d un-settled", op, i)
			}
			continue
		}
		n++
		if !sp.done {
			sp.done, sp.resp = true, sp.p.resp
			continue
		}
		if got := sp.p.resp; fmt.Sprint(got.Err) != fmt.Sprint(sp.resp.Err) || got.Value != sp.resp.Value {
			t.Fatalf("%s: request %d settled twice: %+v, then %+v", op, i, sp.resp, got)
		}
	}
	return n
}

func TestSchedulerLedgerInvariants(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := clock.NewFake(simStart())
			s := newSimServer(t, clk,
				WithQueueDepth(6), WithMaxBatch(3), WithMaxBatchDelay(2*time.Millisecond),
				WithTenantQuota("rate", TenantQuota{Rate: 2, Burst: 2, MaxInFlight: 2}),
				WithTenantQuota("steps", TenantQuota{StepRate: 200, StepBurst: 100}))
			var pend []*settledPending
			closeAt := 300 + rng.Intn(100)
			for i := 0; i < 400; i++ {
				var op string
				switch r := rng.Intn(10); {
				case i == closeAt:
					op = "close"
					s.Close()
				case r < 5:
					req := Request{
						Tenant:   []string{"rate", "steps", "free"}[rng.Intn(3)],
						Function: "probe",
						Args:     simArgs(16),
					}
					var ctx context.Context
					switch rng.Intn(8) {
					case 0:
						ctx = cancelled
					case 1:
						req.Deadline = clk.Now()
					case 2:
						req.Deadline = clk.Now().Add(time.Millisecond)
					case 3:
						req.Args = []any{cm.IntV(64), cm.NewArray(8)} // out of bounds: a failed call
					case 4:
						req.Function = "nope"
					}
					op = fmt.Sprintf("submit %+v", req)
					if p, err := s.Submit(ctx, req); err == nil {
						pend = append(pend, &settledPending{p: p})
					}
				case r < 8:
					op = "tick"
					s.Tick()
				default:
					d := time.Duration(rng.Intn(100)) * time.Millisecond
					op = fmt.Sprintf("advance %v", d)
					clk.Advance(d)
				}
				op = fmt.Sprintf("op %d (%s)", i, op)
				if ledger, settled := checkLedger(t, s, op), checkSettled(t, pend, op); ledger != settled {
					t.Fatalf("%s: the ledger counts %d settled requests, %d Pendings settled", op, ledger, settled)
				}
			}
			s.Close()
			snap := s.Snapshot()
			if snap.Queued != 0 || snap.Running != 0 || checkSettled(t, pend, "close") != int64(len(pend)) {
				t.Fatalf("Close left %d queued, %d running, %d of %d requests unsettled",
					snap.Queued, snap.Running, int64(len(pend))-checkSettled(t, pend, "close"), len(pend))
			}
			if snap.Completed == 0 || snap.Failed == 0 || snap.ShedQueued == 0 || snap.ShedRunning == 0 ||
				snap.RejectedClosed == 0 || snap.RejectedRate+snap.RejectedInFlight+snap.RejectedSteps == 0 {
				t.Fatalf("the sequence missed an outcome the checker must see: %+v", snap)
			}
		})
	}
}

// TestLiveSnapshotBalances scrapes Snapshot for about 300ms while four
// Do loops run on two workers (and on the waiters that run their own
// batches), one loop also submitting an unknown function now and then:
// every snapshot must be a consistent cut whose ledger balances, not a
// mix of counts read at different instants.
func TestLiveSnapshotBalances(t *testing.T) {
	s, err := New(WithWorkers(2), WithQueueDepth(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Host(simProgram(t)); err != nil {
		t.Fatal(err)
	}
	s.Start()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
		s.Close()
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := Request{Tenant: fmt.Sprintf("t%d", g%2), Function: "probe", Args: simArgs(16)}
				if g == 0 && i%8 == 7 {
					req.Function = "nope"
				}
				s.Do(context.Background(), req)
			}
		}(g)
	}
	var snaps int
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); snaps++ {
		checkLedger(t, s, fmt.Sprintf("snapshot %d", snaps))
	}
	if snap := s.Snapshot(); snap.Completed == 0 || snap.RejectedUnknown == 0 {
		t.Fatalf("after %d snapshots the load completed %d requests and rejected %d, want some of each",
			snaps, snap.Completed, snap.RejectedUnknown)
	}
}

package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune"
)

// Server-level warm-start simulation: the tune cache is exercised
// through the server lifecycle — Host, the hosted tuner's LoadFrom,
// serving, Close, its SaveTo — under the fake clock, pinning that a
// restarted server's first dispatched request already exploits the
// previous process's learned winner.

// newWarmSimServer is newSimServer with one-request batches. The fake
// clock stands still, so every call costs zero: the two arms tie, the
// survey and both bursts converge the site in 6 calls (2 arms × the
// 3-sample quota), and O1 wins (ties go to the lower index).
func newWarmSimServer(t *testing.T, clk *clock.Fake) (*Server, *autotune.AutoTuner) {
	t.Helper()
	s, err := New(WithWorkers(0), WithClock(clk), WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	tn, err := s.Host(simProgram(t),
		autotune.WithGrid(autotune.VariantSpec{Opt: cm.O1}, autotune.VariantSpec{Opt: cm.O2}),
		autotune.WithClock(clk),
	)
	if err != nil {
		t.Fatal(err)
	}
	return s, tn
}

func serveCalls(t *testing.T, s *Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		p, err := s.Submit(nil, Request{Tenant: "acme", Function: "probe", Args: simArgs(16)})
		if err != nil {
			t.Fatal(err)
		}
		if !s.Tick() {
			t.Fatal("no dispatch")
		}
		if resp := p.Wait(); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
}

func warmSite(t *testing.T, tn *autotune.AutoTuner) autotune.SiteReport {
	t.Helper()
	class := autotune.SizeClass(simArgs(16))
	for _, r := range tn.Snapshot() {
		if r.Fn == "probe" && r.Class == class {
			return r
		}
	}
	t.Fatalf("no probe site at class %d", class)
	return autotune.SiteReport{}
}

// TestServerWarmStartAcrossRestart is the serving-layer warm-start pin:
// process one learns, and after Close saves its tuner; process two loads
// the file into the tuner Host returns — and the restarted server's
// site is converged before its first Submit, with zero additional
// measure-phase pulls afterwards.
func TestServerWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(simStart())

	s1, tn1 := newWarmSimServer(t, clk)
	serveCalls(t, s1, 6) // 2-arm grid, 3 samples each: converged on the 6th call
	if !warmSite(t, tn1).Converged {
		t.Fatal("setup: site did not converge")
	}
	cachePath := filepath.Join(dir, fmt.Sprintf("tune-%016x.log", tn1.CacheKey()))
	if _, err := os.Stat(cachePath); !os.IsNotExist(err) {
		t.Fatalf("log exists before any save: %v", err)
	}
	s1.Close()
	if err := tn1.SaveTo(cachePath); err != nil {
		t.Fatalf("saving the tune cache after Close: %v", err)
	}
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("SaveTo did not write the tune cache: %v", err)
	}

	// "Restart": a fresh server over the same program and grid, its
	// tuner loaded from the file before the first Submit.
	s2, tn2 := newWarmSimServer(t, clk)
	defer s2.Close()
	if warmed, err := tn2.LoadFrom(cachePath); err != nil || warmed != 1 {
		t.Fatalf("LoadFrom warmed %d sites (%v), want 1", warmed, err)
	}
	loaded := warmSite(t, tn2)
	if !loaded.Converged {
		t.Fatal("restarted site is not converged before the first request")
	}
	for i := 0; i < 10; i++ {
		serveCalls(t, s2, 1)
		if !warmSite(t, tn2).Converged {
			t.Fatalf("post-restart call %d re-opened the measure phase", i+1)
		}
	}
	// Every post-restart call rode the winner (O1, the trivial fake-clock
	// winner) or was an ε exploration: O2 gained no measure-phase pull.
	after := warmSite(t, tn2)
	explored := after.ExplorePulls - loaded.ExplorePulls
	if o2 := after.Arms[1]; o2.Pulls != loaded.Arms[1].Pulls+explored {
		t.Fatalf("arm %v re-measured after restart: %d -> %d pulls, %d of them explorations",
			o2.Spec, loaded.Arms[1].Pulls, o2.Pulls, explored)
	}
	if best := after.Arms[0]; best.Pulls != loaded.Arms[0].Pulls+10-explored {
		t.Fatalf("winner took %d of 10 post-restart calls, %d explored", best.Pulls-loaded.Arms[0].Pulls, explored)
	}
}

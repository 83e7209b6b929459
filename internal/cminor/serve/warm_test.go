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

// Server-level warm-start simulations: the tune cache is exercised
// through the real lifecycle — Host loads, Close flushes — under the
// fake clock, pinning that a restarted server's first dispatched
// request already exploits the previous process's learned winner.

// newWarmSimServer is newSimServer plus a tune cache. The fake clock
// stands still, so every call costs zero: the two arms tie, the survey
// and both bursts converge the site in 6 calls (2 arms × the 3-sample
// quota), and O1 wins (ties go to the lower index).
func newWarmSimServer(t *testing.T, clk *clock.Fake, dir string) (*Server, *autotune.AutoTuner) {
	t.Helper()
	s, err := New(WithWorkers(0), WithClock(clk), WithMaxBatch(1), WithTuneCache(dir))
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

// loadCache loads the tune cache at path into a fresh tuner over the
// warm-sim grid, outside any server, and returns how many sites it
// warmed.
func loadCache(t *testing.T, path string) (int, error) {
	t.Helper()
	tn, err := autotune.New(simProgram(t),
		autotune.WithGrid(autotune.VariantSpec{Opt: cm.O1}, autotune.VariantSpec{Opt: cm.O2}))
	if err != nil {
		t.Fatal(err)
	}
	return tn.LoadFrom(path)
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

// TestServerWarmStartAcrossRestart is the serving-layer tentpole pin:
// process one learns, Close flushes, process two's Host loads — and the
// restarted server's site is converged before its first Submit, with
// zero additional measure-phase pulls afterwards.
func TestServerWarmStartAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(simStart())

	s1, tn1 := newWarmSimServer(t, clk, dir)
	serveCalls(t, s1, 6) // 2-arm grid, 3 samples each: converged on the 6th call
	if !warmSite(t, tn1).Converged {
		t.Fatal("setup: site did not converge")
	}
	cachePath := filepath.Join(dir, fmt.Sprintf("tune-%016x.log", tn1.CacheKey()))
	if _, err := os.Stat(cachePath); !os.IsNotExist(err) {
		t.Fatalf("log exists before any flush: %v", err)
	}
	s1.Close()
	if _, err := os.Stat(cachePath); err != nil {
		t.Fatalf("Close did not flush the tune cache: %v", err)
	}

	// "Restart": a fresh server over the same program, grid, and dir.
	s2, tn2 := newWarmSimServer(t, clk, dir)
	defer s2.Close()
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

// TestServerWarmStartCorruptLogColdStart: a damaged log must cost
// nothing but the warm start — Host succeeds, the site learns cold, and
// the next Close heals the log by flushing a valid one over it.
func TestServerWarmStartCorruptLogColdStart(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(simStart())

	s1, tn1 := newWarmSimServer(t, clk, dir)
	serveCalls(t, s1, 6)
	s1.Close()
	cachePath := filepath.Join(dir, fmt.Sprintf("tune-%016x.log", tn1.CacheKey()))
	// Damage the site count, just past the 24-byte header.
	data, err := os.ReadFile(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	data[30] ^= 0xff
	if err := os.WriteFile(cachePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, tn2 := newWarmSimServer(t, clk, dir)
	if _, ok := tn2.Best("probe", autotune.SizeClass(simArgs(16))); ok {
		t.Fatal("a corrupt log warm-started the site")
	}
	serveCalls(t, s2, 6) // cold exploration works as usual
	if !warmSite(t, tn2).Converged {
		t.Fatal("cold fallback did not converge")
	}
	s2.Close()
	// The flush healed the log: a third process warm-starts again.
	if _, err := loadCache(t, cachePath); err != nil {
		t.Fatalf("log not healed by the post-cold-start flush: %v", err)
	}
	s3, tn3 := newWarmSimServer(t, clk, dir)
	defer s3.Close()
	if !warmSite(t, tn3).Converged {
		t.Fatal("healed log did not warm-start the third process")
	}
}

// TestFlushTuneCacheOnDemand: the periodic-checkpoint hook writes the
// log without closing the server, and keeps serving afterwards.
func TestFlushTuneCacheOnDemand(t *testing.T) {
	dir := t.TempDir()
	clk := clock.NewFake(simStart())
	s, tn := newWarmSimServer(t, clk, dir)
	defer s.Close()
	serveCalls(t, s, 6)
	if err := s.FlushTuneCache(); err != nil {
		t.Fatal(err)
	}
	cachePath := filepath.Join(dir, fmt.Sprintf("tune-%016x.log", tn.CacheKey()))
	warmed, err := loadCache(t, cachePath)
	if err != nil || warmed != 1 {
		t.Fatalf("on-demand flush wrote %d sites (%v), want 1", warmed, err)
	}
	serveCalls(t, s, 2) // the server is still serving
}

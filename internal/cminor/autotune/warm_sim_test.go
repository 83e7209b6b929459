package autotune

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"socrates/internal/clock"
	cm "socrates/internal/cminor"
)

// Warm-start simulations: SaveTo/LoadFrom are driven through the same
// deterministic cost models as the convergence sims, so the restart
// story is pinned exactly — a converged site must re-serve its winner
// with zero additional measure-phase calls, a stale winner must be
// dethroned through distrust decay plus drift, and every class of bad
// snapshot must degrade to an ordinary cold start.

// warmCost is the base cost model the warm-start sims share: O3 wins.
var warmCost = map[string]time.Duration{
	"O0": 400 * time.Microsecond, "O1": 300 * time.Microsecond,
	"O2": 120 * time.Microsecond, "O3": 90 * time.Microsecond,
	"bytecode": 140 * time.Microsecond,
}

// warmTuner builds a tuner in the warm-sim configuration: default grid,
// two-sample quotas, zero residual exploration (so any post-load pull
// of a non-best arm is test-visible), fixed seed.
func warmTuner(t testing.TB, sampler Sampler, opts ...Option) *AutoTuner {
	t.Helper()
	base := []Option{
		WithGrid(DefaultGrid()...),
		WithSampler(sampler),
		WithMinSamples(2),
		WithEpsilon(0),
		WithSeed(7),
	}
	tn, err := New(simProgram(t), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func drive(t testing.TB, tn *AutoTuner, n int, args []any) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := tn.Call("probe", args...); err != nil {
			t.Fatal(err)
		}
	}
}

// convergedLog runs a fresh tuner to convergence and saves its
// snapshot at path for load-side tests.
func convergedLog(t testing.TB, path string) {
	t.Helper()
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	drive(t, tn, 40, simArgs(16))
	if got, ok := tn.Best("probe", SizeClass(simArgs(16))); !ok || got.String() != "O3" {
		t.Fatalf("setup converged to (%v, %v), want O3", got, ok)
	}
	if err := tn.SaveTo(path); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartZeroReexploration is the tentpole pin: a restarted tuner
// seeded from a converged site's checkpoint serves the learned winner
// from its very first call, with zero additional measure-phase pulls on
// any arm — the exploration cost is paid once per program, not once per
// process.
func TestWarmStartZeroReexploration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	convergedLog(t, path)

	args := simArgs(16)
	class := SizeClass(args)
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	warmed, err := tn.LoadFrom(path)
	if err != nil || warmed != 1 {
		t.Fatalf("LoadFrom = (%d, %v), want (1, nil)", warmed, err)
	}
	// Converged before the first call: the winner is already routable.
	if got, ok := tn.Best("probe", class); !ok || got.String() != "O3" {
		t.Fatalf("post-load Best = (%v, %v), want (O3, true)", got, ok)
	}
	loaded := siteReport(t, tn, "probe", class)
	if !loaded.Converged {
		t.Fatal("loaded site is not converged")
	}

	const exploit = 30
	drive(t, tn, exploit, args)
	after := siteReport(t, tn, "probe", class)
	if got := bestSpec(t, tn, "probe", class); got.String() != "O3" {
		t.Fatalf("warm winner drifted to %v with an unchanged workload", got)
	}
	if after.Reopens != loaded.Reopens {
		t.Fatalf("unchanged workload reopened exploration: %d -> %d", loaded.Reopens, after.Reopens)
	}
	// Every post-restart call rode the winner: non-best arms gained no
	// pulls at all, and the winner took all of them.
	for i, arm := range after.Arms {
		if arm.Spec.String() == "O3" {
			if want := loaded.Arms[i].Pulls + exploit; arm.Pulls != want {
				t.Fatalf("winner pulls %d, want %d", arm.Pulls, want)
			}
			continue
		}
		if arm.Pulls != loaded.Arms[i].Pulls {
			t.Fatalf("arm %v re-measured after warm start: %d -> %d pulls",
				arm.Spec, loaded.Arms[i].Pulls, arm.Pulls)
		}
	}
}

// TestWarmStartSaveSkipsUnconverged: a site still in its measure phase
// has only a half-earned table — SaveTo must not checkpoint it, and
// with nothing converged it must not even create the file.
func TestWarmStartSaveSkipsUnconverged(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	drive(t, tn, 3, simArgs(16)) // 3 of the 5-arm survey
	if err := tn.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unconverged save created a log: %v", err)
	}
}

// TestWarmStartDeterminism pins the restart story end to end as a pure
// function: two identical runs write byte-identical logs, and two
// identical load-then-drive continuations report identical state.
func TestWarmStartDeterminism(t *testing.T) {
	small, large := simArgs(8), simArgs(1024)
	save := func(path string) {
		tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
		for i := 0; i < 30; i++ {
			drive(t, tn, 1, small)
			drive(t, tn, 1, large)
		}
		if err := tn.SaveTo(path); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.log"), filepath.Join(dir, "b.log")
	save(p1)
	save(p2)
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("identical runs wrote different logs (%d vs %d bytes)", len(b1), len(b2))
	}

	restart := func() []SiteReport {
		tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
		if warmed, err := tn.LoadFrom(p1); err != nil || warmed != 2 {
			t.Fatalf("LoadFrom = (%d, %v), want (2, nil)", warmed, err)
		}
		for i := 0; i < 10; i++ {
			drive(t, tn, 1, small)
			drive(t, tn, 1, large)
		}
		return tn.Snapshot()
	}
	a, b := restart(), restart()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("warm restarts diverged:\n%+v\n%+v", a, b)
	}
}

// TestWarmStartStaleWinnerDethroned: the world moved while the process
// was down — the persisted winner O3 now costs 5x. The loaded estimate
// is a distrusted prior: fresh samples fold in at warmAlpha, the very
// first measurement drags the estimate past the switch margin, and the
// tuner moves to the new true best without re-measuring O0.
func TestWarmStartStaleWinnerDethroned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	convergedLog(t, path)

	stale := &simSampler{cost: func(call int64, spec VariantSpec, _ int) time.Duration {
		c := warmCost[spec.String()]
		if spec.String() == "O3" {
			c *= 5 // the persisted winner degraded across the restart
		}
		return time.Duration(float64(c) * jitter(call))
	}}
	tn := warmTuner(t, stale, WithDriftFactor(0.5))
	if warmed, err := tn.LoadFrom(path); err != nil || warmed != 1 {
		t.Fatalf("LoadFrom = (%d, %v), want (1, nil)", warmed, err)
	}
	args := simArgs(16)
	class := SizeClass(args)
	o0 := siteReport(t, tn, "probe", class).Arms[0]
	for i := 1; i <= 60; i++ {
		drive(t, tn, 1, args)
		if got, ok := tn.Best("probe", class); i >= 2 && (!ok || got.String() != "O2") {
			t.Fatalf("%d calls after the load the winner is %v (converged %v), want O2", i, got, ok)
		}
	}
	if arm := siteReport(t, tn, "probe", class).Arms[0]; arm.Spec.String() != "O0" || arm.Pulls != o0.Pulls {
		t.Fatalf("O0 pulled after the load: %d -> %d pulls", o0.Pulls, arm.Pulls)
	}
}

// flipByte XORs the byte at off in the file at path with mask.
func flipByte(t *testing.T, path string, off int, mask byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= mask
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartBadLogColdStart drives every bad-snapshot class — not a
// snapshot, truncated header, corrupt byte, truncated tail, version
// skew, content-key mismatch — and asserts each degrades to a cold
// start: LoadFrom reports the typed error, seeds nothing, and the
// untouched tuner still converges normally by ordinary exploration. A
// missing file is not even an error.
func TestWarmStartBadLogColdStart(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src.log")
	convergedLog(t, src)
	pristine, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		wantErr error
	}{
		{"not a log", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("just some text, definitely no magic"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrBadHeader},
		{"truncated header", func(t *testing.T, path string) {
			if err := os.Truncate(path, int64(cacheHeaderSize-3)); err != nil {
				t.Fatal(err)
			}
		}, ErrBadHeader},
		{"corrupt record byte", func(t *testing.T, path string) {
			// Flip one byte past the 24-byte header, inside the first
			// site.
			flipByte(t, path, cacheHeaderSize+12, 0xff)
		}, ErrCorrupt},
		{"truncated tail", func(t *testing.T, path string) {
			if err := os.Truncate(path, int64(len(pristine)-7)); err != nil {
				t.Fatal(err)
			}
		}, ErrCorrupt},
		{"version skew", func(t *testing.T, path string) {
			// The version field follows the 8-byte magic.
			flipByte(t, path, len(cacheMagic), 0xff)
		}, ErrVersionSkew},
		{"format v1", func(t *testing.T, path string) {
			// Rewrite the version byte to 1, the old append-log format.
			flipByte(t, path, len(cacheMagic), cacheVersion^1)
		}, ErrVersionSkew},
	}
	args := simArgs(16)
	class := SizeClass(args)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tune.log")
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
			tc.mangle(t, path)
			tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
			warmed, err := tn.LoadFrom(path)
			if !errors.Is(err, tc.wantErr) || warmed != 0 {
				t.Fatalf("LoadFrom = (%d, %v), want (0, %v)", warmed, err, tc.wantErr)
			}
			if _, ok := tn.Best("probe", class); ok {
				t.Fatal("a rejected log seeded a winner")
			}
			// Cold start proceeds exactly as if no log existed.
			drive(t, tn, 40, args)
			if got := bestSpec(t, tn, "probe", class); got.String() != "O3" {
				t.Fatalf("cold fallback converged to %v, want O3", got)
			}
		})
	}

	t.Run("key mismatch", func(t *testing.T) {
		// A tuner over a different variant grid has a different content
		// key: the same file must be rejected as a unit.
		tn, err := New(simProgram(t),
			WithGrid(DefaultGrid()[:4]...),
			WithSampler(&simSampler{cost: flatCost(warmCost)}),
			WithMinSamples(2), WithEpsilon(0), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		warmed, err := tn.LoadFrom(src)
		if !errors.Is(err, ErrKeyMismatch) || warmed != 0 {
			t.Fatalf("LoadFrom = (%d, %v), want (0, ErrKeyMismatch)", warmed, err)
		}
	})

	t.Run("missing log", func(t *testing.T) {
		tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
		warmed, err := tn.LoadFrom(filepath.Join(t.TempDir(), "never-written.log"))
		if err != nil || warmed != 0 {
			t.Fatalf("LoadFrom = (%d, %v), want (0, nil)", warmed, err)
		}
	})
}

// TestWarmStartSkipsLiveSites: a record never overwrites a site that
// has already begun learning in this process — live measurements beat
// persisted ones.
func TestWarmStartSkipsLiveSites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	convergedLog(t, path) // persisted winner: O3

	// In this process the workload is different: O2 wins.
	shifted := map[string]time.Duration{
		"O0": 400 * time.Microsecond, "O1": 300 * time.Microsecond,
		"O2": 60 * time.Microsecond, "O3": 90 * time.Microsecond,
		"bytecode": 140 * time.Microsecond,
	}
	tn := warmTuner(t, &simSampler{cost: flatCost(shifted)})
	args := simArgs(16)
	drive(t, tn, 3, args) // the site is live before the load
	warmed, err := tn.LoadFrom(path)
	if err != nil || warmed != 0 {
		t.Fatalf("LoadFrom = (%d, %v), want (0, nil): live site must be skipped", warmed, err)
	}
	drive(t, tn, 40, args)
	if got := bestSpec(t, tn, "probe", SizeClass(args)); got.String() != "O2" {
		t.Fatalf("live learning was clobbered by the log: winner %v, want O2", got)
	}
}

// TestWarmStartQuarantineRoundTrip: trust state survives the restart —
// an arm quarantined before the save is still quarantined (with its
// fault accounting) after the load, and the seeded site is converged
// without it.
func TestWarmStartQuarantineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	clk := clock.NewFake(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	inj := cm.NewScriptedInjector(cm.FaultRule{
		Backend: cm.BackendCompiled, Opt: cm.O2, Fn: "probe",
		Call: 1, Kind: cm.FaultPanic, Point: cm.FaultAtExit,
	})
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)},
		WithClock(clk),
		WithFaultInjector(inj),
		WithQuarantineBackoff(time.Hour, time.Hour))
	args := simArgs(16)
	class := SizeClass(args)
	drive(t, tn, 40, args)
	before := siteReport(t, tn, "probe", class)
	if before.QuarantinedArms != 1 {
		t.Fatalf("setup: %d quarantined arms, want 1 (the injected O2 fault)", before.QuarantinedArms)
	}
	if err := tn.SaveTo(path); err != nil {
		t.Fatal(err)
	}

	warm := warmTuner(t, &simSampler{cost: flatCost(warmCost)}, WithClock(clk))
	if warmed, err := warm.LoadFrom(path); err != nil || warmed != 1 {
		t.Fatalf("LoadFrom = (%d, %v), want (1, nil)", warmed, err)
	}
	after := siteReport(t, warm, "probe", class)
	if !after.Converged || after.QuarantinedArms != 1 {
		t.Fatalf("loaded site: converged=%v quarantined=%d, want true/1", after.Converged, after.QuarantinedArms)
	}
	for i, arm := range after.Arms {
		want := before.Arms[i]
		if arm.Quarantined != want.Quarantined || arm.Quarantines != want.Quarantines ||
			arm.Faults != want.Faults {
			t.Fatalf("arm %v trust state did not round-trip:\n got %+v\nwant %+v", arm.Spec, arm, want)
		}
	}
	if got := bestSpec(t, warm, "probe", class); got.String() != "O3" {
		t.Fatalf("loaded winner %v, want O3", got)
	}
}

// TestWarmStartRejectsEveryTruncationAndFlip: a snapshot cut short at
// any offset, or with any one byte flipped, is rejected as a unit. One
// tuner takes every failed load and must come out untouched: no site
// seeded, and a cold survey of every arm when traffic arrives.
func TestWarmStartRejectsEveryTruncationAndFlip(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.log")
	convergedLog(t, src)
	pristine, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if warmed, err := warmTuner(t, &simSampler{cost: flatCost(warmCost)}).LoadFrom(src); err != nil || warmed != 1 {
		t.Fatalf("pristine LoadFrom = (%d, %v), want (1, nil)", warmed, err)
	}

	args := simArgs(16)
	class := SizeClass(args)
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	path := filepath.Join(dir, "tune.log")
	reject := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if warmed, err := tn.LoadFrom(path); err == nil || warmed != 0 {
			t.Fatalf("%s: LoadFrom = (%d, %v), want (0, error)", what, warmed, err)
		}
		if _, ok := tn.Best("probe", class); ok {
			t.Fatalf("%s seeded a winner", what)
		}
	}
	for n := range pristine {
		reject(fmt.Sprintf("%d-byte prefix", n), pristine[:n])
	}
	for off := range pristine {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			data := bytes.Clone(pristine)
			data[off] ^= mask
			reject(fmt.Sprintf("byte %d ^ %#02x", off, mask), data)
		}
	}

	if n := len(tn.Snapshot()); n != 0 {
		t.Fatalf("rejected loads left %d sites", n)
	}
	drive(t, tn, 40, args)
	for _, arm := range siteReport(t, tn, "probe", class).Arms {
		if arm.Pulls == 0 {
			t.Fatalf("arm %v never surveyed: the tuner did not start cold", arm.Spec)
		}
	}
	if got := bestSpec(t, tn, "probe", class); got.String() != "O3" {
		t.Fatalf("cold start converged to %v, want O3", got)
	}
}

// TestWarmStartIgnoresStrayTempFile: a crash between writing the temp
// file and renaming it over the snapshot leaves a tune.log.tmp* beside
// the old snapshot. The old snapshot still loads, and the next save
// still succeeds without leaving a temp file of its own.
func TestWarmStartIgnoresStrayTempFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	convergedLog(t, path)
	stray := path + ".tmp123456"
	if err := os.WriteFile(stray, bytes.Repeat([]byte{0xa5}, 300), 0o644); err != nil {
		t.Fatal(err)
	}

	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	if warmed, err := tn.LoadFrom(path); err != nil || warmed != 1 {
		t.Fatalf("LoadFrom = (%d, %v), want (1, nil)", warmed, err)
	}
	drive(t, tn, 5, simArgs(16))
	if err := tn.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	if warmed, err := warmTuner(t, &simSampler{cost: flatCost(warmCost)}).LoadFrom(path); err != nil || warmed != 1 {
		t.Fatalf("LoadFrom after the save = (%d, %v), want (1, nil)", warmed, err)
	}
	if tmps, _ := filepath.Glob(path + ".tmp*"); !reflect.DeepEqual(tmps, []string{stray}) {
		t.Fatalf("temp files beside the snapshot: %v, want only the stray one", tmps)
	}
}

// TestWarmStartSaveHealsCorruptSnapshot: SaveTo replaces whatever is at
// the path, so a damaged snapshot costs one cold start and heals on the
// next save instead of wedging persistence.
func TestWarmStartSaveHealsCorruptSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.log")
	convergedLog(t, path)
	flipByte(t, path, cacheHeaderSize+12, 0xff)

	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	if warmed, err := tn.LoadFrom(path); !errors.Is(err, ErrCorrupt) || warmed != 0 {
		t.Fatalf("LoadFrom = (%d, %v), want (0, ErrCorrupt)", warmed, err)
	}
	drive(t, tn, 40, simArgs(16))
	if err := tn.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	if warmed, err := warmTuner(t, &simSampler{cost: flatCost(warmCost)}).LoadFrom(path); err != nil || warmed != 1 {
		t.Fatalf("LoadFrom after the healing save = (%d, %v), want (1, nil)", warmed, err)
	}
}

// FuzzLoadFrom wraps a fuzzed body in a valid header and a recomputed
// checksum, so mutations reach the site decoder instead of stopping at
// the checksum. Whatever the body, LoadFrom must not panic, and the
// tuner must go on answering probe calls correctly.
func FuzzLoadFrom(f *testing.F) {
	path := filepath.Join(f.TempDir(), "tune.log")
	convergedLog(f, path)
	seed, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed[cacheHeaderSize : len(seed)-8])

	args := simArgs(16)
	want := 0.0
	for _, x := range args[1].(*cm.Array).Data {
		want += x * x
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(bytes.Clone(seed[:cacheHeaderSize]), body...)
		data = binary.LittleEndian.AppendUint64(data, fnv64a(data))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
		tn.LoadFrom(path) // any outcome but a panic is acceptable
		for i := 0; i < 3; i++ {
			got, err := tn.Call("probe", args...)
			if err != nil || got.Float() != want {
				t.Fatalf("call %d after the load = (%v, %v), want %v", i, got, err, want)
			}
		}
	})
}

package autotune

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// Codec-level pins for the snapshot format: encodeSnapshot and
// decodeSnapshot are driven directly, below the tuner's load policy, so
// a field the encoder drops or a validation class the decoder misses
// shows up here by name rather than as a changed routing decision.

// snapshotTuner converges the probe site at two input classes and
// returns the tuner with its encoded snapshot.
func snapshotTuner(t *testing.T) (*AutoTuner, []byte) {
	t.Helper()
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	drive(t, tn, 40, simArgs(16))
	drive(t, tn, 40, simArgs(300))
	data := tn.encodeSnapshot()
	if data == nil {
		t.Fatal("a converged tuner encoded no snapshot")
	}
	return tn, data
}

// TestSnapshotRoundTrip: every converged site decodes back to the
// saving tuner's own site state, as a load installs it — in the EXPLOIT
// phase on the same winner, every persisted field equal, each arm's
// pulls floored past the measure quota and each sampled estimate
// marked distrusted — under the tuner's own content key and grid.
func TestSnapshotRoundTrip(t *testing.T) {
	tn, data := snapshotTuner(t)
	got, err := decodeSnapshot(data, tn.CacheKey(), tn.cfg.grid)
	if err != nil {
		t.Fatal(err)
	}
	want := []siteKey{{fn: "probe", class: SizeClass(simArgs(16))}, {fn: "probe", class: SizeClass(simArgs(300))}}
	if len(got) != len(want) {
		t.Fatalf("decoded %d sites, want %d", len(got), len(want))
	}
	tn.mu.Lock()
	defer tn.mu.Unlock()
	for _, key := range want {
		live := tn.sites[key]
		exp := newSiteState(len(live.arms))
		exp.phase, exp.best, exp.baseline = phaseExploit, live.best, live.baseline
		exp.pulls, exp.explore, exp.reopens = live.pulls, live.explore, live.reopens
		for j, a := range live.arms {
			e := &exp.arms[j]
			*e = armStats{
				pulls: max(a.pulls, minSamples+1), sampled: a.sampled, ewma: a.ewma,
				faults: a.faults, degraded: a.degraded, diverged: a.diverged,
				quarantines: a.quarantines, quarantined: a.quarantined,
			}
			if a.sampled {
				e.distrust = warmDistrust
			}
			if a.quarantined {
				e.quarantineUntil = time.Unix(0, a.quarantineUntil.UnixNano())
				exp.nquar++
			}
		}
		if !reflect.DeepEqual(got[key], exp) {
			t.Fatalf("site %+v:\n got %+v\nwant %+v", key, got[key], exp)
		}
	}
}

// TestSnapshotLoadMissing: a path never written — even one whose
// directory does not exist — is a clean cold start, while a path that
// exists but cannot be read as a file is reported, and is none of the
// validation errors.
func TestSnapshotLoadMissing(t *testing.T) {
	dir := t.TempDir()
	for _, path := range []string{
		filepath.Join(dir, "never-written.log"),
		filepath.Join(dir, "no-such-dir", "tune.log"),
	} {
		tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
		if warmed, err := tn.LoadFrom(path); err != nil || warmed != 0 {
			t.Fatalf("LoadFrom(%s) = (%d, %v), want (0, nil)", path, warmed, err)
		}
	}
	tn := warmTuner(t, &simSampler{cost: flatCost(warmCost)})
	warmed, err := tn.LoadFrom(dir)
	if err == nil || warmed != 0 {
		t.Fatalf("LoadFrom(directory) = (%d, %v), want (0, error)", warmed, err)
	}
	for _, typed := range []error{ErrBadHeader, ErrVersionSkew, ErrKeyMismatch, ErrCorrupt} {
		if errors.Is(err, typed) {
			t.Fatalf("a read failure reported as %v", typed)
		}
	}
}

// TestSnapshotRejectsBadFiles: each validation class maps to its typed
// error and decodes no sites at all — a snapshot is trusted or rejected
// as a unit.
func TestSnapshotRejectsBadFiles(t *testing.T) {
	tn, pristine := snapshotTuner(t)
	key, grid := tn.CacheKey(), tn.cfg.grid
	mangled := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), pristine...))
	}
	cases := []struct {
		name    string
		data    []byte
		key     uint64
		wantErr error
	}{
		{"version skew", mangled(func(b []byte) []byte {
			// The version u32 follows the magic.
			b[len(cacheMagic)] ^= 0xff
			return b
		}), key, ErrVersionSkew},
		{"key mismatch", pristine, key + 1, ErrKeyMismatch},
		{"truncated tail", pristine[:len(pristine)-7], key, ErrCorrupt},
		{"flipped payload byte", mangled(func(b []byte) []byte {
			// Into the first site's function name, past the header, the
			// site count and the name's length prefix.
			b[cacheHeaderSize+8+8+2] ^= 0x01
			return b
		}), key, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs, err := decodeSnapshot(tc.data, tc.key, grid)
			if !errors.Is(err, tc.wantErr) || recs != nil {
				t.Fatalf("decodeSnapshot = (%d sites, %v), want (none, %v)", len(recs), err, tc.wantErr)
			}
		})
	}
	// The unmangled bytes still decode: the cases above fail for their
	// mangling, not for a bad fixture.
	if _, err := decodeSnapshot(pristine, key, grid); err != nil {
		t.Fatal(err)
	}
}

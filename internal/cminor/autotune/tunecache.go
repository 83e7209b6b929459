package autotune

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"time"

	cm "socrates/internal/cminor"
)

// Warm starts. A tuner's learned tables — winner, per-arm estimates,
// pulls, quarantine state, per (function, input-class) site — are the
// product of up to |grid|×minSamples exploration calls per site (a
// survey of every arm, then bursts for the contenders), re-paid on
// every process restart unless persisted. SaveTo writes every converged
// site into one snapshot file; LoadFrom seeds a fresh tuner from one,
// placing each site directly in the EXPLOIT phase so the first call
// after a restart already routes to the learned winner, with zero
// additional measure-phase calls.
//
// The snapshot is keyed by CacheKey — a content hash of (program
// source, variant grid, host fingerprint) — so a stale binary's file,
// an edited kernel's, or another machine's is rejected as a unit at
// load and the tuner starts cold instead of routing on lies. Loaded
// estimates are priors, not facts: each seeded arm folds its first few
// fresh measurements in at a boosted EWMA weight (warmAlpha, decaying
// over warmDistrust samples — see armStats.update), so a winner that is
// no longer cheap is dragged up to its true cost within a couple of
// calls and the ordinary hysteresis switch or drift challenge dethrones
// it. Sites still measuring at save time are not persisted — a partial
// table is not worth trusting — and a loaded site never overwrites one
// that has already begun learning live.
//
// The file, little-endian throughout:
//
//	magic "SOCTUNE\n" | version u32 | reserved u32 | CacheKey u64 |
//	site count u64 | encodeSite… back to back | fnv64a(all preceding bytes)
//
// SaveTo builds it whole and replaces the old file by temp file +
// rename, so a crash leaves either the old snapshot or the new one,
// never a torn hybrid. One checksum covers the whole file: every FNV-64a
// step is a bijection of the running state, so any single changed byte
// changes the sum, and a file is trusted or rejected as a unit — these
// files are one entry per site, so re-learning is cheaper than trusting
// a half-valid one.

// cacheMagic opens every snapshot. The trailing newline means a
// snapshot concatenated into a text tool immediately looks binary.
const cacheMagic = "SOCTUNE\n"

// cacheVersion is the snapshot format version. Any other version is a
// skew: the reader does not attempt cross-version decoding — the sites
// are cheap to re-learn, so the policy is reject and re-earn.
const cacheVersion = 2

// cacheHeaderSize is the byte length of magic, version, reserved and key.
const cacheHeaderSize = len(cacheMagic) + 4 + 4 + 8

// Validation failures LoadFrom reports; match with errors.Is. All of
// them mean the same thing to a caller: the snapshot is not
// trustworthy, start cold. The distinctions exist for tests and
// diagnostics.
var (
	// ErrBadHeader: the file is shorter than a header or does not open
	// with the magic — not a snapshot at all, or one truncated to
	// nothing.
	ErrBadHeader = errors.New("autotune: bad tune cache header")
	// ErrVersionSkew: the header names a format version this reader
	// does not speak (an old binary reading a new file, or vice versa).
	ErrVersionSkew = errors.New("autotune: tune cache version skew")
	// ErrKeyMismatch: the header's content key is not the tuner's — the
	// file describes a different program, grid, or host.
	ErrKeyMismatch = errors.New("autotune: tune cache content-key mismatch")
	// ErrCorrupt: the checksum does not match (bit rot, a truncated
	// file) or the body does not decode to exactly the declared sites.
	ErrCorrupt = errors.New("autotune: corrupt tune cache")
)

// warmDistrust is how many post-load measurements of a seeded arm fold
// in at the boosted warmAlpha weight before ewmaAlpha takes over:
// enough to overwhelm a stale prior, few enough that a correct prior's
// estimate barely moves. Pinned by TestWarmStartStaleWinnerDethroned: a
// persisted winner now 5× slower goes on the first call after the
// load, at 0 on the third (at 2× staleness the boost changes nothing).
const warmDistrust = 3

// warmAlpha is the EWMA weight a distrusted (freshly loaded)
// arm's measurements carry. With clipFactor 3, one sample at warmAlpha
// doubles a badly stale winner's estimate, past the switch margin of
// any arm measured under 1.5× its old cost — the dethroning is
// immediate, not eventual.
const warmAlpha = 0.5

// CacheKey is the content key SaveTo/LoadFrom validate the snapshot
// against: a hash of the program's canonical source (Program.
// SourceHash), the exact variant grid, and a host fingerprint
// (GOOS/GOARCH/Go version/CPU count). Any of those changing — an
// edited kernel, a regenerated grid, a different machine shape —
// changes the key, and the stale file is rejected at load as a unit.
func (t *AutoTuner) CacheKey() uint64 {
	h := fnv.New64a()
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], t.base.SourceHash())
	h.Write(u[:])
	for _, spec := range t.cfg.grid {
		h.Write([]byte{byte(spec.Backend), byte(spec.Opt), byte(spec.Passes)})
	}
	fmt.Fprintf(h, "%s/%s/%s/%d", runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU())
	return h.Sum64()
}

// SaveTo writes every converged site's learned table into a snapshot at
// path (its directory created if needed), keyed by CacheKey, replacing
// whatever file was there. Sites still in the measure phase are
// skipped: their tables are half-earned. With no converged site the
// file is left untouched.
func (t *AutoTuner) SaveTo(path string) error {
	data := t.encodeSnapshot()
	if data == nil {
		return nil
	}
	return replaceFile(path, data)
}

// encodeSnapshot serializes every converged site into a whole snapshot
// file, or returns nil when no site has converged.
func (t *AutoTuner) encodeSnapshot() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]siteKey, 0, len(t.sites))
	for key, st := range t.sites {
		if st.phase == phaseExploit {
			keys = append(keys, key)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	// Deterministic site order: the sites map iterates randomly, but
	// two identical tuners must write byte-identical files.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fn != keys[j].fn {
			return keys[i].fn < keys[j].fn
		}
		return keys[i].class < keys[j].class
	})
	w := &recWriter{}
	w.buf = append(w.buf, cacheMagic...)
	w.i64(cacheVersion) // version u32, then a zero reserved u32
	w.i64(int64(t.CacheKey()))
	w.i64(int64(len(keys)))
	for _, key := range keys {
		encodeSite(w, key, t.sites[key], t.cfg.grid)
	}
	w.i64(int64(fnv64a(w.buf)))
	return w.buf
}

// LoadFrom seeds the tuner from the snapshot at path, returning how many
// sites were warm-started. Every loaded site enters directly in the
// EXPLOIT phase on its persisted winner — no measure burst — with
// estimates marked distrusted (see warmAlpha) so a winner the world has
// moved under is still dethroned.
//
// A missing file is a clean cold start (0, nil). An invalid one —
// corrupt, truncated, version-skewed, or written under a different
// content key — is reported as one of the typed errors above, and the
// tuner is left exactly as it was: cold sites stay cold, live sites
// stay live, nothing is poisoned. Callers that treat persistence as
// best-effort can ignore the error; routing is correct either way.
func (t *AutoTuner) LoadFrom(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	sites, err := decodeSnapshot(data, t.CacheKey(), t.cfg.grid)
	if err != nil {
		return 0, err
	}
	warmed := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	for key, st := range sites {
		if !t.base.HasFunc(key.fn) {
			continue // a site the current program cannot honour
		}
		if live, ok := t.sites[key]; ok && live.pulls > 0 {
			continue // the site already started learning live; trust that
		}
		t.sites[key] = st
		warmed++
	}
	return warmed, nil
}

// decodeSnapshot validates a snapshot against the tuner's content key
// and grid and decodes its sites into fresh exploit-phase site states —
// all of them or none.
func decodeSnapshot(data []byte, key uint64, grid []VariantSpec) (map[siteKey]*siteState, error) {
	if len(data) < cacheHeaderSize || string(data[:len(cacheMagic)]) != cacheMagic {
		return nil, ErrBadHeader
	}
	if v := binary.LittleEndian.Uint32(data[len(cacheMagic):]); v != cacheVersion {
		return nil, fmt.Errorf("%w: file v%d, reader v%d", ErrVersionSkew, v, cacheVersion)
	}
	if k := binary.LittleEndian.Uint64(data[len(cacheMagic)+8:]); k != key {
		return nil, fmt.Errorf("%w: file %016x, tuner %016x", ErrKeyMismatch, k, key)
	}
	body := len(data) - 8
	if body < cacheHeaderSize || binary.LittleEndian.Uint64(data[body:]) != fnv64a(data[:body]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := &recReader{buf: data[:body], off: cacheHeaderSize}
	n := r.i64()
	sites := map[siteKey]*siteState{}
	for i := int64(0); i < n; i++ {
		key, st, ok := decodeSite(r, grid)
		if !ok {
			return nil, fmt.Errorf("%w: site %d does not decode", ErrCorrupt, i)
		}
		sites[key] = st
	}
	if r.bad || n < 0 || r.off != len(r.buf) {
		return nil, fmt.Errorf("%w: body is not %d sites", ErrCorrupt, n)
	}
	return sites, nil
}

// fnv64a is the snapshot checksum.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// replaceFile replaces path with data via a temp file in the same
// directory and a rename, so readers see the old file or the new one.
// It does not fsync: a power loss that empties or drops the new file
// costs one cold start, since LoadFrom rejects it like any bad file,
// while a disk flush would be paid on every save.
func replaceFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Arm flag bits.
const (
	armSampled     = 1 << 0
	armQuarantined = 1 << 1
)

// encodeSite appends one converged site to w: little-endian
// fixed-width fields opening with the site identity (function name,
// class).
func encodeSite(w *recWriter, key siteKey, st *siteState, grid []VariantSpec) {
	w.str(key.fn)
	w.i64(int64(key.class))
	w.spec(grid[st.best])
	w.f64(st.baseline)
	w.i64(st.pulls)
	w.i64(st.explore)
	w.i64(int64(st.reopens))
	w.i64(int64(len(st.arms)))
	for i := range st.arms {
		a := &st.arms[i]
		w.spec(grid[i])
		w.i64(a.pulls)
		w.f64(a.ewma)
		var flags byte
		if a.sampled {
			flags |= armSampled
		}
		if a.quarantined {
			flags |= armQuarantined
		}
		w.buf = append(w.buf, flags)
		w.i64(a.faults)
		w.i64(a.degraded)
		w.i64(a.diverged)
		w.i64(int64(a.quarantines))
		var until int64
		if a.quarantined {
			until = a.quarantineUntil.UnixNano()
		}
		w.i64(until)
	}
}

// decodeSite reads one site from r against the current grid into a
// fresh site state in the EXPLOIT phase on its persisted winner. It is
// defensive even though the file is checksummed: a site whose arm count
// or variant specs do not match the grid — possible only through a
// content-key collision or an encoder bug — is rejected, never
// half-applied.
func decodeSite(r *recReader, grid []VariantSpec) (siteKey, *siteState, bool) {
	key := siteKey{fn: r.str(), class: int(r.i64())}
	st := newSiteState(len(grid))
	st.phase = phaseExploit
	st.best = slices.Index(grid, r.spec())
	st.baseline = r.f64()
	st.pulls = r.i64()
	st.explore = r.i64()
	st.reopens = int(r.i64())
	if narms := r.i64(); r.bad || narms != int64(len(grid)) || st.best < 0 {
		return key, nil, false
	}
	for i := range st.arms {
		if r.spec() != grid[i] {
			return key, nil, false
		}
		a := &st.arms[i]
		// Floor pulls past the measure quota: a loaded arm is past
		// measurement by construction, and update() must fold fresh
		// samples through the EWMA path, never the measure-phase min.
		a.pulls = max(r.i64(), minSamples+1)
		a.ewma = r.f64()
		flags := r.byte()
		a.sampled = flags&armSampled != 0
		a.quarantined = flags&armQuarantined != 0
		a.faults = r.i64()
		a.degraded = r.i64()
		a.diverged = r.i64()
		a.quarantines = int(r.i64())
		until := r.i64()
		if a.sampled {
			a.distrust = warmDistrust
		}
		if a.quarantined {
			a.quarantineUntil = time.Unix(0, until)
			st.nquar++
		}
	}
	return key, st, !r.bad
}

// recWriter/recReader are the snapshot codec: fixed-width little-endian
// fields, length-prefixed strings, and a sticky error flag on the
// reader so decode paths need no per-field checks.

type recWriter struct{ buf []byte }

func (w *recWriter) i64(v int64) {
	var u [8]byte
	binary.LittleEndian.PutUint64(u[:], uint64(v))
	w.buf = append(w.buf, u[:]...)
}

func (w *recWriter) f64(v float64) { w.i64(int64(math.Float64bits(v))) }

func (w *recWriter) str(s string) {
	w.i64(int64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *recWriter) spec(s VariantSpec) {
	w.buf = append(w.buf, byte(s.Backend), byte(s.Opt), byte(s.Passes))
}

type recReader struct {
	buf []byte
	off int
	bad bool
}

func (r *recReader) take(n int) []byte {
	if r.bad || n < 0 || len(r.buf)-r.off < n {
		r.bad = true
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *recReader) i64() int64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

func (r *recReader) f64() float64 { return math.Float64frombits(uint64(r.i64())) }

func (r *recReader) byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *recReader) str() string {
	n := r.i64()
	if n < 0 || n > int64(len(r.buf)) {
		r.bad = true
		return ""
	}
	return string(r.take(int(n)))
}

func (r *recReader) spec() VariantSpec {
	b := r.take(3)
	if b == nil {
		return VariantSpec{}
	}
	return VariantSpec{
		Backend: cm.Backend(b[0]),
		Opt:     cm.OptLevel(b[1]),
		Passes:  cm.PassMask(b[2]),
	}
}

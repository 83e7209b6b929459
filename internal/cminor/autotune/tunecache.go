package autotune

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"runtime"
	"sort"
	"time"

	cm "socrates/internal/cminor"
	"socrates/internal/cminor/autotune/persist"
)

// Warm starts. A tuner's learned tables — winner, per-arm estimates,
// pulls, quarantine state, per (function, input-class) site — are the
// product of up to |grid|×minSamples exploration calls per site (a
// survey of every arm, then bursts for the contenders), re-paid on
// every process restart unless persisted. SaveTo checkpoints every
// converged site into a persist log; LoadFrom seeds a fresh tuner from
// one, placing each site directly in the EXPLOIT phase so the first
// call after a restart already routes to the learned winner, with zero
// additional measure-phase calls.
//
// The log is keyed by CacheKey — a content hash of (program source,
// variant grid, host fingerprint) — so a stale binary's log, an edited
// kernel's, or another machine's is rejected as a unit at load and the
// tuner starts cold instead of routing on lies. Loaded estimates are
// priors, not facts: each seeded arm folds its first few fresh
// measurements in at a boosted EWMA weight (warmAlpha, decaying over
// warmDistrust samples — see armStats.update), so a winner that is no
// longer cheap is dragged up to its true cost within a couple of calls
// and the ordinary hysteresis switch or drift challenge dethrones it.
// Sites still measuring at save time are not persisted — a partial
// table is not worth trusting — and a loaded record never overwrites a
// site that has already begun learning live.

// warmDistrust is how many post-load measurements of a seeded arm fold
// in at the boosted warmAlpha weight before the configured alpha takes
// over: enough to overwhelm a stale prior, few enough that a correct
// prior's estimate barely moves.
const warmDistrust = 3

// warmAlpha is the floor EWMA weight a distrusted (freshly loaded)
// arm's measurements carry. With clipFactor 3, one sample at warmAlpha
// doubles a badly stale winner's estimate, past the switch margin of
// any arm measured under 1.5× its old cost — the dethroning is
// immediate, not eventual.
const warmAlpha = 0.5

// CacheKey is the content key SaveTo/LoadFrom validate the persist log
// against: a hash of the program's canonical source (Program.
// SourceHash), the exact variant grid, and a host fingerprint
// (GOOS/GOARCH/Go version/CPU count). Any of those changing — an
// edited kernel, a regenerated grid, a different machine shape —
// changes the key, and the stale log is rejected at load as a unit.
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

// SaveTo checkpoints every converged site's learned table into the
// persist log at path (created if needed), keyed by CacheKey. Each
// checkpoint appends one record per converged site; the log supersedes
// older records by site key and self-compacts, so repeated saves keep
// the file O(live sites). Sites still in the measure phase are
// skipped: their tables are half-earned.
func (t *AutoTuner) SaveTo(path string) error {
	t.mu.Lock()
	recs := make([]persist.Record, 0, len(t.sites))
	for key, st := range t.sites {
		if st.phase != phaseExploit {
			continue
		}
		recs = append(recs, persist.Record{
			Key:     siteRecordKey(key),
			Payload: encodeSite(key, st, t.cfg.grid),
		})
	}
	t.mu.Unlock()
	// Deterministic record order: the sites map iterates randomly, but
	// two identical tuners must write byte-identical logs.
	sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
	if len(recs) == 0 {
		return nil
	}
	return persist.Append(path, t.CacheKey(), recs)
}

// LoadFrom seeds the tuner from the persist log at path, returning how
// many sites were warm-started. Every loaded site enters directly in
// the EXPLOIT phase on its persisted winner — no measure burst — with
// estimates marked distrusted (see warmAlpha) so a winner the world has
// moved under is still dethroned.
//
// A missing log is a clean cold start (0, nil). An invalid log —
// corrupt, truncated, version-skewed, or written under a different
// content key — is reported as an error, and the tuner is left exactly
// as it was: cold sites stay cold, live sites stay live, nothing is
// poisoned. Callers that treat persistence as best-effort can ignore
// the error; routing is correct either way.
func (t *AutoTuner) LoadFrom(path string) (int, error) {
	recs, _, err := persist.Load(path, t.CacheKey())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	warmed := 0
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range recs {
		sr, ok := decodeSite(rec.Payload, t.cfg.grid)
		if !ok || !t.base.HasFunc(sr.fn) {
			continue // a record the current grid/program cannot honour
		}
		key := siteKey{fn: sr.fn, class: sr.class}
		if st, live := t.sites[key]; live && st.pulls > 0 {
			continue // the site already started learning live; trust that
		}
		t.seedSite(key, sr)
		warmed++
	}
	return warmed, nil
}

// seedSite installs one decoded record as a live exploit-phase site.
// Caller holds the tuner mutex.
func (t *AutoTuner) seedSite(key siteKey, sr *siteRecord) {
	st := t.site(key)
	st.phase = phaseExploit
	st.cursor = 0
	st.best = sr.best
	st.baseline = sr.baseline
	st.pulls = sr.pulls
	st.explore = sr.explore
	st.reopens = sr.reopens
	st.nquar = 0
	quota := int64(t.cfg.minSamples)
	for i := range st.arms {
		a := &st.arms[i]
		ra := &sr.arms[i]
		*a = armStats{
			// Floor pulls past the measure quota: a loaded arm is past
			// measurement by construction, and update() must fold fresh
			// samples through the EWMA path, never the measure-phase min.
			pulls:       max(ra.pulls, quota+1),
			sampled:     ra.sampled,
			ewma:        ra.ewma,
			distrust:    0,
			faults:      ra.faults,
			degraded:    ra.degraded,
			diverged:    ra.diverged,
			quarantines: int(ra.quarantines),
			quarantined: ra.quarantined,
		}
		if a.sampled {
			a.distrust = warmDistrust
		}
		if a.quarantined {
			a.quarantineUntil = time.Unix(0, ra.quarantineUntil)
			st.nquar++
		}
	}
}

// siteRecordKey names a site's record in the log.
func siteRecordKey(key siteKey) string {
	return fmt.Sprintf("%s\x00%d", key.fn, key.class)
}

// siteRecord is the decoded form of one persisted site.
type siteRecord struct {
	fn       string
	class    int
	best     int // index into the current grid
	baseline float64
	pulls    int64
	explore  int64
	reopens  int
	arms     []armRecord
}

// armRecord is one persisted arm.
type armRecord struct {
	pulls           int64
	sampled         bool
	ewma            float64
	faults          int64
	degraded        int64
	diverged        int64
	quarantines     int64
	quarantined     bool
	quarantineUntil int64 // UnixNano, meaningful when quarantined
}

// Arm flag bits.
const (
	armSampled     = 1 << 0
	armQuarantined = 1 << 1
)

// encodeSite serializes one converged site: little-endian fixed-width
// fields behind the log's checksum, opening with the site identity
// (function name, class) so a decoded record is self-describing even
// though the record key spells the same pair.
func encodeSite(key siteKey, st *siteState, grid []VariantSpec) []byte {
	w := &recWriter{}
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
	return w.buf
}

// decodeSite parses a site payload against the current grid. It is
// defensive even though the log checksums every record: a payload
// whose arm count or variant specs do not match the grid — possible
// only through a content-key collision or an encoder bug — is
// rejected, never half-applied.
func decodeSite(payload []byte, grid []VariantSpec) (*siteRecord, bool) {
	r := &recReader{buf: payload}
	sr := &siteRecord{}
	sr.fn = r.str()
	sr.class = int(r.i64())
	bestSpec := r.spec()
	sr.baseline = r.f64()
	sr.pulls = r.i64()
	sr.explore = r.i64()
	sr.reopens = int(r.i64())
	narms := int(r.i64())
	if r.bad || narms != len(grid) {
		return nil, false
	}
	sr.best = -1
	for i, spec := range grid {
		if spec == bestSpec {
			sr.best = i
		}
	}
	if sr.best < 0 {
		return nil, false
	}
	sr.arms = make([]armRecord, narms)
	for i := range sr.arms {
		if r.spec() != grid[i] {
			return nil, false
		}
		a := &sr.arms[i]
		a.pulls = r.i64()
		a.ewma = r.f64()
		flags := r.byte()
		a.sampled = flags&armSampled != 0
		a.quarantined = flags&armQuarantined != 0
		a.faults = r.i64()
		a.degraded = r.i64()
		a.diverged = r.i64()
		a.quarantines = r.i64()
		a.quarantineUntil = r.i64()
	}
	if r.bad || len(r.buf) != r.off {
		return nil, false
	}
	return sr, true
}

// recWriter/recReader are the payload codec: fixed-width little-endian
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

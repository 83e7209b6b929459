package serve

import (
	"sort"
	"time"
)

// Live metrics. Every request outcome is counted once, in its tenant's
// ledger (tenantState); the server's totals are the ledgers' sums. The
// ledgers, the gauges below and the batch counts are all written under
// Server.mu, and Snapshot reads them under it: a snapshot is one
// consistent cut, so its ledger balances at every instant.

// metricsAlpha is the weight a new observation carries in the EWMA
// gauges (queue depth, latency, inter-completion interval).
const metricsAlpha = 0.2

// latRingSize is the window of recent completion latencies the
// percentile gauges are computed over.
const latRingSize = 512

// metrics holds the server-wide gauges, under Server.mu.
type metrics struct {
	batches      int64 // dispatched batches
	batchedCalls int64 // entries those batches carried

	queueEWMA float64 // entries, sampled at every admitted submit
	latEWMA   float64 // ns, completed calls only
	gapEWMA   float64 // ns between consecutive completions
	// ns from a held batch's ripen time to its dispatch, over batches
	// that waited out their batch delay
	holdLateEWMA float64
	// The seeded flags mark a gauge's EWMA as holding at least one real
	// observation. The first observation seeds the gauge directly
	// (smoothing a new sample against an arbitrary zero start would just
	// slow convergence) — and "first" must be tracked explicitly: zero
	// is a legitimate first observation (an empty queue, a zero-duration
	// call under a fake clock, back-to-back completions at one instant),
	// so a `== 0` sentinel would leave the gauge unseeded and let the
	// NEXT sample jump in unsmoothed.
	queueSeeded bool
	latSeeded   bool
	gapSeeded   bool
	holdSeeded  bool
	lastDone    time.Time
	ring        [latRingSize]int64 // ns, most recent completions
	ringN       int64              // total latencies ever recorded
}

// fold takes one observation into an EWMA gauge and its seeded flag.
func fold(gauge *float64, seeded *bool, x float64) {
	if !*seeded {
		*gauge, *seeded = x, true
	} else {
		*gauge = metricsAlpha*x + (1-metricsAlpha)**gauge
	}
}

// observeQueue folds the current queue depth into its EWMA gauge.
func (m *metrics) observeQueue(depth int) {
	fold(&m.queueEWMA, &m.queueSeeded, float64(depth))
}

// observeHoldLate folds how long after its ripen time a held batch was
// dispatched into its EWMA gauge.
func (m *metrics) observeHoldLate(late time.Duration) {
	fold(&m.holdLateEWMA, &m.holdSeeded, float64(late))
}

// observeDone records one successful completion: latency into the ring
// and EWMA, and the inter-completion gap into the throughput EWMA.
func (m *metrics) observeDone(now time.Time, latency time.Duration) {
	m.ring[m.ringN%latRingSize] = int64(latency)
	m.ringN++
	fold(&m.latEWMA, &m.latSeeded, float64(latency))
	if !m.lastDone.IsZero() {
		// A zero gap (two completions at the same clock instant) is a
		// real observation of maximal burst throughput; it folds in like
		// any other. The Throughput derivation guards the division.
		if gap := now.Sub(m.lastDone); gap >= 0 {
			fold(&m.gapEWMA, &m.gapSeeded, float64(gap))
		}
	}
	m.lastDone = now
}

// percentiles computes (p50, p99) over the latency window.
func (m *metrics) percentiles() (p50, p99 time.Duration) {
	n := min(m.ringN, latRingSize)
	buf := append([]int64(nil), m.ring[:n]...)
	if n == 0 {
		return 0, 0
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	pick := func(p float64) time.Duration {
		idx := int(p*float64(n-1) + 0.5)
		return time.Duration(buf[idx])
	}
	return pick(0.50), pick(0.99)
}

// Snapshot is the server's full observable state at one instant: the
// operator surface the status line renders and scrapers export.
type Snapshot struct {
	Time   time.Time
	Uptime time.Duration

	// Scheduler occupancy.
	Queued     int     // entries waiting in the admission queue
	QueueDepth int     // the configured bound
	Running    int     // entries dispatched and executing
	QueueEWMA  float64 // smoothed queue depth

	// Admission counters.
	Submitted        int64
	Admitted         int64
	RejectedUnknown  int64 // no hosted function of that name
	RejectedClosed   int64
	RejectedExpired  int64
	RejectedFull     int64
	RejectedInFlight int64
	RejectedRate     int64
	RejectedSteps    int64

	// Outcome counters.
	Completed   int64 // calls that returned a value (degraded included)
	Failed      int64 // program faults and surfaced internal faults
	ShedQueued  int64 // dropped in the queue on an expired deadline
	ShedRunning int64 // aborted mid-call via context cancellation
	Degraded    int64 // served by trusted-fallback re-execution
	Faults      int64 // contained internal faults observed

	// Batching.
	Batches      int64 // dispatched batches
	BatchedCalls int64 // entries those batches carried

	// Gauges.
	Throughput  float64 // req/s, from the inter-completion gap EWMA
	LatencyEWMA time.Duration
	P50         time.Duration // over the last latRingSize completions
	P99         time.Duration
	// HoldLate is how long after its ripen time (born + WithMaxBatchDelay)
	// a batch that waited out its hold was dispatched, smoothed: what the
	// hold costs a request beyond the configured delay. Batches that
	// filled, or were flushed by Close, do not count.
	HoldLate time.Duration

	Tenants []TenantSnapshot // sorted by tenant name
}

// Rejected totals the admission rejections across every reason.
func (s *Snapshot) Rejected() int64 {
	return s.RejectedUnknown + s.RejectedClosed + s.RejectedExpired + s.RejectedFull +
		s.RejectedInFlight + s.RejectedRate + s.RejectedSteps
}

// Shed totals queued and running sheds.
func (s *Snapshot) Shed() int64 { return s.ShedQueued + s.ShedRunning }

// TenantSnapshot is one tenant's usage accounting.
type TenantSnapshot struct {
	Tenant    string
	InFlight  int
	Submitted int64
	Admitted  int64
	Rejected  int64
	Completed int64
	Failed    int64
	Shed      int64
	Degraded  int64
	Faults    int64
	Steps     int64 // total interpreter steps executed for this tenant
	// Remaining quota balances (meaningful only for limited tenants).
	RateTokens float64
	StepTokens float64
}

package serve

import (
	"fmt"
	"math"
	"time"
)

// Per-tenant admission quotas. The server multiplexes many untrusted
// callers onto one engine; a tenant must not be able to starve the
// others by flooding the queue (request rate), parking work in it
// (in-flight cap), or burning the interpreter on huge kernels (step
// budget). All three are enforced at admission time with token buckets
// on the server's injected Clock, so quota exhaustion and refill are
// exactly reproducible under a fake clock.

// TenantQuota bounds one tenant's use of the server. The zero value is
// fully unlimited — quotas are opt-in per dimension. New rejects a
// negative, NaN or infinite field.
type TenantQuota struct {
	// MaxInFlight caps the tenant's queued+running requests
	// (0 = unlimited). Admission past the cap is rejected with
	// ErrTenantInFlight.
	MaxInFlight int
	// Rate is the sustained admission rate in requests per second,
	// enforced by a token bucket of capacity Burst (0 = unlimited).
	// An empty bucket rejects with ErrTenantRate.
	Rate float64
	// Burst is the request bucket capacity; 0 defaults to max(Rate, 1).
	Burst float64
	// StepRate is the sustained interpreter-step budget in steps per
	// second (0 = unlimited). Steps are post-paid: a request is admitted
	// while the step bucket holds any credit, and each completed call
	// debits its actual deterministic step count
	// (Instance.LastCallSteps) — so one oversized call can drive the
	// balance negative, and the tenant then waits out the refill.
	// An exhausted bucket rejects with ErrTenantSteps.
	StepRate float64
	// StepBurst is the step bucket capacity; 0 defaults to StepRate.
	StepBurst float64
}

// validate rejects what no bucket can honour: a negative, NaN or
// infinite rate or burst, or a negative in-flight cap.
func (q TenantQuota) validate() error {
	if q.MaxInFlight < 0 {
		return fmt.Errorf("max in-flight must be >= 0, got %d", q.MaxInFlight)
	}
	for _, v := range []float64{q.Rate, q.Burst, q.StepRate, q.StepBurst} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("rates and bursts must be finite and >= 0, got %+v", q)
		}
	}
	return nil
}

// normalize applies the documented defaulting.
func (q TenantQuota) normalize() TenantQuota {
	if q.Rate > 0 && q.Burst == 0 {
		q.Burst = q.Rate
		if q.Burst < 1 {
			q.Burst = 1
		}
	}
	if q.StepRate > 0 && q.StepBurst == 0 {
		q.StepBurst = q.StepRate
	}
	return q
}

// bucket is a token bucket on the server clock. rate == 0 means
// unlimited: every take succeeds and spends are ignored.
type bucket struct {
	tokens float64
	rate   float64 // tokens per second
	burst  float64
	last   time.Time
}

func newBucket(rate, burst float64, now time.Time) bucket {
	return bucket{tokens: burst, rate: rate, burst: burst, last: now}
}

// refill credits tokens for the time elapsed since the last refill,
// capped at the burst size. The watermark only advances when credit is
// actually granted: if the clock reads earlier than the last refill (a
// backwards wall-clock step — NTP correction, VM migration), moving
// `last` back would let the tenant re-earn tokens for an interval it
// already banked once the clock catches up. The regression instead
// freezes refills until real time passes the old watermark.
func (b *bucket) refill(now time.Time) {
	if b.rate == 0 {
		return
	}
	if dt := now.Sub(b.last); dt > 0 {
		b.tokens += b.rate * dt.Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
}

// take withdraws n tokens if the full amount is available (pre-paid
// admission: one token per request).
func (b *bucket) take(now time.Time, n float64) bool {
	if b.rate == 0 {
		return true
	}
	b.refill(now)
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// hasCredit reports a positive balance (post-paid admission: any credit
// admits, the actual cost is spent at completion).
func (b *bucket) hasCredit(now time.Time) bool {
	if b.rate == 0 {
		return true
	}
	b.refill(now)
	return b.tokens > 0
}

// spend debits n tokens unconditionally — the post-paid settlement; the
// balance may go negative, blocking admissions until the refill catches
// up.
func (b *bucket) spend(now time.Time, n float64) {
	if b.rate == 0 {
		return
	}
	b.refill(now)
	b.tokens -= n
}

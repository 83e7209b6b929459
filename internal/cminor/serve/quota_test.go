package serve

import (
	"math"
	"testing"
	"time"
)

// TestBucketClockRegression is the refill-watermark regression pin: a
// clock that steps BACKWARDS (NTP correction, VM migration) must not
// move the bucket's refill watermark back with it. The old refill
// advanced `last = now` unconditionally, so after a regression the
// tenant re-earned the whole already-banked interval once the clock
// caught up — free quota minted out of a clock adjustment.
func TestBucketClockRegression(t *testing.T) {
	t0 := simStart()
	b := newBucket(10, 100, t0)
	if !b.take(t0, 100) {
		t.Fatal("full bucket refused its burst")
	}
	if b.take(t0, 1) {
		t.Fatal("empty bucket granted a token")
	}
	// The wall clock steps back five seconds. No credit — and, the point
	// of the fix, no watermark movement.
	if b.take(t0.Add(-5*time.Second), 1) {
		t.Fatal("a backwards clock granted a token")
	}
	// One real second after the drain: exactly rate x 1s = 10 tokens
	// exist. The buggy watermark (moved back 5s) would mint 60.
	t1 := t0.Add(time.Second)
	if b.take(t1, 20) {
		t.Fatal("clock regression re-earned already-banked time")
	}
	if !b.take(t1, 10) {
		t.Fatal("the genuine second of refill credit is missing")
	}
	if b.take(t1, 1) {
		t.Fatal("bucket should be empty again")
	}
}

// TestStepBucketClockRegression covers the post-paid path: a step
// bucket in debt must repay it on the original timeline even when the
// clock regresses between the overdraft and the next admission check.
func TestStepBucketClockRegression(t *testing.T) {
	t0 := simStart()
	b := newBucket(100, 10, t0)
	b.spend(t0, 60) // balance -50: one oversized call, post-paid
	if b.hasCredit(t0) {
		t.Fatal("overdrawn bucket reported credit")
	}
	if b.hasCredit(t0.Add(-time.Hour)) {
		t.Fatal("a backwards clock reported credit")
	}
	// Debt is repaid at 100 steps/s from t0, not from t0 minus an hour:
	// just before the half-second mark the tenant is still locked out,
	// just after it admits.
	if b.hasCredit(t0.Add(499 * time.Millisecond)) {
		t.Fatal("credit appeared before the debt was repaid")
	}
	if !b.hasCredit(t0.Add(501 * time.Millisecond)) {
		t.Fatal("credit missing after the debt was repaid")
	}
}

// TestNewRejectsBadQuota: a quota no bucket can honour is an error at
// New, as a queue depth below 1 is, rather than a tenant that is
// rejected forever (a negative rate), admitted at random (NaN) or
// silently unlimited (a negative in-flight cap). Zero fields stay the
// documented "unlimited".
func TestNewRejectsBadQuota(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		q  TenantQuota
		ok bool
	}{
		{TenantQuota{}, true},
		{TenantQuota{MaxInFlight: 2, Rate: 10, Burst: 5, StepRate: 1e6, StepBurst: 1e5}, true},
		{TenantQuota{MaxInFlight: -1}, false},
		{TenantQuota{Rate: -1}, false},
		{TenantQuota{Rate: nan}, false},
		{TenantQuota{Rate: inf}, false},
		{TenantQuota{Rate: 10, Burst: -1}, false},
		{TenantQuota{Rate: 10, Burst: nan}, false},
		{TenantQuota{Rate: 10, Burst: inf}, false},
		{TenantQuota{StepRate: -5}, false},
		{TenantQuota{StepRate: nan}, false},
		{TenantQuota{StepRate: inf}, false},
		{TenantQuota{StepRate: 100, StepBurst: -1}, false},
		{TenantQuota{StepRate: 100, StepBurst: nan}, false},
		{TenantQuota{StepRate: 100, StepBurst: inf}, false},
		{TenantQuota{Rate: math.Inf(-1)}, false},
	}
	for _, tc := range cases {
		s, err := New(WithWorkers(0), WithTenantQuota("acme", tc.q))
		if (err == nil) != tc.ok {
			t.Errorf("New with quota %+v: err %v, want ok %v", tc.q, err, tc.ok)
		}
		if s != nil {
			s.Close()
		}
	}
}

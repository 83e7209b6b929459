//go:build !race

package serve

import (
	"context"
	"sort"
	"testing"
	"time"
)

// TestHoldAccuracyRealClock holds the production configuration to what
// WithMaxBatchDelay documents: a lone request under a 100µs hold is
// dispatched within a few hundred microseconds, not after the
// millisecond and more a runtime timer takes on an idle runtime (the
// median Wait was about 1100µs when every worker armed one; it is about
// 110µs with the timekeeper's precise sleep at a 1ns timer slack).
// Wall-clock margins mean nothing under the race detector, so the file
// is built without it.
func TestHoldAccuracyRealClock(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock timing test")
	}
	s := newLiveServer(t, WithMaxBatchDelay(100*time.Microsecond))
	defer s.Close()
	s.Start()
	const requests = 300
	waits := make([]time.Duration, 0, requests)
	args := simArgs(16)
	for i := 0; i < requests; i++ {
		resp, err := s.Do(context.Background(), Request{Tenant: "acme", Function: "probe", Args: args})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Batched != 1 {
			t.Fatalf("request %d rode a batch of %d", i, resp.Batched)
		}
		waits = append(waits, resp.Wait)
	}
	sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
	if median := waits[requests/2]; median < 100*time.Microsecond || median >= 500*time.Microsecond {
		t.Fatalf("median Wait %v under a 100µs hold, want within [100µs, 500µs) (min %v, max %v)",
			median, waits[0], waits[requests-1])
	}
}

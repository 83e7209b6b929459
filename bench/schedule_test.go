package main

import (
	"reflect"
	"testing"
	"time"
)

func TestOpenScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := openSchedule(7, 2*time.Second, openBurstsPerSec, 10, openTenants)
	b := openSchedule(7, 2*time.Second, openBurstsPerSec, 10, openTenants)
	c := openSchedule(8, 2*time.Second, openBurstsPerSec, 10, openTenants)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedule")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seed, same schedule")
	}
	// 400 bursts/s of 1–4 requests for 2 s is about 2000 requests.
	if len(a) < 1500 || len(a) > 2500 {
		t.Errorf("%d requests in 2 s, want about 2000", len(a))
	}
	kernels := map[uint8]bool{}
	for i, r := range a {
		kernels[r.kernel] = true
		if r.due < 0 || r.due >= 2*time.Second || (i > 0 && r.due < a[i-1].due) {
			t.Fatalf("request %d due %v: out of order or out of the window", i, r.due)
		}
		if r.burst < 1 || r.burst > 4 || int(r.tenant) != i%openTenants {
			t.Fatalf("request %d: burst %d tenant %d", i, r.burst, r.tenant)
		}
	}
	if len(kernels) != 10 {
		t.Errorf("schedule reaches %d of 10 kernels", len(kernels))
	}
	// A burst is `burst` consecutive requests, same due time, same kernel.
	for i := 0; i < len(a); {
		n := int(a[i].burst)
		for j := i; j < i+n; j++ {
			if j >= len(a) || a[j].due != a[i].due || a[j].kernel != a[i].kernel || a[j].burst != a[i].burst {
				t.Fatalf("burst at %d is not %d like requests", i, n)
			}
		}
		i += n
	}
}

// closedOrder is the kernel a serve_closed client asks for on each of
// its first n requests: it draws as serveClosed.client draws.
func closedOrder(seed uint64, client, kernels, n int) []uint8 {
	r := newRand(seed, streamClosed+uint64(client))
	out := make([]uint8, n)
	for i := range out {
		out[i] = uint8(r.IntN(kernels))
	}
	return out
}

func TestClosedOrderIsAFunctionOfSeedAndClient(t *testing.T) {
	a, b := closedOrder(3, 0, 4, 4096), closedOrder(3, 0, 4, 4096)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and client, different order")
	}
	if reflect.DeepEqual(a, closedOrder(4, 0, 4, 4096)) {
		t.Fatal("different seed, same order")
	}
	if reflect.DeepEqual(a, closedOrder(3, 1, 4, 4096)) {
		t.Fatal("the two clients of one seed ask for the same kernels")
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.t0.Add(time.Duration(us) * time.Microsecond) }
	root := tr.add(spRequest, 0, 1, at(0), at(100))
	tr.add(spQueue, root, 1, at(10), at(50))
	tr.add(spSubmit, root, 1, at(10), at(20)) // inside serve.queue's interval: counted once
	tr.add(spExec, root, 1, at(50), at(90))
	self, count := tr.selfTime()
	if got := self[spRequest]; got != 20_000 {
		t.Errorf("request self time %d ns, want 20000", got)
	}
	if self[spQueue] != 40_000 || self[spExec] != 40_000 || count[spRequest] != 1 {
		t.Errorf("leaf self times %d %d, count %d", self[spQueue], self[spExec], count[spRequest])
	}
}

package main

import (
	"math/rand/v2"
	"time"
)

// Random streams. Every seeded choice the harness makes draws from
// rand.NewPCG(seed, stream), so one --seed fixes every schedule and
// the streams do not disturb one another.
const (
	streamSteady = 1 + iota
	streamOpen
	streamClosed // + client index
)

func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// openReq is one request of the serve_open schedule.
type openReq struct {
	due    time.Duration // since the start of the measurement
	kernel uint8
	burst  uint8 // size of the burst it belongs to
	tenant uint8
}

// openSchedule lays out d worth of seeded Poisson bursts: exponential
// gaps at burstsPerSec, each burst 1–4 requests for one uniformly
// chosen kernel, tenants round-robin over requests.
func openSchedule(seed uint64, d time.Duration, burstsPerSec float64, kernels, tenants int) []openReq {
	r := newRand(seed, streamOpen)
	var out []openReq
	at := 0.0
	for {
		at += r.ExpFloat64() / burstsPerSec
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		k, size := uint8(r.IntN(kernels)), uint8(1+r.IntN(4))
		for i := uint8(0); i < size; i++ {
			out = append(out, openReq{due: due, kernel: k, burst: size, tenant: uint8(len(out) % tenants)})
		}
	}
}

// Package clock is the time seam the tuner and the serving layer share:
// neither reads the wall clock directly, so tests inject a Fake and
// every time-dependent decision — measurement, drift, quarantine
// backoff, admission buckets, batch holds, deadlines — runs
// deterministically.
package clock

import "time"

// Clock is a time source.
type Clock interface {
	Now() time.Time
}

// Wall is the production Clock.
type Wall struct{}

func (Wall) Now() time.Time { return time.Now() }

// Fake is the simulation Clock: it stands still until advanced. It is
// not synchronized — single-goroutine simulations only.
type Fake struct{ t time.Time }

// NewFake returns a Fake reading start.
func NewFake(start time.Time) *Fake { return &Fake{t: start} }

func (c *Fake) Now() time.Time { return c.t }

// Advance moves the clock forward by d.
func (c *Fake) Advance(d time.Duration) { c.t = c.t.Add(d) }

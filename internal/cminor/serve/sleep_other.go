//go:build !linux

package serve

import "time"

// sleepFine is the portable fallback for sleep_linux.go: the runtime
// timer, which on an idle runtime may return up to a millisecond late.
func sleepFine(d time.Duration) { time.Sleep(d) }

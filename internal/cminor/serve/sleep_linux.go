package serve

import (
	"syscall"
	"time"
)

// sleepFine blocks the calling OS thread for d in nanosleep(2), whose
// resolution is the kernel's high-resolution timers (plus the thread's
// timer slack, 50µs by default). The Go runtime's own timers cannot do
// that: an otherwise idle runtime waits for them in epoll_wait, whose
// timeout is whole milliseconds, so a 100µs time.Sleep returns after
// 1.1ms. The thread is parked in the kernel, not spinning, and the
// call is not interruptible — callers keep d under a millisecond.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// A signal (the profiler's SIGPROF, say) cuts the sleep short with
	// EINTR and the remainder in ts; sleep that too.
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

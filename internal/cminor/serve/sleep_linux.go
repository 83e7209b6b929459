package serve

import (
	"runtime"
	"syscall"
	"time"
)

// prctl(2) options for the calling thread's timer slack.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// sleepFine blocks the calling OS thread for d in nanosleep(2), whose
// resolution is the kernel's high-resolution timers plus the thread's
// timer slack — 50µs by default, which the kernel may add to batch the
// wake-up with others, so the sleep runs at a slack of 1ns. The Go
// runtime's own timers cannot do that: an otherwise idle runtime waits
// for them in epoll_wait, whose timeout is whole milliseconds, so a
// 100µs time.Sleep returns after 1.1ms. The thread is parked in the
// kernel, not spinning, and the call is not interruptible — callers
// keep d under a millisecond.
func sleepFine(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	withTimerSlack(1, func() {
		// A signal (the profiler's SIGPROF, say) cuts the sleep short with
		// EINTR and the remainder in ts; sleep that too.
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	})
}

// withTimerSlack runs f with the calling thread's timer slack set to ns
// nanoseconds, and restores the thread's own slack after it. The slack
// is per thread, so the goroutine stays locked to it meanwhile; where
// prctl(2) refuses, f runs at the thread's slack.
func withTimerSlack(ns uintptr, f func()) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	old, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	if errno == 0 {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
	}
	f()
	if errno == 0 {
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, old, 0)
	}
}

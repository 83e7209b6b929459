package serve

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// timerSlack reads the calling thread's timer slack in nanoseconds.
func timerSlack(t *testing.T) uintptr {
	t.Helper()
	ns, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	if errno != 0 {
		t.Skipf("prctl(PR_GET_TIMERSLACK): %v", errno)
	}
	return ns
}

// TestSleepFineTimerSlack: the fine sleep runs at a timer slack of at
// most 1µs, and the thread gets its own slack back after it — on a
// locked thread, so every read is of the same thread. The sleep itself
// allocates nothing.
func TestSleepFineTimerSlack(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	before := timerSlack(t)
	var during uintptr
	withTimerSlack(1, func() { during = timerSlack(t) })
	if during > 1000 {
		t.Fatalf("timer slack during the sleep is %dns, want at most 1µs", during)
	}
	if after := timerSlack(t); after != before {
		t.Fatalf("timer slack %dns after the sleep, %dns before", after, before)
	}
	sleepFine(time.Microsecond)
	if after := timerSlack(t); after != before {
		t.Fatalf("timer slack %dns after sleepFine, %dns before", after, before)
	}
	if n := testing.AllocsPerRun(20, func() { sleepFine(time.Microsecond) }); n != 0 {
		t.Fatalf("sleepFine allocates %v times, want 0", n)
	}
}

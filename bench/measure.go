package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"socrates/internal/cminor/serve"
)

// usage is what the process had consumed at one instant.
type usage struct {
	at       time.Time
	steal    int64 // jiffies the hypervisor kept from this machine, -1 if unknown
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
}

// cpuNow is the CPU time (user + system) the process has used so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stolen reads the machine's cumulative steal time from /proc/stat, in
// jiffies (1/100 s), summed over its CPUs.
func stolen() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return v
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), steal: stolen(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

// samples is everything one measurement window produced.
type samples struct {
	lat       [][]int64 // request latency in ns, per kernel of the workload
	attempted int64
	failed    int64 // errors, refusals, sheds and oracle mismatches
	wall      time.Duration
	// From the window's slices, in reference-box time (calib.go): the
	// requests per second and CPU nanoseconds per request of a typical
	// slice, and the box's mean speed (1 = the reference box).
	rps, cpuPerReq, speed float64
	// stolen is the share of the machine's CPU time the hypervisor kept
	// from it over the window, -1 where /proc/stat does not say.
	stolen   float64
	mallocs  uint64
	bytes    uint64
	gcCycles uint32

	// Only startup fills these: loads that seeded at least one site, and
	// (when traced) the sizes of the logs written.
	warmHits, logBytes int64

	// Only the serve workloads fill these, and only when traced.
	serve        []serveSample
	snap0, snap1 serve.Snapshot // the server's counters at both ends of the window
	genLate      []int64        // ns the open-loop generator ran behind each due time
}

// window brackets a measurement: open it after set-up, close it after
// the last completion.
type window struct{ u0 usage }

func openWindow() window {
	// Start every window from a collected heap so that garbage left by
	// set-up is not billed to the first requests.
	runtime.GC()
	return window{readUsage()}
}

func (w window) close(s *samples) {
	u1 := readUsage()
	s.wall = u1.at.Sub(w.u0.at)
	s.mallocs = u1.mallocs - w.u0.mallocs
	s.bytes = u1.bytes - w.u0.bytes
	s.gcCycles = u1.gcCycles - w.u0.gcCycles
	s.stolen = -1
	if u1.steal >= 0 && w.u0.steal >= 0 {
		s.stolen = float64(u1.steal-w.u0.steal) / 100 / (s.wall.Seconds() * float64(runtime.NumCPU()))
	}
}

// count is the number of latency samples recorded.
func (s *samples) count() (total, minPerKernel int) {
	minPerKernel = -1
	for _, l := range s.lat {
		total += len(l)
		if minPerKernel < 0 || len(l) < minPerKernel {
			minPerKernel = len(l)
		}
	}
	return total, max(minPerKernel, 0)
}

// endToEnd computes the gated metrics of one untraced run.
func (s *samples) endToEnd(setupS float64) map[string]float64 {
	ok := float64(s.attempted - s.failed)
	return map[string]float64{
		"setup_s":        setupS,
		"lat_p50_us":     perKernel(s.lat, 50),
		"throughput_rps": s.rps * ok / float64(s.attempted), // only correct completions count
		"cpu_us_per_req": s.cpuPerReq / 1e3,
		"allocs_per_req": float64(s.mallocs) / ok,
		"bytes_per_req":  float64(s.bytes) / ok,
	}
}

// setTypical fills the slice-derived numbers from the slicers of the
// window's clients: the clients' typical rates add up, and the
// process's CPU per request is as the first client's slices saw it.
func (s *samples) setTypical(clients ...*slicer) {
	s.rps, s.speed = 0, 0
	for i, sl := range clients {
		wall, cpu := sl.typical()
		s.rps += 1e9 / wall
		s.speed += sl.speed() / float64(len(clients))
		if i == 0 {
			s.cpuPerReq = cpu
		}
	}
}

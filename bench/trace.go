package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Span names. The prefix is the layer (package) the harness called
// into; "harness." spans are the benchmark's own work. serve.queue,
// serve.exec and serve.wake are synthetic: the harness cannot see
// inside the server, so it cuts them from Response.Wait and
// Response.Total of the finished request.
const (
	spRequest = iota
	spEpisode
	spCold
	spWarm
	spRestore
	spCheck
	spGenLate
	spParse
	spCompile
	spNew
	spCall
	spSave
	spLoad
	spServe
	spSubmit
	spQueue
	spExec
	spWake
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spRequest: "request",
	spEpisode: "episode",
	spCold:    "startup.cold",
	spWarm:    "startup.warm",
	spRestore: "harness.restore",
	spCheck:   "harness.check",
	spGenLate: "harness.gen_late",
	spParse:   "cminor.Parse",
	spCompile: "cminor.Compile",
	spNew:     "autotune.New",
	spCall:    "autotune.Call",
	spSave:    "persist.SaveTo",
	spLoad:    "persist.LoadFrom",
	spServe:   "serve.request",
	spSubmit:  "serve.Submit",
	spQueue:   "serve.queue",
	spExec:    "serve.exec",
	spWake:    "serve.wake",
}

// span is one timed interval at a layer boundary. IDs are 1-based
// positions in the tracer's buffer; parent 0 marks a root. Times are
// nanoseconds since the tracer was created.
type span struct {
	name       uint8
	parent     int32
	req        int64
	start, end int64
}

// maxSpans bounds the in-memory trace (and the file written from it).
// Once it is full the rest of the run goes untraced; the file's
// "dropped" field counts the spans that did not fit.
const maxSpans = 1 << 18

// tracer records spans from the harness's side of every layer
// boundary. A nil *tracer is the untraced run: every method is a no-op
// that reads no clock. Slots are claimed with one atomic add, so
// client goroutines record without sharing a lock.
type tracer struct {
	t0      time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, maxSpans)}
}

// begin opens a span now and returns its id (0 when untraced or full).
func (t *tracer) begin(name uint8, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	return t.add(name, parent, req, time.Now(), time.Time{})
}

// end closes span id now.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = int64(time.Since(t.t0))
}

// add records a span whose start (and, unless zero, end) the caller
// already measured — the form the serve workloads use, where the
// interesting instants are only known once the response is in hand.
func (t *tracer) add(name uint8, parent int32, req int64, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	i := t.n.Add(1)
	if i > int64(len(t.spans)) {
		t.dropped.Add(1)
		return 0
	}
	sp := &t.spans[i-1]
	*sp = span{name: name, parent: parent, req: req, start: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		sp.end = int64(end.Sub(t.t0))
	}
	return int32(i)
}

// recorded is the filled prefix of the buffer.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTime sums, per span name, each span's duration minus the part of
// it its children cover (overlapping children are counted once).
func (t *tracer) selfTime() (self [numSpanNames]int64, count [numSpanNames]int64) {
	spans := t.recorded()
	type iv struct{ s, e int64 }
	kids := make(map[int32][]iv)
	for _, sp := range spans {
		if sp.parent != 0 {
			kids[sp.parent] = append(kids[sp.parent], iv{sp.start, sp.end})
		}
	}
	for i, sp := range spans {
		covered := int64(0)
		ks := kids[int32(i+1)]
		sort.Slice(ks, func(a, b int) bool { return ks[a].s < ks[b].s })
		at := sp.start
		for _, k := range ks {
			s, e := max(k.s, at), min(k.e, sp.end)
			if e > s {
				covered += e - s
				at = e
			}
		}
		self[sp.name] += sp.end - sp.start - covered
		count[sp.name]++
	}
	return self, count
}

// write dumps the trace as one JSON object: the span-name table and
// one array per span, [id, parent, request, name index, start_ns,
// end_ns] — see README.md for how to read it.
func (t *tracer) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"workload":` + strconv.Quote(workload))
	w.WriteString(`,"seed":` + strconv.FormatUint(seed, 10))
	w.WriteString(`,"dropped":` + strconv.FormatInt(t.dropped.Load(), 10))
	w.WriteString(`,"fields":["id","parent","request","name","start_ns","end_ns"],"names":[`)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\"spans\":[\n")
	var buf []byte
	for i, sp := range t.recorded() {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		for j, v := range [...]int64{int64(i + 1), int64(sp.parent), sp.req, int64(sp.name), sp.start, sp.end} {
			if j > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

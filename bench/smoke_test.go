package main

import (
	"bytes"
	"encoding/json"
	"go/format"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs all four workloads at 1/200 of the gate's window, both
// untraced and traced, and checks what the gate relies on: every
// manifest name is emitted exactly once with a finite value and nothing
// else is, nothing failed, and the trace file holds well-formed spans.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	outDir = t.TempDir()
	o := options{seed: 1, seconds: runSeconds / 200.0}
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(w.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)

			o.trace = true
			res, err = runTraced(w.Name, o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, perLayer)
			checkTrace(t, filepath.Join(outDir, w.Name+".trace.json"))
		})
	}
}

func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	// Through JSON and back, as the gate reads it: a duplicate key or a
	// value JSON cannot carry would show here.
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Metrics map[string]measured `json:"metrics"`
	}
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, manifest lists %d", len(back.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := back.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %v", d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("%s: unit %q, manifest says %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Fields []string   `json:"fields"`
		Names  []string   `json:"names"`
		Spans  [][6]int64 `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(doc.Spans) == 0 || len(doc.Fields) != 6 {
		t.Fatalf("%s: %d spans, fields %v", path, len(doc.Spans), doc.Fields)
	}
	byID := map[int64][6]int64{}
	for _, sp := range doc.Spans {
		id, name, start, end := sp[0], sp[3], sp[4], sp[5]
		if _, dup := byID[id]; dup || id < 1 {
			t.Fatalf("span id %d: duplicate or not positive", id)
		}
		byID[id] = sp
		if name < 0 || int(name) >= len(doc.Names) || end < start {
			t.Fatalf("span %d: name %d, start %d, end %d", id, name, start, end)
		}
	}
	for _, sp := range doc.Spans {
		if sp[1] == 0 {
			continue
		}
		parent, ok := byID[sp[1]]
		if !ok {
			t.Fatalf("span %d: parent %d is not in the file", sp[0], sp[1])
		}
		if sp[4] < parent[4] || sp[5] > parent[5] || sp[2] != parent[2] {
			t.Fatalf("span %d (%s, request %d, %d–%d) is not inside its parent %d (%s, request %d, %d–%d)",
				sp[0], doc.Names[sp[3]], sp[2], sp[4], sp[5], parent[0], doc.Names[parent[3]], parent[2], parent[4], parent[5])
		}
	}
}

// TestManifest holds BENCHMARK.json to the tables it is generated from
// and to the limits the gate puts on it.
func TestManifest(t *testing.T) {
	if got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json")); err != nil {
		t.Error(err)
	} else if !bytes.Equal(got, manifest()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `go run . -manifest > ../BENCHMARK.json`")
	}
	if n := len(manifest()); n > 64<<10 {
		t.Errorf("manifest is %d bytes", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q: malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloadDefs) < 2 || len(workloadDefs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer", len(workloadDefs), len(endToEnd), len(perLayer))
	}
	for _, w := range workloadDefs {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why is %d characters or not one line", w.Name, len(w.Why))
		}
	}
	widest := 0.0
	for _, d := range endToEnd {
		check(d.Name)
		widest = math.Max(widest, d.Bound)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if d := endToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != "lower" || d.Bound != widest {
		t.Errorf("setup_s must come first, in s, lower is better, with the widest bound: %+v", d)
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
}

// TestSourceIsFormattedAndVetted keeps the harness gofmt- and vet-clean
// without a change to the repository's own CI steps.
func TestSourceIsFormattedAndVetted(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if want, err := format.Source(src); err != nil || !bytes.Equal(src, want) {
			t.Errorf("%s is not gofmt-clean (%v)", f, err)
		}
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool to vet with")
	}
	if out, err := exec.Command("go", "vet", ".").CombinedOutput(); err != nil {
		t.Errorf("go vet: %v\n%s", err, out)
	}
}

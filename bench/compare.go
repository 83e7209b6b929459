package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads a results file written with -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s: line without a result", path)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values gathers one metric of one workload over a file's runs.
func values(recs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// verdict judges b against a for one metric: "unresolved" when either
// side's own quartile spread is wider than the bound, "worse" when b's
// median is worse than a's by more than the bound, else "ok". delta is
// signed so that positive means worse.
func verdict(d metricDef, a, b []float64) (medA, medB, delta, spread float64, v string) {
	medA, medB = median(a), median(b)
	delta = (medB - medA) / math.Abs(medA)
	if d.Better == "higher" {
		delta = -delta
	}
	spread = math.Max(quartileSpread(a), quartileSpread(b))
	switch {
	case d.Bound == 0:
		v = "-"
	case spread > d.Bound:
		v = "unresolved"
	case delta > d.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return
}

// compareFiles writes the markdown table of b against a: one row per
// (workload, metric) the two files share, gated metrics first.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| workload | metric | unit | runs a/b | median a | median b | worse by | spread | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
	rows := 0
	for _, wl := range workloadDefs {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				medA, medB, delta, spread, v := verdict(d, va, vb)
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.1f%%", d.Bound*100)
				}
				fmt.Fprintf(w, "| %s | %s | %s | %d/%d | %.4g | %.4g | %+.2f%% | %.2f%% | %s | %s |\n",
					wl.Name, d.Name, d.Unit, len(va), len(vb), medA, medB, delta*100, spread*100, bound, v)
				rows++
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no (workload, metric) pair", pathA, pathB)
	}
	return nil
}

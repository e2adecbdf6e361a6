package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the harness itself reads: the
// bound by which each end-to-end metric may worsen.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds finds BENCHMARK.json in the working directory or its parent
// (the benchmark runs from the repository root or from bench/).
func loadBounds() (*benchmarkFile, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(data, &bf); err != nil {
			return nil, err
		}
		return &bf, nil
	}
	return nil, firstErr
}

// selfCheck runs every workload twice and prints, per workload and
// end-to-end metric, both values, how far the second is from the first,
// and the bound. It fails when the two differ — in either direction — by
// more than the bound, or when a counted metric differs at all.
func selfCheck(o options, stdout, stderr io.Writer) int {
	bf, err := loadBounds()
	if err != nil {
		fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
		return 1
	}
	o.trace = false
	misses := 0
	thetas := map[string]float64{}
	fmt.Fprintf(stdout, "%-14s %-20s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "differ", "bound")
	for _, w := range workloads {
		var runs [2]result
		for i := range runs {
			if runs[i], err = runWorkload(w, o); err != nil {
				fmt.Fprintf(stderr, "bench: selfcheck: %s: %v\n", w.name, err)
				return 1
			}
			if !runs[i].Correct {
				fmt.Fprintf(stderr, "bench: selfcheck: %s: %d of %d operations failed\n", w.name, runs[i].Failed, runs[i].Attempted)
				misses++
			}
		}
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			differ := math.Abs(b-a) / math.Abs(a)
			verdict := ""
			switch {
			case exactMetrics[m.Name] && (a < b || a > b):
				verdict = "  NOT EXACT"
				misses++
			case !(differ <= m.Bound): // also a NaN: a metric that read 0
				verdict = "  MISS"
				misses++
			}
			fmt.Fprintf(stdout, "%-14s %-20s %14.6g %14.6g %7.2f%% %5.1f%%%s\n", w.name, m.Name, a, b, 100*differ, 100*m.Bound, verdict)
		}
		thetas[w.name] = runs[0].Metrics["theta_evals_per_op"].Value
	}
	// The two join workloads do the same Θ work by construction: only the
	// pool differs.
	if hot, cold := thetas["join-hot"], thetas["join-cold"]; hot < cold || hot > cold {
		fmt.Fprintf(stdout, "theta_evals_per_op differs between join-hot (%g) and join-cold (%g)\n", hot, cold)
		misses++
	}
	if misses > 0 {
		fmt.Fprintf(stdout, "selfcheck: %d misses\n", misses)
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: every metric repeated within its bound")
	return 0
}

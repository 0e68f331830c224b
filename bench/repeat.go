package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json this program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// repeatRuns runs n times with seeds seed..seed+n-1 and prints, for each
// metric, the median, the quartiles, and the spreads as a share of the
// median: the quartile distance (what the bound is checked against) and
// max − min. It returns 1 when a run is incorrect or a metric's quartile
// spread exceeds its BENCHMARK.json bound. setup_s is shown but not
// gated: its bound applies between medians of separate sets of runs.
func repeatRuns(seed int64, n int, run func(seed int64) (*result, error)) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	values := map[string][]float64{}
	units := map[string]string{}
	status := 0
	for i := 0; i < n; i++ {
		res, err := run(seed + int64(i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		line, _ := json.Marshal(res) // finite numbers only: run checked them
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed+int64(i), line)
		if !res.Correct {
			status = 1
		}
		for k, v := range res.Metrics {
			values[k] = append(values[k], v.Value)
			units[k] = v.Unit
		}
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-30s %-6s %14s %14s %14s %8s %8s %7s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr%", "range%", "bound%", "verdict")
	for _, k := range names {
		v := values[k]
		q1, med, q3 := quartiles(v)
		lo, hi := v[0], v[0]
		for _, x := range v {
			lo, hi = min(lo, x), max(hi, x)
		}
		iqr, rng := 100*(q3-q1)/med, 100*(hi-lo)/med
		verdict, bound := "", "-"
		if b, ok := bounds[k]; ok {
			bound = fmt.Sprintf("%.1f", 100*b)
			switch {
			case k == "setup_s":
				verdict = "not gated"
			case iqr > 100*b:
				verdict, status = "BREACH", 1
			case iqr > 100*b/3:
				verdict = "ok (above a third of the bound)"
			default:
				verdict = "ok"
			}
		}
		fmt.Printf("%-30s %-6s %14.6g %14.6g %14.6g %8.2f %8.2f %7s  %s\n", k, units[k], med, q1, q3, iqr, rng, bound, verdict)
	}
	return status
}

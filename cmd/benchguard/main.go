// Command benchguard compares a freshly emitted BENCH_sort.json against the
// committed one and fails (exit 1) when any engine's I/O efficiency
// regresses: a row's io_ratio_vs_lower_bound more than 10% above the
// committed ratio for the same (engine, workload, records) point, or a
// point that disappeared from the fresh file. Model I/O counts are
// deterministic, so the tolerance only exists to absorb intentional small
// re-tunings without a guard edit.
//
// Usage: benchguard -committed BENCH_sort.json -fresh /tmp/BENCH_sort.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type row struct {
	Engine     string  `json:"engine"`
	Workload   string  `json:"workload"`
	Records    int     `json:"records"`
	FileBacked bool    `json:"file_backed"`
	IOs        int64   `json:"ios"`
	IORatio    float64 `json:"io_ratio_vs_lower_bound"`
}

type bench struct {
	Benchmark string `json:"benchmark"`
	Geometry  string `json:"geometry"`
	Results   []row  `json:"results"`
}

func load(path string) (*bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Results) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return &b, nil
}

func key(r row) string {
	return fmt.Sprintf("%s/%s/n=%d/file=%v", r.Engine, r.Workload, r.Records, r.FileBacked)
}

func main() {
	committedPath := flag.String("committed", "BENCH_sort.json", "committed benchmark file (the baseline)")
	freshPath := flag.String("fresh", "", "freshly emitted benchmark file to check")
	slack := flag.Float64("slack", 1.10, "allowed ratio growth factor before failing")
	flag.Parse()
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -fresh is required")
		os.Exit(2)
	}

	committed, err := load(*committedPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}

	freshBy := make(map[string]row, len(fresh.Results))
	for _, r := range fresh.Results {
		freshBy[key(r)] = r
	}

	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Fprintf(os.Stderr, "benchguard: FAIL "+format+"\n", args...)
	}
	for _, old := range committed.Results {
		now, ok := freshBy[key(old)]
		if !ok {
			fail("%s: point missing from the fresh emit", key(old))
			continue
		}
		if now.IORatio > old.IORatio**slack {
			fail("%s: io_ratio %.3f exceeds committed %.3f by more than %.0f%% (%d vs %d I/Os)",
				key(old), now.IORatio, old.IORatio, (*slack-1)*100, now.IOs, old.IOs)
		} else {
			fmt.Printf("benchguard: ok %s ratio %.3f (committed %.3f)\n", key(old), now.IORatio, old.IORatio)
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchguard: %d points checked against %s, no regressions\n", len(committed.Results), *committedPath)
}

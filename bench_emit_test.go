package balancesort_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"balancesort"
)

// TestEmitSortBench writes the standard-geometry sort measurement to
// BENCH_sort.json at the repository root: model I/O counts against the
// Theorem 1 lower bound plus host wall time, for every sort engine over a
// uniform, a duplicate-heavy, and an adversarially skewed workload, plus
// one larger-than-memoryload file-backed point per engine. Gated on
// EMIT_BENCH so the ordinary test run stays fast and side-effect free; CI
// sets the variable, and cmd/benchguard fails the build if any engine's
// io_ratio_vs_lower_bound regresses against the committed file.
func TestEmitSortBench(t *testing.T) {
	if os.Getenv("EMIT_BENCH") == "" {
		t.Skip("set EMIT_BENCH=1 to emit BENCH_sort.json")
	}
	type row struct {
		Engine     string  `json:"engine"`
		Workload   string  `json:"workload"`
		Records    int     `json:"records"`
		FileBacked bool    `json:"file_backed,omitempty"`
		IOs        int64   `json:"ios"`
		IOBound    float64 `json:"io_lower_bound"`
		IORatio    float64 `json:"io_ratio_vs_lower_bound"`
		Seconds    float64 `json:"seconds"`
		RecsPerSec float64 `json:"records_per_sec"`
	}
	out := struct {
		Benchmark string `json:"benchmark"`
		Geometry  string `json:"geometry"`
		Results   []row  `json:"results"`
	}{Benchmark: "sort_model_costs", Geometry: "D=8 B=64 M=32768"}

	cfg := balancesort.Config{Disks: 8, BlockSize: 64, Memory: 1 << 15}
	engines := []struct {
		name string
		algo balancesort.Algorithm
		eng  balancesort.Engine
	}{
		{"balancesort", balancesort.AlgoBalanceSort, balancesort.EngineBalanceSort},
		{"stripedmerge", balancesort.AlgoStripedMerge, balancesort.EngineStripedMerge},
	}

	// In-memory model runs: every engine over a uniform, a duplicate-heavy,
	// and an adversarially skewed key distribution at two input sizes.
	for _, w := range []balancesort.Workload{balancesort.Uniform, balancesort.FewDistinct, balancesort.Zipf} {
		for _, n := range []int{1 << 16, 1 << 18} {
			recs := balancesort.NewWorkload(w, n, 42)
			for _, e := range engines {
				start := time.Now()
				res, err := balancesort.SortWith(e.algo, recs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sec := time.Since(start).Seconds()
				out.Results = append(out.Results, row{
					Engine:     e.name,
					Workload:   w.String(),
					Records:    n,
					IOs:        res.IOs,
					IOBound:    res.IOLowerBound,
					IORatio:    float64(res.IOs) / res.IOLowerBound,
					Seconds:    sec,
					RecsPerSec: float64(n) / sec,
				})
				t.Logf("%s/%s n=%d: %d IOs (%.2fx bound), %.3fs", e.name, w, n, res.IOs,
					float64(res.IOs)/res.IOLowerBound, sec)
			}
		}
	}

	// One larger-than-memoryload point through the file-backed path: 1Mi
	// records (32x the model memory) sorted end to end from disk.
	dir := t.TempDir()
	const bigN = 1 << 20
	inPath := filepath.Join(dir, "in.bin")
	if err := balancesort.WriteRecordFile(inPath, balancesort.NewWorkload(balancesort.Uniform, bigN, 42)); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		fcfg := cfg
		fcfg.Engine = e.eng
		outPath := filepath.Join(dir, e.name+".out")
		start := time.Now()
		res, err := balancesort.SortFile(inPath, outPath, "", fcfg)
		if err != nil {
			t.Fatal(err)
		}
		sec := time.Since(start).Seconds()
		out.Results = append(out.Results, row{
			Engine:     e.name,
			Workload:   "uniform",
			Records:    bigN,
			FileBacked: true,
			IOs:        res.IOs,
			IOBound:    res.IOLowerBound,
			IORatio:    float64(res.IOs) / res.IOLowerBound,
			Seconds:    sec,
			RecsPerSec: float64(bigN) / sec,
		})
		t.Logf("%s/uniform n=%d (file-backed): %d IOs (%.2fx bound), %.3fs", e.name, bigN,
			res.IOs, float64(res.IOs)/res.IOLowerBound, sec)
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_sort.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_sort.json")
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"balancesort/internal/obs"
)

// benchSort runs one cluster sort over w in-process workers and returns the
// wall time. Optional mods tweak the SortSpec (tracing, sampling) before
// the run.
func benchSort(tb testing.TB, addrs []string, inPath string, n int, mods ...func(*SortSpec)) time.Duration {
	tb.Helper()
	outPath := filepath.Join(tb.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	for attempt := 0; ; attempt++ {
		start := time.Now()
		spec := SortSpec{Workers: addrs}
		for _, m := range mods {
			m(&spec)
		}
		stats, err := Sort(ctx, inPath, outPath, spec)
		if err != nil {
			// A worker may still be tearing the previous bench job's
			// session down when the next one dials in; give it a moment.
			if attempt < 40 && strings.Contains(err.Error(), "busy") {
				time.Sleep(25 * time.Millisecond)
				continue
			}
			tb.Fatal(err)
		}
		if stats.Records != n {
			tb.Fatalf("sorted %d of %d records", stats.Records, n)
		}
		return time.Since(start)
	}
}

// BenchmarkClusterSort measures end-to-end cluster sort wall time as the
// worker count scales on one machine (loopback TCP, in-memory shard sorts,
// so the measured quantity is runtime + protocol overhead, not disk).
func BenchmarkClusterSort(b *testing.B) {
	const n = 1 << 17
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			addrs := startWorkers(b, w, nil)
			inPath, _ := makeInput(b, n, 99, false)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := benchSort(b, addrs, inPath, n)
				b.ReportMetric(float64(n)/d.Seconds(), "recs/s")
			}
		})
	}
}

// TestEmitStragglerBench measures what a 10x-slowed worker costs a
// 4-worker job with the straggler machinery off (the job simply waits the
// stall out) versus on with hedging (the victim's shard is speculatively
// re-sorted on the fastest idle peer), plus an unstalled reference run.
// Written to BENCH_straggler.json with a merged Chrome trace of the hedged
// run (TRACE_straggler.json) showing the hedge span beside the stalled
// local sort. Gated on EMIT_BENCH; CI uploads both.
func TestEmitStragglerBench(t *testing.T) {
	if os.Getenv("EMIT_BENCH") == "" {
		t.Skip("set EMIT_BENCH=1 to emit BENCH_straggler.json")
	}
	const n = 1 << 18
	run := func(stall *StallSpec, sc StragglerConfig, tr *obs.Tracer) (time.Duration, *SortStats) {
		addrs := startWorkers(t, 4, fastWorker)
		inPath, _ := makeInput(t, n, 321, false)
		outPath := filepath.Join(t.TempDir(), "out.dat")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		start := time.Now()
		stats, err := Sort(ctx, inPath, outPath, SortSpec{
			Workers:   addrs,
			Dial:      fastDial,
			Heartbeat: fastHeartbeat(),
			Stall:     stall,
			Straggler: sc,
			Trace:     tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), stats
	}

	cleanDur, _ := run(nil, StragglerConfig{}, nil)
	stall := &StallSpec{Phase: "local-sort", Worker: 1, Factor: 10}
	stalledDur, _ := run(stall, StragglerConfig{}, nil)
	tr := obs.New(0, nil)
	hedged := StragglerConfig{
		Enabled: true,
		Hedge:   true,
		// Fire early: the 10x stall stretches a ~15ms shard sort to ~150ms,
		// so the hedge must launch well inside that window to win the race.
		SoftBudget: 25 * time.Millisecond,
		HardBudget: time.Minute, // the hedge, not demotion, must do the rescue
	}
	hedgedDur, stats := run(stall, hedged, tr)
	if stats.Recovery == nil || stats.Recovery.HedgeWins != 1 {
		t.Fatalf("hedged run recorded no hedge win: %+v", stats.Recovery)
	}
	if hedgedDur >= stalledDur {
		t.Errorf("hedging did not pay: hedged %.3fs >= stalled %.3fs", hedgedDur.Seconds(), stalledDur.Seconds())
	}

	out := struct {
		Benchmark      string  `json:"benchmark"`
		Records        int     `json:"records"`
		Workers        int     `json:"workers"`
		StallPhase     string  `json:"stall_phase"`
		StallFactor    int     `json:"stall_factor"`
		CleanSeconds   float64 `json:"clean_seconds"`
		StalledSeconds float64 `json:"stalled_seconds"`
		HedgedSeconds  float64 `json:"hedged_seconds"`
		HedgeSpeedup   float64 `json:"hedge_speedup"`
		HedgeWins      int     `json:"hedge_wins"`
	}{
		Benchmark: "cluster_straggler", Records: n, Workers: 4,
		StallPhase: "local-sort", StallFactor: 10,
		CleanSeconds:   cleanDur.Seconds(),
		StalledSeconds: stalledDur.Seconds(),
		HedgedSeconds:  hedgedDur.Seconds(),
		HedgeSpeedup:   stalledDur.Seconds() / hedgedDur.Seconds(),
		HedgeWins:      stats.Recovery.HedgeWins,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "BENCH_straggler.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (clean %.3fs, stalled %.3fs, hedged %.3fs, %.2fx)", path,
		cleanDur.Seconds(), stalledDur.Seconds(), hedgedDur.Seconds(), out.HedgeSpeedup)

	tracePath := filepath.Join("..", "..", "TRACE_straggler.json")
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteChromeTrace(f, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d spans)", tracePath, len(tr.Spans()))
}

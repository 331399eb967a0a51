package balancesort

import (
	"path/filepath"
	"runtime/metrics"
	"testing"
)

// heapAllocBytes returns the cumulative bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestSortFileAllocBudget guards the allocation-free sort paths: a sort of
// 64Ki records at D=8 B=64 M=16Ki through the I/O layer reuses its radix
// scratch, memoryload, merge and block buffers, and a parallel I/O costs
// no allocation of its own, so each engine allocates tens of bytes per
// record, not the hundreds a fresh buffer, request and reply channel per
// block transfer cost.
func TestSortFileAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		engine Engine
		dist   Workload
		budget float64 // bytes allocated per record
	}{
		{EngineBalanceSort, Uniform, 96},
		{EngineStripedMerge, Zipf, 48},
	} {
		t.Run(string(tc.engine), func(t *testing.T) {
			const n = 1 << 16
			dir := t.TempDir()
			in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
			if err := WriteRecordFile(in, NewWorkload(tc.dist, n, 3)); err != nil {
				t.Fatal(err)
			}
			cfg := Config{Disks: 8, BlockSize: 64, Memory: 1 << 14, Engine: tc.engine}

			before := heapAllocBytes()
			if _, err := SortFile(in, out, filepath.Join(dir, "scratch"), cfg); err != nil {
				t.Fatal(err)
			}
			perRec := float64(heapAllocBytes()-before) / n
			t.Logf("SortFile allocated %.0f B/record", perRec)
			if perRec > tc.budget {
				t.Fatalf("SortFile allocated %.0f B/record, budget %.0f", perRec, tc.budget)
			}
		})
	}
}

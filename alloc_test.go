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

// TestSortFileAllocBudget guards the allocation-free memoryload path: a
// Balance Sort of 64Ki records at D=8 B=64 M=16Ki with the I/O engine on
// reuses its radix scratch, read buffers and block buffers, so it should
// allocate a few hundred bytes per record, not the ~3.9 KiB per record a
// fresh radix histogram per pass costs.
func TestSortFileAllocBudget(t *testing.T) {
	const n = 1 << 16
	const budget = 1024 // bytes allocated per record
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	if err := WriteRecordFile(in, NewWorkload(Uniform, n, 3)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Disks: 8, BlockSize: 64, Memory: 1 << 14, Engine: EngineBalanceSort, IO: IOConfig{Engine: true}}

	before := heapAllocBytes()
	if _, err := SortFile(in, out, filepath.Join(dir, "scratch"), cfg); err != nil {
		t.Fatal(err)
	}
	perRec := float64(heapAllocBytes()-before) / n
	t.Logf("SortFile allocated %.0f B/record", perRec)
	if perRec > budget {
		t.Fatalf("SortFile allocated %.0f B/record, budget %d", perRec, budget)
	}
}

package balancesort

import (
	"context"
	"net"
	"path/filepath"
	"runtime/metrics"
	"testing"
	"time"
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

// TestClusterSortAllocBudget guards the cluster's wire path: an in-process
// 2-worker ClusterSortFile of 256Ki uniform records, each shard sorted at
// the benchmark's worker geometry (D=8 B=64 M=64Ki), moves every frame,
// block and record chunk through reused buffers, so the whole job —
// coordinator, both workers and their shard sorts — allocates tens of
// bytes per record, not the ~175 that a fresh buffer per frame and block
// and a decoded copy of every drained chunk cost. Most of what is left is
// per job, not per record: connection buffers and the shard sorts' own.
func TestClusterSortAllocBudget(t *testing.T) {
	const n = 1 << 18
	dir := t.TempDir()
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		opt := WorkerOptions{ScratchDir: t.TempDir(), Sort: Config{Disks: 8, BlockSize: 64, Memory: 1 << 16}}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = ServeWorker(ctx, ln, opt)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
	}
	in, out := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	if err := WriteRecordFile(in, NewWorkload(Uniform, n, 5)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	before := heapAllocBytes()
	if _, err := ClusterSortFile(ctx, in, out, ClusterConfig{Workers: addrs}); err != nil {
		t.Fatal(err)
	}
	perRec := float64(heapAllocBytes()-before) / n
	t.Logf("ClusterSortFile allocated %.1f B/record", perRec)
	const budget = 60 // bytes allocated per record; ~37 measured, ~175 before the buffers were reused
	if perRec > budget {
		t.Fatalf("ClusterSortFile allocated %.1f B/record, budget %d", perRec, budget)
	}
}

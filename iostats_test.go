package balancesort

import (
	"path/filepath"
	"slices"
	"testing"

	"balancesort/internal/diskio"
)

// TestResultIOPerDiskCounts pins Result.IO's per-disk device ops and the
// bytes each way for three sorts at D=8 B=64: sort-dist's and sort-auto's
// inputs, and a cluster-2w shard's. A transfer counts one op on every disk
// it touches, with that disk's blocks' bytes, so these are the values the
// one-file-per-disk layout counted, where a striped transfer was one
// device call per disk, though the sorts now make far fewer device calls.
func TestResultIOPerDiskCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		w      Workload
		n, m   int
		engine Engine
		reads  []int64
		writes []int64
		bytes  int64
	}{
		{"sort-dist", Uniform, 256 << 10, 16 << 10, EngineBalanceSort,
			[]int64{1170, 1136, 1136, 1124, 1124, 1123, 1125, 1125},
			[]int64{689, 674, 679, 673, 673, 673, 675, 676}, 16850944},
		{"sort-auto", Zipf, 1 << 20, 16 << 10, EngineAuto,
			[]int64{3456, 3456, 3456, 3456, 3456, 3456, 3456, 3456},
			[]int64{640, 640, 640, 640, 640, 640, 640, 640}, 67108864},
		{"cluster-shard", Uniform, 512 << 10, 64 << 10, EngineAuto,
			[]int64{400, 400, 400, 400, 400, 400, 400, 400},
			[]int64{160, 160, 160, 160, 160, 160, 160, 160}, 25165824},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in := filepath.Join(dir, "in.bin")
			if err := WriteRecordFile(in, NewWorkload(tc.w, tc.n, 7)); err != nil {
				t.Fatal(err)
			}
			res, err := SortFile(in, filepath.Join(dir, "out.bin"), "", Config{Disks: 8, BlockSize: 64, Memory: tc.m, Engine: tc.engine})
			if err != nil {
				t.Fatal(err)
			}
			var reads, writes []int64
			for _, d := range res.IO.PerDisk {
				reads, writes = append(reads, d.Reads), append(writes, d.Writes)
			}
			if !slices.Equal(reads, tc.reads) || !slices.Equal(writes, tc.writes) {
				t.Errorf("per-disk reads %v writes %v, want %v and %v", reads, writes, tc.reads, tc.writes)
			}
			if a := res.IO.Aggregate(); a.BytesRead != tc.bytes || a.BytesWritten != tc.bytes {
				t.Errorf("%d bytes read and %d written, want %d each", a.BytesRead, a.BytesWritten, tc.bytes)
			}
		})
	}
}

// TestIOStatsAggregate pins the aggregation rule: every counter sums across
// disks.
func TestIOStatsAggregate(t *testing.T) {
	s := &IOStats{PerDisk: []DiskIOStats{
		{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 4, Retries: 5, Faults: 6, BreakerTrips: 7,
			CoalescedBlocks: 11, ReadNanos: 8, WriteNanos: 9, BusyNanos: 10},
		{Reads: 10, Writes: 20, BytesRead: 30, BytesWritten: 40, Retries: 50, Faults: 60, BreakerTrips: 70,
			CoalescedBlocks: 110, ReadNanos: 80, WriteNanos: 90, BusyNanos: 100},
		{Reads: 100},
	}}
	agg := s.Aggregate()
	want := DiskIOStats{Reads: 111, Writes: 22, BytesRead: 33, BytesWritten: 44, Retries: 55, Faults: 66,
		BreakerTrips: 77, CoalescedBlocks: 121, ReadNanos: 88, WriteNanos: 99, BusyNanos: 110}
	if agg != want {
		t.Fatalf("Aggregate = %+v, want %+v", agg, want)
	}
	var empty IOStats
	if got := empty.Aggregate(); got != (DiskIOStats{}) {
		t.Fatalf("empty Aggregate = %+v, want zero", got)
	}
}

// TestIOStatsFrom pins the layer-snapshot-to-public-stats field mapping,
// including CoalescedBlocks: the blocks written beyond the first of each
// device write, derived from the bytes written.
func TestIOStatsFrom(t *testing.T) {
	if got := ioStatsFrom(nil, 4); got != nil {
		t.Fatalf("ioStatsFrom(nil) = %+v, want nil", got)
	}
	snap := &diskio.Snapshot{PerDisk: []diskio.DiskStats{
		{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 40, Retries: 5, Faults: 6, BreakerTrips: 7,
			ReadNanos: 8, WriteNanos: 9, BusyNanos: 10},
		{Reads: 21},
	}}
	got := ioStatsFrom(snap, 4)
	if len(got.PerDisk) != 2 {
		t.Fatalf("%d disks converted, want 2", len(got.PerDisk))
	}
	// 40 bytes of 4-byte blocks in 2 device writes: 10 blocks, 8 beyond
	// the first of each write.
	want0 := DiskIOStats{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 40, CoalescedBlocks: 8, Retries: 5,
		Faults: 6, BreakerTrips: 7, ReadNanos: 8, WriteNanos: 9, BusyNanos: 10}
	if got.PerDisk[0] != want0 {
		t.Fatalf("disk 0 = %+v, want %+v", got.PerDisk[0], want0)
	}
	if got.PerDisk[1] != (DiskIOStats{Reads: 21}) {
		t.Fatalf("disk 1 = %+v", got.PerDisk[1])
	}
}

package balancesort

import (
	"testing"

	"balancesort/internal/diskio"
)

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

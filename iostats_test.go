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
			ReadNanos: 8, WriteNanos: 9, BusyNanos: 10},
		{Reads: 10, Writes: 20, BytesRead: 30, BytesWritten: 40, Retries: 50, Faults: 60, BreakerTrips: 70,
			ReadNanos: 80, WriteNanos: 90, BusyNanos: 100},
		{Reads: 100},
	}}
	agg := s.Aggregate()
	want := DiskIOStats{Reads: 111, Writes: 22, BytesRead: 33, BytesWritten: 44, Retries: 55, Faults: 66,
		BreakerTrips: 77, ReadNanos: 88, WriteNanos: 99, BusyNanos: 110}
	if agg != want {
		t.Fatalf("Aggregate = %+v, want %+v", agg, want)
	}
	var empty IOStats
	if got := empty.Aggregate(); got != (DiskIOStats{}) {
		t.Fatalf("empty Aggregate = %+v, want zero", got)
	}
}

// TestIOStatsFrom pins the layer-snapshot-to-public-stats field mapping.
func TestIOStatsFrom(t *testing.T) {
	if got := ioStatsFrom(nil); got != nil {
		t.Fatalf("ioStatsFrom(nil) = %+v, want nil", got)
	}
	snap := &diskio.Snapshot{PerDisk: []diskio.DiskStats{
		{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 4, Retries: 5, Faults: 6, BreakerTrips: 7,
			ReadNanos: 8, WriteNanos: 9, BusyNanos: 10},
		{Reads: 21},
	}}
	got := ioStatsFrom(snap)
	if len(got.PerDisk) != 2 {
		t.Fatalf("%d disks converted, want 2", len(got.PerDisk))
	}
	want0 := DiskIOStats{Reads: 1, Writes: 2, BytesRead: 3, BytesWritten: 4, Retries: 5, Faults: 6,
		BreakerTrips: 7, ReadNanos: 8, WriteNanos: 9, BusyNanos: 10}
	if got.PerDisk[0] != want0 {
		t.Fatalf("disk 0 = %+v, want %+v", got.PerDisk[0], want0)
	}
	if got.PerDisk[1] != (DiskIOStats{Reads: 21}) {
		t.Fatalf("disk 1 = %+v", got.PerDisk[1])
	}
}

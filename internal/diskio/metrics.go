package diskio

// DiskStats is a snapshot of one disk's counters.
type DiskStats struct {
	// Reads and Writes count completed device ops that touched the disk,
	// each moving one or more of its blocks; BytesRead/BytesWritten count
	// the bytes of its blocks moved.
	Reads, Writes           int64
	BytesRead, BytesWritten int64
	// Retries counts backoff-then-retry rounds; Faults counts injected
	// failures; BreakerTrips counts circuit-breaker cooldowns. Each counts
	// on the disk of the op's first block.
	Retries, Faults int64
	BreakerTrips    int64
	// ReadNanos/WriteNanos sum this disk's shares of the device time of
	// successful ops, an op's time split over the disks it touched by
	// their blocks — BytesRead/ReadNanos is this disk's measured read
	// bandwidth. BusyNanos sums its shares of all device-op time, failed
	// attempts included, so the disks' BusyNanos add up to the time spent
	// in device calls.
	ReadNanos, WriteNanos int64
	BusyNanos             int64
}

// Add accumulates o into s.
func (s *DiskStats) Add(o DiskStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.Retries += o.Retries
	s.Faults += o.Faults
	s.BreakerTrips += o.BreakerTrips
	s.ReadNanos += o.ReadNanos
	s.WriteNanos += o.WriteNanos
	s.BusyNanos += o.BusyNanos
}

// Snapshot is every disk's metrics at one instant.
type Snapshot struct {
	PerDisk []DiskStats
}

// Aggregate sums the per-disk stats.
func (s Snapshot) Aggregate() DiskStats {
	var total DiskStats
	for _, d := range s.PerDisk {
		total.Add(d)
	}
	return total
}

// Metrics snapshots every disk's counters. Safe to call at any time,
// including while a transfer is in flight.
func (s *Drives) Metrics() Snapshot {
	snap := Snapshot{PerDisk: make([]DiskStats, len(s.m))}
	for i := range s.m {
		m := &s.m[i]
		snap.PerDisk[i] = DiskStats{
			Reads:        m.reads.Load(),
			Writes:       m.writes.Load(),
			BytesRead:    m.bytesRead.Load(),
			BytesWritten: m.bytesWritten.Load(),
			Retries:      m.retries.Load(),
			Faults:       m.faults.Load(),
			BreakerTrips: m.breakerTrips.Load(),
			ReadNanos:    m.readNanos.Load(),
			WriteNanos:   m.writeNanos.Load(),
			BusyNanos:    m.busyNanos.Load(),
		}
	}
	return snap
}

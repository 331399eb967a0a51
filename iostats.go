package balancesort

import (
	"context"
	"time"

	"balancesort/internal/diskio"
	"balancesort/internal/obs"
)

// IOConfig configures the I/O layer every file-backed sort (SortFile,
// ResumeSortFile) moves its scratch blocks through: fault injection, and
// the retries, backoff and circuit breaker that absorb faults. The layer
// changes only wall-clock behavior, never the model costs: parallel I/O
// counts are identical whatever it is set to.
type IOConfig struct {
	// Engine does nothing: every file-backed sort uses the I/O layer.
	//
	// Deprecated: kept so existing callers compile; it will be removed.
	Engine bool
	// MaxRetries bounds the retries of a failed device op (0 = 4).
	MaxRetries int
	// FaultRate injects transient device errors with this probability —
	// the layer's retry/backoff/breaker machinery absorbs them.
	FaultRate float64
	// TornWriteRate is the probability that an injected write fault
	// leaves half the transfer behind (the retry rewrites all of it).
	TornWriteRate float64
	// LatencyJitter adds up to this much uniform random delay per device
	// op, however many blocks the op moves.
	LatencyJitter time.Duration
	// FaultSeed makes the injected fault sequence reproducible.
	FaultSeed uint64
}

// layerConfig translates the facade knobs to the I/O layer's. ctx cancels
// retry backoffs and breaker cooldowns; tr (may be nil) records the
// layer's retry/fault/breaker activity.
func (c IOConfig) layerConfig(ctx context.Context, tr *obs.Tracer) diskio.Config {
	return diskio.Config{
		MaxRetries: c.MaxRetries,
		Context:    ctx,
		Trace:      tr,
		Fault: diskio.FaultConfig{
			ErrorRate:     c.FaultRate,
			TornWriteRate: c.TornWriteRate,
			LatencyJitter: c.LatencyJitter,
			Seed:          c.FaultSeed,
		},
	}
}

// DiskIOStats are one disk's I/O layer counters (see IOStats).
type DiskIOStats struct {
	// Reads and Writes count completed device ops; a striped transfer
	// moves each disk's consecutive blocks in one op, so an op may carry
	// many blocks. BytesRead/BytesWritten are the bytes moved.
	Reads        int64 `json:"reads"`
	Writes       int64 `json:"writes"`
	BytesRead    int64 `json:"bytes_read"`
	BytesWritten int64 `json:"bytes_written"`
	// Retries, Faults, and BreakerTrips describe the fault-handling
	// layer's activity.
	Retries      int64 `json:"retries"`
	Faults       int64 `json:"faults"`
	BreakerTrips int64 `json:"breaker_trips"`
	// CoalescedBlocks counts the blocks written beyond the first of each
	// device write, so (Writes + CoalescedBlocks) / Writes is the blocks
	// per device write. It is derived from BytesWritten.
	CoalescedBlocks int64 `json:"coalesced_blocks"`
	// PrefetchIssued, PrefetchHits and QueueMax are always 0: the I/O
	// layer has no read-ahead or request queue.
	//
	// Deprecated: kept so existing readers compile; they will be removed.
	PrefetchIssued int64 `json:"prefetch_issued"`
	PrefetchHits   int64 `json:"prefetch_hits"`
	QueueMax       int64 `json:"queue_max"`
	// ReadNanos/WriteNanos sum the device time of successful ops;
	// BytesRead/ReadNanos is the disk's measured read bandwidth. BusyNanos
	// sums all device-op time including failed attempts.
	ReadNanos  int64 `json:"read_nanos,omitempty"`
	WriteNanos int64 `json:"write_nanos,omitempty"`
	BusyNanos  int64 `json:"busy_nanos,omitempty"`
}

// IOStats are the I/O layer metrics of a file-backed sort, per disk.
type IOStats struct {
	PerDisk []DiskIOStats `json:"per_disk"`
}

// Aggregate sums the per-disk stats.
func (s *IOStats) Aggregate() DiskIOStats {
	var t DiskIOStats
	for _, d := range s.PerDisk {
		t.Reads += d.Reads
		t.Writes += d.Writes
		t.BytesRead += d.BytesRead
		t.BytesWritten += d.BytesWritten
		t.Retries += d.Retries
		t.Faults += d.Faults
		t.BreakerTrips += d.BreakerTrips
		t.CoalescedBlocks += d.CoalescedBlocks
		t.ReadNanos += d.ReadNanos
		t.WriteNanos += d.WriteNanos
		t.BusyNanos += d.BusyNanos
	}
	return t
}

// ioStatsFrom converts an I/O layer snapshot of blockBytes-byte blocks to
// the public form.
func ioStatsFrom(snap *diskio.Snapshot, blockBytes int) *IOStats {
	if snap == nil {
		return nil
	}
	s := &IOStats{PerDisk: make([]DiskIOStats, len(snap.PerDisk))}
	for i, d := range snap.PerDisk {
		s.PerDisk[i] = DiskIOStats{
			Reads:           d.Reads,
			Writes:          d.Writes,
			BytesRead:       d.BytesRead,
			BytesWritten:    d.BytesWritten,
			CoalescedBlocks: d.BytesWritten/int64(blockBytes) - d.Writes,
			Retries:         d.Retries,
			Faults:          d.Faults,
			BreakerTrips:    d.BreakerTrips,
			ReadNanos:       d.ReadNanos,
			WriteNanos:      d.WriteNanos,
			BusyNanos:       d.BusyNanos,
		}
	}
	return s
}

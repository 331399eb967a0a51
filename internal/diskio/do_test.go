package diskio

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// failingDevice is a device whose every transfer fails.
type failingDevice struct{}

var errDead = errors.New("dead device")

func (failingDevice) ReadAt([]byte, int64) (int, error)  { return 0, errDead }
func (failingDevice) WriteAt([]byte, int64) (int, error) { return 0, errDead }
func (failingDevice) Close() error                       { return nil }

// writeBatch is one write of block blk on every disk.
func writeBatch(disks int, blk int64) []Transfer {
	batch := make([]Transfer, disks)
	for d := range batch {
		batch[d] = Transfer{Disk: d, Block: blk, Write: true, Buf: pattern(blk, d)}
	}
	return batch
}

// TestEngineDo checks a batch behaves exactly like its transfers issued
// one call at a time — results, retries, fail-fast, and cancellation —
// and that a warmed batch allocates nothing.
func TestEngineDo(t *testing.T) {
	const disks = 4

	t.Run("matches-per-call", func(t *testing.T) {
		cfg := Config{WriteBehind: 2, Prefetch: 1}
		batched, bm := testEngine(t, cfg, disks)
		single, sm := testEngine(t, cfg, disks)
		for blk := int64(0); blk < 6; blk++ {
			if err := batched.Do(writeBatch(disks, blk)); err != nil {
				t.Fatal(err)
			}
			for d := 0; d < disks; d++ {
				if err := single.Write(d, blk, pattern(blk, d)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A mixed batch: reads and writes over every disk, two transfers on
		// disk 0 (they run in batch order).
		mixed := []Transfer{
			{Disk: 0, Block: 1, Buf: make([]byte, testBlock)},
			{Disk: 1, Block: 9, Write: true, Buf: pattern(9, 1)},
			{Disk: 2, Block: 4, Buf: make([]byte, testBlock)},
			{Disk: 3, Block: 2, Write: true, Buf: pattern(20, 3)},
			{Disk: 0, Block: 5, Buf: make([]byte, testBlock)},
		}
		if err := batched.Do(mixed); err != nil {
			t.Fatal(err)
		}
		for _, tr := range mixed {
			if tr.Err != nil {
				t.Fatalf("transfer %+v failed: %v", tr, tr.Err)
			}
			if tr.Write {
				if err := single.Write(tr.Disk, tr.Block, tr.Buf); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want := make([]byte, testBlock)
			if err := single.Read(tr.Disk, tr.Block, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(tr.Buf, want) {
				t.Fatalf("batched read of disk %d block %d differs from a per-call read", tr.Disk, tr.Block)
			}
		}
		if err := batched.Close(); err != nil {
			t.Fatal(err)
		}
		if err := single.Close(); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < disks; d++ {
			if !bytes.Equal(bm[d].data, sm[d].data) {
				t.Fatalf("disk %d holds different bytes after batched and per-call runs", d)
			}
		}
	})

	t.Run("faults-retried", func(t *testing.T) {
		e, _ := testEngine(t, Config{
			RetryBase: 10 * time.Microsecond,
			Fault:     FaultConfig{ErrorRate: 0.3, TornWriteRate: 0.5, Seed: 7},
		}, disks)
		defer e.Close()
		for blk := int64(0); blk < 16; blk++ {
			if err := e.Do(writeBatch(disks, blk)); err != nil {
				t.Fatal(err)
			}
		}
		for blk := int64(0); blk < 16; blk++ {
			batch := make([]Transfer, disks)
			for d := range batch {
				batch[d] = Transfer{Disk: d, Block: blk, Buf: make([]byte, testBlock)}
			}
			if err := e.Do(batch); err != nil {
				t.Fatal(err)
			}
			for d, tr := range batch {
				if !bytes.Equal(tr.Buf, pattern(blk, d)) {
					t.Fatalf("disk %d block %d corrupted under faults", d, blk)
				}
			}
		}
		if m := e.Metrics().Aggregate(); m.Faults == 0 || m.Retries == 0 {
			t.Fatalf("fault layer inactive: faults=%d retries=%d", m.Faults, m.Retries)
		}
	})

	t.Run("failed-disk", func(t *testing.T) {
		devs := make([]Device, disks)
		for d := range devs {
			devs[d] = NewMemDevice()
		}
		devs[2] = failingDevice{}
		e, err := New(Config{
			BlockBytes:       testBlock,
			MaxRetries:       6,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Microsecond,
			RetryBase:        time.Microsecond,
			FailThreshold:    3,
		}, devs)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		batch := writeBatch(disks, 0)
		err = e.Do(batch)
		var failed *DiskFailedError
		if !errors.As(err, &failed) || failed.Disk != 2 || !errors.Is(err, errDead) {
			t.Fatalf("Do on a dead disk: got %v, want *DiskFailedError for disk 2", err)
		}
		for d, tr := range batch {
			if d != 2 && tr.Err != nil {
				t.Fatalf("healthy disk %d's transfer failed: %v", d, tr.Err)
			}
		}
		got := make([]byte, testBlock)
		for d := 0; d < disks; d++ {
			if d == 2 {
				continue
			}
			if err := e.Read(d, 0, got); err != nil || !bytes.Equal(got, pattern(0, d)) {
				t.Fatalf("disk %d did not complete its write (err %v)", d, err)
			}
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e, _ := testEngine(t, Config{
			MaxRetries: 50,
			RetryBase:  time.Hour, // a retry backoff only cancellation cuts short
			Context:    ctx,
			Fault:      FaultConfig{ErrorRate: 1, Seed: 9},
		}, disks)
		if err := e.Do(writeBatch(disks, 0)); err != ctx.Err() {
			t.Fatalf("got %v, want %v", err, ctx.Err())
		}
		if err := e.Close(); err != nil {
			t.Fatalf("close after cancellation: %v", err)
		}
	})

	t.Run("alloc-free", func(t *testing.T) {
		e, _ := testEngine(t, Config{}, disks)
		defer e.Close()
		batch := writeBatch(disks, 0)
		if err := e.Do(batch); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := range batch {
				batch[i].Write = !batch[i].Write
			}
			if err := e.Do(batch); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("a warmed Do of %d transfers made %.1f allocations, want 0", disks, allocs)
		}
	})
}

package diskio

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// failingDevice is a device whose every transfer fails.
type failingDevice struct{}

var errDead = errors.New("dead device")

func (failingDevice) ReadAt([]byte, int64) (int, error)  { return 0, errDead }
func (failingDevice) WriteAt([]byte, int64) (int, error) { return 0, errDead }
func (failingDevice) Close() error                       { return nil }

// writeRow writes stripe row row, one block on every disk, one op per
// block, and returns each op's outcome.
func writeRow(s *Drives, disks int, row int64) []error {
	errs := make([]error, disks)
	for d := range errs {
		blk := row*int64(disks) + int64(d)
		errs[d] = s.Write(blk, pattern(blk), nil)
	}
	return errs
}

// TestEngineDo checks the per-op contract of the guard: each op has its
// own outcome, faults are retried, a dead device fails every disk's ops
// and then fails them fast, a canceled context ends the backoff, and a
// warmed op allocates nothing.
func TestEngineDo(t *testing.T) {
	const disks = 4

	t.Run("faults-retried", func(t *testing.T) {
		e, _ := testDrives(t, Config{
			RetryBase: 10 * time.Microsecond,
			Fault:     FaultConfig{ErrorRate: 0.3, TornWriteRate: 0.5, Seed: 7},
		}, disks)
		defer e.Close()
		for row := int64(0); row < 16; row++ {
			for d, err := range writeRow(e, disks, row) {
				if err != nil {
					t.Fatalf("disk %d row %d: %v", d, row, err)
				}
			}
		}
		got := make([]byte, testBlock)
		for blk := int64(0); blk < 16*disks; blk++ {
			if err := e.Read(blk, got, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pattern(blk)) {
				t.Fatalf("block %d corrupted under faults", blk)
			}
		}
		if m := e.Metrics().Aggregate(); m.Faults == 0 || m.Retries == 0 {
			t.Fatalf("fault layer inactive: faults=%d retries=%d", m.Faults, m.Retries)
		}
	})

	t.Run("failed-disk", func(t *testing.T) {
		// The disks share one device: when it dies, every disk's op fails
		// with a *DiskFailedError naming the disk of the op's first block,
		// and once the device is declared failed no op retries.
		e, err := New(Config{
			BlockBytes:       testBlock,
			MaxRetries:       6,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Microsecond,
			RetryBase:        time.Microsecond,
			FailThreshold:    3,
		}, disks, failingDevice{})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for row := int64(0); row < 2; row++ {
			retries := e.Metrics().Aggregate().Retries
			for d, err := range writeRow(e, disks, row) {
				var failed *DiskFailedError
				if !errors.As(err, &failed) || failed.Disk != d || !errors.Is(err, errDead) {
					t.Fatalf("row %d: write to disk %d of a dead device got %v, want *DiskFailedError for disk %d", row, d, err, d)
				}
			}
			if got := e.Metrics().Aggregate().Retries; row > 0 && got != retries {
				t.Fatalf("fail-fast writes retried (%d -> %d)", retries, got)
			}
		}
		if m := e.Metrics().PerDisk; m[0].Retries == 0 || m[1].Retries != 0 {
			t.Fatalf("retries on disks 0 and 1: %d and %d; want the first op's on disk 0 only", m[0].Retries, m[1].Retries)
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		e, _ := testDrives(t, Config{
			MaxRetries: 50,
			RetryBase:  time.Hour, // a retry backoff only cancellation cuts short
			Context:    ctx,
			Fault:      FaultConfig{ErrorRate: 1, Seed: 9},
		}, disks)
		for d, err := range writeRow(e, disks, 0) {
			if err != ctx.Err() {
				t.Fatalf("disk %d: got %v, want %v", d, err, ctx.Err())
			}
		}
		if err := e.Close(); err != nil {
			t.Fatalf("close after cancellation: %v", err)
		}
	})

	t.Run("alloc-free", func(t *testing.T) {
		e, _ := testDrives(t, Config{}, disks)
		defer e.Close()
		bufs := make([][]byte, disks)
		for d := range bufs {
			bufs[d] = pattern(int64(d))
			if err := e.Write(int64(d), bufs[d], nil); err != nil {
				t.Fatal(err)
			}
		}
		tail := pattern(disks)
		allocs := testing.AllocsPerRun(100, func() {
			for d, buf := range bufs {
				if err := e.Write(int64(d), buf, nil); err != nil {
					t.Fatal(err)
				}
				if err := e.Read(int64(d), buf, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Write(1, bufs[0], tail); err != nil {
				t.Fatal(err)
			}
			if err := e.Read(1, bufs[0], tail); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("warmed ops on %d disks made %.1f allocations, want 0", disks, allocs)
		}
	})
}

// TestNoGoroutines checks the layer runs every transfer on its caller:
// guarding a device, moving blocks through it (retries included) and
// closing it starts no goroutine.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e, _ := testDrives(t, Config{
		RetryBase: time.Microsecond,
		Fault:     FaultConfig{ErrorRate: 0.2, TornWriteRate: 0.5, Seed: 4},
	}, 4)
	for row := int64(0); row < 8; row++ {
		for d, err := range writeRow(e, 4, row) {
			if err != nil {
				t.Fatalf("disk %d row %d: %v", d, row, err)
			}
		}
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines with the device open, %d before", got, before)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
}

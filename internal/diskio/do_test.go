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

// writeRow writes block blk on every disk and returns each transfer's
// outcome.
func writeRow(s *Drives, disks int, blk int64) []error {
	errs := make([]error, disks)
	for d := range errs {
		errs[d] = s.Drive(d).Write(blk, pattern(blk, d))
	}
	return errs
}

// TestEngineDo checks the per-transfer contract of a parallel I/O's
// block transfers: each transfer has its own outcome, faults are retried,
// a dead disk fails fast while the other disks complete, a canceled
// context ends the backoff, and a warmed transfer allocates nothing.
func TestEngineDo(t *testing.T) {
	const disks = 4

	t.Run("faults-retried", func(t *testing.T) {
		e, _ := testDrives(t, Config{
			RetryBase: 10 * time.Microsecond,
			Fault:     FaultConfig{ErrorRate: 0.3, TornWriteRate: 0.5, Seed: 7},
		}, disks)
		defer e.Close()
		for blk := int64(0); blk < 16; blk++ {
			for d, err := range writeRow(e, disks, blk) {
				if err != nil {
					t.Fatalf("disk %d block %d: %v", d, blk, err)
				}
			}
		}
		got := make([]byte, testBlock)
		for blk := int64(0); blk < 16; blk++ {
			for d := 0; d < disks; d++ {
				if err := e.Drive(d).Read(blk, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, pattern(blk, d)) {
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
			devs[d] = &memDevice{}
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
		for round := 0; round < 2; round++ {
			// The second round hits the failed disk's fail-fast path.
			retries := e.Metrics().PerDisk[2].Retries
			errs := writeRow(e, disks, int64(round))
			var failed *DiskFailedError
			if !errors.As(errs[2], &failed) || failed.Disk != 2 || !errors.Is(errs[2], errDead) {
				t.Fatalf("round %d: write to a dead disk got %v, want *DiskFailedError for disk 2", round, errs[2])
			}
			if got := e.Metrics().PerDisk[2].Retries; round > 0 && got != retries {
				t.Fatalf("fail-fast write retried (%d -> %d)", retries, got)
			}
			for d, err := range errs {
				if d != 2 && err != nil {
					t.Fatalf("healthy disk %d's transfer failed: %v", d, err)
				}
			}
		}
		got := make([]byte, testBlock)
		for d := 0; d < disks; d++ {
			if d == 2 {
				continue
			}
			if err := e.Drive(d).Read(1, got); err != nil || !bytes.Equal(got, pattern(1, d)) {
				t.Fatalf("disk %d did not complete its write (err %v)", d, err)
			}
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
			bufs[d] = pattern(0, d)
			if err := e.Drive(d).Write(0, bufs[d]); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			for d, buf := range bufs {
				if err := e.Drive(d).Write(0, buf); err != nil {
					t.Fatal(err)
				}
				if err := e.Drive(d).Read(0, buf); err != nil {
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Fatalf("a warmed write plus read on %d disks made %.1f allocations, want 0", disks, allocs)
		}
	})
}

// TestNoGoroutines checks the layer runs every transfer on its caller:
// guarding devices, moving blocks through them (retries included) and
// closing them starts no goroutine.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e, _ := testDrives(t, Config{
		RetryBase: time.Microsecond,
		Fault:     FaultConfig{ErrorRate: 0.2, TornWriteRate: 0.5, Seed: 4},
	}, 4)
	for blk := int64(0); blk < 8; blk++ {
		for d, err := range writeRow(e, 4, blk) {
			if err != nil {
				t.Fatalf("disk %d block %d: %v", d, blk, err)
			}
		}
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines with the drives open, %d before", got, before)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before", got, before)
	}
}

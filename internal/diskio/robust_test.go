package diskio

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDiskFailedErrorFailFast drives the device into permanent failure —
// with BreakerThreshold 1 every failed attempt trips the breaker, so one
// op's retries accumulate FailThreshold consecutive trips — and checks
// both the typed error and the fail-fast short-circuit on subsequent ops,
// on every disk the device holds.
func TestDiskFailedErrorFailFast(t *testing.T) {
	e, _ := testDrives(t, Config{
		MaxRetries:       6,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Microsecond,
		RetryBase:        time.Microsecond,
		FailThreshold:    4,
		Fault:            FaultConfig{ErrorRate: 1, Seed: 11},
	}, 2)
	defer e.Close()

	buf := make([]byte, testBlock)
	err := e.Read(0, buf, nil)
	var failed *DiskFailedError
	if !errors.As(err, &failed) {
		t.Fatalf("got %v, want *DiskFailedError", err)
	}
	if failed.Disk != 0 || failed.Trips < 4 {
		t.Fatalf("bad failure report: %+v", failed)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("DiskFailedError does not unwrap to the root cause")
	}

	// Subsequent ops short-circuit: the same typed error, no further
	// retries.
	retries := e.Metrics().Aggregate().Retries
	if err := e.Read(2, buf, nil); !errors.As(err, &failed) || failed.Disk != 0 {
		t.Fatalf("second op: got %v, want fail-fast *DiskFailedError for disk 0", err)
	}

	// The write path surfaces it too.
	if err := e.Write(0, pattern(0), nil); !errors.As(err, &failed) {
		t.Fatalf("write on failed disk: got %v", err)
	}

	// Disk 1 shares the device, so it fails with it: its op names disk 1
	// and keeps the trips and the cause.
	trips := failed.Trips
	if err := e.Read(1, buf, nil); !errors.As(err, &failed) || failed.Disk != 1 || failed.Trips != trips || !errors.Is(err, ErrInjected) {
		t.Fatalf("disk 1 op on the failed device: got %v, want *DiskFailedError for disk 1", err)
	}
	if got := e.Metrics().Aggregate().Retries; got != retries {
		t.Fatalf("fail-fast ops retried (%d -> %d)", retries, got)
	}
}

// TestFailThresholdDisabled checks a negative FailThreshold keeps the old
// behavior: trips accumulate but no disk is ever declared failed.
func TestFailThresholdDisabled(t *testing.T) {
	e, _ := testDrives(t, Config{
		MaxRetries:       6,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Microsecond,
		RetryBase:        time.Microsecond,
		FailThreshold:    -1,
		Fault:            FaultConfig{ErrorRate: 1, Seed: 3},
	}, 1)
	defer e.Close()
	err := e.Read(0, make([]byte, testBlock), nil)
	var failed *DiskFailedError
	if errors.As(err, &failed) {
		t.Fatal("FailThreshold < 0 still declared the disk failed")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want the injected error", err)
	}
}

// TestContextCancelAbortsRetries checks a canceled context unblocks the
// retry/backoff sleeps: an op that would otherwise back off for a very
// long time returns ctx.Err() promptly.
func TestContextCancelAbortsRetries(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	e, _ := testDrives(t, Config{
		MaxRetries: 100,
		RetryBase:  time.Hour, // would block ~forever without cancellation
		Context:    ctx,
		Fault:      FaultConfig{ErrorRate: 1, Seed: 5},
	}, 1)
	defer e.Close()

	done := make(chan error, 1)
	go func() { done <- e.Read(0, make([]byte, testBlock), nil) }()
	time.Sleep(10 * time.Millisecond) // let the op enter its backoff sleep
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled op never returned")
	}
}

// TestContextPreCanceled checks an already-canceled context fails ops at
// the first sleep without hanging, and the drives still close cleanly.
func TestContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, _ := testDrives(t, Config{
		MaxRetries: 50,
		RetryBase:  time.Hour,
		Context:    ctx,
		Fault:      FaultConfig{ErrorRate: 1, Seed: 9},
	}, 1)
	err := e.Read(0, make([]byte, testBlock), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close after cancellation: %v", err)
	}
}

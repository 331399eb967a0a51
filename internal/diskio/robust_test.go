package diskio

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDiskFailedErrorFailFast drives a disk into permanent failure — with
// BreakerThreshold 1 every failed attempt trips the breaker, so one op's
// retries accumulate FailThreshold consecutive trips — and checks both the
// typed error and the fail-fast short-circuit on subsequent ops.
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
	err := e.Drive(0).Read(0, buf)
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

	// Subsequent ops on the failed disk short-circuit: same typed error,
	// no further retries.
	retries := e.Metrics().PerDisk[0].Retries
	if err := e.Drive(0).Read(1, buf); !errors.As(err, &failed) {
		t.Fatalf("second op: got %v, want fail-fast *DiskFailedError", err)
	}
	if got := e.Metrics().PerDisk[0].Retries; got != retries {
		t.Fatalf("fail-fast op retried (%d -> %d)", retries, got)
	}

	// The write path surfaces it too.
	if err := e.Drive(0).Write(0, pattern(0, 0)); !errors.As(err, &failed) {
		t.Fatalf("write on failed disk: got %v", err)
	}

	// The other disk is unaffected by disk 0's failure — but with
	// ErrorRate 1 it fails its own retries with the root cause, not a
	// premature permanent-failure verdict (its trips are independent).
	err = e.Drive(1).Read(0, buf)
	if err == nil {
		t.Fatal("disk 1 read with ErrorRate 1 succeeded")
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
	err := e.Drive(0).Read(0, make([]byte, testBlock))
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
	go func() { done <- e.Drive(0).Read(0, make([]byte, testBlock)) }()
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
	err := e.Drive(0).Read(0, make([]byte, testBlock))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close after cancellation: %v", err)
	}
}

package diskio

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

const testBlock = 64

// testDrives guards one in-memory device holding the given number of
// disks.
func testDrives(t *testing.T, cfg Config, disks int) (*Drives, *memDevice) {
	t.Helper()
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = testBlock
	}
	dev := &memDevice{}
	e, err := New(cfg, disks, dev)
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

// pattern returns the bytes of array block blk.
func pattern(blk int64) []byte {
	buf := make([]byte, testBlock)
	for i := range buf {
		buf[i] = byte(int64(i) + blk*7)
	}
	return buf
}

func TestEngineRoundTrip(t *testing.T) {
	e, _ := testDrives(t, Config{}, 3)
	defer e.Close()
	for blk := int64(0); blk < 30; blk++ {
		if err := e.Write(blk, pattern(blk), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, testBlock)
	for blk := int64(29); blk >= 0; blk-- {
		if err := e.Read(blk, got, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(blk)) {
			t.Fatalf("block %d corrupted", blk)
		}
	}
	// Each disk counted its own ten blocks.
	for d, m := range e.Metrics().PerDisk {
		if m.Writes != 10 || m.Reads != 10 || m.BytesWritten != 10*testBlock || m.BytesRead != 10*testBlock {
			t.Fatalf("disk %d counters %+v, want 10 one-block ops each way", d, m)
		}
	}
}

func TestEngineRejectsBadArgs(t *testing.T) {
	if _, err := New(Config{}, 1, &memDevice{}); err == nil {
		t.Fatal("BlockBytes = 0 accepted")
	}
	if _, err := New(Config{BlockBytes: 8}, 0, &memDevice{}); err == nil {
		t.Fatal("no disks accepted")
	}
	if _, err := New(Config{BlockBytes: 8}, 2, nil); err == nil {
		t.Fatal("no device accepted")
	}
	e, _ := testDrives(t, Config{}, 1)
	defer e.Close()
	if err := e.Write(0, make([]byte, 3), nil); err == nil {
		t.Fatal("short write buffer accepted")
	}
	if err := e.Read(0, make([]byte, 3), nil); err == nil {
		t.Fatal("short read buffer accepted")
	}
	if err := e.Read(-1, make([]byte, testBlock), nil); err == nil {
		t.Fatal("negative block accepted")
	}
}

// TestReadYourWrites checks a read returns the block's latest write,
// including an overwrite.
func TestReadYourWrites(t *testing.T) {
	e, _ := testDrives(t, Config{}, 1)
	defer e.Close()
	if err := e.Write(3, pattern(3), nil); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testBlock)
	if err := e.Read(3, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(3)) {
		t.Fatal("read missed the write")
	}
	// Overwrite; the fresh bytes must win.
	fresh := pattern(99)
	if err := e.Write(3, fresh, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Read(3, got, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Fatal("overwrite of a block lost")
	}
}

// TestFaultRetryRecovers checks a realistic transient-error rate is fully
// absorbed by retries: every op succeeds and the data is intact.
func TestFaultRetryRecovers(t *testing.T) {
	e, _ := testDrives(t, Config{
		RetryBase: 10 * time.Microsecond,
		Fault:     FaultConfig{ErrorRate: 0.3, TornWriteRate: 0.5, Seed: 7},
	}, 2)
	defer e.Close()
	for blk := int64(0); blk < 64; blk++ {
		if err := e.Write(blk, pattern(blk), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, testBlock)
	for blk := int64(0); blk < 64; blk++ {
		if err := e.Read(blk, got, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, pattern(blk)) {
			t.Fatalf("block %d corrupted under faults", blk)
		}
	}
	m := e.Metrics().Aggregate()
	if m.Faults == 0 || m.Retries == 0 {
		t.Fatalf("fault layer inactive: faults=%d retries=%d", m.Faults, m.Retries)
	}
}

// TestTornWriteRepaired forces every first write attempt to fail torn and
// checks the retry leaves a whole block, not half of one.
func TestTornWriteRepaired(t *testing.T) {
	e, dev := testDrives(t, Config{
		RetryBase:  10 * time.Microsecond,
		MaxRetries: 8,
		Fault:      FaultConfig{ErrorRate: 0.5, TornWriteRate: 1, Seed: 3},
	}, 1)
	want := pattern(0)
	if err := e.Write(0, want, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testBlock)
	if _, err := dev.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("torn write not repaired by retry")
	}
}

// TestPermanentFailureSurfaces checks a 100% error rate exhausts the
// retries, trips the breaker, and returns the injected error.
func TestPermanentFailureSurfaces(t *testing.T) {
	e, _ := testDrives(t, Config{
		RetryBase:        10 * time.Microsecond,
		MaxRetries:       3,
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Microsecond,
		Fault:            FaultConfig{ErrorRate: 1, Seed: 1},
	}, 1)
	defer e.Close()
	err := e.Read(0, make([]byte, testBlock), nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	m := e.Metrics().Aggregate()
	if m.Retries != 3 {
		t.Fatalf("retries = %d, want 3", m.Retries)
	}
	if m.BreakerTrips == 0 {
		t.Fatal("breaker never tripped under permanent failure")
	}
}

// TestConcurrentDisks drives each disk from its own goroutine, serialized
// by a mutex as the array above serializes its transfers, while another
// goroutine snapshots metrics — the race detector's view of the layer.
func TestConcurrentDisks(t *testing.T) {
	const disks = 4
	e, _ := testDrives(t, Config{}, disks)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for disk := 0; disk < disks; disk++ {
		wg.Add(1)
		go func(disk int) {
			defer wg.Done()
			buf := make([]byte, testBlock)
			for off := int64(0); off < 50; off++ {
				blk := off*disks + int64(disk)
				mu.Lock()
				err := e.Write(blk, pattern(blk), nil)
				if err == nil {
					err = e.Read(blk, buf, nil)
				}
				mu.Unlock()
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, pattern(blk)) {
					t.Errorf("disk %d block %d corrupted", disk, off)
					return
				}
			}
		}(disk)
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				e.Metrics()
			}
		}
	}()
	wg.Wait()
	close(stop)
	for d, m := range e.Metrics().PerDisk {
		if m.Reads != 50 || m.Writes != 50 {
			t.Fatalf("disk %d counted %d reads and %d writes, want 50 each", d, m.Reads, m.Writes)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFaultDeterminism checks the same seed injects the same faults.
func TestFaultDeterminism(t *testing.T) {
	run := func() DiskStats {
		e, _ := testDrives(t, Config{
			RetryBase: time.Microsecond,
			Fault:     FaultConfig{ErrorRate: 0.4, Seed: 11},
		}, 1)
		defer e.Close()
		buf := make([]byte, testBlock)
		for blk := int64(0); blk < 40; blk++ {
			if err := e.Write(blk, pattern(blk), nil); err != nil {
				t.Fatal(err)
			}
		}
		for blk := int64(0); blk < 40; blk++ {
			if err := e.Read(blk, buf, nil); err != nil {
				t.Fatal(err)
			}
		}
		return e.Metrics().Aggregate()
	}
	a, b := run(), run()
	if a.Faults != b.Faults || a.Retries != b.Retries {
		t.Fatalf("same seed, different faults: %+v vs %+v", a, b)
	}
}

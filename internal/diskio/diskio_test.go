package diskio

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

const testBlock = 64

func testDrives(t *testing.T, cfg Config, disks int) (*Drives, []*memDevice) {
	t.Helper()
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = testBlock
	}
	devs := make([]Device, disks)
	mems := make([]*memDevice, disks)
	for i := range devs {
		mems[i] = &memDevice{}
		devs[i] = mems[i]
	}
	e, err := New(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	return e, mems
}

func pattern(blk int64, disk int) []byte {
	buf := make([]byte, testBlock)
	for i := range buf {
		buf[i] = byte(int64(i) + blk*7 + int64(disk)*13)
	}
	return buf
}

func TestEngineRoundTrip(t *testing.T) {
	e, _ := testDrives(t, Config{}, 3)
	defer e.Close()
	for disk := 0; disk < 3; disk++ {
		for blk := int64(0); blk < 10; blk++ {
			if err := e.Drive(disk).Write(blk, pattern(blk, disk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]byte, testBlock)
	for disk := 0; disk < 3; disk++ {
		for blk := int64(9); blk >= 0; blk-- {
			if err := e.Drive(disk).Read(blk, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pattern(blk, disk)) {
				t.Fatalf("disk %d block %d corrupted", disk, blk)
			}
		}
	}
}

func TestEngineRejectsBadArgs(t *testing.T) {
	if _, err := New(Config{}, []Device{&memDevice{}}); err == nil {
		t.Fatal("BlockBytes = 0 accepted")
	}
	if _, err := New(Config{BlockBytes: 8}, nil); err == nil {
		t.Fatal("no devices accepted")
	}
	e, _ := testDrives(t, Config{}, 1)
	defer e.Close()
	if err := e.Drive(0).Write(0, make([]byte, 3)); err == nil {
		t.Fatal("short write buffer accepted")
	}
	if err := e.Drive(0).Read(0, make([]byte, 3)); err == nil {
		t.Fatal("short read buffer accepted")
	}
}

// TestReadYourWrites checks a read returns the block's latest write,
// including an overwrite.
func TestReadYourWrites(t *testing.T) {
	e, _ := testDrives(t, Config{}, 1)
	defer e.Close()
	if err := e.Drive(0).Write(3, pattern(3, 0)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testBlock)
	if err := e.Drive(0).Read(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern(3, 0)) {
		t.Fatal("read missed the write")
	}
	// Overwrite; the fresh bytes must win.
	fresh := pattern(99, 0)
	if err := e.Drive(0).Write(3, fresh); err != nil {
		t.Fatal(err)
	}
	if err := e.Drive(0).Read(3, got); err != nil {
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
	for disk := 0; disk < 2; disk++ {
		for blk := int64(0); blk < 32; blk++ {
			if err := e.Drive(disk).Write(blk, pattern(blk, disk)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := make([]byte, testBlock)
	for disk := 0; disk < 2; disk++ {
		for blk := int64(0); blk < 32; blk++ {
			if err := e.Drive(disk).Read(blk, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, pattern(blk, disk)) {
				t.Fatalf("disk %d block %d corrupted under faults", disk, blk)
			}
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
	e, mems := testDrives(t, Config{
		RetryBase:  10 * time.Microsecond,
		MaxRetries: 8,
		Fault:      FaultConfig{ErrorRate: 0.5, TornWriteRate: 1, Seed: 3},
	}, 1)
	want := pattern(0, 0)
	if err := e.Drive(0).Write(0, want); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, testBlock)
	if _, err := mems[0].ReadAt(got, 0); err != nil {
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
	err := e.Drive(0).Read(0, make([]byte, testBlock))
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

// TestConcurrentDisks drives every disk from its own goroutine while
// snapshotting metrics — the race detector's view of the layer.
func TestConcurrentDisks(t *testing.T) {
	const disks = 4
	e, _ := testDrives(t, Config{}, disks)
	var wg sync.WaitGroup
	for disk := 0; disk < disks; disk++ {
		wg.Add(1)
		go func(disk int) {
			defer wg.Done()
			buf := make([]byte, testBlock)
			for blk := int64(0); blk < 50; blk++ {
				if err := e.Drive(disk).Write(blk, pattern(blk, disk)); err != nil {
					t.Error(err)
					return
				}
			}
			for blk := int64(0); blk < 50; blk++ {
				if err := e.Drive(disk).Read(blk, buf); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(buf, pattern(blk, disk)) {
					t.Errorf("disk %d block %d corrupted", disk, blk)
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
			if err := e.Drive(0).Write(blk, pattern(blk, 0)); err != nil {
				t.Fatal(err)
			}
		}
		for blk := int64(0); blk < 40; blk++ {
			if err := e.Drive(0).Read(blk, buf); err != nil {
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

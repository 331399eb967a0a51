package diskio

import (
	"bytes"
	"testing"
	"time"
)

// countingDevice is a memDevice that records the length of every device
// call it serves.
type countingDevice struct {
	memDevice
	reads, writes []int
}

func (d *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	d.reads = append(d.reads, len(p))
	return d.memDevice.ReadAt(p, off)
}

func (d *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	d.writes = append(d.writes, len(p))
	return d.memDevice.WriteAt(p, off)
}

// countingDrives guards one countingDevice.
func countingDrives(t *testing.T, cfg Config) (*Drives, *countingDevice) {
	t.Helper()
	cfg.BlockBytes = testBlock
	dev := &countingDevice{}
	e, err := New(cfg, []Device{dev})
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

// blocks returns the patterns of blocks blk .. blk+k-1 of disk 0, back to
// back: the wire bytes of one k-block transfer.
func blocks(blk int64, k int) []byte {
	var buf []byte
	for i := 0; i < k; i++ {
		buf = append(buf, pattern(blk+int64(i), 0)...)
	}
	return buf
}

// TestMultiBlockRoundTrip checks a k-block transfer is one device op in
// each direction, lands block i at block offset blk+i, and is counted as
// one op of k blocks' bytes.
func TestMultiBlockRoundTrip(t *testing.T) {
	e, dev := countingDrives(t, Config{})
	defer e.Close()
	const k = 5
	if err := e.Drive(0).Write(2, blocks(2, k)); err != nil {
		t.Fatal(err)
	}
	if len(dev.writes) != 1 || dev.writes[0] != k*testBlock {
		t.Fatalf("device writes %v, want one of %d bytes", dev.writes, k*testBlock)
	}
	one := make([]byte, testBlock)
	for i := int64(0); i < k; i++ {
		if err := e.Drive(0).Read(2+i, one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, pattern(2+i, 0)) {
			t.Fatalf("block %d of the transfer landed elsewhere", i)
		}
	}
	all := make([]byte, k*testBlock)
	if err := e.Drive(0).Read(2, all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, blocks(2, k)) {
		t.Fatal("multi-block read differs from the multi-block write")
	}
	m := e.Metrics().Aggregate()
	if m.Writes != 1 || m.BytesWritten != k*testBlock || m.Reads != k+1 || m.BytesRead != 2*k*testBlock {
		t.Fatalf("counters %+v, want 1 write of %d bytes and %d reads of %d bytes",
			m, k*testBlock, k+1, 2*k*testBlock)
	}
}

// TestMultiBlockBadLength checks a buffer that is not a positive whole
// number of blocks is an error that never reaches the device.
func TestMultiBlockBadLength(t *testing.T) {
	e, dev := countingDrives(t, Config{})
	defer e.Close()
	for _, n := range []int{0, testBlock + 1, 3*testBlock - 1} {
		if err := e.Drive(0).Write(0, make([]byte, n)); err == nil {
			t.Fatalf("%d-byte write accepted", n)
		}
		if err := e.Drive(0).Read(0, make([]byte, n)); err == nil {
			t.Fatalf("%d-byte read accepted", n)
		}
	}
	if len(dev.reads)+len(dev.writes) != 0 {
		t.Fatalf("rejected transfers reached the device: reads %v writes %v", dev.reads, dev.writes)
	}
}

// TestMultiBlockFaultRetriesWholeTransfer checks an injected fault fails
// the whole op and the retry moves the whole transfer again: every device
// call carries all k blocks, the injector makes one draw per op, and the
// data comes back intact.
func TestMultiBlockFaultRetriesWholeTransfer(t *testing.T) {
	e, dev := countingDrives(t, Config{
		RetryBase:  time.Microsecond,
		MaxRetries: 16,
		Fault:      FaultConfig{ErrorRate: 0.4, Seed: 5},
	})
	defer e.Close()
	const k, transfers = 4, 24
	for i := int64(0); i < transfers; i++ {
		if err := e.Drive(0).Write(i*k, blocks(i*k, k)); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, k*testBlock)
	for i := int64(0); i < transfers; i++ {
		if err := e.Drive(0).Read(i*k, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, blocks(i*k, k)) {
			t.Fatalf("transfer %d corrupted under faults", i)
		}
	}
	for _, n := range append(dev.writes, dev.reads...) {
		if n != k*testBlock {
			t.Fatalf("a device call moved %d bytes, want the whole %d-byte transfer", n, k*testBlock)
		}
	}
	m := e.Metrics().Aggregate()
	if m.Faults == 0 || m.Retries != m.Faults {
		t.Fatalf("faults=%d retries=%d: want every injected fault retried once", m.Faults, m.Retries)
	}
	// Without torn writes a fault never reaches the device, so each op is
	// exactly one device call.
	if m.Writes != transfers || m.Reads != transfers || len(dev.writes) != transfers || len(dev.reads) != transfers {
		t.Fatalf("ops %d/%d, device calls %d/%d, want %d each",
			m.Writes, m.Reads, len(dev.writes), len(dev.reads), transfers)
	}
}

// TestTornMultiBlockWriteRepaired checks a torn multi-block write leaves
// half the transfer behind and the retry rewrites all of it.
func TestTornMultiBlockWriteRepaired(t *testing.T) {
	e, dev := countingDrives(t, Config{
		RetryBase:  time.Microsecond,
		MaxRetries: 16,
		Fault:      FaultConfig{ErrorRate: 0.5, TornWriteRate: 1, Seed: 3},
	})
	const k, transfers = 4, 8
	for i := int64(0); i < transfers; i++ {
		if err := e.Drive(0).Write(i*k, blocks(i*k, k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, n := range dev.writes {
		switch n {
		case k * testBlock / 2:
			torn++
		case k * testBlock:
		default:
			t.Fatalf("a device write moved %d bytes", n)
		}
	}
	if torn == 0 {
		t.Fatal("no torn write injected; pick another seed")
	}
	if !bytes.Equal(dev.data, blocks(0, k*transfers)) {
		t.Fatal("torn multi-block write not repaired by retry")
	}
}

// TestMultiBlockAllocFree checks a warmed multi-block write plus read
// allocates nothing.
func TestMultiBlockAllocFree(t *testing.T) {
	e, _ := countingDrives(t, Config{})
	defer e.Close()
	buf := blocks(0, 8)
	d := e.Drive(0)
	if err := d.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := d.Write(0, buf); err != nil {
			t.Fatal(err)
		}
		if err := d.Read(0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warmed 8-block write plus read made %.1f allocations, want 0", allocs)
	}
}

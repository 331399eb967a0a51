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

// countingDrives guards one countingDevice holding the given number of
// disks.
func countingDrives(t *testing.T, cfg Config, disks int) (*Drives, *countingDevice) {
	t.Helper()
	cfg.BlockBytes = testBlock
	dev := &countingDevice{}
	e, err := New(cfg, disks, dev)
	if err != nil {
		t.Fatal(err)
	}
	return e, dev
}

// blocks returns the patterns of array blocks blk .. blk+k-1, back to
// back: the wire bytes of one k-block transfer.
func blocks(blk int64, k int) []byte {
	var buf []byte
	for i := 0; i < k; i++ {
		buf = append(buf, pattern(blk+int64(i))...)
	}
	return buf
}

// TestMultiBlockRoundTrip checks a k-block transfer over 3 disks is one
// device call in each direction, lands block i at array block blk+i, and
// counts as one op on every disk it touches, with the bytes of that disk's
// own blocks.
func TestMultiBlockRoundTrip(t *testing.T) {
	const disks, k = 3, 7
	e, dev := countingDrives(t, Config{}, disks)
	defer e.Close()
	if err := e.Write(2, blocks(2, k), nil); err != nil {
		t.Fatal(err)
	}
	if len(dev.writes) != 1 || dev.writes[0] != k*testBlock {
		t.Fatalf("device writes %v, want one of %d bytes", dev.writes, k*testBlock)
	}
	one := make([]byte, testBlock)
	for i := int64(0); i < k; i++ {
		if err := e.Read(2+i, one, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one, pattern(2+i)) {
			t.Fatalf("block %d of the transfer landed elsewhere", i)
		}
	}
	all := make([]byte, k*testBlock)
	if err := e.Read(2, all, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(all, blocks(2, k)) {
		t.Fatal("multi-block read differs from the multi-block write")
	}
	// Blocks 2..8 lie on disks 2,0,1,2,0,1,2: three on disk 2, two on the
	// others.
	own := []int64{2, 2, 3}
	for d, m := range e.Metrics().PerDisk {
		if m.Writes != 1 || m.BytesWritten != own[d]*testBlock || m.Reads != own[d]+1 || m.BytesRead != 2*own[d]*testBlock {
			t.Fatalf("disk %d counters %+v, want 1 write of %d blocks and %d reads of %d", d, m, own[d], own[d]+1, 2*own[d])
		}
	}
}

// TestMultiBlockTail checks a transfer whose last block comes from a
// buffer of its own is one op of two device calls, the tail landing right
// after the body, and a tail-only transfer one call.
func TestMultiBlockTail(t *testing.T) {
	const disks = 4
	e, dev := countingDrives(t, Config{}, disks)
	defer e.Close()
	body, tail := blocks(5, 6), pattern(11)
	if err := e.Write(5, body, tail); err != nil {
		t.Fatal(err)
	}
	if err := e.Write(12, nil, pattern(12)); err != nil {
		t.Fatal(err)
	}
	if len(dev.writes) != 3 || dev.writes[0] != 6*testBlock || dev.writes[1] != testBlock || dev.writes[2] != testBlock {
		t.Fatalf("device writes %v, want 6 blocks then 1, then 1", dev.writes)
	}
	gotBody, gotTail := make([]byte, 6*testBlock), make([]byte, testBlock)
	if err := e.Read(5, gotBody, gotTail); err != nil {
		t.Fatal(err)
	}
	all := make([]byte, 8*testBlock)
	if err := e.Read(5, all, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBody, body) || !bytes.Equal(gotTail, tail) || !bytes.Equal(all, blocks(5, 8)) {
		t.Fatal("a transfer with a tail read back other bytes")
	}
	if w := e.Metrics().Aggregate().Writes; w != disks+1 {
		t.Fatalf("%d write ops counted over the disks, want %d: one per disk touched", w, disks+1)
	}
}

// TestMultiBlockTimeShares checks an op's device time is split over the
// disks it touches by their blocks: the shares add up to the op's time,
// and a disk with twice the blocks gets twice the share.
func TestMultiBlockTimeShares(t *testing.T) {
	e, _ := countingDrives(t, Config{Fault: FaultConfig{LatencyJitter: time.Millisecond, Seed: 2}}, 2)
	defer e.Close()
	if err := e.Write(0, blocks(0, 3), nil); err != nil { // disk 0 holds 2 of the blocks
		t.Fatal(err)
	}
	m := e.Metrics().PerDisk
	total := m[0].WriteNanos + m[1].WriteNanos
	if total == 0 || total != m[0].BusyNanos+m[1].BusyNanos {
		t.Fatalf("write time %d, busy time %d: want equal and positive", total, m[0].BusyNanos+m[1].BusyNanos)
	}
	if diff := m[0].WriteNanos - 2*m[1].WriteNanos; diff > 0 || diff < -2 {
		t.Fatalf("disk shares %d and %d, want 2:1", m[0].WriteNanos, m[1].WriteNanos)
	}
}

// TestMultiBlockBadLength checks a transfer that is not a whole number of
// blocks then at most one tail block is an error that never reaches the
// device.
func TestMultiBlockBadLength(t *testing.T) {
	e, dev := countingDrives(t, Config{}, 2)
	defer e.Close()
	for _, c := range []struct{ body, tail int }{{0, 0}, {testBlock + 1, 0}, {3*testBlock - 1, 0}, {testBlock, 3}, {0, 2 * testBlock}} {
		var tail []byte
		if c.tail > 0 {
			tail = make([]byte, c.tail)
		}
		if err := e.Write(0, make([]byte, c.body), tail); err == nil {
			t.Fatalf("%d+%d-byte write accepted", c.body, c.tail)
		}
		if err := e.Read(0, make([]byte, c.body), tail); err == nil {
			t.Fatalf("%d+%d-byte read accepted", c.body, c.tail)
		}
	}
	if len(dev.reads)+len(dev.writes) != 0 {
		t.Fatalf("rejected transfers reached the device: reads %v writes %v", dev.reads, dev.writes)
	}
}

// TestMultiBlockFaultRetriesWholeTransfer checks an injected fault fails
// the whole op and the retry moves the whole transfer again: every device
// call carries all k blocks, the injector makes one draw per op however
// many disks it spans, and the data comes back intact.
func TestMultiBlockFaultRetriesWholeTransfer(t *testing.T) {
	e, dev := countingDrives(t, Config{
		RetryBase:  time.Microsecond,
		MaxRetries: 16,
		Fault:      FaultConfig{ErrorRate: 0.4, Seed: 5},
	}, 3)
	defer e.Close()
	const k, transfers = 4, 24
	for i := int64(0); i < transfers; i++ {
		if err := e.Write(i*k, blocks(i*k, k), nil); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, k*testBlock)
	for i := int64(0); i < transfers; i++ {
		if err := e.Read(i*k, got, nil); err != nil {
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
	// exactly one device call, counted once on each of the 3 disks.
	if m.Writes != 3*transfers || m.Reads != 3*transfers || len(dev.writes) != transfers || len(dev.reads) != transfers {
		t.Fatalf("ops %d/%d, device calls %d/%d, want %d ops and %d calls each way",
			m.Writes, m.Reads, len(dev.writes), len(dev.reads), 3*transfers, transfers)
	}
}

// TestTornMultiBlockWriteRepaired checks a torn write of a transfer that
// spans every disk, with a tail block, leaves half its first call behind
// and the retry rewrites all of it.
func TestTornMultiBlockWriteRepaired(t *testing.T) {
	e, dev := countingDrives(t, Config{
		RetryBase:  time.Microsecond,
		MaxRetries: 16,
		Fault:      FaultConfig{ErrorRate: 0.5, TornWriteRate: 1, Seed: 3},
	}, 3)
	const k, transfers = 5, 8 // 4 body blocks and a tail, over 3 disks
	for i := int64(0); i < transfers; i++ {
		all := blocks(i*k, k)
		if err := e.Write(i*k, all[:(k-1)*testBlock], all[(k-1)*testBlock:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	torn := 0
	for _, n := range dev.writes {
		switch n {
		case (k - 1) * testBlock / 2:
			torn++
		case (k - 1) * testBlock, testBlock:
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
	e, _ := countingDrives(t, Config{}, 4)
	defer e.Close()
	buf := blocks(0, 8)
	if err := e.Write(0, buf, nil); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.Write(0, buf, nil); err != nil {
			t.Fatal(err)
		}
		if err := e.Read(0, buf, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warmed 8-block write plus read made %.1f allocations, want 0", allocs)
	}
}

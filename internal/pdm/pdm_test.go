package pdm

import (
	"testing"

	"balancesort/internal/record"
)

func testParams() Params { return Params{D: 4, B: 8, M: 256} }

func block(b int, key uint64) []record.Record {
	blk := make([]record.Record, b)
	for i := range blk {
		blk[i] = record.Record{Key: key, Loc: uint64(i)}
	}
	return blk
}

func TestParamsValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{D: 0, B: 8, M: 256},
		{D: 4, B: 0, M: 256},
		{D: 4, B: 8, M: 60}, // DB=32 > M/2=30
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v validated", p)
		}
	}
}

func TestWriteThenRead(t *testing.T) {
	a := New(testParams())
	defer a.Close()

	want := block(a.B(), 7)
	a.ParallelIO([]Op{{Disk: 2, Off: 5, Write: true, Data: want}})

	got := make([]record.Record, a.B())
	a.ParallelIO([]Op{{Disk: 2, Off: 5, Data: got}})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("readback mismatch at %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestIOCounting(t *testing.T) {
	a := New(testParams())
	defer a.Close()

	// One parallel I/O writing 4 blocks, one reading 2.
	var ops []Op
	for d := 0; d < 4; d++ {
		ops = append(ops, Op{Disk: d, Off: 0, Write: true, Data: block(a.B(), uint64(d))})
	}
	a.ParallelIO(ops)
	a.ParallelIO([]Op{
		{Disk: 0, Off: 0, Data: make([]record.Record, a.B())},
		{Disk: 1, Off: 0, Data: make([]record.Record, a.B())},
	})

	s := a.Stats()
	if s.IOs != 2 {
		t.Fatalf("IOs = %d, want 2", s.IOs)
	}
	if s.BlocksWritten != 4 || s.BlocksRead != 2 {
		t.Fatalf("blocks written/read = %d/%d, want 4/2", s.BlocksWritten, s.BlocksRead)
	}
	if s.WriteIOs != 1 || s.ReadIOs != 1 {
		t.Fatalf("write/read IOs = %d/%d, want 1/1", s.WriteIOs, s.ReadIOs)
	}
	if s.PerDiskWrites[3] != 1 || s.PerDiskReads[0] != 1 {
		t.Fatalf("per-disk counters wrong: %+v", s)
	}
}

func TestEmptyIOIsFree(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	a.ParallelIO(nil)
	a.ParallelIO([]Op{})
	if s := a.Stats(); s.IOs != 0 {
		t.Fatalf("empty I/O was counted: %d", s.IOs)
	}
}

func TestPDMModeRejectsTwoBlocksSameDisk(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("two blocks on one disk did not panic in PDM mode")
		}
	}()
	a.ParallelIO([]Op{
		{Disk: 1, Off: 0, Write: true, Data: block(a.B(), 1)},
		{Disk: 1, Off: 1, Write: true, Data: block(a.B(), 2)},
	})
}

func TestAgVModeAllowsTwoBlocksSameDisk(t *testing.T) {
	a := NewMode(testParams(), ModeAgV)
	defer a.Close()
	a.ParallelIO([]Op{
		{Disk: 1, Off: 0, Write: true, Data: block(a.B(), 1)},
		{Disk: 1, Off: 1, Write: true, Data: block(a.B(), 2)},
	})
	if s := a.Stats(); s.IOs != 1 || s.BlocksWritten != 2 {
		t.Fatalf("AgV I/O miscounted: %+v", s)
	}
}

func TestTooManyOpsPanics(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("D+1 ops did not panic")
		}
	}()
	ops := make([]Op, 5)
	for i := range ops {
		ops[i] = Op{Disk: i % 4, Off: i, Write: true, Data: block(a.B(), 0)}
	}
	a.ParallelIO(ops)
}

func TestReadUnwrittenPanics(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("read of unwritten block did not panic")
		}
	}()
	a.ParallelIO([]Op{{Disk: 0, Off: 9, Data: make([]record.Record, a.B())}})
}

func TestWrongBlockSizePanics(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("short block did not panic")
		}
	}()
	a.ParallelIO([]Op{{Disk: 0, Off: 0, Write: true, Data: make([]record.Record, 3)}})
}

func TestStripeRoundTrip(t *testing.T) {
	a := New(testParams())
	defer a.Close()

	n := 100 // not a multiple of B*D: exercises padding
	// Full blocks are written straight from data, so WriteStripe must
	// neither modify it nor pad into the backing array past its end.
	backing := record.Generate(record.Uniform, n+8, 1)
	data := backing[:n]
	orig := append([]record.Record(nil), backing...)
	off := a.AllocStripe(8)
	wios := a.WriteStripe(off, 0, data)
	for i := range backing {
		if backing[i] != orig[i] {
			t.Fatalf("WriteStripe changed the caller's records at %d", i)
		}
	}

	got := make([]record.Record, n)
	rios := a.ReadStripe(off, 0, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("stripe mismatch at %d", i)
		}
	}
	// 100 records, B=8 -> 13 blocks, D=4 -> 4 I/Os each way.
	if wios != 4 || rios != 4 {
		t.Fatalf("stripe I/Os = %d/%d, want 4/4", wios, rios)
	}
}

func TestAllocSeparateDisks(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	if off := a.Alloc(0, 3); off != 0 {
		t.Fatalf("first alloc at %d", off)
	}
	if off := a.Alloc(0, 2); off != 3 {
		t.Fatalf("second alloc at %d", off)
	}
	if off := a.Alloc(1, 1); off != 0 {
		t.Fatalf("disk 1 alloc at %d", off)
	}
}

func TestAllocStripeAligns(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	a.Alloc(2, 5)
	off := a.AllocStripe(2)
	if off != 5 {
		t.Fatalf("stripe alloc at %d, want 5", off)
	}
	if off2 := a.Alloc(0, 1); off2 != 7 {
		t.Fatalf("alloc after stripe at %d, want 7", off2)
	}
}

func TestResetStats(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	a.ParallelIO([]Op{{Disk: 0, Off: 0, Write: true, Data: block(a.B(), 0)}})
	a.ResetStats()
	if s := a.Stats(); s.IOs != 0 || s.BlocksWritten != 0 {
		t.Fatalf("stats not reset: %+v", s)
	}
}

func TestMemTracker(t *testing.T) {
	m := NewMemTracker(100)
	m.Use(60)
	m.Use(30)
	if m.Used() != 90 || m.Peak() != 90 {
		t.Fatalf("used/peak = %d/%d", m.Used(), m.Peak())
	}
	m.Release(50)
	if m.Used() != 40 || m.Peak() != 90 {
		t.Fatalf("after release used/peak = %d/%d", m.Used(), m.Peak())
	}
	if m.Capacity() != 100 {
		t.Fatalf("capacity = %d", m.Capacity())
	}
}

func TestMemTrackerOverflowPanics(t *testing.T) {
	m := NewMemTracker(10)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	m.Use(11)
}

func TestMemTrackerDoubleReleasePanics(t *testing.T) {
	m := NewMemTracker(10)
	m.Use(5)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.Release(6)
}

func TestVirtualRoundTrip(t *testing.T) {
	a := New(Params{D: 8, B: 4, M: 512})
	defer a.Close()
	vd := NewVirtual(a, 2)
	if vd.V() != 2 || vd.VB() != 16 {
		t.Fatalf("V/VB = %d/%d, want 2/16", vd.V(), vd.VB())
	}

	data0 := record.Generate(record.Uniform, vd.VB(), 1)
	data1 := record.Generate(record.Uniform, vd.VB(), 2)
	off0 := vd.Alloc(0, 1)
	off1 := vd.Alloc(1, 1)
	vd.ParallelVIO([]VOp{
		{VDisk: 0, Off: off0, Write: true, Data: data0},
		{VDisk: 1, Off: off1, Write: true, Data: data1},
	})
	if s := a.Stats(); s.IOs != 1 || s.BlocksWritten != 8 {
		t.Fatalf("virtual write: %+v", s)
	}

	got0 := make([]record.Record, vd.VB())
	got1 := make([]record.Record, vd.VB())
	vd.ParallelVIO([]VOp{
		{VDisk: 0, Off: off0, Data: got0},
		{VDisk: 1, Off: off1, Data: got1},
	})
	for i := range data0 {
		if got0[i] != data0[i] || got1[i] != data1[i] {
			t.Fatalf("virtual readback mismatch at %d", i)
		}
	}
}

func TestVirtualRejectsSameVDiskTwice(t *testing.T) {
	a := New(Params{D: 8, B: 4, M: 512})
	defer a.Close()
	vd := NewVirtual(a, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("two virtual blocks on one virtual disk did not panic")
		}
	}()
	d := make([]record.Record, vd.VB())
	vd.ParallelVIO([]VOp{
		{VDisk: 0, Off: 0, Write: true, Data: d},
		{VDisk: 0, Off: 1, Write: true, Data: d},
	})
}

func TestVirtualBadGroupingPanics(t *testing.T) {
	a := New(Params{D: 8, B: 4, M: 512})
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisor virtual count did not panic")
		}
	}()
	NewVirtual(a, 3)
}

func TestVirtualAllocAligns(t *testing.T) {
	a := New(Params{D: 8, B: 4, M: 512})
	defer a.Close()
	vd := NewVirtual(a, 2)
	// Disturb one member disk of virtual disk 0.
	a.Alloc(1, 4)
	off := vd.Alloc(0, 1)
	if off != 4 {
		t.Fatalf("virtual alloc at %d, want 4", off)
	}
	// Virtual disk 1 is unaffected.
	if off := vd.Alloc(1, 1); off != 0 {
		t.Fatalf("virtual disk 1 alloc at %d, want 0", off)
	}
}

func TestWidthHistogram(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	var ops []Op
	for d := 0; d < 4; d++ {
		ops = append(ops, Op{Disk: d, Off: 0, Write: true, Data: block(a.B(), 0)})
	}
	a.ParallelIO(ops) // width 4, all-write
	a.ParallelIO(ops[:2])
	a.ParallelIO([]Op{
		{Disk: 0, Off: 0, Data: make([]record.Record, a.B())},
		{Disk: 1, Off: 0, Write: true, Data: block(a.B(), 1)},
	}) // mixed width 2

	s := a.Stats()
	if s.WidthHist[4] != 1 || s.WidthHist[2] != 2 {
		t.Fatalf("width hist wrong: %v", s.WidthHist)
	}
	if s.WriteWidthHist[4] != 1 || s.WriteWidthHist[2] != 1 {
		t.Fatalf("write width hist wrong: %v", s.WriteWidthHist)
	}
	util := s.Utilization(4)
	want := float64(4+2+2) / float64(3*4)
	if util != want {
		t.Fatalf("utilization = %v, want %v", util, want)
	}
	if f := s.WriteFullness(4, 1.0); f != 0.5 {
		t.Fatalf("full-width write fraction = %v, want 0.5", f)
	}
	if f := s.WriteFullness(4, 0.5); f != 1.0 {
		t.Fatalf("half-width write fraction = %v, want 1.0", f)
	}
}

package pdm

import (
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"balancesort/internal/record"
)

func TestFileBackedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBacked(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	want := block(a.B(), 9)
	a.ParallelIO([]Op{{Disk: 1, Off: 3, Write: true, Data: want}})
	got := make([]record.Record, a.B())
	a.ParallelIO([]Op{{Disk: 1, Off: 3, Data: got}})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("file readback mismatch at %d", i)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// The data file and manifest exist on disk.
	if _, err := os.Stat(filepath.Join(dir, "disks.bin")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackedStripeAndStats(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBacked(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := record.Generate(record.Zipf, 200, 3)
	off := a.AllocStripe(8)
	a.WriteStripe(off, 0, data)
	got := make([]record.Record, 200)
	a.ReadStripe(off, 0, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("stripe mismatch at %d", i)
		}
	}
	if s := a.Stats(); s.IOs == 0 {
		t.Fatal("file-backed array did not count I/Os")
	}
}

func TestFileBackedReadUnwrittenPanics(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBacked(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("unwritten read did not panic")
		}
	}()
	a.ParallelIO([]Op{{Disk: 0, Off: 7, Data: make([]record.Record, a.B())}})
}

func TestFileBackedReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBacked(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	data := record.Generate(record.Uniform, 64, 5)
	off := a.AllocStripe(2)
	a.WriteStripe(off, 0, data)
	marker := a.Alloc(2, 1) // advance one disk's allocator asymmetrically
	// 64 records are 2 blocks on each of the 4 disks.
	if !a.Written(3, off+1) || a.Written(3, off+2) || a.Written(2, marker) || a.Written(0, -1) {
		t.Fatal("written marks disagree with the blocks written")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenFileBacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Params() != testParams() {
		t.Fatalf("reopened params %+v", b.Params())
	}
	got := make([]record.Record, 64)
	b.ReadStripe(off, 0, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("data lost across reopen at %d", i)
		}
	}
	// The write marks survived: a resume checks the blocks its journal
	// names against them.
	if !b.Written(3, off+1) || b.Written(3, off+2) {
		t.Fatal("written marks lost across reopen")
	}
	// Allocation marks survived: fresh allocations do not collide.
	if next := b.Alloc(2, 1); next <= marker {
		t.Fatalf("allocator reset: got %d after %d", next, marker)
	}
}

// TestFileBackedModePersists checks the manifest records the model mode,
// so an AgV array cannot silently resume under PDM accounting.
func TestFileBackedModePersists(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBackedMode(testParams(), dir, ModeAgV)
	if err != nil {
		t.Fatal(err)
	}
	if a.Mode() != ModeAgV {
		t.Fatalf("created mode %v, want AgV", a.Mode())
	}
	// Two blocks on one disk in a single I/O: legal only under AgV.
	off := a.Alloc(0, 2)
	a.ParallelIO([]Op{
		{Disk: 0, Off: off, Write: true, Data: block(a.B(), 1)},
		{Disk: 0, Off: off + 1, Write: true, Data: block(a.B(), 2)},
	})
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, err := OpenFileBacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Mode() != ModeAgV {
		t.Fatalf("resumed mode %v, want AgV", b.Mode())
	}
	// The resumed array still accepts AgV-shaped I/Os.
	got := make([]record.Record, b.B())
	b.ParallelIO([]Op{
		{Disk: 0, Off: off, Data: got},
		{Disk: 0, Off: off + 1, Data: make([]record.Record, b.B())},
	})
	want := block(b.B(), 1)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AgV readback mismatch at %d", i)
		}
	}
}

func TestOpenFileBackedRejectsBadMode(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBacked(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(strings.Replace(string(raw), `"mode": 0`, `"mode": 7`, 1))
	if string(bad) == string(raw) {
		t.Fatal("manifest has no mode field to corrupt")
	}
	if err := os.WriteFile(manifestPath(dir), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBacked(dir); err == nil {
		t.Fatal("unknown manifest mode accepted")
	}
}

func TestOpenFileBackedMissing(t *testing.T) {
	if _, err := OpenFileBacked(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rs := record.Generate(record.Uniform, 257, 7)
	buf := record.EncodeSlice(rs)
	if len(buf) != 257*record.EncodedSize {
		t.Fatalf("encoded size %d", len(buf))
	}
	back, err := record.DecodeSlice(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if back[i] != rs[i] {
			t.Fatalf("codec mismatch at %d", i)
		}
	}
	if _, err := record.DecodeSlice(buf[:15]); err == nil {
		t.Fatal("ragged buffer accepted")
	}
}

// TestBlockIndexGrowsGeometrically writes k blocks to a fresh region one at
// a time, as row-by-row striped writes do, and counts the written and
// checksum tables' reallocations and the entries they allocate. Doubling
// reallocates each table at most log2(k)+1 times for under 2k entries in
// all. Grown by append, which adds about a quarter past 256 entries, the
// tables allocated about four times their final size (62968 and 68062
// entries for 16Ki blocks) over 17 and 19 reallocations.
func TestBlockIndexGrowsGeometrically(t *testing.T) {
	crc, err := os.Create(filepath.Join(t.TempDir(), "disk000.crc"))
	if err != nil {
		t.Fatal(err)
	}
	defer crc.Close()
	x := blockIndex{crc: crc}
	const k = 1 << 14
	wire := make([]byte, record.EncodedSize)
	var grows, allocated [2]int
	for off := 0; off < k; off++ {
		before := [2]int{cap(x.written), cap(x.sums)}
		x.record(off, wire)
		for i, c := range [2]int{cap(x.written), cap(x.sums)} {
			if c != before[i] {
				grows[i]++
				allocated[i] += c
			}
		}
	}
	for i, name := range []string{"written", "checksum"} {
		if grows[i] > bits.Len(k)+1 || allocated[i] >= 2*k {
			t.Errorf("%d blocks reallocated the %s table %d times for %d entries in all, want at most %d times and under %d entries",
				k, name, grows[i], allocated[i], bits.Len(k)+1, 2*k)
		}
	}
	for off := 0; off < k; off++ {
		if !x.isWritten(off) {
			t.Fatalf("block %d not marked written", off)
		}
	}
	if x.isWritten(k) || x.highWater() != k || len(x.sums) != k {
		t.Fatalf("high water %d, %d sums, want %d", x.highWater(), len(x.sums), k)
	}
}

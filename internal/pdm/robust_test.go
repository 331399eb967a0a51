package pdm

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// readRecovered performs one read I/O and returns the panic the array
// raised for it, if any — the store-error channel of ParallelIO.
func readRecovered(a *Array, disk, off int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	a.ParallelIO([]Op{{Disk: disk, Off: off, Data: make([]record.Record, a.B())}})
	return nil
}

// layer is the default I/O layer, or with faults the faulty one: the
// checksums must hold whether or not retries repaired torn writes.
func layer(faults bool) diskio.Config {
	if faults {
		return faultyIO()
	}
	return diskio.Config{}
}

// blockByte returns the data file offset of block off of disk d.
func blockByte(p Params, d, off int) int64 {
	return int64(off*p.D+d) * int64(p.B*record.EncodedSize)
}

// flipByte flips one byte of the file at the given offset.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestChecksumCatchesFlippedByte writes blocks, flips one data byte on
// disk, and checks the read surfaces a typed *CorruptBlockError while
// Scrub pinpoints exactly the damaged block.
func TestChecksumCatchesFlippedByte(t *testing.T) {
	for _, faults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", faults), func(t *testing.T) {
			dir := t.TempDir()
			a, err := NewFileBackedOpts(testParams(), dir, FileOptions{IO: layer(faults)})
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < 3; off++ {
				a.ParallelIO([]Op{{Disk: 2, Off: off, Write: true, Data: block(a.B(), uint64(off))}})
			}
			if err := a.Sync(); err != nil {
				t.Fatal(err)
			}

			flipByte(t, dataPath(dir), blockByte(a.Params(), 2, 1)+5)

			err = readRecovered(a, 2, 1)
			var corrupt *CorruptBlockError
			if !errors.As(err, &corrupt) {
				t.Fatalf("flipped byte read: got %v, want *CorruptBlockError", err)
			}
			if corrupt.Disk != 2 || corrupt.Block != 1 || corrupt.Want == corrupt.Got {
				t.Fatalf("bad corruption report: %+v", corrupt)
			}
			// Intact blocks still read fine.
			if err := readRecovered(a, 2, 0); err != nil {
				t.Fatalf("intact block read: %v", err)
			}

			rep := a.Scrub()
			if !rep.Checksummed || rep.BlocksChecked != 3 {
				t.Fatalf("scrub checked %d blocks (checksummed=%v), want 3", rep.BlocksChecked, rep.Checksummed)
			}
			if len(rep.Corrupt) != 1 || rep.Corrupt[0].Disk != 2 || rep.Corrupt[0].Block != 1 {
				t.Fatalf("scrub found %+v, want exactly disk 2 block 1", rep.Corrupt)
			}
			a.Close()
		})
	}
}

// copyDir copies every regular file of src into a fresh directory, as the
// files stand — the on-disk state a crash without Close leaves behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestChecksumsPersistAtSync checks the in-memory checksum tables reach
// the sidecars at every Sync: after a crash without Close, every block a
// synced manifest names reads back and scrubs clean, and a damaged one is
// caught against the checksum that was synced.
func TestChecksumsPersistAtSync(t *testing.T) {
	p := testParams()
	for _, faults := range []bool{false, true} {
		t.Run(fmt.Sprintf("faults=%v", faults), func(t *testing.T) {
			open := func(dir string) (*Array, error) {
				return OpenFileBackedOpts(dir, FileOptions{IO: layer(faults)})
			}
			dir := t.TempDir()
			a, err := NewFileBackedOpts(p, dir, FileOptions{IO: layer(faults)})
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			const rows = 3
			synced := record.Generate(record.Uniform, rows*p.D*p.B, 5)
			off := a.AllocStripe(rows)
			a.WriteStripe(off, 0, synced)
			if err := a.Sync(); err != nil {
				t.Fatal(err)
			}
			a.WriteStripe(a.AllocStripe(rows), 0, record.Generate(record.Uniform, rows*p.D*p.B, 6))

			crashed := copyDir(t, dir)
			b, err := open(crashed)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]record.Record, len(synced))
			b.ReadStripe(off, 0, got)
			if !slices.Equal(got, synced) {
				t.Fatal("synced region does not read back after a crash")
			}
			if rep := b.Scrub(); !rep.Checksummed || rep.BlocksChecked != rows*p.D || len(rep.Corrupt) != 0 {
				t.Fatalf("scrub after a crash: %+v, want %d clean blocks", rep, rows*p.D)
			}
			b.Close()

			// Damage block 1 of disk 2 (stripe row 1 of the synced region).
			flipByte(t, dataPath(crashed), blockByte(p, 2, off+1)+3)
			b, err = open(crashed)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			var corrupt *CorruptBlockError
			if err := readRecovered(b, 2, off+1); !errors.As(err, &corrupt) {
				t.Fatalf("damaged block read: got %v, want *CorruptBlockError", err)
			}
			first := (1*p.D + 2) * p.B // the block's first record in the region
			want := crc32.Checksum(record.EncodeSlice(synced[first:first+p.B]), castagnoli)
			if corrupt.Disk != 2 || corrupt.Block != off+1 || corrupt.Want != want || corrupt.Got == want {
				t.Fatalf("corruption report %+v, want disk 2 block %d against the synced checksum %08x", corrupt, off+1, want)
			}
		})
	}
}

// TestChecksumFlushInPieces checks a dirty checksum range longer than one
// flush piece reaches the sidecar entry for entry: after Sync each sidecar
// holds exactly the little-endian CRC32C of every block in its data file,
// and the reopened array scrubs clean.
func TestChecksumFlushInPieces(t *testing.T) {
	p := Params{D: 2, B: 2, M: 64}
	const perDisk = 2*flushPiece + 300
	dir := t.TempDir()
	a, err := NewFileBacked(p, dir)
	if err != nil {
		t.Fatal(err)
	}
	a.WriteStripe(a.AllocStripe(perDisk), 0, record.Generate(record.Uniform, perDisk*p.D*p.B, 8))
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	blockBytes := int64(p.B * record.EncodedSize)
	data, err := os.ReadFile(dataPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < p.D; d++ {
		var want []byte
		for off := 0; off < perDisk; off++ {
			at := blockByte(p, d, off)
			want = binary.LittleEndian.AppendUint32(want, crc32.Checksum(data[at:at+blockBytes], castagnoli))
		}
		got, err := os.ReadFile(crcPath(dir, d))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("disk %d sidecar (%d bytes) is not the CRC32C of its %d blocks", d, len(got), perDisk)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := OpenFileBacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if rep := b.Scrub(); rep.BlocksChecked != perDisk*p.D || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub after reopen: %d checked, %d corrupt; want %d clean", rep.BlocksChecked, len(rep.Corrupt), perDisk*p.D)
	}
}

// TestScrubCleanArray checks a healthy array scrubs clean and that an
// overwrite re-checksums (no stale-sidecar false positives).
func TestScrubCleanArray(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBacked(testParams(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	for off := 0; off < 4; off++ {
		a.ParallelIO([]Op{{Disk: 0, Off: off, Write: true, Data: block(a.B(), uint64(off))}})
	}
	a.ParallelIO([]Op{{Disk: 0, Off: 2, Write: true, Data: block(a.B(), 99)}}) // overwrite
	rep := a.Scrub()
	if !rep.Checksummed || rep.BlocksChecked != 4 || len(rep.Corrupt) != 0 {
		t.Fatalf("clean scrub report: %+v", rep)
	}
}

// TestNoChecksumsOption checks NoChecksums leaves no sidecars and Scrub
// reports there is nothing to verify.
func TestNoChecksumsOption(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBackedOpts(testParams(), dir, FileOptions{NoChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	a.Alloc(0, 1)
	a.ParallelIO([]Op{{Disk: 0, Off: 0, Write: true, Data: block(a.B(), 1)}})
	if rep := a.Scrub(); rep.Checksummed || rep.BlocksChecked != 0 {
		t.Fatalf("scrub of unchecksummed array: %+v", rep)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "disk000.crc")); !os.IsNotExist(err) {
		t.Fatal("NoChecksums still created a sidecar")
	}
	// The manifest records the choice and the array reopens without
	// demanding sidecars.
	b, err := OpenFileBacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := readRecovered(b, 0, 0); err != nil {
		t.Fatalf("reopen without checksums: %v", err)
	}
	b.Close()
}

// TestOpenRejectsTruncatedDisk checks OpenFileBacked validates the data
// file's size against every disk's write mark at open time.
func TestOpenRejectsTruncatedDisk(t *testing.T) {
	dir := t.TempDir()
	p := testParams()
	a, err := NewFileBacked(p, dir)
	if err != nil {
		t.Fatal(err)
	}
	a.Alloc(1, 3)
	for off := 0; off < 3; off++ {
		a.ParallelIO([]Op{{Disk: 1, Off: off, Write: true, Data: block(a.B(), uint64(off))}})
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	path := dataPath(dir)
	end := blockByte(p, 1, 2) + int64(p.B*record.EncodedSize) // disk 1's block 2 ends the file
	// Too short for disk 1's block below its write mark: rejected with the
	// typed error.
	if err := os.Truncate(path, end-1); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFileBacked(dir)
	var trunc *TruncatedDiskError
	if !errors.As(err, &trunc) {
		t.Fatalf("truncated disk open: got %v, want *TruncatedDiskError", err)
	}
	if trunc.Disk != 1 || trunc.Path != path {
		t.Fatalf("bad truncation report: %+v", trunc)
	}
	if err := os.Truncate(path, blockByte(p, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBacked(dir); !errors.As(err, &trunc) || trunc.Disk != 1 || trunc.WantBlocks != 2*p.D+2 {
		t.Fatalf("truncated disk open: got %v, want *TruncatedDiskError for disk 1 wanting %d blocks", err, 2*p.D+2)
	}

	// A ragged (non-block-multiple) file is rejected even at full length.
	if err := os.Truncate(path, end+7); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBacked(dir); !errors.As(err, &trunc) {
		t.Fatalf("ragged disk open: got %v, want *TruncatedDiskError", err)
	}

	// A truncated checksum sidecar is caught the same way.
	if err := os.Truncate(path, end); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, "disk001.crc"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBacked(dir); !errors.As(err, &trunc) {
		t.Fatalf("truncated sidecar open: got %v, want *TruncatedDiskError", err)
	}
}

// TestManifestRejectsBadWrittenMarks checks ParseManifest validation.
func TestManifestRejectsBadWrittenMarks(t *testing.T) {
	good := Manifest{D: 2, B: 4, M: 64, NextFree: []int{3, 3}, Written: []int{2, 2}, Checksum: ChecksumCRC32C}
	raw, _ := json.Marshal(good)
	if _, err := ParseManifest(raw); err != nil {
		t.Fatalf("good manifest rejected: %v", err)
	}
	bad := []Manifest{
		{D: 2, B: 4, M: 64, NextFree: []int{3}},                          // wrong NextFree arity
		{D: 2, B: 4, M: 64, NextFree: []int{3, -1}},                      // negative mark
		{D: 2, B: 4, M: 64, NextFree: []int{3, 3}, Written: []int{2}},    // wrong Written arity
		{D: 2, B: 4, M: 64, NextFree: []int{3, 3}, Written: []int{4, 2}}, // written > allocated
		{D: 2, B: 4, M: 64, NextFree: []int{3, 3}, Checksum: "md5"},      // unknown algorithm
		{D: 2, B: 4, M: 64, NextFree: []int{3, 3}, Mode: 7},              // unknown mode
		{D: 0, B: 4, M: 64, NextFree: []int{}},                           // invalid params
		{D: 2, B: 4, M: 4, NextFree: []int{0, 0}},                        // DB > M/2
	}
	for i, m := range bad {
		raw, _ := json.Marshal(m)
		if _, err := ParseManifest(raw); err == nil {
			t.Fatalf("bad manifest %d accepted: %+v", i, m)
		}
	}
}

// TestJournalRoundTrip checks append/recover, sequence numbering, and the
// torn-tail truncation of OpenJournalAppend.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := JournalPath(dir)
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		seq, err := j.Append([]byte(fmt.Sprintf(`{"pass":%d}`, i)))
		if err != nil || seq != i {
			t.Fatalf("append %d: seq=%d err=%v", i, seq, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := LoadJournal(path)
	if err != nil || len(entries) != 3 {
		t.Fatalf("loaded %d entries, err=%v", len(entries), err)
	}
	if string(entries[2].Payload) != `{"pass":3}` {
		t.Fatalf("payload round trip: %s", entries[2].Payload)
	}

	// Simulate a crash mid-append: a torn final line is recovered away
	// and appends continue from the last good entry.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef {\"pass\":4"); err != nil { // no newline, bad crc
		t.Fatal(err)
	}
	f.Close()

	j2, recovered, err := OpenJournalAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 || j2.Seq() != 3 {
		t.Fatalf("recovered %d entries, seq %d; want 3, 3", len(recovered), j2.Seq())
	}
	if seq, err := j2.Append([]byte(`{"pass":4}`)); err != nil || seq != 4 {
		t.Fatalf("post-recovery append: seq=%d err=%v", seq, err)
	}
	j2.Close()
	entries, err = LoadJournal(path)
	if err != nil || len(entries) != 4 {
		t.Fatalf("after recovery+append: %d entries, err=%v", len(entries), err)
	}
}

// TestJournalStopsAtCorruption checks a flipped byte in the middle of the
// journal ends the valid prefix there (last-good-entry-wins).
func TestJournalStopsAtCorruption(t *testing.T) {
	dir := t.TempDir()
	path := JournalPath(dir)
	j, _ := CreateJournal(path)
	for i := 1; i <= 3; i++ {
		if _, err := j.Append([]byte(fmt.Sprintf(`{"pass":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	raw, _ := os.ReadFile(path)
	lines := bytes.SplitAfter(raw, []byte("\n"))
	flipByte(t, path, int64(len(lines[0])+12)) // inside entry 2
	entries, err := LoadJournal(path)
	if err != nil || len(entries) != 1 {
		t.Fatalf("corrupted middle: %d entries, err=%v; want 1", len(entries), err)
	}
}

// TestNextFreeRestore checks the allocation marks round-trip through
// NextFree/SetNextFree, the journal's rollback primitive.
func TestNextFreeRestore(t *testing.T) {
	a := New(testParams())
	defer a.Close()
	a.Alloc(0, 3)
	a.Alloc(2, 1)
	marks := a.NextFree()
	a.Alloc(0, 5)
	a.AllocStripe(2)
	a.SetNextFree(marks)
	if got := a.NextFree(); got[0] != 3 || got[1] != 0 || got[2] != 1 || got[3] != 0 {
		t.Fatalf("restored marks %v, want [3 0 1 0]", got)
	}
}

// FuzzManifest fuzzes the manifest parser with arbitrary bytes: it must
// never panic, and whatever it accepts must satisfy the invariants the
// rest of the package assumes.
func FuzzManifest(f *testing.F) {
	good, _ := json.Marshal(Manifest{D: 4, B: 8, M: 256, NextFree: []int{1, 2, 3, 4},
		Written: []int{1, 1, 1, 1}, Checksum: ChecksumCRC32C})
	f.Add(good)
	f.Add([]byte(`{"d":4,"b":8,"m":256,"next_free":[0,0,0,0]}`))
	f.Add([]byte(`{"d":-1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"d":4,"b":8,"m":256,"mode":9,"next_free":[0,0,0,0]}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseManifest(raw)
		if err != nil {
			return
		}
		if m.D < 1 || m.B < 1 || len(m.NextFree) != m.D {
			t.Fatalf("parser accepted invalid manifest: %+v", m)
		}
		if m.Written != nil && len(m.Written) != m.D {
			t.Fatalf("parser accepted bad write marks: %+v", m)
		}
	})
}

// FuzzJournal fuzzes the journal parser with arbitrary bytes: it must
// never panic, the valid prefix must re-parse to the same entries, and
// sequence numbers must come out dense from 1.
func FuzzJournal(f *testing.F) {
	dir := f.TempDir()
	j, _ := CreateJournal(JournalPath(dir))
	j.Append([]byte(`{"pass":1}`))
	j.Append([]byte(`{"pass":2}`))
	j.Close()
	good, _ := os.ReadFile(JournalPath(dir))
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn tail
	f.Add([]byte("deadbeef {}\n"))
	f.Add([]byte("00000000 \n"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("zzzzzzzz {\"seq\":1,\"payload\":{}}\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, validLen := ParseJournal(raw)
		if validLen < 0 || validLen > len(raw) {
			t.Fatalf("valid prefix %d of %d bytes", validLen, len(raw))
		}
		for i, e := range entries {
			if e.Seq != i+1 {
				t.Fatalf("entry %d has seq %d", i, e.Seq)
			}
		}
		again, againLen := ParseJournal(raw[:validLen])
		if againLen != validLen || len(again) != len(entries) {
			t.Fatalf("valid prefix does not re-parse: %d/%d entries, %d/%d bytes",
				len(again), len(entries), againLen, validLen)
		}
	})
}

package pdm

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"balancesort/internal/record"
)

// perDiskDir writes an array's blocks under a fresh directory in the
// per-disk layout of earlier versions: the manifest and sidecars as they
// are, and disk d's blocks, up to its allocation mark and so past its
// write mark, as a crashed run could leave them, as diskNNN.bin instead of
// the data file. It returns the directory and the records written.
func perDiskDir(t *testing.T, p Params) (string, []record.Record) {
	t.Helper()
	dir := t.TempDir()
	a, err := NewFileBacked(p, dir)
	if err != nil {
		t.Fatal(err)
	}
	data := record.Generate(record.Uniform, 5*p.D*p.B-3, 4)
	a.WriteStripe(a.AllocStripe(6), 0, data)
	a.Alloc(1, 2)
	a.ParallelIO([]Op{{Disk: 1, Off: 6, Write: true, Data: block(p.B, 77)}}) // disk 1 runs past the others
	marks := a.NextFree()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dataPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	bb := int64(p.B * record.EncodedSize)
	for d := 0; d < p.D; d++ {
		var disk []byte
		for o := 0; blockByte(p, d, o)+bb <= int64(len(raw)) && o < marks[d]; o++ {
			disk = append(disk, raw[blockByte(p, d, o):blockByte(p, d, o)+bb]...)
		}
		if err := os.WriteFile(diskPath(dir, d), disk, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(dataPath(dir)); err != nil {
		t.Fatal(err)
	}
	return dir, data
}

// checkArray reads back what perDiskDir wrote and scrubs the array.
func checkArray(t *testing.T, a *Array, data []record.Record) {
	t.Helper()
	got := make([]record.Record, len(data))
	a.ReadStripe(0, 0, got)
	if !slices.Equal(got, data) || !slices.Equal(a.Peek(1, 6), block(a.B(), 77)) {
		t.Fatal("the array reads back other records than were written")
	}
	if rep := a.Scrub(); !rep.Checksummed || len(rep.Corrupt) != 0 || rep.BlocksChecked == 0 {
		t.Fatalf("scrub: %+v", rep)
	}
}

// TestOpenConvertsPerDiskLayout opens a directory in the per-disk layout:
// the disks' blocks move into the data file in stripe order, the disk
// files go, and the array reads and scrubs as it did before it was
// closed.
//
// A manifest without write marks trusts each disk file's extent: cut to
// their write marks, the disk files hold 5, 7 and 5 blocks, and the
// conversion records those marks in the manifest, which the data file,
// 7 rows long on every disk, could not tell apart.
func TestOpenConvertsPerDiskLayout(t *testing.T) {
	p := Params{D: 3, B: 4, M: 64}
	for _, marked := range []bool{true, false} {
		t.Run(fmt.Sprintf("write-marks=%v", marked), func(t *testing.T) {
			dir, data := perDiskDir(t, p)
			if !marked {
				m := readManifest(t, dir)
				for d, w := range m.Written {
					if err := os.Truncate(diskPath(dir, d), int64(w*p.B*record.EncodedSize)); err != nil {
						t.Fatal(err)
					}
				}
				m.Written = nil
				if err := writeManifest(dir, *m); err != nil {
					t.Fatal(err)
				}
			}
			a, err := OpenFileBacked(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			checkArray(t, a, data)
			if w := readManifest(t, dir).Written; !slices.Equal(w, []int{5, 7, 5}) {
				t.Fatalf("manifest write marks %v after the conversion, want [5 7 5]", w)
			}
			for d := 0; d < p.D; d++ {
				if _, err := os.Stat(diskPath(dir, d)); !os.IsNotExist(err) {
					t.Fatalf("disk %d's file survived the conversion (%v)", d, err)
				}
			}
			if _, err := os.Stat(dataPath(dir) + ".tmp"); !os.IsNotExist(err) {
				t.Fatal("the conversion left its temporary file")
			}
		})
	}
}

// readManifest parses dir's manifest.
func readManifest(t *testing.T, dir string) *Manifest {
	t.Helper()
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestOpenPrefersDataFileOverLeftovers opens a directory holding the data
// file beside per-disk files, as a crash between a conversion's rename and
// its removals leaves it: the array opens from the data file, whatever the
// disk files hold, and removes them.
func TestOpenPrefersDataFileOverLeftovers(t *testing.T) {
	p := Params{D: 3, B: 4, M: 64}
	dir, data := perDiskDir(t, p)
	a, err := OpenFileBacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < p.D; d++ {
		junk := make([]byte, 3*p.B*record.EncodedSize)
		for i := range junk {
			junk[i] = byte(i + d)
		}
		if err := os.WriteFile(diskPath(dir, d), junk[:d*p.B*record.EncodedSize], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := OpenFileBacked(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	checkArray(t, b, data)
	for d := 0; d < p.D; d++ {
		if _, err := os.Stat(diskPath(dir, d)); !os.IsNotExist(err) {
			t.Fatalf("leftover file of disk %d survived the open (%v)", d, err)
		}
	}
}

// TestOpenRejectsMissingDiskData checks a per-disk directory whose disk
// file is short, or gone, fails with a *TruncatedDiskError naming the
// disk, and that the refused conversion leaves no data file behind.
func TestOpenRejectsMissingDiskData(t *testing.T) {
	p := Params{D: 3, B: 4, M: 64}
	for _, tc := range []struct {
		name  string
		spoil func(path string) error
	}{
		{"short", func(path string) error { return os.Truncate(path, int64(p.B*record.EncodedSize)) }},
		{"missing", os.Remove},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := perDiskDir(t, p)
			if err := tc.spoil(diskPath(dir, 2)); err != nil {
				t.Fatal(err)
			}
			_, err := OpenFileBacked(dir)
			var trunc *TruncatedDiskError
			if !errors.As(err, &trunc) || trunc.Disk != 2 || trunc.Path != diskPath(dir, 2) || trunc.WantBlocks != 5 {
				t.Fatalf("got %v, want a *TruncatedDiskError for disk 2 wanting 5 blocks", err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if name := e.Name(); name == filepath.Base(dataPath(dir)) || name == filepath.Base(dataPath(dir))+".tmp" {
					t.Fatalf("the refused conversion left %s", name)
				}
			}
		})
	}
}

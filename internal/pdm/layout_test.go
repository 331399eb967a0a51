package pdm

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"balancesort/internal/record"
)

// layoutRows is the height of the striped region FuzzStripeLayout works
// in.
const layoutRows = 4

// layoutModel is FuzzStripeLayout's reference: every block written so far,
// by (disk, offset) within the region, sentinel-padded as the stores pad
// it.
type layoutModel struct {
	p      Params
	blocks map[[2]int][]record.Record
}

// stripeBlocks returns the (disk, offset) of blocks first .. first+n-1 of
// the region, the layout WriteStripe documents.
func (m *layoutModel) stripeBlocks(first, n int) [][2]int {
	var at [][2]int
	for i := first; i < first+n; i++ {
		at = append(at, [2]int{i % m.p.D, i / m.p.D})
	}
	return at
}

// layoutArrays is a memory array and a file array driven in lockstep.
type layoutArrays struct {
	mem, file *Array
	dir       string
}

// FuzzStripeLayout drives a file array and a memory array with the same
// sequence of ParallelIO ops and striped reads and writes, partial rows
// and short last blocks included, and checks both against a map from
// (disk, offset) to block kept here: the same records, the same model
// counts and the same Written answers on both, and a clean Scrub of the
// file array, also after Sync and after OpenFileBacked.
//
// The input is D-1 mod 8, B-1 mod 64, then one op per 4 bytes: kind, then
// a disk mask and an offset for a ParallelIO, or a first block and two
// bytes of length for a striped transfer. A read of a block nothing wrote
// becomes a write.
func FuzzStripeLayout(f *testing.F) {
	for _, d := range []uint8{1, 3, 8} {
		for _, b := range []uint8{1, 4, 64} {
			f.Add(d-1, b-1, []byte{
				2, 0, 0, 200, // a long striped write from block 0
				3, 1, 0, 77, // a striped read from block 1
				0, 0xff, 1, 0, // a full-width parallel write at offset 1
				3, 0, 0, 255, // a striped read over it
				2, 5, 0, 3, // a short striped write from the middle of a row
				1, 0x0f, 1, 0, // a parallel read
				3, 3, 1, 9, // a striped read from mid-row
			})
		}
	}
	f.Fuzz(func(t *testing.T, dIn, bIn uint8, ops []byte) {
		p := Params{D: 1 + int(dIn)%8, B: 1 + int(bIn)%64}
		p.M = 4 * p.D * p.B
		dir := t.TempDir()
		file, err := NewFileBacked(p, dir)
		if err != nil {
			t.Fatal(err)
		}
		arrs := layoutArrays{mem: New(p), file: file, dir: dir}
		defer arrs.mem.Close()
		model := &layoutModel{p: p, blocks: map[[2]int][]record.Record{}}
		off := arrs.mem.AllocStripe(layoutRows)
		if arrs.file.AllocStripe(layoutRows) != off {
			t.Fatal("fresh arrays allocated different regions")
		}
		for i := 0; i+4 <= len(ops) && i < 4*32; i += 4 {
			arrs.step(t, model, off, i/4, ops[i:i+4])
		}
		arrs.check(t, model, off, "after the ops", false)
		if err := arrs.file.Sync(); err != nil {
			t.Fatal(err)
		}
		arrs.check(t, model, off, "after Sync", false)
		if err := arrs.file.Close(); err != nil {
			t.Fatal(err)
		}
		if arrs.file, err = OpenFileBacked(dir); err != nil {
			t.Fatal(err)
		}
		defer arrs.file.Close()
		arrs.file.ResetStats()
		arrs.mem.ResetStats()
		arrs.check(t, model, off, "after OpenFileBacked", true)
	})
}

// step runs op number seq, decoded from four input bytes, on both arrays
// and the model.
func (a layoutArrays) step(t *testing.T, m *layoutModel, off, seq int, in []byte) {
	p := m.p
	region := layoutRows * p.D
	switch in[0] % 4 {
	case 0, 1: // ParallelIO: one block on each disk of the mask
		row := int(in[2]) % layoutRows
		write := in[0]%4 == 0
		var memOps, fileOps []Op
		for d := 0; d < p.D; d++ {
			if in[1]&(1<<d) == 0 {
				continue
			}
			data := layoutRecords(seq*region+d, p.B, p.B)
			if !write {
				if _, ok := m.blocks[[2]int{d, row}]; !ok {
					continue
				}
				data = make([]record.Record, p.B)
			}
			memOps = append(memOps, Op{Disk: d, Off: off + row, Write: write, Data: data})
			fileOps = append(fileOps, Op{Disk: d, Off: off + row, Write: write, Data: slices.Clone(data)})
		}
		a.mem.ParallelIO(memOps)
		a.file.ParallelIO(fileOps)
		for i, op := range memOps {
			key := [2]int{op.Disk, op.Off - off}
			if write {
				m.blocks[key] = slices.Clone(op.Data)
				continue
			}
			if !slices.Equal(op.Data, m.blocks[key]) || !slices.Equal(fileOps[i].Data, m.blocks[key]) {
				t.Fatalf("op %d: parallel read of disk %d offset %d differs from the block written", seq, op.Disk, key[1])
			}
		}
	default: // a striped transfer of n records from block first
		first := int(in[1]) % region
		n := 1 + (int(in[2])<<8|int(in[3]))%((region-first)*p.B)
		blocks := m.stripeBlocks(first, (n+p.B-1)/p.B)
		write := in[0]%4 == 2
		for _, at := range blocks {
			if _, ok := m.blocks[at]; !ok {
				write = true
			}
		}
		if write {
			data := layoutRecords(seq*region, n, p.B)
			iosMem, iosFile := a.mem.WriteStripe(off, first, data), a.file.WriteStripe(off, first, data)
			if iosMem != iosFile {
				t.Fatalf("op %d: striped write charged %d I/Os in memory, %d on file", seq, iosMem, iosFile)
			}
			for j, at := range blocks {
				blk := make([]record.Record, p.B)
				for k := copy(blk, data[j*p.B:]); k < p.B; k++ {
					blk[k] = sentinel
				}
				m.blocks[at] = blk
			}
			return
		}
		gotMem, gotFile := make([]record.Record, n), make([]record.Record, n)
		a.mem.ReadStripe(off, first, gotMem)
		a.file.ReadStripe(off, first, gotFile)
		var want []record.Record
		for _, at := range blocks {
			want = append(want, m.blocks[at]...)
		}
		if !slices.Equal(gotMem, want[:n]) || !slices.Equal(gotFile, want[:n]) {
			t.Fatalf("op %d: striped read of %d records from block %d differs from the blocks written", seq, n, first)
		}
	}
}

// layoutRecords returns n distinct records for op blocks numbered from
// base.
func layoutRecords(base, n, b int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Record{Key: uint64(base*b + i), Loc: uint64(i)}
	}
	return recs
}

// check compares both arrays with the model: every block, the Written
// answers, the model counts, and a clean scrub of the file array. A
// reopened array counts every block below a disk's write mark as written.
func (a layoutArrays) check(t *testing.T, m *layoutModel, off int, when string, reopened bool) {
	t.Helper()
	p := m.p
	marks := make([]int, p.D)
	for at := range m.blocks {
		marks[at[0]] = max(marks[at[0]], at[1]+1)
	}
	for d := 0; d < p.D; d++ {
		for o := 0; o < layoutRows; o++ {
			want, ok := m.blocks[[2]int{d, o}]
			wantFile := ok || (reopened && o < marks[d])
			if a.mem.Written(d, off+o) != ok || a.file.Written(d, off+o) != wantFile {
				t.Fatalf("%s: disk %d offset %d written: memory %v, file %v; want %v and %v",
					when, d, o, a.mem.Written(d, off+o), a.file.Written(d, off+o), ok, wantFile)
			}
			if !ok {
				continue
			}
			if !slices.Equal(a.mem.Peek(d, off+o), want) || !slices.Equal(a.file.Peek(d, off+o), want) {
				t.Fatalf("%s: disk %d offset %d holds other records than were written", when, d, o)
			}
		}
	}
	if sm, sf := a.mem.Stats(), a.file.Stats(); !reflect.DeepEqual(sm, sf) {
		t.Fatalf("%s: model counts diverge:\nmemory %+v\nfile   %+v", when, sm, sf)
	}
	rep := a.file.Scrub()
	if !rep.Checksummed || rep.BlocksChecked != len(m.blocks) || len(rep.Corrupt) != 0 {
		t.Fatalf("%s: scrub %s, want %d clean blocks", when, fmt.Sprintf("%+v", rep), len(m.blocks))
	}
}

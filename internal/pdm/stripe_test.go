package pdm

import (
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// rowLoop moves recs as blocks first, first+1, ... of the striped region at
// off the way every striped caller did before the striped transfer
// existed: one ParallelIO per D consecutive blocks, one block per disk,
// with a partial last block going through a sentinel-padded scratch block.
// It is the reference the striped transfer must match, count for count.
func rowLoop(a *Array, off, first int, recs []record.Record, write bool) int {
	b, d := a.B(), a.D()
	n := (len(recs) + b - 1) / b
	pad := make([]record.Record, b)
	ios := 0
	for base := 0; base < n; base += d {
		var ops []Op
		tail := -1
		for j := 0; j < d && base+j < n; j++ {
			blk, lo := first+base+j, (base+j)*b
			data := recs[lo:min(lo+b, len(recs))]
			if len(data) < b {
				if write {
					for k := copy(pad, data); k < b; k++ {
						pad[k] = sentinel
					}
				} else {
					tail = lo
				}
				data = pad
			}
			ops = append(ops, Op{Disk: blk % d, Off: off + blk/d, Write: write, Data: data})
		}
		a.ParallelIO(ops)
		if tail >= 0 {
			copy(recs[tail:], pad)
		}
		ios++
	}
	return ios
}

// TestStripeTransferMatchesRowLoop checks the striped transfer against the
// row-by-row loop it replaces, over seeded draws of D ∈ 1..8, B ∈ 1..16,
// first ∈ [0, 3D) and n ∈ [1, 5DB] records (partial last blocks included),
// on memory, file and fault-injecting file arrays in both model modes: the
// bytes read back, the blocks on every disk, the returned I/O counts and
// every Stats field must be identical.
func TestStripeTransferMatchesRowLoop(t *testing.T) {
	kinds := map[string]func(tb testing.TB, p Params, mode Mode) *Array{
		"mem": func(_ testing.TB, p Params, mode Mode) *Array { return NewMode(p, mode) },
		"file": func(tb testing.TB, p Params, mode Mode) *Array {
			return newFileArrayMode(tb, p, mode, diskio.Config{})
		},
		"faulty-file": func(tb testing.TB, p Params, mode Mode) *Array {
			return newFileArrayMode(tb, p, mode, faultyIO())
		},
	}
	rng := rand.New(rand.NewPCG(19, 93))
	for draw := 0; draw < 16; draw++ {
		d, b := 1+rng.IntN(8), 1+rng.IntN(16)
		p := Params{D: d, B: b, M: 4 * d * b}
		first, n := rng.IntN(3*d), 1+rng.IntN(5*d*b)
		data := record.Generate(record.Uniform, n, uint64(draw))
		for _, kind := range []string{"mem", "file", "faulty-file"} {
			for _, mode := range []Mode{ModePDM, ModeAgV} {
				name := fmt.Sprintf("D%d-B%d-first%d-n%d/%s/mode%d", d, b, first, n, kind, mode)
				t.Run(name, func(t *testing.T) {
					got, ref := kinds[kind](t, p, mode), kinds[kind](t, p, mode)
					defer got.Close()
					defer ref.Close()
					rows := (first+(n+b-1)/b)/d + 1
					off := got.AllocStripe(rows)
					if ref.AllocStripe(rows) != off {
						t.Fatal("fresh arrays allocated different regions")
					}
					orig := slices.Clone(data)
					wGot, wRef := got.WriteStripe(off, first, data), rowLoop(ref, off, first, data, true)
					if !slices.Equal(data, orig) {
						t.Fatal("WriteStripe changed the caller's records")
					}
					backGot, backRef := make([]record.Record, n), make([]record.Record, n)
					rGot, rRef := got.ReadStripe(off, first, backGot), rowLoop(ref, off, first, backRef, false)
					if !slices.Equal(backGot, data) || !slices.Equal(backRef, data) {
						t.Fatal("records read back differ from the records written")
					}
					if wGot != wRef || rGot != rRef {
						t.Fatalf("striped I/Os %d/%d, row loop %d/%d", wGot, rGot, wRef, rRef)
					}
					if sg, sr := got.Stats(), ref.Stats(); !reflect.DeepEqual(sg, sr) {
						t.Fatalf("stats diverge:\nstriped  %+v\nrow loop %+v", sg, sr)
					}
					for disk := 0; disk < d; disk++ {
						for o := off; o < off+rows; o++ {
							if holds(got, disk, o) != holds(ref, disk, o) {
								t.Fatalf("disk %d block %d: written %v, row loop %v", disk, o, holds(got, disk, o), holds(ref, disk, o))
							}
							if holds(got, disk, o) && !slices.Equal(got.Peek(disk, o), ref.Peek(disk, o)) {
								t.Fatalf("disk %d block %d differs from the row loop's", disk, o)
							}
						}
					}
				})
			}
		}
	}
}

// holds reports whether block off of disk d was ever written.
func holds(a *Array, d, off int) bool {
	switch s := a.stores[d].(type) {
	case *memStore:
		return off < len(s.blocks) && s.blocks[off] != nil
	case *fileStore:
		return s.isWritten(off)
	}
	panic("unknown store")
}

// newFileArrayMode is newFileArray in the given model mode.
func newFileArrayMode(tb testing.TB, p Params, mode Mode, io diskio.Config) *Array {
	tb.Helper()
	a, err := NewFileBackedOpts(p, tb.TempDir(), FileOptions{Mode: mode, IO: io})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// countingDevice is an in-memory device that counts its calls.
type countingDevice struct {
	data          []byte
	reads, writes int
}

func (c *countingDevice) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	if off+int64(len(p)) > int64(len(c.data)) {
		return copy(p, c.data[min(off, int64(len(c.data))):]), io.EOF
	}
	return copy(p, c.data[off:]), nil
}

func (c *countingDevice) WriteAt(p []byte, off int64) (int, error) {
	if need := off + int64(len(p)); need > int64(len(c.data)) {
		c.data = append(c.data, make([]byte, need-int64(len(c.data)))...)
	}
	c.writes++
	return copy(c.data[off:], p), nil
}

func (c *countingDevice) Close() error { return nil }

// newCountingArray is a file-store array over counting in-memory devices.
func newCountingArray(t *testing.T, p Params) (*Array, []*countingDevice) {
	t.Helper()
	devs := make([]diskio.Device, p.D)
	counts := make([]*countingDevice, p.D)
	for i := range devs {
		counts[i] = &countingDevice{}
		devs[i] = counts[i]
	}
	drives, err := diskio.New(diskio.Config{BlockBytes: p.B * record.EncodedSize}, devs)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]blockStore, p.D)
	for i, fs := range newFileStores(drives, p) {
		stores[i] = fs
	}
	return newWithStores(p, ModePDM, stores, drives.Close), counts
}

// TestStripeOneDeviceCallPerDisk checks a striped transfer of R full rows
// costs each disk one device call in each direction, not R, while the
// model still charges R parallel I/Os.
func TestStripeOneDeviceCallPerDisk(t *testing.T) {
	p := Params{D: 4, B: 8, M: 1024}
	const rows = 6
	a, devs := newCountingArray(t, p)
	defer a.Close()
	off := a.AllocStripe(rows)
	data := record.Generate(record.Uniform, rows*p.D*p.B, 3)
	if ios := a.WriteStripe(off, 0, data); ios != rows {
		t.Fatalf("write charged %d parallel I/Os, want %d", ios, rows)
	}
	got := make([]record.Record, len(data))
	if ios := a.ReadStripe(off, 0, got); ios != rows {
		t.Fatalf("read charged %d parallel I/Os, want %d", ios, rows)
	}
	if !slices.Equal(got, data) {
		t.Fatal("striped read differs from the striped write")
	}
	for d, dev := range devs {
		if dev.writes != 1 || dev.reads != 1 {
			t.Fatalf("disk %d: %d device writes and %d reads for %d rows, want 1 and 1", d, dev.writes, dev.reads, rows)
		}
	}
}

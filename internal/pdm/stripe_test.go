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
	return a.store.isWritten(off*a.D() + d)
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

// newCountingArray is a file-store array over a counting in-memory device.
func newCountingArray(t *testing.T, p Params) (*Array, *countingDevice) {
	t.Helper()
	dev := &countingDevice{}
	drives, err := diskio.New(diskio.Config{BlockBytes: p.B * record.EncodedSize}, p.D, dev)
	if err != nil {
		t.Fatal(err)
	}
	a := newWithStore(p, ModePDM, newFileStore(drives, p), drives.Close)
	a.drives = drives
	return a, dev
}

// TestStripeDeviceCalls counts the device calls behind each kind of
// transfer: a striped transfer of n blocks, full-width rows or not, is one
// call in each direction (n calls on a row loop, min(n, D) with one file
// per disk); a short last block adds one, through the one-block buffer;
// and k ParallelIO ops are k calls. The model charges ⌈n/D⌉ parallel I/Os
// either way, and the counters charge each disk one op per transfer that
// touches it.
func TestStripeDeviceCalls(t *testing.T) {
	p := Params{D: 4, B: 8, M: 1024}
	for _, tc := range []struct {
		name         string
		first, n     int // first block and records
		calls, rows  int
		touchedDisks int
	}{
		{"full-rows", 0, 6 * 4 * 8, 1, 6, 4},
		{"from-mid-row", 3, 5 * 8, 1, 2, 4},
		{"short-last-block", 0, 6*4*8 - 3, 2, 6, 4},
		{"one-short-block", 2, 5, 1, 1, 1},
		{"one-block", 1, 8, 1, 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, dev := newCountingArray(t, p)
			defer a.Close()
			off := a.AllocStripe(8)
			data := record.Generate(record.Uniform, tc.n, 3)
			if ios := a.WriteStripe(off, tc.first, data); ios != tc.rows {
				t.Fatalf("write charged %d parallel I/Os, want %d", ios, tc.rows)
			}
			got := make([]record.Record, len(data))
			if ios := a.ReadStripe(off, tc.first, got); ios != tc.rows {
				t.Fatalf("read charged %d parallel I/Os, want %d", ios, tc.rows)
			}
			if !slices.Equal(got, data) {
				t.Fatal("striped read differs from the striped write")
			}
			if dev.writes != tc.calls || dev.reads != tc.calls {
				t.Fatalf("%d device writes and %d reads, want %d each", dev.writes, dev.reads, tc.calls)
			}
			touched := 0
			for _, m := range a.IOMetrics().PerDisk {
				if m.Reads > 1 || m.Writes > 1 || m.Reads != m.Writes {
					t.Fatalf("a disk counted %d reads and %d writes, want one of each or none", m.Reads, m.Writes)
				}
				touched += int(m.Reads)
			}
			if touched != tc.touchedDisks {
				t.Fatalf("%d disks counted the transfer, want %d", touched, tc.touchedDisks)
			}
		})
	}

	t.Run("parallel-io", func(t *testing.T) {
		a, dev := newCountingArray(t, p)
		defer a.Close()
		write, read := fullWidth(p, a.AllocStripe(1))
		ops := 0
		for i := 0; i < 5; i++ {
			a.ParallelIO(write[:1+i%p.D])
			ops += 1 + i%p.D
		}
		a.ParallelIO(read)
		if dev.writes != ops || dev.reads != len(read) {
			t.Fatalf("%d device writes and %d reads for %d and %d ops, want one call per op", dev.writes, dev.reads, ops, len(read))
		}
	})
}

package pdm

import (
	"slices"
	"sync"
	"testing"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// testArrays opens one array of each store kind: in memory and
// file-backed.
func testArrays(p Params) map[string]func(tb testing.TB) *Array {
	return map[string]func(tb testing.TB) *Array{
		"mem":  func(testing.TB) *Array { return New(p) },
		"file": func(tb testing.TB) *Array { return newFileArray(tb, p, diskio.Config{}) },
	}
}

// TestStoresCopyOpData pins the contract buffer reuse above this package
// relies on: every block store copies Op.Data before ParallelIO returns.
// A buffer overwritten right after its write, or after a read into it,
// must not change what the block holds.
func TestStoresCopyOpData(t *testing.T) {
	p := testParams()
	for name, open := range testArrays(p) {
		t.Run(name, func(t *testing.T) {
			a := open(t)
			defer a.Close()
			want := block(p.B, 7)
			buf := slices.Clone(want)
			a.ParallelIO([]Op{{Disk: 1, Off: 0, Write: true, Data: buf}})
			for i := range buf {
				buf[i] = record.Record{Key: 99, Loc: 99}
			}
			got := make([]record.Record, p.B)
			a.ParallelIO([]Op{{Disk: 1, Off: 0, Data: got}})
			if !slices.Equal(got, want) {
				t.Fatalf("block changed after its write buffer was overwritten: %v", got)
			}
			for i := range got {
				got[i] = record.Record{Key: 98, Loc: 98}
			}
			again := make([]record.Record, p.B)
			a.ParallelIO([]Op{{Disk: 1, Off: 0, Data: again}})
			if !slices.Equal(again, want) {
				t.Fatalf("block changed after its read buffer was overwritten: %v", again)
			}
		})
	}
}

// TestParallelIOConcurrentCallers checks ParallelIO is safe for
// concurrent callers on every store kind: each goroutine writes and reads
// back its own stripe rows while the others do the same, and the model
// counts every I/O.
func TestParallelIOConcurrentCallers(t *testing.T) {
	p := testParams()
	const callers, rows = 4, 8
	for name, open := range testArrays(p) {
		t.Run(name, func(t *testing.T) {
			a := open(t)
			defer a.Close()
			base := a.AllocStripe(callers * rows)
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for r := 0; r < rows; r++ {
						off := base + c*rows + r
						write, read := fullWidth(p, off)
						a.ParallelIO(write)
						a.ParallelIO(read)
						for d := range read {
							if !slices.Equal(read[d].Data, write[d].Data) {
								t.Errorf("caller %d row %d disk %d read back other data", c, r, d)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
			if s := a.Stats(); s.IOs != 2*callers*rows {
				t.Fatalf("counted %d I/Os, want %d", s.IOs, 2*callers*rows)
			}
		})
	}
}

// fullWidth returns one full-width write and one full-width read of the
// stripe row at offset off.
func fullWidth(p Params, off int) (write, read []Op) {
	for d := 0; d < p.D; d++ {
		write = append(write, Op{Disk: d, Off: off, Write: true, Data: block(p.B, uint64(off*p.D+d))})
		read = append(read, Op{Disk: d, Off: off, Data: make([]record.Record, p.B)})
	}
	return write, read
}

// TestParallelIOAllocFree checks a parallel I/O, and a striped transfer of
// several rows, costs no allocation beyond its data transfer on every
// store kind: no per-call bookkeeping, no request or reply channel, no
// staging buffer.
func TestParallelIOAllocFree(t *testing.T) {
	p := testParams()
	const rows = 5
	for name, open := range testArrays(p) {
		t.Run(name, func(t *testing.T) {
			a := open(t)
			defer a.Close()
			write, read := fullWidth(p, a.AllocStripe(1))
			a.ParallelIO(write)
			a.ParallelIO(read)
			allocs := testing.AllocsPerRun(100, func() {
				a.ParallelIO(write)
				a.ParallelIO(read)
			})
			if allocs != 0 {
				t.Fatalf("a warmed full-width write plus read made %.1f allocations, want 0", allocs)
			}

			// A partial last row and block, from the middle of a region.
			off := a.AllocStripe(rows + 1)
			data := record.Generate(record.Uniform, rows*p.D*p.B-3, 2)
			got := make([]record.Record, len(data))
			a.WriteStripe(off, 1, data)
			a.ReadStripe(off, 1, got)
			allocs = testing.AllocsPerRun(100, func() {
				a.WriteStripe(off, 1, data)
				a.ReadStripe(off, 1, got)
			})
			if allocs != 0 {
				t.Fatalf("a warmed %d-row striped write plus read made %.1f allocations, want 0", rows, allocs)
			}
		})
	}
}

// TestParallelVIOAllocFree checks a full-width virtual I/O builds its
// physical ops without allocating.
func TestParallelVIOAllocFree(t *testing.T) {
	p := Params{D: 8, B: 4, M: 256}
	a := New(p)
	defer a.Close()
	vd := NewVirtual(a, 4)
	off := vd.Alloc(0, 1)
	for h := 1; h < vd.V(); h++ {
		vd.Alloc(h, 1)
	}
	ops := make([]VOp, vd.V())
	for h := range ops {
		ops[h] = VOp{VDisk: h, Off: off, Write: true, Data: make([]record.Record, vd.VB())}
	}
	vd.ParallelVIO(ops)
	allocs := testing.AllocsPerRun(100, func() { vd.ParallelVIO(ops) })
	if allocs != 0 {
		t.Fatalf("a warmed full-width ParallelVIO made %.1f allocations, want 0", allocs)
	}
}

// BenchmarkParallelIO times one full-width write plus one full-width read
// per op on each store kind, at D=8 B=64: the per-block host cost of the
// I/O layer, with its allocations. The -striped variants move 16 rows per
// op through WriteStripe and ReadStripe, one device call per disk each.
func BenchmarkParallelIO(b *testing.B) {
	p := Params{D: 8, B: 64, M: 1 << 14}
	for _, name := range []string{"mem", "file"} {
		b.Run(name, func(b *testing.B) {
			a := testArrays(p)[name](b)
			defer a.Close()
			write, read := fullWidth(p, a.AllocStripe(1))
			a.ParallelIO(write)
			b.ReportAllocs()
			b.SetBytes(int64(2 * p.D * p.B * record.EncodedSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ParallelIO(write)
				a.ParallelIO(read)
			}
		})
		b.Run(name+"-striped", func(b *testing.B) {
			const rows = 16
			a := testArrays(p)[name](b)
			defer a.Close()
			off := a.AllocStripe(rows)
			data := record.Generate(record.Uniform, rows*p.D*p.B, 1)
			a.WriteStripe(off, 0, data)
			b.ReportAllocs()
			b.SetBytes(int64(2 * len(data) * record.EncodedSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.WriteStripe(off, 0, data)
				a.ReadStripe(off, 0, data)
			}
		})
	}
}

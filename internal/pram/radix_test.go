package pram

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"balancesort/internal/record"
)

// checkRadix sorts a copy of rs with SortRadix and with the comparison
// sort and fails on the first difference.
func checkRadix(t *testing.T, name string, rs []record.Record) {
	t.Helper()
	got := slices.Clone(rs)
	want := slices.Clone(rs)
	slices.SortFunc(want, record.Record.Compare)
	New(4).SortRadix(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: radix mismatch at %d of %d: got %v, want %v", name, i, len(rs), got[i], want[i])
		}
	}
}

// shuffleLocs permutes the Locs of rs among its records, so that runs of
// equal keys arrive out of Loc order, as they do in a Balance Sort bucket
// or a cluster shard.
func shuffleLocs(rs []record.Record, seed uint64) []record.Record {
	g := record.NewRNG(seed)
	for i := len(rs) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		rs[i].Loc, rs[j].Loc = rs[j].Loc, rs[i].Loc
	}
	return rs
}

// TestSortRadixMatchesComparison compares the radix kernel with the
// comparison sort on every workload at sizes around the digit and
// memoryload boundaries, each also with its Locs shuffled, and on inputs
// built to hit the shared-digit skip. Shuffled, zipf from n = 255 on
// holds runs of equal keys both up to shortGroup long and longer, so
// both tie fix-ups run within one input.
func TestSortRadixMatchesComparison(t *testing.T) {
	for _, w := range record.AllWorkloads {
		for _, n := range []int{0, 1, 2, 255, 256, 257, 5000, 8191, 8192, 65537} {
			checkRadix(t, fmt.Sprintf("%v/n=%d", w, n), record.Generate(w, n, uint64(n)+17))
			checkRadix(t, fmt.Sprintf("%v/n=%d/shuffled-locs", w, n), shuffleLocs(record.Generate(w, n, uint64(n)+17), uint64(n)))
		}
	}

	const n = 4099
	same := make([]record.Record, n) // every digit of every record shared
	for i := range same {
		same[i] = record.Record{Key: 0xdeadbeef12345678, Loc: 0x0102030405060708}
	}
	checkRadix(t, "all-digits-shared", same)

	equalKeys := record.Generate(record.Uniform, n, 3) // only Loc differs
	for i := range equalKeys {
		equalKeys[i].Key = 42
	}
	checkRadix(t, "equal-keys", equalKeys)

	highLoc := record.Generate(record.Uniform, n, 5) // Loc's high bytes vary
	for i := range highLoc {
		highLoc[i].Loc = uint64(n-i)<<52 | uint64(i)
	}
	checkRadix(t, "high-loc-bits", highLoc)

	// Half the keys equal and high, half random below them: the first MSD
	// pass leaves a bucket of equal keys longer than short.
	split := record.Generate(record.Uniform, n, 7)
	for i := range split {
		if i%2 == 0 {
			split[i].Key = 1 << 63
		} else {
			split[i].Key >>= 1
		}
	}
	checkRadix(t, "equal-key-bucket", split)
	checkRadix(t, "equal-key-bucket/shuffled-locs", shuffleLocs(split, 8))

	for _, sh := range radixShapes {
		checkRadix(t, sh.name, sh.records())
	}
}

// radixShape describes an input built to reach one path of SortRadix: n
// records whose keys are base with the bits of mask drawn at random, and
// whose Locs ascend, descend, are drawn at random, or are all equal
// (locs 0 to 3).
type radixShape struct {
	name       string
	n          int
	base, mask uint64
	locs       uint8
	seed       uint64
}

func (sh radixShape) records() []record.Record {
	g := record.NewRNG(sh.seed)
	rs := make([]record.Record, sh.n)
	for i := range rs {
		rs[i].Key = sh.base ^ g.Uint64()&sh.mask
		switch sh.locs % 4 {
		case 0:
			rs[i].Loc = uint64(i)
		case 1:
			rs[i].Loc = uint64(sh.n - i)
		case 2:
			rs[i].Loc = g.Uint64()
		}
	}
	return rs
}

// radixShapes are the fixed cases of TestSortRadixMatchesComparison and the
// seeds of FuzzSortRadix: equal records, equal keys out of Loc order past
// the insertion cutoff, keys that differ in one end bit or share their top
// 40 bits, spans of varying bits on either side of the LSD/MSD split, a
// mask that takes the MSD recursion to its deepest level, equal keys with
// ascending Locs in the short buckets of the first and second MSD passes
// (which must stay in input order), and sizes on either side of the
// insertion cutoff and of the first MSD pass's digit widths.
var radixShapes = func() []radixShape {
	shapes := []radixShape{
		{"all-records-equal", 3000, 0x5555, 0, 3, 1},
		{"equal-keys-descending-locs", short + 9, 7, 0, 1, 2},
		{"equal-keys-descending-locs-long", 5000, 7, 0, 1, 3},
		{"bit-63-only", 4000, 0x1234, 1 << 63, 2, 4},
		{"bit-0-only", 4000, 0x1234 << 40, 1, 2, 5},
		{"top-40-bits-shared", 8192, 0xabcdef0123 << 24, 1<<24 - 1, 2, 6},
		{"span-16-bits", 5000, 0, 0xffff << 20, 2, 7},
		{"span-17-bits", 5000, 0, 0x1ffff << 20, 2, 8},
		{"deepest-msd", 8192, 0, 0x8101010101010101, 2, 9},
		{"deepest-msd-ascending-locs", 8192, 0, 0x8101010101010101, 0, 10},
		{"equal-keys-in-short-buckets", 5000, 0, 0xffe0000000000001, 0, 11},
		{"equal-keys-in-short-deeper-buckets", 8192, 0, 0x8000000000ff0001, 0, 12},
	}
	for _, n := range []int{short - 1, short, short + 1, 255, 256, 257, 2047, 2048, 4095, 4096, 8191, 8192, 16384} {
		shapes = append(shapes, radixShape{fmt.Sprintf("uniform-n=%d", n), n, 0, ^uint64(0), 2, uint64(n)})
	}
	return shapes
}()

// FuzzSortRadix checks SortRadix against the comparison sort on inputs
// drawn like radixShapes: n records (up to 8Ki + 2) with keys varying in
// the bits of mask around base, and Locs in one of four orders.
func FuzzSortRadix(f *testing.F) {
	for _, sh := range radixShapes {
		f.Add(uint16(sh.n), sh.base, sh.mask, sh.locs, sh.seed)
	}
	f.Fuzz(func(t *testing.T, n uint16, base, mask uint64, locs uint8, seed uint64) {
		sh := radixShape{"fuzz", int(n) % (1<<13 + 3), base, mask, locs, seed}
		checkRadix(t, fmt.Sprintf("n=%d base=%#x mask=%#x locs=%d seed=%d", sh.n, base, mask, locs, seed), sh.records())
	})
}

func TestSortRadixTiny(t *testing.T) {
	m := New(1)
	m.SortRadix(nil)
	one := []record.Record{{Key: 5}}
	m.SortRadix(one)
	if one[0].Key != 5 {
		t.Fatal("singleton mangled")
	}
	two := []record.Record{{Key: 2, Loc: 0}, {Key: 1, Loc: 1}}
	m.SortRadix(two)
	if two[0].Key != 1 {
		t.Fatal("pair not sorted")
	}
}

func TestSortRadixDuplicateKeysOrderedByLoc(t *testing.T) {
	rs := record.Generate(record.FewDistinct, 3000, 21)
	m := New(2)
	m.SortRadix(rs)
	for i := 1; i < len(rs); i++ {
		if rs[i].Key == rs[i-1].Key && rs[i].Loc < rs[i-1].Loc {
			t.Fatalf("loc order broken at %d", i)
		}
	}
	if !record.IsSorted(rs) {
		t.Fatal("not sorted")
	}
}

func TestSortRadixQuick(t *testing.T) {
	f := func(keys []uint64) bool {
		rs := make([]record.Record, len(keys))
		for i, k := range keys {
			rs[i] = record.Record{Key: k, Loc: uint64(i)}
		}
		m := New(3)
		m.SortRadix(rs)
		return record.IsSorted(rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestSortRadixChargesWork pins the Rajasekaran–Reif charge exactly: 8
// counting passes over 16-bit digits, each 2n + 2^16 work at depth
// lg n + 16, whatever digits the host actually executes.
func TestSortRadixChargesWork(t *testing.T) {
	for _, p := range []int{1, 4} {
		for _, n := range []int{2, 3, 4096, 5000} {
			m := New(p)
			m.SortRadix(record.Generate(record.Zipf, n, 1))
			var work, tm float64
			for pass := 0; pass < 8; pass++ {
				w := float64(2*n + 1<<16)
				work += w
				tm += w/float64(p) + (lg(float64(n)) + 16)
			}
			if m.Syncs() != 8 || m.Work() != work || m.Time() != tm {
				t.Fatalf("P=%d n=%d: syncs=%d work=%v time=%v, want 8, %v, %v", p, n, m.Syncs(), m.Work(), m.Time(), work, tm)
			}
		}
	}
	m := New(1)
	m.SortRadix(make([]record.Record, 1))
	if m.Syncs() != 0 {
		t.Fatal("a singleton sort must be free")
	}
}

func TestSortRadixExtremeValues(t *testing.T) {
	var rs []record.Record
	for _, k := range []uint64{0, 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
		for _, l := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
			rs = append(rs, record.Record{Key: k, Loc: l})
		}
	}
	slices.Reverse(rs)
	checkRadix(t, "extremes", rs)
}

// TestSortRadixAllocFree pins the steady state: once the pool holds a
// large enough buffer, sorting a memoryload allocates nothing.
func TestSortRadixAllocFree(t *testing.T) {
	src := record.Generate(record.Uniform, 8192, 9)
	rs := make([]record.Record, len(src))
	m := New(1)
	allocs := testing.AllocsPerRun(20, func() {
		copy(rs, src)
		m.SortRadix(rs)
	})
	if allocs != 0 {
		t.Fatalf("SortRadix of 8Ki records: %v allocs per call, want 0", allocs)
	}
}

// TestSortRadixConcurrent shares one Machine, and the scratch pool, among
// goroutines sorting different inputs at once, as cluster shard sorts and
// served jobs do. Between sorts each goroutine also borrows a buffer from
// the pool and fills it, as an in-process worker's merges do while another
// worker forms runs: a buffer lent out must be nobody else's.
func TestSortRadixConcurrent(t *testing.T) {
	const goroutines = 4
	m := New(2)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				rs := record.Generate(record.AllWorkloads[(g+i)%len(record.AllWorkloads)], 3000+g*500, uint64(g*10+i))
				want := slices.Clone(rs)
				slices.SortFunc(want, record.Record.Compare)
				m.SortRadix(rs)
				if !slices.Equal(rs, want) {
					t.Errorf("goroutine %d round %d: radix output differs from the comparison sort", g, i)
					return
				}
				b := TakeBuffer(len(rs))
				lent := b.Records()[:len(rs)]
				copy(lent, rs)
				runtime.Gosched()
				if !slices.Equal(lent, want) {
					t.Errorf("goroutine %d round %d: a lent buffer changed while lent", g, i)
				}
				b.Release()
			}
		}(g)
	}
	wg.Wait()
	if m.Syncs() != goroutines*5*8 {
		t.Fatalf("syncs = %d, want %d", m.Syncs(), goroutines*5*8)
	}
}

// BenchmarkSortRadix times the kernel on memoryload-sized and larger
// inputs; each iteration sorts a fresh copy of the same input. The
// shuffled-locs cases are the tie fix-up's worst case: heavy duplicates
// out of Loc order, as in duplicate-heavy Balance Sort base cases and
// cluster shards.
func BenchmarkSortRadix(b *testing.B) {
	type input struct {
		w        record.Workload
		shuffled bool
	}
	for _, in := range []input{{record.Uniform, false}, {record.Zipf, false}, {record.Zipf, true}, {record.FewDistinct, true}} {
		for _, n := range []int{256, 8 << 10, 64 << 10, 1 << 20} {
			name := fmt.Sprintf("%v/n=%d", in.w, n)
			if in.shuffled {
				name = fmt.Sprintf("%v-shuffled-locs/n=%d", in.w, n)
			}
			b.Run(name, func(b *testing.B) {
				src := record.Generate(in.w, n, 11)
				if in.shuffled {
					shuffleLocs(src, 12)
				}
				rs := make([]record.Record, n)
				m := New(1)
				b.ReportAllocs()
				b.ResetTimer()
				var sorting time.Duration
				for i := 0; i < b.N; i++ {
					copy(rs, src)
					t0 := time.Now()
					m.SortRadix(rs)
					sorting += time.Since(t0)
				}
				b.ReportMetric(float64(n)*float64(b.N)/1e6/sorting.Seconds(), "Mrec/s")
			})
		}
	}
}

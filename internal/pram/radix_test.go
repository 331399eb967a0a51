package pram

import (
	"fmt"
	"math"
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
// served jobs do.
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

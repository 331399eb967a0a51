package pram

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"balancesort/internal/record"
)

func TestChargeBrent(t *testing.T) {
	m := New(4)
	m.Charge(100, 3)
	if got := m.Time(); got != 100.0/4+3 {
		t.Fatalf("time = %v, want 28", got)
	}
	if m.Work() != 100 {
		t.Fatalf("work = %v, want 100", m.Work())
	}
	if m.Syncs() != 1 {
		t.Fatalf("syncs = %d, want 1", m.Syncs())
	}
}

func TestChargeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	New(1).Charge(-1, 0)
}

func TestNewInvalidP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("P=0 did not panic")
		}
	}()
	New(0)
}

func TestReset(t *testing.T) {
	m := New(2)
	m.ChargeSort(100)
	m.Reset()
	if m.Time() != 0 || m.Work() != 0 || m.Syncs() != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestChargeSortCost(t *testing.T) {
	m := New(1)
	m.ChargeSort(1024)
	want := 1024*10 + 10.0 // n log n / 1 + log n
	if math.Abs(m.Time()-want) > 1e-9 {
		t.Fatalf("sort cost = %v, want %v", m.Time(), want)
	}
	m.Reset()
	m.ChargeSort(1) // trivial sorts are free
	if m.Time() != 0 {
		t.Fatalf("sort of 1 item charged %v", m.Time())
	}
}

func TestMoreProcessorsNeverSlower(t *testing.T) {
	costs := make([]float64, 0, 4)
	for _, p := range []int{1, 4, 16, 64} {
		m := New(p)
		m.ChargeSort(1 << 16)
		m.ChargePartition(1<<16, 32)
		m.ChargeScan(1 << 16)
		costs = append(costs, m.Time())
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] > costs[i-1] {
			t.Fatalf("P increase raised time: %v", costs)
		}
	}
}

func TestPrefixSums(t *testing.T) {
	m := New(2)
	prefix, total := m.PrefixSums([]int{3, 1, 4, 1, 5})
	wantPrefix := []int{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d, want 14", total)
	}
	for i := range wantPrefix {
		if prefix[i] != wantPrefix[i] {
			t.Fatalf("prefix[%d] = %d, want %d", i, prefix[i], wantPrefix[i])
		}
	}
}

func TestSegmentedCount(t *testing.T) {
	m := New(2)
	counts := m.SegmentedCount([]int{0, 0, 1, 3, 3, 3}, 4)
	want := []int{2, 1, 0, 3}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
}

func TestSegmentedCountRejectsNonMonotone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotone segments did not panic")
		}
	}()
	New(1).SegmentedCount([]int{1, 0}, 2)
}

func TestMonotoneRoute(t *testing.T) {
	m := New(2)
	src := []record.Record{{Key: 10}, {Key: 20}, {Key: 30}}
	dst := make([]record.Record, 6)
	m.MonotoneRoute(src, []int{1, 3, 4}, dst)
	if dst[1].Key != 10 || dst[3].Key != 20 || dst[4].Key != 30 {
		t.Fatalf("routing wrong: %v", dst)
	}
}

func TestMonotoneRouteRejectsNonMonotone(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-monotone ranks did not panic")
		}
	}()
	dst := make([]record.Record, 4)
	New(1).MonotoneRoute(make([]record.Record, 2), []int{2, 2}, dst)
}

func TestSortSmall(t *testing.T) {
	m := New(4)
	rs := record.Generate(record.Uniform, 100, 3)
	m.Sort(rs)
	if !record.IsSorted(rs) {
		t.Fatal("small sort failed")
	}
}

func TestSortLargeParallelPath(t *testing.T) {
	// Big enough to trigger the goroutine fan-out path even on multi-core
	// hosts.
	m := New(8)
	rs := record.Generate(record.Reversed, 64*grain, 4)
	want := append([]record.Record(nil), rs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	m.Sort(rs)
	if !record.IsSorted(rs) {
		t.Fatal("parallel sort output not sorted")
	}
	for i := range rs {
		if rs[i] != want[i] {
			t.Fatalf("parallel sort mismatch at %d", i)
		}
	}
	if m.Time() <= 0 {
		t.Fatal("no time charged")
	}
}

func TestSortQuickProperty(t *testing.T) {
	f := func(keys []uint64, p8 uint8) bool {
		p := int(p8%8) + 1
		rs := make([]record.Record, len(keys))
		for i, k := range keys {
			rs[i] = record.Record{Key: k, Loc: uint64(i)}
		}
		m := New(p)
		m.Sort(rs)
		return record.IsSorted(rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCRCWVariantDepths(t *testing.T) {
	e := New(1)
	c := NewVariant(1, CRCW)
	if c.Variant() != CRCW || e.Variant() != EREW {
		t.Fatal("variant accessors wrong")
	}
	n := 1 << 16
	e.ChargeScan(n)
	c.ChargeScan(n)
	// Same work (n) but CRCW's depth is log log n = 4 vs EREW's 16.
	if eT, cT := e.Time(), c.Time(); cT >= eT {
		t.Fatalf("CRCW scan (%v) not cheaper than EREW (%v)", cT, eT)
	}
	e.Reset()
	c.Reset()
	e.ChargeSort(n)
	c.ChargeSort(n)
	if eT, cT := e.Time(), c.Time(); cT >= eT {
		t.Fatalf("CRCW sort (%v) not cheaper than EREW (%v)", cT, eT)
	}
}

func TestCRCWStillSortsCorrectly(t *testing.T) {
	m := NewVariant(4, CRCW)
	rs := record.Generate(record.Reversed, 5000, 8)
	m.Sort(rs)
	if !record.IsSorted(rs) {
		t.Fatal("CRCW machine sort failed")
	}
}

func TestParallelMergeSortDirect(t *testing.T) {
	// workers() caps fan-out at GOMAXPROCS, so on a single-core host the
	// goroutine path never runs through Sort; exercise it directly.
	for _, w := range []int{2, 3, 5, 8} {
		for _, n := range []int{10, 1000, 4097, 10000} {
			rs := record.Generate(record.Zipf, n, uint64(w*n))
			want := append([]record.Record(nil), rs...)
			sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
			parallelMergeSort(rs, w)
			for i := range want {
				if rs[i] != want[i] {
					t.Fatalf("w=%d n=%d: mismatch at %d", w, n, i)
				}
			}
		}
	}
}

func TestMergeInto(t *testing.T) {
	a := []record.Record{{Key: 1}, {Key: 3}, {Key: 5}}
	b := []record.Record{{Key: 2}, {Key: 4}}
	out := make([]record.Record, 5)
	mergeInto(a, b, out)
	for i, want := range []uint64{1, 2, 3, 4, 5} {
		if out[i].Key != want {
			t.Fatalf("merge out = %v", out)
		}
	}
	// One side empty.
	out2 := make([]record.Record, 3)
	mergeInto(a, nil, out2)
	if out2[2].Key != 5 {
		t.Fatalf("one-sided merge = %v", out2)
	}
}

func TestChargeMergeAndP(t *testing.T) {
	m := New(4)
	if m.P() != 4 {
		t.Fatalf("P = %d", m.P())
	}
	m.ChargeMerge(0) // free
	if m.Time() != 0 {
		t.Fatal("empty merge charged")
	}
	m.ChargeMerge(1024)
	if m.Time() != 1024.0/4+10 {
		t.Fatalf("merge charge = %v", m.Time())
	}
}

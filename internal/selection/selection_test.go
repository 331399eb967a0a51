package selection

import (
	"sort"
	"testing"
	"testing/quick"

	"balancesort/internal/record"
)

func TestSelectAgainstSort(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 11, 100, 1000} {
		rs := record.Generate(record.Uniform, n, uint64(n))
		sorted := append([]record.Record(nil), rs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		for _, k := range []int{0, n / 3, n / 2, n - 1} {
			if got := Select(rs, k); got != sorted[k] {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, got, sorted[k])
			}
		}
	}
}

func TestSelectDoesNotMutate(t *testing.T) {
	rs := record.Generate(record.Uniform, 64, 9)
	before := append([]record.Record(nil), rs...)
	Select(rs, 10)
	for i := range rs {
		if rs[i] != before[i] {
			t.Fatalf("Select mutated input at %d", i)
		}
	}
}

func TestSelectWithDuplicates(t *testing.T) {
	rs := record.Generate(record.FewDistinct, 500, 2)
	sorted := append([]record.Record(nil), rs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
	for k := 0; k < 500; k += 37 {
		if got := Select(rs, k); got != sorted[k] {
			t.Fatalf("k=%d: got %v want %v", k, got, sorted[k])
		}
	}
}

func TestSelectRankOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	Select(make([]record.Record, 3), 3)
}

func TestSelectIntsQuick(t *testing.T) {
	f := func(raw []int16, kraw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int, len(raw))
		for i, v := range raw {
			xs[i] = int(v)
		}
		k := int(kraw) % len(xs)
		got := SelectInts(nil, xs, k)
		sorted := append([]int(nil), xs...)
		sort.Ints(sorted)
		return got == sorted[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRowMedianConvention(t *testing.T) {
	// The paper's median is the ceil(n/2)-th smallest, not the statistical
	// average of the two middle elements.
	cases := []struct {
		xs   []int
		want int
	}{
		{[]int{5}, 5},
		{[]int{2, 1}, 1},       // ceil(2/2)=1st smallest
		{[]int{3, 1, 2}, 2},    // 2nd smallest
		{[]int{4, 1, 3, 2}, 2}, // ceil(4/2)=2nd smallest
		{[]int{0, 0, 1, 1}, 0}, // duplicates
		{[]int{9, 7, 5, 3, 1}, 5},
	}
	for _, c := range cases {
		if got := RowMedian(nil, c.xs); got != c.want {
			t.Fatalf("RowMedian(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

func TestRowMedianEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty row did not panic")
		}
	}()
	RowMedian(nil, nil)
}

func TestRowMedianDoesNotMutate(t *testing.T) {
	xs := []int{5, 4, 3, 2, 1}
	RowMedian(make([]int, len(xs)), xs)
	want := []int{5, 4, 3, 2, 1}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("RowMedian mutated input")
		}
	}
}

func TestSelectAdversarialPatterns(t *testing.T) {
	// Sorted, reverse-sorted, and organ-pipe inputs are the classic
	// quickselect killers; BFPRT must stay correct (and is worst-case
	// linear regardless).
	n := 1001
	patterns := map[string]func(i int) uint64{
		"sorted":    func(i int) uint64 { return uint64(i) },
		"reverse":   func(i int) uint64 { return uint64(n - i) },
		"organpipe": func(i int) uint64 { return uint64(min(i, n-i)) },
		"constant":  func(i int) uint64 { return 7 },
	}
	for name, f := range patterns {
		rs := make([]record.Record, n)
		for i := range rs {
			rs[i] = record.Record{Key: f(i), Loc: uint64(i)}
		}
		sorted := append([]record.Record(nil), rs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })
		for _, k := range []int{0, 1, n / 2, n - 2, n - 1} {
			if got := Select(rs, k); got != sorted[k] {
				t.Fatalf("%s k=%d: got %v want %v", name, k, got, sorted[k])
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

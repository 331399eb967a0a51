package core

import (
	"sort"
	"testing"

	"balancesort/internal/balance"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// sortOnDisks loads recs onto a fresh array, runs Balance Sort, reads the
// segments back, and returns the output with the sorter for metric checks.
func sortOnDisks(t *testing.T, p pdm.Params, cfg DiskConfig, recs []record.Record) ([]record.Record, *DiskSorter) {
	t.Helper()
	arr := pdm.New(p)
	t.Cleanup(func() { arr.Close() })
	ds := NewDiskSorter(arr, cfg)
	in := ds.WriteInput(recs)
	segs := ds.Sort(in.Off, in.N)
	var out []record.Record
	for _, seg := range segs {
		out = append(out, ds.ReadRegion(seg)...)
	}
	return out, ds
}

func checkSorted(t *testing.T, in, out []record.Record) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("output has %d records, want %d", len(out), len(in))
	}
	if !record.IsSorted(out) {
		for i := 1; i < len(out); i++ {
			if out[i].Less(out[i-1]) {
				t.Fatalf("output unsorted at %d: %v then %v", i, out[i-1], out[i])
			}
		}
	}
	if !record.SameMultiset(in, out) {
		t.Fatal("output is not a permutation of the input")
	}
}

func smallParams() pdm.Params { return pdm.Params{D: 4, B: 8, M: 512} }

func TestSortTinyBaseCase(t *testing.T) {
	// N below one memoryload: pure base case, no distribution.
	in := record.Generate(record.Uniform, 100, 1)
	out, ds := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	checkSorted(t, in, out)
	if ds.Metrics().Passes != 0 {
		t.Fatalf("tiny input used %d distribution passes", ds.Metrics().Passes)
	}
}

func TestSortOneLevel(t *testing.T) {
	// N a few memoryloads: one distribution pass, buckets fit in memory.
	in := record.Generate(record.Uniform, 2000, 2)
	out, ds := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	checkSorted(t, in, out)
	m := ds.Metrics()
	if m.Passes < 1 {
		t.Fatal("expected at least one distribution pass")
	}
	if m.Depth < 1 {
		t.Fatal("expected recursion depth >= 1")
	}
}

func TestSortTwoLevels(t *testing.T) {
	// N large enough that some bucket exceeds a memoryload.
	in := record.Generate(record.Uniform, 20000, 3)
	out, ds := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	checkSorted(t, in, out)
	if ds.Metrics().Depth < 2 {
		t.Fatalf("depth = %d, expected >= 2", ds.Metrics().Depth)
	}
}

func TestSortAllWorkloads(t *testing.T) {
	for _, w := range record.AllWorkloads {
		in := record.Generate(w, 6000, 4)
		out, _ := sortOnDisks(t, smallParams(), DiskConfig{}, in)
		checkSorted(t, in, out)
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	out, _ := sortOnDisks(t, smallParams(), DiskConfig{}, nil)
	if len(out) != 0 {
		t.Fatal("empty input produced output")
	}
	in := []record.Record{{Key: 5, Loc: 0}}
	out, _ = sortOnDisks(t, smallParams(), DiskConfig{}, in)
	checkSorted(t, in, out)
}

func TestSortDeterministic(t *testing.T) {
	in := record.Generate(record.Uniform, 8000, 5)
	out1, ds1 := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	out2, ds2 := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("outputs differ between identical runs")
		}
	}
	if ds1.Metrics().IOs != ds2.Metrics().IOs {
		t.Fatalf("I/O counts differ: %d vs %d", ds1.Metrics().IOs, ds2.Metrics().IOs)
	}
	if ds1.Metrics().PRAMTime != ds2.Metrics().PRAMTime {
		t.Fatal("PRAM times differ between identical runs")
	}
}

func TestSortRandomizedMatchingStillSorts(t *testing.T) {
	in := record.Generate(record.BucketSkew, 8000, 6)
	out, _ := sortOnDisks(t, smallParams(), DiskConfig{Match: balance.MatchRandomized, Seed: 99}, in)
	checkSorted(t, in, out)
}

func TestSortGreedyMatchingStillSorts(t *testing.T) {
	in := record.Generate(record.BucketSkew, 8000, 7)
	out, _ := sortOnDisks(t, smallParams(), DiskConfig{Match: balance.MatchGreedy}, in)
	checkSorted(t, in, out)
}

func TestSortArgeRuleStillSorts(t *testing.T) {
	in := record.Generate(record.Uniform, 8000, 8)
	out, _ := sortOnDisks(t, smallParams(), DiskConfig{Rule: balance.AuxTwiceAverage}, in)
	checkSorted(t, in, out)
}

func TestSortPartialStriping(t *testing.T) {
	p := pdm.Params{D: 8, B: 4, M: 1024}
	for _, v := range []int{1, 2, 4, 8} {
		in := record.Generate(record.Uniform, 6000, uint64(v))
		out, _ := sortOnDisks(t, p, DiskConfig{V: v}, in)
		checkSorted(t, in, out)
	}
}

func TestSortMultipleProcessorsSameIOs(t *testing.T) {
	// Figure 2a vs 2b: P only affects internal time, never the I/O count.
	in := record.Generate(record.Uniform, 8000, 9)
	out1, ds1 := sortOnDisks(t, smallParams(), DiskConfig{P: 1}, in)
	out4, ds4 := sortOnDisks(t, smallParams(), DiskConfig{P: 4}, in)
	checkSorted(t, in, out1)
	checkSorted(t, in, out4)
	if ds1.Metrics().IOs != ds4.Metrics().IOs {
		t.Fatalf("I/Os differ with P: %d vs %d", ds1.Metrics().IOs, ds4.Metrics().IOs)
	}
	if ds4.Metrics().PRAMTime >= ds1.Metrics().PRAMTime {
		t.Fatalf("P=4 not faster: %.0f vs %.0f", ds4.Metrics().PRAMTime, ds1.Metrics().PRAMTime)
	}
}

func TestTheorem4ReadRatioBounded(t *testing.T) {
	for _, w := range []record.Workload{record.Uniform, record.BucketSkew, record.FewDistinct} {
		in := record.Generate(w, 16000, 10)
		out, ds := sortOnDisks(t, smallParams(), DiskConfig{}, in)
		checkSorted(t, in, out)
		if r := ds.Metrics().MaxBucketReadRatio; r > 3.0 {
			t.Fatalf("%v: bucket read ratio %.2f far exceeds Theorem 4's ~2", w, r)
		}
	}
}

func TestBucketSizesBounded(t *testing.T) {
	in := record.Generate(record.Uniform, 16000, 11)
	_, ds := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	if f := ds.Metrics().MaxBucketFrac; f > 2.5 {
		t.Fatalf("max bucket %.2fx the even share; pivot guarantee is ~2x", f)
	}
}

func TestMemoryNeverExceedsM(t *testing.T) {
	// The Mem tracker panics on overflow, so surviving the run is the
	// assertion; additionally the peak must be meaningfully below M.
	for _, tc := range []struct {
		p pdm.Params
		n int
	}{
		{smallParams(), 16000},
		// DB = M/4 and more virtual disks than a block has records: a
		// pass's balancer matrices and track take as much memory as its
		// block pools, so they, not the pools, cap the fan-out.
		{pdm.Params{D: 8, B: 4, M: 128}, 256},
		{pdm.Params{D: 16, B: 8, M: 512}, 2048},
	} {
		in := record.Generate(record.Uniform, tc.n, 12)
		out, ds := sortOnDisks(t, tc.p, DiskConfig{}, in)
		checkSorted(t, in, out)
		if peak := ds.Metrics().MemPeak; peak > tc.p.M {
			t.Fatalf("%+v: memory peak %d exceeds M", tc.p, peak)
		}
		if ds.Metrics().MemPeak == 0 {
			t.Fatal("memory accounting recorded nothing")
		}
	}
}

func TestIOsWithinConstantOfLowerBound(t *testing.T) {
	p := pdm.Params{D: 4, B: 16, M: 2048}
	in := record.Generate(record.Uniform, 1<<16, 13)
	out, ds := sortOnDisks(t, p, DiskConfig{}, in)
	checkSorted(t, in, out)
	// The sample cap holds the top level to 8 buckets of ~8 memoryloads
	// each, so the bound must also hold across a re-distribution from the
	// bucket chains.
	if d := ds.Metrics().Depth; d < 2 {
		t.Fatalf("depth = %d, want >= 2", d)
	}
	lb := LowerBoundIOs(len(in), p)
	ratio := float64(ds.Metrics().IOs) / lb
	if ratio > 12 {
		t.Fatalf("I/Os %d are %.1fx the lower bound %.0f — not a constant factor", ds.Metrics().IOs, ratio, lb)
	}
	if ratio < 1 {
		t.Fatalf("I/Os %d beat the lower bound %.0f — counting bug", ds.Metrics().IOs, lb)
	}
}

func TestSegmentsAreOrderedRuns(t *testing.T) {
	in := record.Generate(record.Uniform, 12000, 14)
	arr := pdm.New(smallParams())
	defer arr.Close()
	ds := NewDiskSorter(arr, DiskConfig{})
	reg := ds.WriteInput(in)
	segs := ds.Sort(reg.Off, reg.N)
	var last record.Record
	first := true
	total := 0
	for _, seg := range segs {
		recs := ds.ReadRegion(seg)
		total += len(recs)
		if !record.IsSorted(recs) {
			t.Fatal("segment internally unsorted")
		}
		if len(recs) == 0 {
			t.Fatal("empty segment emitted")
		}
		if !first && recs[0].Less(last) {
			t.Fatal("segments out of order")
		}
		last = recs[len(recs)-1]
		first = false
	}
	if total != len(in) {
		t.Fatalf("segments hold %d records, want %d", total, len(in))
	}
}

func TestLowerBoundFormula(t *testing.T) {
	p := pdm.Params{D: 10, B: 100, M: 10000}
	// N = B: log(N/B) = max(1, 0) = 1 -> N/(DB) * 1/log(M/B).
	got := LowerBoundIOs(100, p)
	want := 100.0 / 1000.0 * 1.0 / 6.643856189774724
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("LowerBoundIOs = %v, want %v", got, want)
	}
	if LowerBoundIOs(0, p) != 0 {
		t.Fatal("zero records should cost zero")
	}
}

// TestFanout pins the per-pass bucket count: the size-aware rule at the
// benchmark geometries, where each of its bounds binds, and an explicit S,
// which every pass uses as given.
func TestFanout(t *testing.T) {
	sortDist := pdm.Params{D: 8, B: 64, M: 1 << 14}
	for _, tc := range []struct {
		name string
		p    pdm.Params
		s, n int // s is DiskConfig.S; 0 selects the size-aware rule
		want int
	}{
		// ⌈2n/L⌉ = 64 buckets of at most one memoryload each; S·VB = M/4.
		{"sort-dist", sortDist, 0, 1 << 18, 64},
		// One record over L: a 3-way split, not a full pass.
		{"just over one memoryload", sortDist, 0, Memoryload(sortDist) + 1, 3},
		// 128 runs share the M/4 sample: (M/4)/runs = 32 < ⌈2n/L⌉ = 256.
		{"sample cap", sortDist, 0, 1 << 20, 32},
		// 63 runs leave room for two buckets.
		{"smallParams", smallParams(), 0, 16000, 2},
		// DB = M/4 with many small blocks: the balancer matrices and the
		// track, not the pools, cap S below ⌈2n/L⌉ = 8 and 16.
		{"memory cap, D=8", pdm.Params{D: 8, B: 4, M: 128}, 0, 256, 4},
		{"memory cap, D=16", pdm.Params{D: 16, B: 8, M: 512}, 0, 2048, 8},
		{"explicit S", smallParams(), 3, 16000, 3},
	} {
		arr := pdm.New(tc.p)
		ds := NewDiskSorter(arr, DiskConfig{S: tc.s})
		if got := ds.buckets(tc.n); got != tc.want {
			t.Errorf("%s: buckets(%d) = %d, want %d", tc.name, tc.n, got, tc.want)
		}
		if got := Fanout(tc.n, tc.p, tc.p.B); tc.s == 0 && got != tc.want {
			t.Errorf("%s: Fanout(%d) = %d, want %d", tc.name, tc.n, got, tc.want)
		}
		arr.Close()
	}
}

func TestPaperS(t *testing.T) {
	for _, tc := range []struct {
		p    pdm.Params
		want int
	}{
		{pdm.Params{D: 4, B: 8, M: 2048}, 4},     // (M/B)^{1/4} = 256^{1/4}
		{pdm.Params{D: 8, B: 64, M: 1 << 15}, 4}, // 512^{1/4} ≈ 4.76
		{pdm.Params{D: 4, B: 8, M: 256}, 2},      // 32^{1/4} ≈ 2.38
		{pdm.Params{D: 1, B: 1, M: 1 << 16}, 16}, // 65536^{1/4}
		{pdm.Params{D: 1, B: 4, M: 32}, 2},       // 8^{1/4} ≈ 1.68, floored at 2
	} {
		if got := PaperS(tc.p); got != tc.want {
			t.Errorf("PaperS(%+v) = %d, want %d", tc.p, got, tc.want)
		}
	}
}

func TestNewDiskSorterRejectsTightMemory(t *testing.T) {
	arr := pdm.New(pdm.Params{D: 8, B: 8, M: 128}) // DB = M/2
	defer arr.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("DB > M/4 accepted")
		}
	}()
	NewDiskSorter(arr, DiskConfig{})
}

func TestDuplicateHeavyStableByLoc(t *testing.T) {
	// FewDistinct keys: ties must come out ordered by original location,
	// which is exactly what effective-key sorting guarantees.
	in := record.Generate(record.FewDistinct, 6000, 15)
	out, _ := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	want := append([]record.Record(nil), in...)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("duplicate ordering differs at %d", i)
		}
	}
}

func TestSortRadixInternal(t *testing.T) {
	in := record.Generate(record.Zipf, 12000, 31)
	out, ds := sortOnDisks(t, smallParams(), DiskConfig{Internal: SortRadix}, in)
	checkSorted(t, in, out)
	// Radix charges different PRAM work than comparison sorting.
	_, dc := sortOnDisks(t, smallParams(), DiskConfig{}, in)
	if ds.Metrics().PRAMTime == dc.Metrics().PRAMTime {
		t.Fatal("radix and comparison internal sorts charged identical time")
	}
	if ds.Metrics().IOs != dc.Metrics().IOs {
		t.Fatal("internal sort choice changed the I/O count")
	}
}

func TestSortRandomConfigurations(t *testing.T) {
	// Deterministic sweep over the configuration space: every legal
	// (D, B, M, V, S) combination drawn here must sort every workload
	// shape it is paired with.
	rng := record.NewRNG(2026)
	for trial := 0; trial < 25; trial++ {
		d := 1 << rng.Intn(4) // 1..8
		b := 4 << rng.Intn(3) // 4..16
		m := 4 * d * b * (2 + rng.Intn(6))
		v := d >> rng.Intn(2) // d or d/2 (divides d)
		if v < 1 {
			v = 1
		}
		s := 0
		if rng.Intn(2) == 0 {
			s = 2 + rng.Intn(4)
		}
		p := pdm.Params{D: d, B: b, M: m}
		cfg := DiskConfig{V: v, S: s, P: 1 + rng.Intn(4)}
		if CheckBuckets(p, b*d/v, s) != nil {
			continue // a pass would overflow internal memory; not a legal config
		}
		w := record.AllWorkloads[rng.Intn(len(record.AllWorkloads))]
		n := 500 + rng.Intn(8000)
		in := record.Generate(w, n, uint64(trial))
		out, ds := sortOnDisks(t, p, cfg, in)
		checkSorted(t, in, out)
		if ds.Metrics().MemPeak > m {
			t.Fatalf("trial %d (D=%d B=%d M=%d V=%d S=%d): memory peak %d > M",
				trial, d, b, m, v, s, ds.Metrics().MemPeak)
		}
	}
}

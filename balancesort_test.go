package balancesort

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"balancesort/internal/core"
	"balancesort/internal/record"
)

func TestSortDefaults(t *testing.T) {
	in := NewWorkload(Uniform, 20000, 1)
	res, err := Sort(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, res.Records) {
		t.Fatal("output not a sorted permutation")
	}
	if res.IOs == 0 || res.IOLowerBound <= 0 || res.PRAMTime <= 0 {
		t.Fatalf("metrics incomplete: %+v", res)
	}
	ratio := float64(res.IOs) / res.IOLowerBound
	if ratio < 1 || ratio > 15 {
		t.Fatalf("I/O ratio %.2f outside the constant-factor band", ratio)
	}
}

func TestSortAllWorkloads(t *testing.T) {
	for _, w := range []Workload{Uniform, FewDistinct, NearlySorted, Reversed, BucketSkew, Zipf} {
		in := NewWorkload(w, 8000, 2)
		res, err := Sort(in, Config{Disks: 4, BlockSize: 16, Memory: 2048})
		if err != nil {
			t.Fatalf("%v: %v", w, err)
		}
		if !Verify(in, res.Records) {
			t.Fatalf("%v: bad output", w)
		}
	}
}

func TestSortInputUntouched(t *testing.T) {
	in := NewWorkload(Uniform, 5000, 3)
	before := append([]Record(nil), in...)
	if _, err := Sort(in, Config{}); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != before[i] {
			t.Fatal("Sort modified its input")
		}
	}
}

func TestSortMatchesReference(t *testing.T) {
	in := NewWorkload(Zipf, 10000, 4)
	res, err := Sort(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ReferenceSort(in)
	for i := range want {
		if res.Records[i] != want[i] {
			t.Fatalf("mismatch with reference sort at %d", i)
		}
	}
}

func TestSortConfigValidation(t *testing.T) {
	in := NewWorkload(Uniform, 100, 5)
	if _, err := Sort(in, Config{Disks: 8, BlockSize: 64, Memory: 512}); err == nil {
		t.Fatal("DB > M/2 accepted")
	}
	if _, err := Sort(in, Config{Disks: 8, VirtualDisks: 3}); err == nil {
		t.Fatal("non-divisor VirtualDisks accepted")
	}
}

func TestSortStrategies(t *testing.T) {
	in := NewWorkload(BucketSkew, 12000, 6)
	for _, pl := range []PlacementStrategy{PlacementBalanced, PlacementRandom, PlacementRoundRobin} {
		res, err := Sort(in, Config{Placement: pl, Seed: 7})
		if err != nil {
			t.Fatalf("placement %d: %v", pl, err)
		}
		if !Verify(in, res.Records) {
			t.Fatalf("placement %d: bad output", pl)
		}
	}
	for _, m := range []MatchStrategy{MatchDerandomized, MatchRandomized, MatchGreedy} {
		res, err := Sort(in, Config{Match: m, Seed: 7})
		if err != nil {
			t.Fatalf("match %d: %v", m, err)
		}
		if !Verify(in, res.Records) {
			t.Fatalf("match %d: bad output", m)
		}
	}
}

func TestSortHierarchyModels(t *testing.T) {
	in := NewWorkload(Uniform, 6000, 8)
	for _, m := range []HierarchyModel{HMMLog, HMMPower, BTLog, BTPower, UMH} {
		for _, ic := range []Interconnect{EREWPRAM, Hypercube} {
			res, err := SortHierarchy(in, HierConfig{Model: m, Interconnect: ic, Alpha: 0.5})
			if err != nil {
				t.Fatalf("model %d ic %d: %v", m, ic, err)
			}
			if !Verify(in, res.Records) {
				t.Fatalf("model %d ic %d: bad output", m, ic)
			}
			if res.Time <= 0 || res.Bound <= 0 {
				t.Fatalf("model %d ic %d: missing costs %+v", m, ic, res)
			}
		}
	}
}

func TestSortHierarchyBoundRatioStable(t *testing.T) {
	// The measured-time/bound ratio should stay within one order of
	// magnitude as N quadruples — the shape claim of Theorem 2.
	var ratios []float64
	for _, n := range []int{8000, 32000} {
		in := NewWorkload(Uniform, n, 9)
		res, err := SortHierarchy(in, HierConfig{Model: HMMLog})
		if err != nil {
			t.Fatal(err)
		}
		ratios = append(ratios, res.Time/res.Bound)
	}
	if ratios[1] > ratios[0]*8 || ratios[0] > ratios[1]*8 {
		t.Fatalf("bound ratio unstable: %v", ratios)
	}
}

func TestVerifyRejectsBadOutputs(t *testing.T) {
	in := []Record{{Key: 2, Loc: 0}, {Key: 1, Loc: 1}}
	if Verify(in, in) {
		t.Fatal("unsorted output accepted")
	}
	if Verify(in, []Record{{Key: 1, Loc: 1}, {Key: 3, Loc: 0}}) {
		t.Fatal("non-permutation accepted")
	}
	if !Verify(in, []Record{{Key: 1, Loc: 1}, {Key: 2, Loc: 0}}) {
		t.Fatal("good output rejected")
	}
}

func TestReferenceSort(t *testing.T) {
	in := NewWorkload(Reversed, 1000, 10)
	out := ReferenceSort(in)
	if !record.IsSorted(out) {
		t.Fatal("reference sort failed")
	}
	if record.IsSorted(in) {
		t.Fatal("reference sort mutated its input")
	}
}

func TestSortEmpty(t *testing.T) {
	res, err := Sort(nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatal("empty sort produced records")
	}
}

func TestSortWithAllAlgorithms(t *testing.T) {
	in := NewWorkload(Zipf, 6000, 11)
	for _, a := range []Algorithm{AlgoBalanceSort, AlgoStripedMerge, AlgoForecastMerge, AlgoColumnSort, AlgoGreedSort} {
		res, err := SortWith(a, in, Config{Disks: 4, BlockSize: 16, Memory: 4096})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !Verify(in, res.Records) {
			t.Fatalf("%v: bad output", a)
		}
		if res.IOs == 0 {
			t.Fatalf("%v: no I/Os counted", a)
		}
	}
}

func TestSortWithColumnSortTooLarge(t *testing.T) {
	in := NewWorkload(Uniform, 1<<18, 12)
	if _, err := SortWith(AlgoColumnSort, in, Config{Disks: 4, BlockSize: 16, Memory: 4096}); err == nil {
		t.Fatal("columnsort beyond its shape bound did not error")
	}
}

func TestSortBaseCaseParityFacade(t *testing.T) {
	// The radix base case is the default; -nocradix keeps the comparison
	// path. Both must produce the same bytes and the same model I/Os.
	in := NewWorkload(FewDistinct, 9000, 13)
	radix, err := Sort(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	comp, err := Sort(in, Config{NoRadix: true})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, radix.Records) {
		t.Fatal("radix-base-case sort failed")
	}
	for i := range radix.Records {
		if radix.Records[i] != comp.Records[i] {
			t.Fatalf("radix and comparison base cases disagree at %d", i)
		}
	}
	if radix.IOs != comp.IOs {
		t.Fatalf("base case changed model I/Os: radix %d, comparison %d", radix.IOs, comp.IOs)
	}
}

func TestSortHierarchyBitonicInterconnect(t *testing.T) {
	in := NewWorkload(Uniform, 8000, 14)
	res, err := SortHierarchy(in, HierConfig{Hierarchies: 8, Model: HMMLog, Interconnect: HypercubeBitonic})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, res.Records) {
		t.Fatal("bitonic-interconnect sort failed")
	}
	if res.NetTime <= 0 {
		t.Fatal("no network time charged")
	}
	// Must reject a non-power-of-two H.
	if _, err := SortHierarchy(in, HierConfig{Hierarchies: 6, Interconnect: HypercubeBitonic}); err == nil {
		t.Fatal("non-power-of-two H accepted for the bitonic interconnect")
	}
}

func TestBitonicChargesExceedPRAM(t *testing.T) {
	in := NewWorkload(Uniform, 8000, 15)
	rp, err := SortHierarchy(in, HierConfig{Hierarchies: 16, Model: HMMLog, Interconnect: EREWPRAM})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := SortHierarchy(in, HierConfig{Hierarchies: 16, Model: HMMLog, Interconnect: HypercubeBitonic})
	if err != nil {
		t.Fatal(err)
	}
	if rb.NetTime <= rp.NetTime {
		t.Fatalf("bitonic net time %.0f not above PRAM %.0f (log² vs log)", rb.NetTime, rp.NetTime)
	}
}

func TestSortCRCWCheaperInternalTime(t *testing.T) {
	in := NewWorkload(Uniform, 20000, 16)
	re, err := Sort(in, Config{Processors: 16})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := Sort(in, Config{Processors: 16, CRCW: true})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, rc.Records) {
		t.Fatal("CRCW sort failed")
	}
	if rc.PRAMTime >= re.PRAMTime {
		t.Fatalf("CRCW time %.0f not below EREW %.0f", rc.PRAMTime, re.PRAMTime)
	}
	if rc.IOs != re.IOs {
		t.Fatal("PRAM variant changed the I/O count")
	}
}

func TestAllAlgorithmsAgreeExactly(t *testing.T) {
	// Five algorithms, one answer: every disk algorithm must produce the
	// byte-identical sorted sequence (total order is strict, so there is
	// exactly one correct output).
	in := NewWorkload(Zipf, 5000, 21)
	want := ReferenceSort(in)
	for _, a := range []Algorithm{AlgoBalanceSort, AlgoStripedMerge, AlgoForecastMerge, AlgoColumnSort, AlgoGreedSort} {
		res, err := SortWith(a, in, Config{Disks: 4, BlockSize: 16, Memory: 4096})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		for i := range want {
			if res.Records[i] != want[i] {
				t.Fatalf("%v differs from reference at %d", a, i)
			}
		}
	}
}

func TestHierarchySortersAgreeExactly(t *testing.T) {
	in := NewWorkload(BucketSkew, 4000, 22)
	want := ReferenceSort(in)
	for _, m := range []HierarchyModel{HMMLog, BTPower, UMH} {
		res, err := SortHierarchy(in, HierConfig{Hierarchies: 8, Model: m, Alpha: 0.5})
		if err != nil {
			t.Fatalf("model %d: %v", m, err)
		}
		for i := range want {
			if res.Records[i] != want[i] {
				t.Fatalf("model %d differs from reference at %d", m, i)
			}
		}
	}
}

func TestHierarchyHPrimeOverride(t *testing.T) {
	in := NewWorkload(Uniform, 6000, 23)
	res, err := SortHierarchy(in, HierConfig{Hierarchies: 16, HPrime: 8, Model: HMMLog})
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, res.Records) {
		t.Fatal("H' override broke the sort")
	}
	if _, err := SortHierarchy(in, HierConfig{Hierarchies: 16, HPrime: 3}); err == nil {
		t.Fatal("non-divisor H' accepted")
	}
}

// smallMemoryGeometries are (D, B, M) points at which a Balance Sort pass
// used to stall until the recursion guard panicked: single-sample runs
// gave their maximum, a thinned sample crowded toward the last runs, and
// the first pivot could be the subproblem's minimum.
var smallMemoryGeometries = [][3]int{
	{4, 2, 32}, {4, 2, 64}, {4, 2, 128}, {4, 4, 128},
	{8, 4, 128}, {2, 4, 32}, {8, 2, 64}, {2, 2, 16},
}

// TestSortSmallMemory sorts every workload at the small-memory geometries
// and checks the output and that the recursion stays shallow.
func TestSortSmallMemory(t *testing.T) {
	workloads := []Workload{Uniform, FewDistinct, NearlySorted, Reversed, BucketSkew, Zipf}
	for _, g := range smallMemoryGeometries {
		cfg := Config{Disks: g[0], BlockSize: g[1], Memory: g[2]}
		for _, w := range workloads {
			for seed := uint64(1); seed <= 2; seed++ {
				in := NewWorkload(w, 6000, seed)
				res, err := Sort(in, cfg)
				if err != nil {
					t.Fatalf("D=%d B=%d M=%d %v seed %d: %v", g[0], g[1], g[2], w, seed, err)
				}
				if !Verify(in, res.Records) {
					t.Fatalf("D=%d B=%d M=%d %v seed %d: output is not the sorted input", g[0], g[1], g[2], w, seed)
				}
				if res.Depth > 32 {
					t.Fatalf("D=%d B=%d M=%d %v seed %d: recursion depth %d, want <= 32", g[0], g[1], g[2], w, seed, res.Depth)
				}
			}
		}
	}
}

// TestSortStallIsAnError checks a sort whose distribution stops making
// progress returns an error instead of panicking — a *core.StallError from
// Sort and SortFile, and an error from ResumeSortFile. At D=1 B=1 M=8 (a 2-record sample)
// few-distinct input still exhausts the recursion guard; reversed input,
// which used to, now sorts.
func TestSortStallIsAnError(t *testing.T) {
	cfg := Config{Disks: 1, BlockSize: 1, Memory: 8}
	rev := NewWorkload(Reversed, 6000, 1)
	res, err := Sort(rev, cfg)
	if err != nil || !Verify(rev, res.Records) {
		t.Fatalf("reversed input at D=1 B=1 M=8: err %v", err)
	}

	var stall *core.StallError
	if _, err := Sort(NewWorkload(FewDistinct, 6000, 1), cfg); !errors.As(err, &stall) {
		t.Fatalf("Sort: got %v, want a *core.StallError", err)
	}
	dir := t.TempDir()
	in, out, scratch := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin"), filepath.Join(dir, "scratch")
	if err := WriteRecordFile(in, NewWorkload(FewDistinct, 3000, 1)); err != nil {
		t.Fatal(err)
	}
	cfg.Robust.Journal = true
	if _, err := SortFile(in, out, scratch, cfg); !errors.As(err, &stall) {
		t.Fatalf("SortFile: got %v, want a *core.StallError", err)
	}
	// The last commit holds work past the recursion guard, which the
	// resume's journal check refuses before sorting.
	if _, err := ResumeSortFile(in, out, scratch, cfg); err == nil {
		t.Fatal("ResumeSortFile of a stalled sort returned no error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("a stalled sort left an output file")
	}
}

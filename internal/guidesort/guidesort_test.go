package guidesort

import (
	"context"
	"errors"
	"slices"
	"testing"

	"balancesort/internal/core"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// pTest is a small geometry whose merges reach arity M/(2DB) = 16, so the
// larger inputs below take several runs and at least one merge.
func pTest() pdm.Params { return pdm.Params{D: 4, B: 8, M: 1024} }

// run sorts in on a fresh in-memory array and returns the output.
func run(t *testing.T, p pdm.Params, cfg Config, in []record.Record) ([]record.Record, Metrics) {
	t.Helper()
	arr := pdm.New(p)
	t.Cleanup(func() { arr.Close() })
	off := loadInput(arr, in)
	s := NewSorter(arr, cfg)
	reg := s.Sort(off, len(in))
	out := make([]record.Record, reg.N)
	readRegion(arr, reg.Off, out)
	return out, s.Metrics()
}

func loadInput(arr *pdm.Array, in []record.Record) int {
	p := arr.Params()
	blocks := (len(in) + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	if perDisk == 0 {
		perDisk = 1
	}
	off := arr.AllocStripe(perDisk)
	arr.WriteStripe(off, 0, in)
	return off
}

// readRegion reads n records from a region laid out in guidesort's
// blk%D striping (identical to WriteStripe's layout).
func readRegion(arr *pdm.Array, off int, out []record.Record) {
	arr.ReadStripe(off, 0, out)
}

func check(t *testing.T, in, out []record.Record) {
	t.Helper()
	if len(out) != len(in) {
		t.Fatalf("got %d records, want %d", len(out), len(in))
	}
	if !record.IsSorted(out) {
		t.Fatal("output not sorted")
	}
	if !record.SameMultiset(in, out) {
		t.Fatal("output not a permutation of input")
	}
}

// TestSortsAllWorkloads sorts every workload, then duplicate-heavy inputs
// whose merges hand one run the lead for a streak of equal keys: at
// pTest's geometry (32-record rows, 512-record runs and flushes) the
// streaks cross refills of one or two rows, drain their runs, and cross
// region-writer flushes, and in the two-level inputs a streak spans a
// whole merged run.
// Their output must be the oracle's and their I/O counts those of the
// record-at-a-time merge.
func TestSortsAllWorkloads(t *testing.T) {
	for _, w := range record.AllWorkloads {
		for _, n := range []int{0, 1, 7, 64, 500, 4000} {
			in := record.Generate(w, n, 11)
			out, met := run(t, pTest(), Config{}, in)
			check(t, in, out)
			if met.MemPeak > pTest().M {
				t.Fatalf("%v n=%d: mem peak %d exceeds M=%d", w, n, met.MemPeak, pTest().M)
			}
		}
	}

	oneKey := record.Generate(record.Uniform, 9000, 5)
	for i := range oneKey {
		oneKey[i].Key = 42
	}
	shuffled := record.Generate(record.FewDistinct, 4000, 7)
	g := record.NewRNG(3)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		shuffled[i].Loc, shuffled[j].Loc = shuffled[j].Loc, shuffled[i].Loc
	}
	for _, tc := range []struct {
		name               string
		in                 []record.Record
		ios, reads, writes int64
	}{
		{"fewdistinct", record.Generate(record.FewDistinct, 4000, 11), 500, 250, 250},
		{"fewdistinct-shuffled-locs", shuffled, 500, 250, 250},
		{"zipf-two-levels", record.Generate(record.Zipf, 9000, 11), 1640, 820, 820},
		{"one-key-two-levels", oneKey, 1640, 820, 820},
	} {
		out, met := run(t, pTest(), Config{}, tc.in)
		want := slices.Clone(tc.in)
		slices.SortFunc(want, record.Record.Compare)
		if !slices.Equal(out, want) {
			t.Fatalf("%s: output differs from the oracle", tc.name)
		}
		if met.IOs != tc.ios || met.ReadIOs != tc.reads || met.WriteIOs != tc.writes {
			t.Errorf("%s: IOs %d (read %d, write %d), want %d (%d, %d)", tc.name, met.IOs, met.ReadIOs, met.WriteIOs, tc.ios, tc.reads, tc.writes)
		}
	}
}

// TestMergeRefillsReadSeveralRows sorts 16 memoryloads at D=8 B=64
// M=64Ki on a file-backed array, so one merge takes all 16 runs and gives
// each ⌊M/(2·DB·16)⌋ = 4 stripe rows per refill. A refill is one device
// read per disk, so the merge issues a quarter of the device reads of a
// row-at-a-time refill, fewer than the blocks it reads, while the model
// I/Os stay 4N/(DB), the output is the oracle's and MemPeak stays ≤ M.
// Refilled a row at a time, the sort issued 8320 device reads.
func TestMergeRefillsReadSeveralRows(t *testing.T) {
	p := pdm.Params{D: 8, B: 64, M: 64 << 10}
	arr, err := pdm.NewFileBacked(p, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer arr.Close()
	const runs = 16
	n := runs * p.M / 2
	in := record.Generate(record.Uniform, n, 23)
	off := loadInput(arr, in)
	before := arr.IOMetrics().Aggregate().Reads
	s := NewSorter(arr, Config{})
	reg := s.Sort(off, n)
	met := s.Metrics()
	reads := arr.IOMetrics().Aggregate().Reads - before
	out := make([]record.Record, reg.N)
	readRegion(arr, reg.Off, out)
	check(t, in, out)

	rows := int64(n / (p.D * p.B))
	if met.Passes != 1 || met.IOs != 4*rows {
		t.Errorf("%d merges, %d I/Os, want 1 merge and %d I/Os", met.Passes, met.IOs, 4*rows)
	}
	if met.MemPeak > p.M {
		t.Errorf("mem peak %d exceeds M = %d", met.MemPeak, p.M)
	}
	// Formation reads each memoryload in one device read per disk; the
	// merge reads its 4·DB-record shares, one device read per disk each.
	share := int64(p.M / (2 * p.D * p.B * runs))
	if want := int64(runs*p.D) + rows/share*int64(p.D); reads != want || reads >= met.BlocksRead {
		t.Errorf("%d device reads for %d blocks read, want %d", reads, met.BlocksRead, want)
	}
}

// TestMemPeakAtSmallestMemory runs the sort at the smallest legal
// memory, M = 4DB. There a merge holds arity M/(2DB) = 2 run rows beside
// an output buffer of the memoryload M/2 = 2 rows, so it fills M exactly
// and never more.
func TestMemPeakAtSmallestMemory(t *testing.T) {
	p := pdm.Params{D: 4, B: 8, M: 4 * 4 * 8}
	for _, w := range record.AllWorkloads {
		in := record.Generate(w, 1000, 13)
		out, met := run(t, p, Config{}, in)
		check(t, in, out)
		if met.Passes == 0 || met.MemPeak != p.M {
			t.Fatalf("%v: %d merges peaked at %d records, want M = %d", w, met.Passes, met.MemPeak, p.M)
		}
	}
}

func TestRadixAndComparisonBaseCasesAgree(t *testing.T) {
	in := record.Generate(record.Zipf, 2500, 17)
	radix, mr := run(t, pTest(), Config{}, in)
	comp, mc := run(t, pTest(), Config{NoRadix: true}, in)
	check(t, in, radix)
	for i := range radix {
		if radix[i] != comp[i] {
			t.Fatalf("radix and comparison outputs differ at %d", i)
		}
	}
	if mr.IOs != mc.IOs {
		t.Fatalf("base case changed I/O count: radix %d, comparison %d", mr.IOs, mc.IOs)
	}
}

func TestCancellationAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := record.Generate(record.Uniform, 2000, 29)
	arr := pdm.New(pTest())
	defer arr.Close()
	off := loadInput(arr, in)
	s := NewSorter(arr, Config{Context: ctx})
	defer func() {
		r := recover()
		ab, ok := r.(core.Abort)
		if !ok {
			t.Fatalf("want core.Abort panic, got %v", r)
		}
		if !errors.Is(ab.Err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", ab.Err)
		}
	}()
	s.Sort(off, len(in))
	t.Fatal("sort completed despite cancelled context")
}

// TestCrashAtEveryCommitResumes kills the sort immediately before every
// commit in turn, then resumes from the last checkpointed state on the
// same array and demands output identical to an uninterrupted run.
func TestCrashAtEveryCommitResumes(t *testing.T) {
	in := record.Generate(record.Zipf, 4000, 31)
	want, _ := run(t, pTest(), Config{}, in)

	// Count the commits of a clean run first.
	commits := 0
	func() {
		arr := pdm.New(pTest())
		defer arr.Close()
		off := loadInput(arr, in)
		s := NewSorter(arr, Config{Checkpoint: func(State) error { commits++; return nil }})
		s.Sort(off, len(in))
	}()
	if commits < 3 {
		t.Fatalf("expected a multi-commit sort, got %d commits", commits)
	}

	for k := 1; k <= commits; k++ {
		arr := pdm.New(pTest())
		off := loadInput(arr, in)
		var last State
		have := false
		func() {
			defer func() {
				r := recover()
				ab, ok := r.(core.Abort)
				if !ok || !errors.Is(ab.Err, core.ErrInjectedCrash) {
					t.Fatalf("k=%d: want injected crash, got %v", k, r)
				}
			}()
			s := NewSorter(arr, Config{
				Checkpoint:        func(st State) error { last = st; have = true; return nil },
				CrashAfterCommits: k,
			})
			s.Sort(off, len(in))
			t.Fatalf("k=%d: sort survived the injected crash", k)
		}()
		if arr.Mem.Used() != 0 {
			t.Fatalf("k=%d: crash left %d records charged against memory", k, arr.Mem.Used())
		}

		st := State{InputOff: off, InputN: len(in), Metrics: Metrics{N: len(in)}}
		if have {
			last.InputOff = off
			st = last
		}
		s := NewSorter(arr, Config{})
		reg := s.Resume(st)
		out := make([]record.Record, reg.N)
		readRegion(arr, reg.Off, out)
		if len(out) != len(want) {
			t.Fatalf("k=%d: resumed output has %d records, want %d", k, len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("k=%d: resumed output differs at %d", k, i)
			}
		}
		met := s.Metrics()
		if met.IOs <= 0 || met.BlocksWrit <= 0 {
			t.Fatalf("k=%d: cumulative metrics not carried: %+v", k, met)
		}
		arr.Close()
	}
}

func TestMetricsPopulated(t *testing.T) {
	in := record.Generate(record.Uniform, 4000, 37)
	_, met := run(t, pTest(), Config{}, in)
	if met.N != 4000 || met.IOs == 0 || met.ReadIOs == 0 || met.WriteIOs == 0 ||
		met.Passes == 0 || met.Depth == 0 || met.MergeArity < 2 ||
		met.PRAMTime == 0 || met.PRAMWork == 0 || met.MemPeak == 0 {
		t.Fatalf("metrics incomplete: %+v", met)
	}
}

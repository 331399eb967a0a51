package baseline

import (
	"testing"

	"balancesort/internal/guidesort"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// loadArray stripes in onto a fresh array at p and returns the array and
// the input's block offset.
func loadArray(t *testing.T, p pdm.Params, in []record.Record) (*pdm.Array, int) {
	t.Helper()
	arr := pdm.New(p)
	t.Cleanup(func() { arr.Close() })
	blocks := (len(in) + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	off := arr.AllocStripe(perDisk)
	arr.WriteStripe(off, 0, in)
	return arr, off
}

func runBaseline(t *testing.T, f func(*pdm.Array, int, int, int) (pdm.Params, Region, Metrics),
	p pdm.Params, in []record.Record) ([]record.Record, Metrics) {
	t.Helper()
	arr, off := loadArray(t, p, in)
	_, reg, met := f(arr, off, len(in), 1)
	out := make([]record.Record, reg.N)
	arr.ReadStripe(reg.Off, 0, out)
	return out, met
}

// runStriped sorts in with the stripedmerge engine, the striped merge the
// forecast merge's full arity is measured against.
func runStriped(t *testing.T, p pdm.Params, in []record.Record) ([]record.Record, guidesort.Metrics) {
	t.Helper()
	arr, off := loadArray(t, p, in)
	s := guidesort.NewSorter(arr, guidesort.Config{P: 1})
	reg := s.Sort(off, len(in))
	out := make([]record.Record, reg.N)
	arr.ReadStripe(reg.Off, 0, out)
	return out, s.Metrics()
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

func pSmall() pdm.Params { return pdm.Params{D: 4, B: 8, M: 512} }

// TestStripedMergeSortsAllWorkloads checks the striped merge the baselines
// are compared against at the geometry their own tests use.
func TestStripedMergeSortsAllWorkloads(t *testing.T) {
	for _, w := range record.AllWorkloads {
		in := record.Generate(w, 5000, 1)
		out, _ := runStriped(t, pSmall(), in)
		check(t, in, out)
	}
}

func TestForecastMergeSortsAllWorkloads(t *testing.T) {
	for _, w := range record.AllWorkloads {
		in := record.Generate(w, 5000, 2)
		out, _ := runBaseline(t, ForecastMergeSort, pSmall(), in)
		check(t, in, out)
	}
}

func TestTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64} {
		in := record.Generate(record.Uniform, n, 3)
		out, _ := runBaseline(t, ForecastMergeSort, pSmall(), in)
		check(t, in, out)
	}
}

func TestForecastArityExceedsStriped(t *testing.T) {
	in := record.Generate(record.Uniform, 4000, 4)
	_, ms := runStriped(t, pSmall(), in)
	_, mf := runBaseline(t, ForecastMergeSort, pSmall(), in)
	// Striped: M/(2DB) = 512/64 = 8. Forecast: M/(4B) = 16.
	if ms.MergeArity != 8 || mf.MergeArity != 16 {
		t.Fatalf("arities = %d/%d, want 8/16", ms.MergeArity, mf.MergeArity)
	}
}

func TestStripedPaysMorePassesWhenDBLarge(t *testing.T) {
	// DB at its largest, M/4, collapses striped arity to 2 while the
	// forecast merge keeps M/(4B); with enough runs the striped merge
	// levels and I/O count must be strictly larger.
	p := pdm.Params{D: 16, B: 8, M: 512} // DB = 128 = M/4; striped arity = 2, forecast = 16
	in := record.Generate(record.Uniform, 1<<15, 5)
	outS, ms := runStriped(t, p, in)
	check(t, in, outS)
	outF, mf := runBaseline(t, ForecastMergeSort, p, in)
	check(t, in, outF)
	if ms.Depth <= mf.Passes {
		t.Fatalf("striped merge levels %d, forecast passes %d — striping should pay the log(M/B)/log(M/DB) factor",
			ms.Depth, mf.Passes)
	}
	if ms.IOs <= mf.IOs {
		t.Fatalf("striped I/Os %d <= forecast I/Os %d", ms.IOs, mf.IOs)
	}
}

func TestForecastIOsNearOneBlockPerRecordPass(t *testing.T) {
	// Each merge pass should move ~N records with ~N/(DB) I/Os each way;
	// allow a generous factor for partial rounds and mandatory fetches.
	p := pSmall()
	in := record.Generate(record.Uniform, 1<<14, 6)
	out, m := runBaseline(t, ForecastMergeSort, p, in)
	check(t, in, out)
	perPass := float64(len(in)) / float64(p.D*p.B) * 2 // read + write
	budget := perPass * float64(m.Passes+1) * 3
	if float64(m.IOs) > budget {
		t.Fatalf("forecast merge used %d I/Os, budget %.0f (%d passes)", m.IOs, budget, m.Passes)
	}
}

func TestMergeDeterministic(t *testing.T) {
	in := record.Generate(record.Uniform, 9000, 7)
	_, m1 := runBaseline(t, ForecastMergeSort, pSmall(), in)
	_, m2 := runBaseline(t, ForecastMergeSort, pSmall(), in)
	if m1.IOs != m2.IOs || m1.Passes != m2.Passes {
		t.Fatal("forecast merge not deterministic")
	}
}

func TestMetricsPopulated(t *testing.T) {
	in := record.Generate(record.Uniform, 5000, 8)
	_, m := runBaseline(t, ForecastMergeSort, pSmall(), in)
	if m.N != 5000 || m.IOs == 0 || m.ReadIOs == 0 || m.WriteIOs == 0 || m.PRAMTime <= 0 {
		t.Fatalf("metrics incomplete: %+v", m)
	}
}

func TestDuplicateKeysStable(t *testing.T) {
	in := record.Generate(record.FewDistinct, 6000, 9)
	out, _ := runBaseline(t, ForecastMergeSort, pSmall(), in)
	check(t, in, out)
	for i := 1; i < len(out); i++ {
		if out[i].Key == out[i-1].Key && out[i].Loc < out[i-1].Loc {
			t.Fatal("equal keys out of location order")
		}
	}
}

package baseline

import (
	"testing"

	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

func runColumnSort(t *testing.T, p pdm.Params, in []record.Record) ([]record.Record, Metrics) {
	t.Helper()
	arr := pdm.New(p)
	t.Cleanup(func() { arr.Close() })
	off := allocStripeFor(arr, maxInt(len(in), 1))
	arr.WriteStripe(off, 0, in)
	reg, met, err := ColumnSortDisk(arr, off, len(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]record.Record, reg.N)
	if reg.N > 0 {
		arr.ReadStripe(reg.Off, 0, out)
	}
	return out, met
}

func TestColumnSortDiskSingleColumn(t *testing.T) {
	in := record.Generate(record.Uniform, 100, 1)
	out, _ := runColumnSort(t, pSmall(), in)
	check(t, in, out)
}

func TestColumnSortDiskMultiColumn(t *testing.T) {
	for _, w := range record.AllWorkloads {
		in := record.Generate(w, 2000, 2)
		out, _ := runColumnSort(t, pSmall(), in)
		check(t, in, out)
	}
}

func TestColumnSortDiskUnevenTail(t *testing.T) {
	// n not a multiple of the column length: sentinel padding must vanish.
	for _, n := range []int{257, 999, 2001} {
		in := record.Generate(record.Zipf, n, 3)
		out, _ := runColumnSort(t, pSmall(), in)
		check(t, in, out)
	}
}

func TestColumnSortDiskEmpty(t *testing.T) {
	out, _ := runColumnSort(t, pSmall(), nil)
	if len(out) != 0 {
		t.Fatal("empty sort produced records")
	}
}

func TestColumnSortDiskObliviousIOs(t *testing.T) {
	// The I/O count must be identical for different data of the same size
	// — Columnsort's schedule is oblivious.
	a := record.Generate(record.Uniform, 2000, 4)
	b := record.Generate(record.Reversed, 2000, 5)
	_, ma := runColumnSort(t, pSmall(), a)
	_, mb := runColumnSort(t, pSmall(), b)
	if ma.IOs != mb.IOs {
		t.Fatalf("I/Os depend on data: %d vs %d", ma.IOs, mb.IOs)
	}
}

func TestColumnSortDiskTooLarge(t *testing.T) {
	// s grows past the r >= 2(s-1)^2 constraint: must error, not panic.
	p := pdm.Params{D: 2, B: 4, M: 64} // r = 32, s_max ~ 5
	arr := pdm.New(p)
	defer arr.Close()
	n := 32 * 8 // s = 8 -> 2*49 = 98 > 32
	in := record.Generate(record.Uniform, n, 6)
	off := allocStripeFor(arr, n)
	arr.WriteStripe(off, 0, in)
	if _, _, err := ColumnSortDisk(arr, off, n, 1); err == nil {
		t.Fatal("oversized columnsort did not error")
	}
}

func TestColumnSortDiskIOBudget(t *testing.T) {
	// 4 column passes + 2 permutation passes + load: each ~2n/DB I/Os;
	// allow a factor for rounding and the boundary windows.
	p := pSmall()
	in := record.Generate(record.Uniform, 2000, 7)
	out, m := runColumnSort(t, p, in)
	check(t, in, out)
	perPass := 2.0 * float64(len(in)) / float64(p.D*p.B)
	if float64(m.IOs) > 14*perPass {
		t.Fatalf("columnsort used %d I/Os, budget %.0f", m.IOs, 14*perPass)
	}
}

package baseline

import (
	"testing"

	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

func runGreedSort(t *testing.T, p pdm.Params, in []record.Record) ([]record.Record, GreedSortMetrics) {
	t.Helper()
	arr := pdm.New(p)
	t.Cleanup(func() { arr.Close() })
	off := allocStripeFor(arr, maxInt(len(in), 1))
	arr.WriteStripe(off, 0, in)
	reg, met, err := GreedSort(arr, off, len(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]record.Record, reg.N)
	if reg.N > 0 {
		arr.ReadStripe(reg.Off, 0, out)
	}
	return out, met
}

func TestGreedSortAllWorkloads(t *testing.T) {
	for _, w := range record.AllWorkloads {
		in := record.Generate(w, 6000, 1)
		out, _ := runGreedSort(t, pSmall(), in)
		check(t, in, out)
	}
}

func TestGreedSortTiny(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		in := record.Generate(record.Uniform, n, 2)
		out, _ := runGreedSort(t, pSmall(), in)
		check(t, in, out)
	}
}

func TestGreedSortDisplacementBounded(t *testing.T) {
	// The greedy pass's disorder must stay within a small constant number
	// of memoryloads (this implementation's pool-pressure emission allows
	// a few W/2 units where [NoV]'s discipline proves one), and the
	// cleanup must repair it within a handful of passes per merge level —
	// far below its odd-even worst-case budget.
	p := pSmall()
	in := record.Generate(record.Uniform, 1<<14, 3)
	out, met := runGreedSort(t, p, in)
	check(t, in, out)
	memload := (p.M / 2 / p.B) * p.B
	if met.MaxDisplacement >= 4*memload {
		t.Fatalf("displacement %d >= 4 memoryloads (%d)", met.MaxDisplacement, 4*memload)
	}
	// 64 initial runs at arity 16 -> 4 first-level merge groups + 1 final:
	// five cleanup invocations, each expected to finish in a few rounds.
	groups := 5
	if met.Passes == 0 || met.CleanupPasses > 6*groups {
		t.Fatalf("cleanup needed %d passes over %d merge groups", met.CleanupPasses, groups)
	}
}

func TestGreedSortDeterministic(t *testing.T) {
	in := record.Generate(record.BucketSkew, 9000, 4)
	_, m1 := runGreedSort(t, pSmall(), in)
	_, m2 := runGreedSort(t, pSmall(), in)
	if m1.IOs != m2.IOs || m1.MaxDisplacement != m2.MaxDisplacement {
		t.Fatal("greed sort not deterministic")
	}
}

func TestGreedSortArity(t *testing.T) {
	in := record.Generate(record.Uniform, 1<<14, 5)
	_, met := runGreedSort(t, pSmall(), in)
	// M/(4B) = 512/32 = 16 — full merge arity despite 2-blocks-per-disk
	// pooling, the point of the greedy discipline.
	if met.MergeArity != 16 {
		t.Fatalf("arity = %d, want 16", met.MergeArity)
	}
}

func TestGreedSortIOBudget(t *testing.T) {
	p := pSmall()
	in := record.Generate(record.Uniform, 1<<14, 6)
	out, met := runGreedSort(t, p, in)
	check(t, in, out)
	perPass := 2.0 * float64(len(in)) / float64(p.D*p.B)
	// run formation + per level: greedy pass + cleanup round + verify.
	budget := perPass * float64(1+4*met.Passes) * 2
	if float64(met.IOs) > budget {
		t.Fatalf("greed sort used %d I/Os, budget %.0f (%d levels)", met.IOs, budget, met.Passes)
	}
}

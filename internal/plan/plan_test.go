package plan

import "testing"

// benchGeometries are the committed BENCH_sort.json points.
var benchGeometries = []Geometry{
	{N: 1 << 16, D: 8, B: 64, M: 1 << 15},
	{N: 1 << 18, D: 8, B: 64, M: 1 << 15},
}

func mustChoose(t *testing.T, g Geometry) *Plan {
	t.Helper()
	pl, err := Choose(g)
	if err != nil {
		t.Fatalf("Choose(%+v): %v", g, err)
	}
	return pl
}

func find(pl *Plan, engine string) Prediction {
	for _, c := range pl.Candidates {
		if c.Engine == engine {
			return c
		}
	}
	return Prediction{}
}

func TestChoosePrefersInMemWhenItFits(t *testing.T) {
	pl := mustChoose(t, Geometry{N: 100, D: 4, B: 8, M: 1024})
	if pl.Engine != EngineInMem {
		t.Fatalf("tiny input chose %s, want inmem", pl.Engine)
	}
}

func TestChooseNeverWorseThanBalanceSortOnBenchGeometries(t *testing.T) {
	for _, g := range benchGeometries {
		pl := mustChoose(t, g)
		chosen := pl.Predicted()
		bal := find(pl, EngineBalanceSort)
		if !bal.Feasible {
			t.Fatalf("%+v: balancesort infeasible", g)
		}
		if chosen.Seconds > bal.Seconds {
			t.Fatalf("%+v: chose %s at %.3fs, worse than balancesort's %.3fs",
				g, pl.Engine, chosen.Seconds, bal.Seconds)
		}
		if pl.Engine == EngineBalanceSort {
			t.Fatalf("%+v: planner still picks balancesort — the point of the planner is to beat it here", g)
		}
	}
}

func TestPredictedIOsTrackCommittedBench(t *testing.T) {
	// The committed BENCH_sort.json: balancesort 782/3131 model I/Os and
	// stripedmerge 512/2048 at these geometries. The model must land within
	// 15% of those measurements — that is the calibration contract.
	want := map[string][2]float64{
		EngineBalanceSort:  {782, 3131},
		EngineStripedMerge: {512, 2048},
	}
	for i, g := range benchGeometries {
		pl := mustChoose(t, g)
		for eng, ios := range want {
			got := find(pl, eng).IOs
			w := ios[i]
			if got < w*0.85 || got > w*1.15 {
				t.Errorf("%+v %s: predicted %.0f IOs, measured %.0f (off by >15%%)", g, eng, got, w)
			}
		}
	}
}

// TestChoosesStripedMergeAtWorkloadGeometries pins auto's pick where
// stripedmerge makes fewer I/Os than balancesort.
func TestChoosesStripedMergeAtWorkloadGeometries(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    Geometry
	}{
		{"sort-auto", Geometry{N: 1 << 20, D: 8, B: 64, M: 1 << 14}},
		{"cluster-2w shard", Geometry{N: 1 << 19, D: 8, B: 64, M: 1 << 16}},
		// Balancesort measures 1138 I/Os here and stripedmerge 1024; a
		// model counting the average bucket, ⌈span/S⌉, misses balancesort's
		// second level and picks it.
		{"wide stripe", Geometry{N: 1 << 18, D: 16, B: 128, M: 1 << 14}},
	} {
		if pl := mustChoose(t, tc.g); pl.Engine != EngineStripedMerge {
			t.Errorf("%s %+v: chose %s, want %s", tc.name, tc.g, pl.Engine, EngineStripedMerge)
		}
	}
}

// TestPredictFollowsVirtualDisks checks that partial striping reaches the
// balancesort model: at V = 1 the virtual blocks hold DB records, so
// S·VB ≤ M/4 caps the fan-out at 8 and 64Ki records need a second
// distribution level that V = D does not.
func TestPredictFollowsVirtualDisks(t *testing.T) {
	g := Geometry{N: 1 << 16, D: 8, B: 64, M: 1 << 14}
	for _, tc := range []struct{ v, passes int }{{0, 3}, {8, 3}, {1, 5}} {
		g.V = tc.v
		for _, c := range mustChoose(t, g).Candidates {
			if c.Engine == EngineBalanceSort && c.Passes != tc.passes {
				t.Errorf("V=%d: balancesort passes = %d, want %d", tc.v, c.Passes, tc.passes)
			}
		}
	}
	g.V = 3
	if _, err := Choose(g); err == nil {
		t.Error("accepted V = 3, which does not divide D = 8")
	}
}

// TestSecondsPriceBytesAtNominalBandwidth pins what Seconds means: every
// candidate's predicted volume, IOs full stripes of 16-byte records, at
// 200 MiB/s on each of the D disks.
func TestSecondsPriceBytesAtNominalBandwidth(t *testing.T) {
	g := benchGeometries[0]
	for _, c := range mustChoose(t, g).Candidates {
		if want := c.IOs * float64(g.D*g.B) * 16; c.Bytes != want {
			t.Errorf("%s: Bytes = %.0f, want %.0f", c.Engine, c.Bytes, want)
		}
		if want := c.Bytes / (float64(g.D) * (200 << 20)); c.Seconds != want {
			t.Errorf("%s: Seconds = %g, want %g", c.Engine, c.Seconds, want)
		}
	}
}

func TestChooseRejectsBadGeometry(t *testing.T) {
	if _, err := Choose(Geometry{N: 100, D: 0, B: 8, M: 64}); err == nil {
		t.Fatal("want error for D=0")
	}
	if _, err := Choose(Geometry{N: -1, D: 4, B: 8, M: 1024}); err == nil {
		t.Fatal("want error for negative N")
	}
}

func TestInfeasibleGeometryErrors(t *testing.T) {
	// M < 4DB: no external engine fits, and N > M/2 rules out inmem.
	if _, err := Choose(Geometry{N: 1 << 20, D: 8, B: 64, M: 1024}); err == nil {
		t.Fatal("want no-engine-feasible error")
	}
}

// FuzzPlan asserts the planner's two safety properties on arbitrary
// geometries: the chosen engine never violates the memory geometry, and
// auto is never predicted worse than always-balancesort when balancesort
// is feasible.
func FuzzPlan(f *testing.F) {
	f.Add(1<<16, 8, 64, 1<<15)
	f.Add(1<<18, 8, 64, 1<<15)
	f.Add(6000, 4, 8, 1024)
	f.Add(100, 2, 2, 16)
	f.Add(0, 1, 1, 4)
	f.Add(1<<20, 16, 128, 1<<20)
	f.Fuzz(func(t *testing.T, n, d, b, m int) {
		if n < 0 || n > 1<<30 || d < 1 || d > 256 || b < 1 || b > 1<<16 || m < 1 || m > 1<<26 {
			t.Skip()
		}
		g := Geometry{N: n, D: d, B: b, M: m}
		pl, err := Choose(g)
		if err != nil {
			return // invalid or infeasible geometry is allowed to error
		}
		chosen := pl.Predicted()
		if !chosen.Feasible {
			t.Fatalf("chose infeasible engine %s at %+v", pl.Engine, g)
		}
		// Memory-geometry safety per engine.
		switch pl.Engine {
		case EngineInMem:
			if n > m/2 {
				t.Fatalf("inmem chosen with N=%d > M/2=%d", n, m/2)
			}
		case EngineStripedMerge, EngineBalanceSort:
			if 4*d*b > m {
				t.Fatalf("%s chosen with 4DB=%d > M=%d", pl.Engine, 4*d*b, m)
			}
		default:
			t.Fatalf("unknown engine %q", pl.Engine)
		}
		// Auto is never predicted worse than always-balancesort.
		if bal := find(pl, EngineBalanceSort); bal.Feasible && chosen.Seconds > bal.Seconds {
			t.Fatalf("auto chose %s (%.4fs) over balancesort (%.4fs) at %+v",
				pl.Engine, chosen.Seconds, bal.Seconds, g)
		}
		if pl.LowerBoundIOs < 0 {
			t.Fatalf("negative lower bound at %+v", g)
		}
	})
}

package experiments

import (
	"balancesort/internal/balance"
	"balancesort/internal/bt"
	"balancesort/internal/core"
	"balancesort/internal/hier"
	"balancesort/internal/hmm"
	"balancesort/internal/matching"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
	"balancesort/internal/stats"
)

// hierRun sorts a uniform workload on a hierarchy machine and returns the
// measured metrics.
func hierRun(h int, model hier.Model, tcost matching.TCost, n int, seed uint64) core.HierMetrics {
	m := hier.New(h, model, tcost)
	hs := core.NewHierSorter(m, core.HierConfig{})
	seg := hs.WriteInput(record.Generate(record.Uniform, n, seed))
	out := hs.Sort(seg)
	got := hs.ReadSegment(out)
	if !record.IsSorted(got) || len(got) != n {
		panic("experiments: hierarchy sort failed")
	}
	return hs.Metrics()
}

// E6 — Theorem 2, f(x) = log x: measured P-HMM time over the Θ-bound stays
// flat across N for both interconnects.
func E6(s Scale) *stats.Table {
	t := stats.NewTable("E6 — Theorem 2 (P-HMM, f=log x): time vs Θ-bound",
		"N", "H", "interconnect", "time", "bound", "ratio")
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	if s == Full {
		ns = append(ns, 1<<18)
	}
	for _, h := range []int{4, 16} {
		for _, n := range ns {
			for _, ic := range []struct {
				name string
				t    matching.TCost
			}{{"PRAM", matching.PRAMCost}, {"hypercube", matching.HypercubeCost}} {
				m := hierRun(h, hmm.Model{Cost: hmm.LogCost{}}, ic.t, n, 7)
				bound := stats.Theorem2Bound(n, h, -1, ic.t)
				t.AddRow(n, h, ic.name, m.Time, bound, m.Time/bound)
			}
		}
	}
	return t
}

// E6Ratios returns the PRAM E6 ratios for one H across the N sweep.
func E6Ratios() []float64 {
	var out []float64
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		m := hierRun(8, hmm.Model{Cost: hmm.LogCost{}}, matching.PRAMCost, n, 7)
		out = append(out, m.Time/stats.Theorem2Bound(n, 8, -1, matching.PRAMCost))
	}
	return out
}

// E7 — Theorem 2, f(x) = x^α: the measured time tracks
// (N/H)^{α+1} + (N/H)·(log N/log H)·T(H).
func E7(s Scale) *stats.Table {
	t := stats.NewTable("E7 — Theorem 2 (P-HMM, f=x^α): time vs Θ-bound",
		"α", "N", "time", "bound", "ratio")
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	if s == Full {
		ns = append(ns, 1<<18)
	}
	const h = 8
	for _, alpha := range []float64{0.5, 1, 2} {
		for _, n := range ns {
			m := hierRun(h, hmm.Model{Cost: hmm.PowerCost{Alpha: alpha}}, matching.PRAMCost, n, 8)
			bound := stats.Theorem2Bound(n, h, alpha, matching.PRAMCost)
			t.AddRow(alpha, n, m.Time, bound, m.Time/bound)
		}
	}
	return t
}

// E7Ratios returns the α=1 ratios across the N sweep.
func E7Ratios() []float64 {
	var out []float64
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		m := hierRun(8, hmm.Model{Cost: hmm.PowerCost{Alpha: 1}}, matching.PRAMCost, n, 8)
		out = append(out, m.Time/stats.Theorem2Bound(n, 8, 1, matching.PRAMCost))
	}
	return out
}

// E8 — Theorem 3: the four P-BT regimes (f=log x; α<1; α=1; α>1), measured
// against the per-regime Θ-expression.
func E8(s Scale) *stats.Table {
	t := stats.NewTable("E8 — Theorem 3 (P-BT): the four cost regimes",
		"f(x)", "N", "time", "bound", "ratio")
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	if s == Full {
		ns = append(ns, 1<<18)
	}
	const h = 8
	type regime struct {
		name  string
		cost  hmm.CostFunc
		alpha float64
	}
	regimes := []regime{
		{"log x", hmm.LogCost{}, -1},
		{"x^0.5", hmm.PowerCost{Alpha: 0.5}, 0.5},
		{"x^1", hmm.PowerCost{Alpha: 1}, 1},
		{"x^2", hmm.PowerCost{Alpha: 2}, 2},
	}
	for _, r := range regimes {
		for _, n := range ns {
			m := hierRun(h, bt.Model{Cost: r.cost}, matching.PRAMCost, n, 9)
			bound := stats.Theorem3Bound(n, h, r.alpha, matching.PRAMCost)
			t.AddRow(r.name, n, m.Time, bound, m.Time/bound)
		}
	}
	return t
}

// E8Ratios returns the α=1 BT ratios across the N sweep.
func E8Ratios() []float64 {
	var out []float64
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		m := hierRun(8, bt.Model{Cost: hmm.PowerCost{Alpha: 1}}, matching.PRAMCost, n, 9)
		out = append(out, m.Time/stats.Theorem3Bound(n, 8, 1, matching.PRAMCost))
	}
	return out
}

// E9 — Lemma 4: P-BT with f=x^α, α<1, sorts in Θ((N/H) log N); the
// measured time per (N/H) log N stays flat.
func E9(s Scale) *stats.Table {
	t := stats.NewTable("E9 — Lemma 4 (P-BT, α<1): time vs (N/H)·log N",
		"α", "N", "time", "(N/H)logN", "ratio")
	ns := []int{1 << 12, 1 << 14, 1 << 16}
	if s == Full {
		ns = append(ns, 1<<18, 1<<20)
	}
	const h = 8
	for _, alpha := range []float64{0.25, 0.5, 0.75} {
		for _, n := range ns {
			m := hierRun(h, bt.Model{Cost: hmm.PowerCost{Alpha: alpha}}, matching.PRAMCost, n, 10)
			ref := float64(n) / float64(h) * stats.Lg(float64(n))
			t.AddRow(alpha, n, m.Time, ref, m.Time/ref)
		}
	}
	return t
}

// E12 — Section 6's conjecture/ablation: greedy (min-cost-style maximal)
// matching inside Balance Sort versus the paper's Fast-Partial-Match, and
// the Arge auxiliary rule versus the median rule.
func E12(s Scale) *stats.Table {
	t := stats.NewTable("E12 — matching-strategy ablation inside Balance Sort",
		"matching", "IOs", "rearrange moves", "match time", "read balance")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	p := pdm.Params{D: 8, B: 32, M: 1 << 13}
	for _, mm := range []struct {
		name string
		m    balance.MatchStrategy
	}{
		{"derandomized (paper)", balance.MatchDerandomized},
		{"randomized Alg. 7", balance.MatchRandomized},
		{"greedy maximal", balance.MatchGreedy},
	} {
		met := diskRun(p, core.DiskConfig{Match: mm.m, Seed: 11}, record.BucketSkew, n, 11)
		t.AddRow(mm.name, met.IOs, met.Balance.RearrangeMoves, met.Balance.MatchTime, met.MaxBucketReadRatio)
	}
	return t
}

// E13 — Section 6's practicality note: the randomized matching gives the
// same I/O count as the derandomized one with cheaper matching.
func E13(s Scale) *stats.Table {
	t := stats.NewTable("E13 — randomized vs derandomized matching (same I/Os)",
		"workload", "IOs derand", "IOs rand", "match time derand", "match time rand")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	p := pdm.Params{D: 8, B: 32, M: 1 << 13}
	for _, w := range []record.Workload{record.Uniform, record.BucketSkew, record.FewDistinct} {
		md := diskRun(p, core.DiskConfig{Match: balance.MatchDerandomized}, w, n, 12)
		mr := diskRun(p, core.DiskConfig{Match: balance.MatchRandomized, Seed: 12}, w, n, 12)
		t.AddRow(w.String(), md.IOs, mr.IOs, md.Balance.MatchTime, mr.Balance.MatchTime)
	}
	return t
}

// E14 — Figure 1 vs Figure 2: in the AgV model any D blocks move per I/O,
// so even a maximally skewed placement reads back in ⌈blocks/D⌉ I/Os; the
// PDM's one-block-per-disk rule makes the same skewed placement cost up to
// D times more — the reason the balancing machinery must exist.
func E14(s Scale) *stats.Table {
	t := stats.NewTable("E14 — Figure 1 vs 2: reading a bucket under AgV vs PDM rules",
		"placement skew", "blocks", "D", "PDM read I/Os", "AgV read I/Os", "PDM/AgV")
	const d, b = 8, 16
	blocks := 64
	if s == Full {
		blocks = 512
	}
	for _, skew := range []struct {
		name string
		disk func(i int) int
	}{
		{"balanced (round robin)", func(i int) int { return i % d }},
		{"2x skew (half on one disk)", func(i int) int {
			if i%2 == 0 {
				return 0
			}
			return 1 + i%(d-1)
		}},
		{"all on one disk", func(i int) int { return 0 }},
	} {
		pdmIOs := readBackIOs(pdm.ModePDM, blocks, d, b, skew.disk)
		agvIOs := readBackIOs(pdm.ModeAgV, blocks, d, b, skew.disk)
		t.AddRow(skew.name, blocks, d, pdmIOs, agvIOs, float64(pdmIOs)/float64(agvIOs))
	}
	return t
}

// readBackIOs writes `blocks` blocks with the given per-block disk choice
// and counts the parallel I/Os to read them all back under the model rule.
func readBackIOs(mode pdm.Mode, blocks, d, b int, disk func(i int) int) int64 {
	arr := pdm.NewMode(pdm.Params{D: d, B: b, M: 4 * d * b}, mode)
	defer arr.Close()
	offs := make([][2]int, blocks)
	for i := 0; i < blocks; i++ {
		dd := disk(i)
		off := arr.Alloc(dd, 1)
		blk := record.Generate(record.Uniform, b, uint64(i))
		arr.ParallelIO([]pdm.Op{{Disk: dd, Off: off, Write: true, Data: blk}})
		offs[i] = [2]int{dd, off}
	}
	arr.ResetStats()
	// Read back with maximal packing for the mode: PDM takes one block per
	// distinct disk per I/O; AgV takes any D blocks per I/O.
	remaining := append([][2]int(nil), offs...)
	for len(remaining) > 0 {
		var ops []pdm.Op
		if mode == pdm.ModeAgV {
			take := d
			if take > len(remaining) {
				take = len(remaining)
			}
			for _, bo := range remaining[:take] {
				ops = append(ops, pdm.Op{Disk: bo[0], Off: bo[1], Data: make([]record.Record, b)})
			}
			remaining = remaining[take:]
		} else {
			used := make(map[int]bool, d)
			var rest [][2]int
			for _, bo := range remaining {
				if !used[bo[0]] && len(ops) < d {
					used[bo[0]] = true
					ops = append(ops, pdm.Op{Disk: bo[0], Off: bo[1], Data: make([]record.Record, b)})
				} else {
					rest = append(rest, bo)
				}
			}
			remaining = rest
		}
		arr.ParallelIO(ops)
	}
	return arr.Stats().IOs
}

// E15 — the Arge auxiliary-matrix remark of Section 4.1: both rules keep
// buckets balanced; the table compares their effort and outcomes.
func E15(s Scale) *stats.Table {
	t := stats.NewTable("E15 — auxiliary-matrix rule ablation (median vs twice-average)",
		"rule", "workload", "IOs", "read balance", "carried blocks", "rearrange moves")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	p := pdm.Params{D: 8, B: 32, M: 1 << 13}
	for _, rr := range []struct {
		name string
		r    balance.AuxRule
	}{
		{"median (paper)", balance.AuxMedian},
		{"2x average [Arg]", balance.AuxTwiceAverage},
	} {
		for _, w := range []record.Workload{record.Uniform, record.BucketSkew} {
			m := diskRun(p, core.DiskConfig{Rule: rr.r}, w, n, 13)
			t.AddRow(rr.name, w.String(), m.IOs, m.MaxBucketReadRatio, m.Balance.BlocksCarried, m.Balance.RearrangeMoves)
		}
	}
	return t
}

// All returns every experiment table in order.
func All(s Scale) []*stats.Table {
	return []*stats.Table{
		E1(s), E2(s), E3(s), E4(s), E5(s), E6(s), E7(s), E8(s),
		E9(s), E10(s), E11(s), E12(s), E13(s), E14(s), E15(s), E16(s), E17(s),
	}
}

// E16 — Section 6's closing claim: Balance Sort "can operate without need
// of non-striped write operations". We measure how full the write I/Os
// actually run: the fraction of all-write parallel I/Os using at least
// half (and all) of the disks, plus overall disk-slot utilization, for the
// three placement disciplines.
func E16(s Scale) *stats.Table {
	t := stats.NewTable("E16 — write fullness and disk utilization (Section 6)",
		"placement", "workload", "full-width writes", ">=half-width writes", "slot utilization")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	p := pdm.Params{D: 8, B: 32, M: 1 << 13}
	for _, pl := range []struct {
		name string
		p    core.Placement
	}{
		{"balanced (paper)", core.PlacementBalanced},
		{"randomized [ViSa]", core.PlacementRandom},
		{"round robin", core.PlacementRoundRobin},
	} {
		for _, w := range []record.Workload{record.Uniform, record.BucketSkew} {
			arr := pdm.New(p)
			ds := core.NewDiskSorter(arr, core.DiskConfig{S: core.PaperS(p), Placement: pl.p, Seed: 16})
			in := ds.WriteInput(record.Generate(w, n, 16))
			segs := ds.Sort(in.Off, in.N)
			verifySegments(ds, segs, n)
			st := arr.Stats()
			t.AddRow(pl.name, w.String(),
				st.WriteFullness(p.D, 1.0), st.WriteFullness(p.D, 0.5), st.Utilization(p.D))
			arr.Close()
		}
	}
	return t
}

// E17 — Figure 4's point: adding hierarchies speeds the sort. Fixed N,
// growing H on P-HMM(log): the measured time should fall roughly like the
// Θ-bound's (N/H)·log N (interconnect terms temper perfect speedup).
func E17(s Scale) *stats.Table {
	t := stats.NewTable("E17 — Figure 4: hierarchy scaling (fixed N, growing H)",
		"H", "time", "speedup vs H=2", "bound speedup")
	n := 1 << 15
	if s == Full {
		n = 1 << 17
	}
	base := 0.0
	baseBound := 0.0
	for _, h := range []int{2, 4, 8, 16, 32} {
		m := hierRun(h, hmm.Model{Cost: hmm.LogCost{}}, matching.PRAMCost, n, 17)
		bound := stats.Theorem2Bound(n, h, -1, matching.PRAMCost)
		if h == 2 {
			base, baseBound = m.Time, bound
		}
		t.AddRow(h, m.Time, base/m.Time, baseBound/bound)
	}
	return t
}

// E17Speedups returns the measured speedups for the H sweep.
func E17Speedups() []float64 {
	n := 1 << 15
	var out []float64
	base := 0.0
	for _, h := range []int{2, 8, 32} {
		m := hierRun(h, hmm.Model{Cost: hmm.LogCost{}}, matching.PRAMCost, n, 17)
		if h == 2 {
			base = m.Time
		}
		out = append(out, base/m.Time)
	}
	return out
}

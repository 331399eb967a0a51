// Package experiments regenerates every table of EXPERIMENTS.md: one
// function per experiment ID of DESIGN.md (E1-E17), each returning a
// rendered table of measured model costs against the paper's closed-form
// claims. cmd/experiments drives them from the command line; bench_test.go
// exposes each as a benchmark; the package tests assert the headline
// property of each table (flat ratio, bounded balance factor, and so on).
package experiments

import (
	"fmt"

	"balancesort/internal/balance"
	"balancesort/internal/baseline"
	"balancesort/internal/core"
	"balancesort/internal/guidesort"
	"balancesort/internal/matching"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
	"balancesort/internal/stats"
)

// Scale selects how much work an experiment does.
type Scale int

const (
	// Quick keeps every experiment under a second or two — used by tests.
	Quick Scale = iota
	// Full is what cmd/experiments runs to regenerate EXPERIMENTS.md.
	Full
)

// diskRun sorts a workload on a fresh array and returns the sorter metrics.
// An unset S runs the paper's S = ⌊(M/B)^{1/4}⌋, the constant the tables
// reproduce, rather than the sorter's size-aware fan-out.
func diskRun(p pdm.Params, cfg core.DiskConfig, w record.Workload, n int, seed uint64) core.Metrics {
	if cfg.S == 0 {
		cfg.S = core.PaperS(p)
	}
	arr := pdm.New(p)
	defer arr.Close()
	ds := core.NewDiskSorter(arr, cfg)
	in := ds.WriteInput(record.Generate(w, n, seed))
	segs := ds.Sort(in.Off, in.N)
	verifySegments(ds, segs, n)
	return ds.Metrics()
}

func verifySegments(ds *core.DiskSorter, segs []core.Region, n int) {
	total := 0
	var last record.Record
	first := true
	for _, seg := range segs {
		recs := ds.ReadRegion(seg)
		total += len(recs)
		if !record.IsSorted(recs) {
			panic("experiments: unsorted segment")
		}
		if len(recs) > 0 {
			if !first && recs[0].Less(last) {
				panic("experiments: segments out of order")
			}
			last = recs[len(recs)-1]
			first = false
		}
	}
	if total != n {
		panic(fmt.Sprintf("experiments: %d of %d records came back", total, n))
	}
}

// E1 — Theorem 1 (I/O bound): the ratio of measured parallel I/Os to
// (N/DB)·log(N/B)/log(M/B) stays a flat constant across N and D.
func E1(s Scale) *stats.Table {
	t := stats.NewTable("E1 — Theorem 1: I/Os vs lower bound (flat ratio ⇒ optimal)",
		"N", "D", "B", "M", "IOs", "lower bound", "ratio")
	ns := []int{1 << 14, 1 << 16, 1 << 18}
	if s == Full {
		ns = append(ns, 1<<20)
	}
	for _, d := range []int{4, 16} {
		for _, n := range ns {
			p := pdm.Params{D: d, B: 32, M: 1 << 13}
			m := diskRun(p, core.DiskConfig{}, record.Uniform, n, 1)
			lb := core.LowerBoundIOs(n, p)
			t.AddRow(n, d, p.B, p.M, m.IOs, lb, float64(m.IOs)/lb)
		}
	}
	return t
}

// E1Ratios returns just the E1 ratios for assertion in tests.
func E1Ratios(s Scale) []float64 {
	var out []float64
	ns := []int{1 << 14, 1 << 16, 1 << 18}
	for _, n := range ns {
		p := pdm.Params{D: 4, B: 32, M: 1 << 13}
		m := diskRun(p, core.DiskConfig{}, record.Uniform, n, 1)
		out = append(out, float64(m.IOs)/core.LowerBoundIOs(n, p))
	}
	return out
}

// E2 — Theorem 1 (CPU bound): internal PRAM time divided by (N/P)·log N
// stays a flat constant as P grows.
func E2(s Scale) *stats.Table {
	t := stats.NewTable("E2 — Theorem 1: internal processing vs (N/P)·log N",
		"N", "P", "PRAM time", "(N/P)logN", "ratio")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	ps := []int{1, 2, 4, 8, 16, 32}
	for _, p := range ps {
		m := diskRun(pdm.Params{D: 4, B: 32, M: 1 << 13},
			core.DiskConfig{P: p}, record.Uniform, n, 2)
		ref := float64(n) / float64(p) * stats.Lg(float64(n))
		t.AddRow(n, p, m.PRAMTime, ref, m.PRAMTime/ref)
	}
	return t
}

// E2Ratios returns PRAM-time/((N/P) log N) for the P sweep.
func E2Ratios() []float64 {
	var out []float64
	n := 1 << 16
	for _, p := range []int{1, 4, 16} {
		m := diskRun(pdm.Params{D: 4, B: 32, M: 1 << 13},
			core.DiskConfig{P: p}, record.Uniform, n, 2)
		out = append(out, m.PRAMTime/(float64(n)/float64(p)*stats.Lg(float64(n))))
	}
	return out
}

// E3 — Theorem 4: the worst bucket needs at most about twice the optimal
// number of parallel reads, on every workload including adversarial skew.
func E3(s Scale) *stats.Table {
	t := stats.NewTable("E3 — Theorem 4: bucket read balance (bound ≈ 2)",
		"workload", "N", "max read ratio", "max bucket frac")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	for _, w := range record.AllWorkloads {
		m := diskRun(pdm.Params{D: 8, B: 32, M: 1 << 13},
			core.DiskConfig{}, w, n, 3)
		t.AddRow(w.String(), n, m.MaxBucketReadRatio, m.MaxBucketFrac)
	}
	return t
}

// E3MaxRatio returns the worst Theorem-4 ratio across workloads.
func E3MaxRatio() float64 {
	worst := 0.0
	for _, w := range record.AllWorkloads {
		m := diskRun(pdm.Params{D: 8, B: 32, M: 1 << 13},
			core.DiskConfig{}, w, 1<<15, 3)
		if m.MaxBucketReadRatio > worst {
			worst = m.MaxBucketReadRatio
		}
	}
	return worst
}

// E4 — Invariants 1 and 2: balance-state statistics per workload. The
// invariants themselves are asserted by the balance package's tests after
// every track; this table reports how hard the machinery had to work.
func E4(s Scale) *stats.Table {
	t := stats.NewTable("E4 — Invariants 1-2: balancing effort",
		"distribution", "tracks", "2s introduced", "rearrange moves", "carried", "extra write steps")
	nTracks := 400
	if s == Full {
		nTracks = 4000
	}
	type dist struct {
		name string
		pick func(rng *record.RNG, s int) int
	}
	dists := []dist{
		{"uniform", func(rng *record.RNG, s int) int { return rng.Intn(s) }},
		{"90% one bucket", func(rng *record.RNG, s int) int {
			if rng.Intn(10) != 0 {
				return 0
			}
			return rng.Intn(s)
		}},
		{"single bucket", func(rng *record.RNG, s int) int { return 0 }},
		{"two hot buckets", func(rng *record.RNG, s int) int { return rng.Intn(2) }},
	}
	const S, H = 8, 8
	for _, d := range dists {
		bl := balance.New(balance.Config{S: S, H: H})
		rng := record.NewRNG(4)
		var pending []int
		for i := 0; i < nTracks; i++ {
			track := pending
			pending = nil
			for len(track) < H {
				track = append(track, d.pick(rng, S))
			}
			_, carry := bl.PlaceTrack(track)
			for _, c := range carry {
				pending = append(pending, track[c])
			}
			if err := bl.CheckInvariant2(); err != nil {
				panic(err)
			}
		}
		st := bl.Stats()
		t.AddRow(d.name, st.Tracks, st.TwosIntroduced, st.RearrangeMoves, st.BlocksCarried, st.ExtraWriteSteps)
	}
	return t
}

// E5 — Theorem 5 / Lemma 1: all three matching algorithms reach the
// ⌈H'/4⌉ target; the deterministic one does so in O(T(H)) simulated time
// while greedy pays Θ(H') sequential time.
func E5(s Scale) *stats.Table {
	t := stats.NewTable("E5 — Theorem 5: partial matching quality and simulated time",
		"H'", "algorithm", "mean matched", "target ⌈H'/4⌉", "parallel time")
	hs := []int{8, 32, 128}
	if s == Full {
		hs = append(hs, 512)
	}
	trials := 20
	for _, h := range hs {
		for _, algo := range []string{"derandomized", "randomized", "greedy"} {
			rng := record.NewRNG(uint64(h))
			sum, timeSum := 0, 0.0
			target := 0
			for i := 0; i < trials; i++ {
				g := randomInvariantGraph(h, h/2, rng)
				target = g.Target()
				var res matching.Result
				switch algo {
				case "derandomized":
					res = matching.Derandomized(g, matching.PRAMCost)
				case "randomized":
					res = matching.Randomized(g, rng, matching.PRAMCost)
				case "greedy":
					res = matching.Greedy(g, matching.PRAMCost)
				}
				if !matching.Valid(g, res.Pairs) {
					panic("experiments: invalid matching")
				}
				sum += len(res.Pairs)
				timeSum += res.ParallelTime
			}
			t.AddRow(h, algo, float64(sum)/float64(trials), target, timeSum/float64(trials))
		}
	}
	return t
}

// randomInvariantGraph builds a matching instance satisfying Invariant 1.
func randomInvariantGraph(h, k int, rng *record.RNG) *matching.Graph {
	g := matching.NewGraph(h, k)
	need := (h + 1) / 2
	for i := 0; i < k; i++ {
		g.U[i] = i
		deg := need + rng.Intn(h-need+1)
		perm := make([]int, h)
		for j := range perm {
			perm[j] = j
		}
		for j := h - 1; j > 0; j-- {
			l := rng.Intn(j + 1)
			perm[j], perm[l] = perm[l], perm[j]
		}
		for _, v := range perm[:deg] {
			g.Adj[i][v] = true
		}
	}
	return g
}

// E10 — Figure 2a vs 2b: multiprocessor internal speedup at identical I/O
// counts (P = D processors vs a uniprocessor).
func E10(s Scale) *stats.Table {
	t := stats.NewTable("E10 — Figure 2: uniprocessor vs P=D multiprocessor",
		"D=P", "IOs (P=1)", "IOs (P=D)", "PRAM time (P=1)", "PRAM time (P=D)", "speedup")
	n := 1 << 16
	if s == Full {
		n = 1 << 18
	}
	for _, d := range []int{2, 4, 8, 16} {
		p := pdm.Params{D: d, B: 32, M: 1 << 13}
		m1 := diskRun(p, core.DiskConfig{P: 1}, record.Uniform, n, 5)
		md := diskRun(p, core.DiskConfig{P: d}, record.Uniform, n, 5)
		if m1.IOs != md.IOs {
			panic("experiments: P changed the I/O count")
		}
		t.AddRow(d, m1.IOs, md.IOs, m1.PRAMTime, md.PRAMTime, m1.PRAMTime/md.PRAMTime)
	}
	return t
}

// E11 — Section 1's striping discussion: as DB approaches M the striped
// merge pays the Θ(log(M/B)/log(M/DB)) factor while Balance Sort does not.
func E11(s Scale) *stats.Table {
	t := stats.NewTable("E11 — striping gap: I/O ratio to lower bound as DB/M grows",
		"D", "DB/M", "balancesort", "greedsort", "striped merge", "forecast merge", "striping factor log(M/B)/log(M/DB)")
	n := 1 << 17
	if s == Full {
		n = 1 << 19
	}
	b := 64
	m := 1 << 14
	for _, d := range []int{2, 4, 8, 16, 32} {
		p := pdm.Params{D: d, B: b, M: m}
		bm := diskRun(p, core.DiskConfig{}, record.Uniform, n, 6)
		lb := core.LowerBoundIOs(n, p)

		arr := pdm.New(p)
		off := writeInput(arr, n, 6)
		sorter := guidesort.NewSorter(arr, guidesort.Config{P: 1})
		sorter.Sort(off, n)
		sm := sorter.Metrics()
		arr.Close()

		arr2 := pdm.New(p)
		off2 := writeInput(arr2, n, 6)
		_, _, fm := baseline.ForecastMergeSort(arr2, off2, n, 1)
		arr2.Close()

		arr3 := pdm.New(p)
		off3 := writeInput(arr3, n, 6)
		_, gm, err := baseline.GreedSort(arr3, off3, n, 1)
		if err != nil {
			panic(err)
		}
		arr3.Close()

		factor := stats.Lg(float64(m)/float64(b)) / stats.Lg(float64(m)/float64(d*b))
		t.AddRow(d, float64(d*b)/float64(m), float64(bm.IOs)/lb, float64(gm.IOs)/lb,
			float64(sm.IOs)/lb, float64(fm.IOs)/lb, factor)
	}
	return t
}

func writeInput(arr *pdm.Array, n int, seed uint64) int {
	p := arr.Params()
	recs := record.Generate(record.Uniform, n, seed)
	blocks := (n + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	off := arr.AllocStripe(perDisk)
	arr.WriteStripe(off, 0, recs)
	return off
}

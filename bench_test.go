// Benchmarks: one per experiment of DESIGN.md's index (E1-E17), each
// regenerating the headline measurement of one of the paper's claims and
// reporting it via b.ReportMetric, so `go test -bench=. -benchmem` prints
// the whole reproduction in one run. The full parameter sweeps behind
// EXPERIMENTS.md come from `go run ./cmd/experiments`.
package balancesort_test

import (
	"testing"

	"balancesort"
	"balancesort/internal/balance"
	"balancesort/internal/bt"
	"balancesort/internal/core"
	"balancesort/internal/experiments"
	"balancesort/internal/hier"
	"balancesort/internal/hmm"
	"balancesort/internal/matching"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
	"balancesort/internal/stats"
)

// benchDiskSort runs one Balance Sort on the standard bench geometry and
// reports I/Os and the Theorem-1 ratio. An unset S runs the paper's.
func benchDiskSort(b *testing.B, cfg core.DiskConfig, w record.Workload, n int) core.Metrics {
	b.Helper()
	p := pdm.Params{D: 8, B: 32, M: 1 << 13}
	if cfg.S == 0 {
		cfg.S = core.PaperS(p)
	}
	recs := record.Generate(w, n, 42)
	var met core.Metrics
	for i := 0; i < b.N; i++ {
		arr := pdm.New(p)
		ds := core.NewDiskSorter(arr, cfg)
		in := ds.WriteInput(recs)
		segs := ds.Sort(in.Off, in.N)
		if len(segs) == 0 && n > 0 {
			b.Fatal("no output")
		}
		met = ds.Metrics()
		arr.Close()
	}
	b.ReportMetric(float64(met.IOs), "ios")
	b.ReportMetric(float64(met.IOs)/core.LowerBoundIOs(n, p), "io-ratio")
	return met
}

// BenchmarkE1_TheoremOne_IO — Theorem 1: parallel I/Os against the lower
// bound (the io-ratio metric is the constant the theorem promises).
func BenchmarkE1_TheoremOne_IO(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16, 1 << 18} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchDiskSort(b, core.DiskConfig{}, record.Uniform, n)
		})
	}
}

// BenchmarkE2_TheoremOne_CPU — Theorem 1: internal PRAM time scaling with P.
func BenchmarkE2_TheoremOne_CPU(b *testing.B) {
	n := 1 << 16
	for _, p := range []int{1, 4, 16} {
		b.Run("P="+itoa(p), func(b *testing.B) {
			met := benchDiskSort(b, core.DiskConfig{P: p}, record.Uniform, n)
			ref := float64(n) / float64(p) * stats.Lg(float64(n))
			b.ReportMetric(met.PRAMTime, "pram-time")
			b.ReportMetric(met.PRAMTime/ref, "cpu-ratio")
		})
	}
}

// BenchmarkE3_BucketBalance — Theorem 4: worst bucket-read ratio (≈ 2).
func BenchmarkE3_BucketBalance(b *testing.B) {
	for _, w := range []record.Workload{record.Uniform, record.BucketSkew, record.FewDistinct} {
		b.Run(w.String(), func(b *testing.B) {
			met := benchDiskSort(b, core.DiskConfig{}, w, 1<<16)
			b.ReportMetric(met.MaxBucketReadRatio, "read-balance")
			b.ReportMetric(met.MaxBucketFrac, "bucket-frac")
		})
	}
}

// BenchmarkE4_InvariantStats — Invariants 1-2: balancing effort per track
// under a random bucket-label stream (the hostile case: unclustered labels
// defeat the rotation and force the matching machinery to work; clustered
// streams, like real sorted runs, rarely do).
func BenchmarkE4_InvariantStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bl := balance.New(balance.Config{S: 8, H: 8})
		rng := record.NewRNG(4)
		var pending []int
		for tr := 0; tr < 500; tr++ {
			track := pending
			pending = nil
			for len(track) < 8 {
				track = append(track, rng.Intn(8))
			}
			_, carry := bl.PlaceTrack(track)
			for _, c := range carry {
				pending = append(pending, track[c])
			}
		}
		if err := bl.CheckInvariant2(); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			st := bl.Stats()
			b.ReportMetric(float64(st.TwosIntroduced)/float64(st.Tracks), "twos/track")
			b.ReportMetric(float64(st.RearrangeMoves)/float64(st.Tracks), "moves/track")
		}
	}
}

// BenchmarkE5_Matching — Theorem 5 / Lemma 1: the three matching
// algorithms' quality (matched/target) and simulated parallel time.
func BenchmarkE5_Matching(b *testing.B) {
	const h = 64
	for _, algo := range []string{"derandomized", "randomized", "greedy"} {
		b.Run(algo, func(b *testing.B) {
			rng := record.NewRNG(9)
			matched, target, ptime := 0, 0, 0.0
			for i := 0; i < b.N; i++ {
				g := benchGraph(h, rng)
				var res matching.Result
				switch algo {
				case "derandomized":
					res = matching.Derandomized(g, matching.PRAMCost)
				case "randomized":
					res = matching.Randomized(g, rng, matching.PRAMCost)
				default:
					res = matching.Greedy(g, matching.PRAMCost)
				}
				matched += len(res.Pairs)
				target += g.Target()
				ptime += res.ParallelTime
			}
			b.ReportMetric(float64(matched)/float64(target), "matched/target")
			b.ReportMetric(ptime/float64(b.N), "parallel-time")
		})
	}
}

func benchGraph(h int, rng *record.RNG) *matching.Graph {
	g := matching.NewGraph(h, h/2)
	need := (h + 1) / 2
	for i := 0; i < h/2; i++ {
		g.U[i] = i
		count := 0
		for v := 0; v < h && count < need; v++ {
			if rng.Intn(2) == 0 || h-v <= need-count {
				g.Adj[i][v] = true
				count++
			}
		}
	}
	return g
}

// benchHier runs one hierarchy sort and reports time and the theorem ratio.
func benchHier(b *testing.B, model hier.Model, alpha float64, bound func(n, h int, alpha float64, t func(int) float64) float64, n, h int) {
	b.Helper()
	recs := record.Generate(record.Uniform, n, 7)
	var met core.HierMetrics
	for i := 0; i < b.N; i++ {
		m := hier.New(h, model, matching.PRAMCost)
		hs := core.NewHierSorter(m, core.HierConfig{})
		seg := hs.WriteInput(recs)
		hs.Sort(seg)
		met = hs.Metrics()
	}
	b.ReportMetric(met.Time, "model-time")
	b.ReportMetric(met.Time/bound(n, h, alpha, matching.PRAMCost), "bound-ratio")
}

// BenchmarkE6_PHMM_Log — Theorem 2, f = log x.
func BenchmarkE6_PHMM_Log(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 15} {
		b.Run(sizeName(n), func(b *testing.B) {
			benchHier(b, hmm.Model{Cost: hmm.LogCost{}}, -1, stats.Theorem2Bound, n, 8)
		})
	}
}

// BenchmarkE7_PHMM_Power — Theorem 2, f = x^α.
func BenchmarkE7_PHMM_Power(b *testing.B) {
	for _, alpha := range []float64{0.5, 1} {
		b.Run("alpha="+ftoa(alpha), func(b *testing.B) {
			benchHier(b, hmm.Model{Cost: hmm.PowerCost{Alpha: alpha}}, alpha, stats.Theorem2Bound, 1<<15, 8)
		})
	}
}

// BenchmarkE8_PBT_Regimes — Theorem 3: the four BT regimes.
func BenchmarkE8_PBT_Regimes(b *testing.B) {
	regimes := []struct {
		name  string
		cost  hmm.CostFunc
		alpha float64
	}{
		{"log", hmm.LogCost{}, -1},
		{"a0.5", hmm.PowerCost{Alpha: 0.5}, 0.5},
		{"a1", hmm.PowerCost{Alpha: 1}, 1},
		{"a2", hmm.PowerCost{Alpha: 2}, 2},
	}
	for _, r := range regimes {
		b.Run(r.name, func(b *testing.B) {
			benchHier(b, bt.Model{Cost: r.cost}, r.alpha, stats.Theorem3Bound, 1<<15, 8)
		})
	}
}

// BenchmarkE9_PBT_Lemma4 — Lemma 4: BT α<1 time per (N/H) log N.
func BenchmarkE9_PBT_Lemma4(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 15} {
		b.Run(sizeName(n), func(b *testing.B) {
			recs := record.Generate(record.Uniform, n, 7)
			var met core.HierMetrics
			for i := 0; i < b.N; i++ {
				m := hier.New(8, bt.Model{Cost: hmm.PowerCost{Alpha: 0.5}}, matching.PRAMCost)
				hs := core.NewHierSorter(m, core.HierConfig{})
				hs.Sort(hs.WriteInput(recs))
				met = hs.Metrics()
			}
			b.ReportMetric(met.Time/(float64(n)/8*stats.Lg(float64(n))), "lemma4-ratio")
		})
	}
}

// BenchmarkE10_Multiprocessor — Figure 2: P=D speedup at identical I/Os.
func BenchmarkE10_Multiprocessor(b *testing.B) {
	for _, p := range []int{1, 8} {
		b.Run("P="+itoa(p), func(b *testing.B) {
			met := benchDiskSort(b, core.DiskConfig{P: p}, record.Uniform, 1<<16)
			b.ReportMetric(met.PRAMTime, "pram-time")
		})
	}
}

// BenchmarkE11_StripingGap — Section 1: striped merge vs Balance Sort as
// DB approaches M.
func BenchmarkE11_StripingGap(b *testing.B) {
	n := 1 << 17
	recs := record.Generate(record.Uniform, n, 11)
	p := pdm.Params{D: 32, B: 64, M: 1 << 14} // DB = M/8
	for _, algo := range []balancesort.Algorithm{
		balancesort.AlgoBalanceSort, balancesort.AlgoGreedSort,
		balancesort.AlgoStripedMerge, balancesort.AlgoForecastMerge,
	} {
		b.Run(algo.String(), func(b *testing.B) {
			var ios int64
			for i := 0; i < b.N; i++ {
				res, err := balancesort.SortWith(algo, recs, balancesort.Config{
					Disks: p.D, BlockSize: p.B, Memory: p.M,
				})
				if err != nil {
					b.Fatal(err)
				}
				ios = res.IOs
			}
			b.ReportMetric(float64(ios), "ios")
			b.ReportMetric(float64(ios)/core.LowerBoundIOs(n, p), "io-ratio")
		})
	}
}

// BenchmarkE12_GreedyBalanceAblation — Section 6 conjecture: matching
// strategy ablation inside the full sort.
func BenchmarkE12_GreedyBalanceAblation(b *testing.B) {
	for _, m := range []struct {
		name string
		s    balance.MatchStrategy
	}{{"derandomized", balance.MatchDerandomized}, {"greedy", balance.MatchGreedy}} {
		b.Run(m.name, func(b *testing.B) {
			met := benchDiskSort(b, core.DiskConfig{Match: m.s}, record.BucketSkew, 1<<16)
			b.ReportMetric(met.Balance.MatchTime, "match-time")
			b.ReportMetric(float64(met.Balance.RearrangeMoves), "moves")
		})
	}
}

// BenchmarkE13_RandVsDerand — Section 6 practicality note.
func BenchmarkE13_RandVsDerand(b *testing.B) {
	for _, m := range []struct {
		name string
		s    balance.MatchStrategy
	}{{"derandomized", balance.MatchDerandomized}, {"randomized", balance.MatchRandomized}} {
		b.Run(m.name, func(b *testing.B) {
			met := benchDiskSort(b, core.DiskConfig{Match: m.s, Seed: 13}, record.Uniform, 1<<16)
			b.ReportMetric(met.Balance.MatchTime, "match-time")
		})
	}
}

// BenchmarkE14_AgVvsPDM — Figure 1 vs Figure 2: the E14 table's headline
// row (maximally skewed placement read back under both models' rules).
func BenchmarkE14_AgVvsPDM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E14(experiments.Quick)
		_ = t
	}
}

// BenchmarkE15_ArgAuxAblation — Section 4.1's alternative auxiliary rule.
func BenchmarkE15_ArgAuxAblation(b *testing.B) {
	for _, r := range []struct {
		name string
		rule balance.AuxRule
	}{{"median", balance.AuxMedian}, {"2xavg", balance.AuxTwiceAverage}} {
		b.Run(r.name, func(b *testing.B) {
			met := benchDiskSort(b, core.DiskConfig{Rule: r.rule}, record.BucketSkew, 1<<16)
			b.ReportMetric(met.MaxBucketReadRatio, "read-balance")
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return itoa(n>>20) + "Mi"
	case n >= 1<<10:
		return itoa(n>>10) + "Ki"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func ftoa(f float64) string {
	if f == float64(int(f)) {
		return itoa(int(f))
	}
	return itoa(int(f)) + "." + itoa(int(f*10)%10)
}

// BenchmarkE16_WriteFullness — Section 6's "no non-striped writes needed":
// fraction of all-write I/Os at full width, per placement strategy.
func BenchmarkE16_WriteFullness(b *testing.B) {
	p := pdm.Params{D: 8, B: 32, M: 1 << 13}
	recs := record.Generate(record.Uniform, 1<<16, 16)
	for _, pl := range []struct {
		name string
		p    core.Placement
	}{{"balanced", core.PlacementBalanced}, {"roundrobin", core.PlacementRoundRobin}} {
		b.Run(pl.name, func(b *testing.B) {
			var st pdm.Stats
			for i := 0; i < b.N; i++ {
				arr := pdm.New(p)
				ds := core.NewDiskSorter(arr, core.DiskConfig{S: core.PaperS(p), Placement: pl.p})
				in := ds.WriteInput(recs)
				ds.Sort(in.Off, in.N)
				st = arr.Stats()
				arr.Close()
			}
			b.ReportMetric(st.WriteFullness(p.D, 1.0), "full-writes")
			b.ReportMetric(st.Utilization(p.D), "utilization")
		})
	}
}

// BenchmarkE17_HierarchyScaling — Figure 4: fixed N, growing H.
func BenchmarkE17_HierarchyScaling(b *testing.B) {
	n := 1 << 15
	for _, h := range []int{2, 8, 32} {
		b.Run("H="+itoa(h), func(b *testing.B) {
			recs := record.Generate(record.Uniform, n, 17)
			var met core.HierMetrics
			for i := 0; i < b.N; i++ {
				m := hier.New(h, hmm.Model{Cost: hmm.LogCost{}}, matching.PRAMCost)
				hs := core.NewHierSorter(m, core.HierConfig{})
				hs.Sort(hs.WriteInput(recs))
				met = hs.Metrics()
			}
			b.ReportMetric(met.Time, "model-time")
		})
	}
}

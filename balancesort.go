// Package balancesort is a production-quality Go implementation of Balance
// Sort — the deterministic distribution sort of Nodine and Vitter (SPAA
// 1993, "Deterministic Distribution Sort in Shared and Distributed Memory
// Multiprocessors") — together with the simulated machines the paper's
// bounds are stated on:
//
//   - the Vitter–Shriver parallel disk model (D disks × B-record blocks,
//     M-record memory, P PRAM processors) — Theorem 1;
//   - parallel memory hierarchies (P-HMM, P-BT, P-UMH) with PRAM or
//     hypercube interconnects — Theorems 2 and 3.
//
// The package front door sorts in-memory record slices while metering every
// model cost (parallel I/Os, PRAM work, hierarchy access time), so that a
// caller can both *use* the algorithm and *measure* it against the paper's
// closed-form bounds. Lower-level control (block layout, custom placement
// strategies, the balancing matrices themselves) lives in the internal
// packages and is re-exported here only as configuration.
//
// # Quick start
//
//	recs := balancesort.NewWorkload(balancesort.Uniform, 1_000_000, 42)
//	res, err := balancesort.Sort(recs, balancesort.Config{Disks: 16, BlockSize: 64, Memory: 1 << 16})
//	// res.Records are sorted; res.IOs, res.IOLowerBound, res.PRAMTime are the model costs.
package balancesort

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"balancesort/internal/balance"
	"balancesort/internal/baseline"
	"balancesort/internal/core"
	"balancesort/internal/hier"
	"balancesort/internal/hmm"
	"balancesort/internal/matching"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
	"balancesort/internal/stats"
	"balancesort/internal/umh"

	btmodel "balancesort/internal/bt"
)

// theorem2 and theorem3 evaluate the paper's Θ-bounds (see internal/stats).
var (
	theorem2 = stats.Theorem2Bound
	theorem3 = stats.Theorem3Bound
)

// Record is the 16-byte sortable unit: a 64-bit key plus the record's
// original position, which breaks ties so that effective keys are distinct
// (exactly the paper's distinctness device).
type Record = record.Record

// Workload names a deterministic input generator.
type Workload = record.Workload

// The workload shapes used across the experiments.
const (
	Uniform      = record.Uniform
	FewDistinct  = record.FewDistinct
	NearlySorted = record.NearlySorted
	Reversed     = record.Reversed
	BucketSkew   = record.BucketSkew
	Zipf         = record.Zipf
)

// NewWorkload generates n records of the given shape from seed, with Loc
// stamped to the original positions.
func NewWorkload(w Workload, n int, seed uint64) []Record {
	return record.Generate(w, n, seed)
}

// MatchStrategy selects the Rearrange matching algorithm.
type MatchStrategy = balance.MatchStrategy

// Matching strategies for the rebalancing step.
const (
	MatchDerandomized = balance.MatchDerandomized
	MatchRandomized   = balance.MatchRandomized
	MatchGreedy       = balance.MatchGreedy
)

// PlacementStrategy selects how formed blocks are assigned to disks.
type PlacementStrategy = core.Placement

// Placement strategies (Balance Sort proper plus the two baselines).
const (
	PlacementBalanced   = core.PlacementBalanced
	PlacementRandom     = core.PlacementRandom
	PlacementRoundRobin = core.PlacementRoundRobin
)

// Config describes a parallel-disk sort.
type Config struct {
	// Disks is D, the number of independent disks. Default 8.
	Disks int
	// BlockSize is B, records per block. Default 64.
	BlockSize int
	// Memory is M, records of internal memory. Default max(4096, 8·D·B).
	Memory int
	// Processors is P, the PRAM CPUs doing internal work. Default 1.
	Processors int
	// VirtualDisks enables partial striping (must divide Disks; 0 = D).
	VirtualDisks int
	// Buckets fixes S, the bucket count of every distribution pass. 0 = the
	// size-aware fan-out: each pass takes just enough buckets that every
	// bucket fits one memoryload, capped by memory and by the sample.
	Buckets int
	// Match selects the rebalance matching strategy.
	Match MatchStrategy
	// Placement selects the block placement discipline.
	Placement PlacementStrategy
	// NoRadix sorts memoryloads with the comparison sort instead of the
	// radix sort that Section 5 invokes. The radix base case
	// is the default for every engine; the output is byte-identical either
	// way (pinned by the parity tests).
	NoRadix bool
	// Engine selects the file-sort engine (SortFile and friends; in-memory
	// Sort always runs Balance Sort). "" = EngineBalanceSort; EngineAuto
	// lets the cost-model planner pick and records its decision in
	// Result.Plan.
	Engine Engine
	// CRCW charges internal work at concurrent-read/concurrent-write PRAM
	// rates (Section 5's requirement when log(M/B) = o(log M)).
	CRCW bool
	// Seed feeds the randomized variants.
	Seed uint64
	// IO configures the I/O layer of file-backed sorts: fault injection
	// and retries (SortFile and ResumeSortFile; in-memory sorts ignore
	// it). The zero value injects nothing and retries with defaults.
	IO IOConfig
	// Robust configures checksums, journaling, and scrubbing for
	// file-backed sorts (SortFile and ResumeSortFile; in-memory sorts
	// ignore it except for cancellation).
	Robust RobustConfig
	// Obs configures phase tracing, live progress, and /metrics export.
	// The zero value is fully off: no tracer, no allocations, no listener.
	Obs ObsConfig

	// ctx carries the cancellation context of the *Context entry points.
	ctx context.Context
	// tracer is the per-sort tracer built from Obs by the entry points.
	tracer *obs.Tracer
}

// diskConfig translates the facade configuration to the core sorter's.
func (c Config) diskConfig() core.DiskConfig {
	internal := core.SortRadix
	if c.NoRadix {
		internal = core.SortComparison
	}
	variant := pram.EREW
	if c.CRCW {
		variant = pram.CRCW
	}
	return core.DiskConfig{
		V:                 c.VirtualDisks,
		S:                 c.Buckets,
		P:                 c.Processors,
		PRAM:              variant,
		Match:             c.Match,
		Seed:              c.Seed,
		Placement:         c.Placement,
		Internal:          internal,
		Context:           c.ctx,
		CrashAfterCommits: c.Robust.crashAfterCommits,
		Trace:             c.tracer,
	}
}

// Validate reports, as an error rather than a panic out of the sorter,
// a configuration Balance Sort cannot run: a geometry the model rejects,
// DB > M/4, VirtualDisks not dividing Disks, or a Buckets count that is
// negative or overflows internal memory in a distribution pass. Unset
// geometry fields take their defaults first. Sort, and SortFile when it
// runs Balance Sort, apply it before they start.
func (c Config) Validate() error {
	c.fill()
	p := pdm.Params{D: c.Disks, B: c.BlockSize, M: c.Memory}
	if err := checkGeometry(p); err != nil {
		return err
	}
	v := c.VirtualDisks
	if v == 0 {
		v = c.Disks
	}
	if v < 1 || c.Disks%v != 0 {
		return fmt.Errorf("balancesort: VirtualDisks = %d does not divide Disks = %d", c.VirtualDisks, c.Disks)
	}
	if err := core.CheckBuckets(p, c.Disks/v*c.BlockSize, c.Buckets); err != nil {
		return fmt.Errorf("balancesort: Buckets = %d: %w", c.Buckets, err)
	}
	return nil
}

// checkGeometry reports a geometry the model rejects, or one with
// DB > M/4, where neither external engine's phase buffers fit together.
func checkGeometry(p pdm.Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if 4*p.D*p.B > p.M {
		return fmt.Errorf("balancesort: DB = %d needs M >= %d (got %d)", p.D*p.B, 4*p.D*p.B, p.M)
	}
	return nil
}

func (c *Config) fill() {
	if c.Disks == 0 {
		c.Disks = 8
	}
	if c.BlockSize == 0 {
		c.BlockSize = 64
	}
	if c.Memory == 0 {
		c.Memory = 8 * c.Disks * c.BlockSize
		if c.Memory < 4096 {
			c.Memory = 4096
		}
	}
	if c.Processors == 0 {
		c.Processors = 1
	}
}

// Result is a completed parallel-disk sort. The JSON encoding (the CLI's
// -json flag) carries every model cost but not the records themselves.
type Result struct {
	// Records is the sorted output.
	Records []Record `json:"-"`
	// IOs is the number of parallel I/O operations the sort performed
	// (excluding loading the input and reading back the output).
	IOs int64 `json:"ios"`
	// IOLowerBound is Theorem 1's Θ-bound (N/DB)·log(N/B)/log(M/B); the
	// ratio IOs/IOLowerBound is the constant experiment E1 tracks.
	IOLowerBound float64 `json:"io_lower_bound"`
	// PRAMTime and PRAMWork meter the internal processing on P processors.
	PRAMTime float64 `json:"pram_time"`
	PRAMWork float64 `json:"pram_work"`
	// MaxBucketReadRatio is the Theorem 4 balance measurement.
	MaxBucketReadRatio float64 `json:"max_bucket_read_ratio"`
	// MaxBucketFrac is the partition-element quality measurement.
	MaxBucketFrac float64 `json:"max_bucket_frac"`
	// Depth and Passes describe the recursion.
	Depth  int `json:"depth"`
	Passes int `json:"passes"`
	// MemPeak is the internal-memory high-water mark in records.
	MemPeak int `json:"mem_peak"`
	// IO carries the I/O layer's per-disk metrics of a sort that used a
	// scratch array (SortFile and ResumeSortFile); nil otherwise, as for
	// an in-memory sort or the inmem engine.
	IO *IOStats `json:"io,omitempty"`
	// Scrub carries the post-sort integrity sweep when the sort ran with
	// Config.Robust.ScrubAfter; nil otherwise.
	Scrub *ScrubReport `json:"scrub,omitempty"`
	// Trace is the recorded phase timeline when Config.Obs asked for one;
	// nil otherwise.
	Trace *Trace `json:"-"`
	// Engine names the engine that ran a file-backed sort ("" for
	// in-memory Sort, which is always Balance Sort).
	Engine string `json:"engine,omitempty"`
	// Plan is the planner's decision when the sort ran with EngineAuto;
	// nil otherwise.
	Plan *Plan `json:"plan,omitempty"`
}

// Sort runs Balance Sort on a simulated disk array and returns the sorted
// records with the model costs. The input slice is not modified.
func Sort(recs []Record, cfg Config) (res *Result, err error) {
	defer func() {
		if e := classifySortPanic(recover()); e != nil {
			res, err = nil, e
		}
	}()
	cfg.fill()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory}
	cfg.tracer = cfg.Obs.tracer()
	cfg.Obs.attach("sort", cfg.tracer)

	arr := pdm.New(p)
	defer arr.Close()
	ds := core.NewDiskSorter(arr, cfg.diskConfig())

	in := ds.WriteInput(recs)
	segs := ds.Sort(in.Off, in.N)
	m := ds.Metrics()

	out := make([]Record, 0, len(recs))
	for _, seg := range segs {
		out = append(out, ds.ReadRegion(seg)...)
	}
	if !record.IsSorted(out) {
		return nil, errors.New("balancesort: internal error: output not sorted")
	}
	return &Result{
		Records:            out,
		IOs:                m.IOs,
		IOLowerBound:       core.LowerBoundIOs(len(recs), p),
		PRAMTime:           m.PRAMTime,
		PRAMWork:           m.PRAMWork,
		MaxBucketReadRatio: m.MaxBucketReadRatio,
		MaxBucketFrac:      m.MaxBucketFrac,
		Depth:              m.Depth,
		Passes:             m.Passes,
		MemPeak:            m.MemPeak,
		Trace:              traceFrom(cfg.tracer),
	}, nil
}

// Algorithm selects which external sorting algorithm SortWith runs on the
// simulated disk array.
type Algorithm int

// The disk-model algorithms of the paper's comparison set.
const (
	// AlgoBalanceSort is the paper's contribution.
	AlgoBalanceSort Algorithm = iota
	// AlgoStripedMerge is merge sort over the D disks striped as one
	// logical disk — deterministic but suboptimal by Θ(log(M/B)/log(M/DB)).
	// It is the EngineStripedMerge sorter that SortFile runs.
	AlgoStripedMerge
	// AlgoForecastMerge is a merge sort with Greed Sort's independent
	// per-disk greedy reads — the deterministic optimal merge-based
	// comparator.
	AlgoForecastMerge
	// AlgoColumnSort is Leighton's Columnsort run externally: an oblivious
	// deterministic sort, valid while N is at most about (M/2)^{3/2}.
	AlgoColumnSort
	// AlgoGreedSort is the Nodine–Vitter Greed Sort [NoV]: the greedy
	// approximate merge (each disk independently fetches its most promising
	// block; the pool emits eagerly) followed by the window-sort cleanup.
	AlgoGreedSort
)

// String names the algorithm for tables.
func (a Algorithm) String() string {
	switch a {
	case AlgoBalanceSort:
		return "balancesort"
	case AlgoStripedMerge:
		return "stripedmerge"
	case AlgoForecastMerge:
		return "forecastmerge"
	case AlgoColumnSort:
		return "columnsort"
	case AlgoGreedSort:
		return "greedsort"
	default:
		return "unknown"
	}
}

// SortWith runs the chosen algorithm on the same simulated disk array that
// Sort uses, so the returned I/O counts are directly comparable. For
// AlgoBalanceSort it defers to Sort; AlgoStripedMerge fills the fields a
// stripedmerge SortFile does; the other baselines fill the Result's I/O,
// PRAM and pass fields. Balance-specific measurements stay zero.
func SortWith(algo Algorithm, recs []Record, cfg Config) (*Result, error) {
	if algo == AlgoBalanceSort {
		return Sort(recs, cfg)
	}
	cfg.fill()
	p := pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory}
	err := p.Validate()
	if algo == AlgoStripedMerge {
		err = checkGeometry(p)
	}
	if err != nil {
		return nil, err
	}
	arr := pdm.New(p)
	defer arr.Close()

	blocks := (len(recs) + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	if perDisk == 0 {
		perDisk = 1
	}
	off := arr.AllocStripe(perDisk)
	arr.WriteStripe(off, 0, recs)

	var res *Result
	var reg baseline.Region
	var met baseline.Metrics
	switch algo {
	case AlgoStripedMerge:
		js := &guideJournalState{}
		js.start(off, len(recs))
		var regs []core.Region
		regs, res = js.run(arr, cfg, nil)
		reg = baseline.Region(regs[0])
	case AlgoForecastMerge:
		_, reg, met = baseline.ForecastMergeSort(arr, off, len(recs), cfg.Processors)
	case AlgoColumnSort:
		reg, met, err = baseline.ColumnSortDisk(arr, off, len(recs), cfg.Processors)
	case AlgoGreedSort:
		var gMet baseline.GreedSortMetrics
		reg, gMet, err = baseline.GreedSort(arr, off, len(recs), cfg.Processors)
		met = gMet.Metrics
	default:
		return nil, fmt.Errorf("balancesort: unknown algorithm %d", algo)
	}
	if err != nil {
		return nil, err
	}
	if res == nil {
		res = &Result{IOs: met.IOs, PRAMTime: met.PRAMTime, PRAMWork: met.PRAMWork, Passes: met.Passes}
	}
	res.Records = make([]Record, reg.N)
	arr.ReadStripe(reg.Off, 0, res.Records)
	if !record.IsSorted(res.Records) {
		return nil, errors.New("balancesort: internal error: baseline output not sorted")
	}
	res.IOLowerBound = core.LowerBoundIOs(len(recs), p)
	return res, nil
}

// HierarchyModel names a memory-hierarchy kind for SortHierarchy.
type HierarchyModel int

// The hierarchy models of Figure 3.
const (
	// HMMLog is HMM with f(x) = log x.
	HMMLog HierarchyModel = iota
	// HMMPower is HMM with f(x) = x^Alpha.
	HMMPower
	// BTLog is the Block Transfer model with f(x) = log x.
	BTLog
	// BTPower is the Block Transfer model with f(x) = x^Alpha.
	BTPower
	// UMH is the Uniform Memory Hierarchy (ρ = 2, bandwidth exponent Alpha).
	UMH
)

// Interconnect names how the H base levels are joined (Figure 4).
type Interconnect int

// Interconnects of Theorems 2 and 3.
const (
	// EREWPRAM has T(H) = Θ(log H).
	EREWPRAM Interconnect = iota
	// Hypercube has T(H) = Θ(log H (log log H)²) (Cypher–Plaxton's
	// Sharesort, charged as a formula — the algorithm itself is beyond
	// executable scope).
	Hypercube
	// HypercubeBitonic runs every base-level sort on a real simulated
	// hypercube (Batcher bitonic), charging measured network steps, so
	// T(H) = log H(log H+1)/2 exactly. Requires Hierarchies to be a power
	// of two.
	HypercubeBitonic
)

// HierConfig describes a parallel-memory-hierarchy sort.
type HierConfig struct {
	// Hierarchies is H. Default 8.
	Hierarchies int
	// Model selects the memory model. Default HMMLog.
	Model HierarchyModel
	// Alpha parameterizes the power-law models. Default 1.
	Alpha float64
	// Interconnect selects the base-level network. Default EREWPRAM.
	Interconnect Interconnect
	// HPrime overrides the number of virtual hierarchies H' (0 = the
	// paper's H^{1/3}, rounded to a divisor of H). Must divide Hierarchies.
	HPrime int
	// Match and Seed configure rebalancing as in Config.
	Match MatchStrategy
	Seed  uint64
}

// HierResult is a completed hierarchy sort.
type HierResult struct {
	Records []Record
	// Time is the total accrued parallel time; AccessTime and NetTime are
	// its memory and interconnect parts.
	Time       float64
	AccessTime float64
	NetTime    float64
	// Bound is the matching Theorem 2/3 Θ-expression for these parameters;
	// Time/Bound is the constant experiments E6-E9 track.
	Bound float64
	// MaxBucketFrac and MaxLogSkew are the balance measurements.
	MaxBucketFrac float64
	MaxLogSkew    float64
	Depth         int
	Passes        int
}

// SortHierarchy runs Balance Sort on a simulated parallel memory hierarchy.
func SortHierarchy(recs []Record, cfg HierConfig) (*HierResult, error) {
	if cfg.Hierarchies == 0 {
		cfg.Hierarchies = 8
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	var model hier.Model
	switch cfg.Model {
	case HMMLog:
		model = hmm.Model{Cost: hmm.LogCost{}}
	case HMMPower:
		model = hmm.Model{Cost: hmm.PowerCost{Alpha: cfg.Alpha}}
	case BTLog:
		model = btmodel.Model{Cost: hmm.LogCost{}}
	case BTPower:
		model = btmodel.Model{Cost: hmm.PowerCost{Alpha: cfg.Alpha}}
	case UMH:
		model = umh.Model{Rho: 2, Alpha: cfg.Alpha}
	default:
		return nil, fmt.Errorf("balancesort: unknown hierarchy model %d", cfg.Model)
	}
	var tcost matching.TCost
	var netSorter func([]Record) float64
	switch cfg.Interconnect {
	case EREWPRAM:
		tcost = matching.PRAMCost
	case Hypercube:
		tcost = matching.HypercubeCost
	case HypercubeBitonic:
		h := cfg.Hierarchies
		if h&(h-1) != 0 {
			return nil, fmt.Errorf("balancesort: HypercubeBitonic needs a power-of-two H, got %d", h)
		}
		tcost = core.BitonicTCost
		netSorter = core.HypercubeNetSorter(h)
	default:
		return nil, fmt.Errorf("balancesort: unknown interconnect %d", cfg.Interconnect)
	}

	m := hier.New(cfg.Hierarchies, model, tcost)
	if cfg.HPrime != 0 && cfg.Hierarchies%cfg.HPrime != 0 {
		return nil, fmt.Errorf("balancesort: HPrime = %d does not divide Hierarchies = %d", cfg.HPrime, cfg.Hierarchies)
	}
	hs := core.NewHierSorter(m, core.HierConfig{HPrime: cfg.HPrime, Match: cfg.Match, Seed: cfg.Seed, NetSorter: netSorter})
	seg := hs.WriteInput(recs)
	out := hs.Sort(seg)
	got := hs.ReadSegment(out)
	if !record.IsSorted(got) {
		return nil, errors.New("balancesort: internal error: hierarchy output not sorted")
	}
	met := hs.Metrics()
	return &HierResult{
		Records:       got,
		Time:          met.Time,
		AccessTime:    met.AccessTime,
		NetTime:       met.NetTime,
		Bound:         hierBound(cfg, len(recs)),
		MaxBucketFrac: met.MaxBucketFrac,
		MaxLogSkew:    met.MaxLogSkew,
		Depth:         met.Depth,
		Passes:        met.Passes,
	}, nil
}

func hierBound(cfg HierConfig, n int) float64 {
	var tcost func(int) float64
	switch cfg.Interconnect {
	case Hypercube:
		tcost = matching.HypercubeCost
	case HypercubeBitonic:
		tcost = core.BitonicTCost
	default:
		tcost = matching.PRAMCost
	}
	alpha := cfg.Alpha
	switch cfg.Model {
	case HMMLog:
		return theorem2(n, cfg.Hierarchies, -1, tcost)
	case HMMPower:
		return theorem2(n, cfg.Hierarchies, alpha, tcost)
	case BTLog:
		return theorem3(n, cfg.Hierarchies, -1, tcost)
	case BTPower:
		return theorem3(n, cfg.Hierarchies, alpha, tcost)
	default:
		return theorem2(n, cfg.Hierarchies, alpha, tcost)
	}
}

// Verify reports whether out is the sorted permutation of in — a
// convenience for tools and examples.
func Verify(in, out []Record) bool {
	if !record.IsSorted(out) {
		return false
	}
	return record.SameMultiset(in, out)
}

// ReferenceSort sorts a copy of recs with the standard library, for
// baseline comparisons in examples and tests.
func ReferenceSort(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

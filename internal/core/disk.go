// Package core implements Balance Sort itself: Algorithm 1 (the recursive
// distribution sort), Algorithm 2 (partition-element computation), and the
// drivers that run the balancing discipline of internal/balance on the two
// substrates — the parallel disk model of Section 5 (this file) and the
// parallel memory hierarchies of Section 4 (hierarchy.go).
package core

import (
	"context"
	"fmt"
	"math"

	"balancesort/internal/balance"
	"balancesort/internal/matching"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// DiskConfig tunes the parallel-disk sorter. The zero value asks for the
// paper's defaults.
type DiskConfig struct {
	// V is the number of virtual disks for partial striping; 0 selects D
	// (no striping), the paper's default for the disk model.
	V int
	// S fixes the bucket count of every distribution pass (floored at 2);
	// 0 = the size-aware fan-out, which picks each pass's count with Fanout.
	// PaperS gives the paper's constant.
	S int
	// P is the number of PRAM processors doing the internal work; 0 means 1.
	P int
	// PRAM selects the PRAM variant (EREW default; Section 5 requires CRCW
	// when log(M/B) = o(log M) and P approaches M).
	PRAM pram.Variant
	// Match selects the Rearrange matching strategy (default deterministic).
	Match balance.MatchStrategy
	// Rule selects the auxiliary-matrix definition (default the paper's
	// median rule).
	Rule balance.AuxRule
	// Seed feeds MatchRandomized and PlacementRandom.
	Seed uint64
	// TCost is the interconnect sort-time model used to price matching
	// rounds; nil selects the EREW PRAM cost.
	TCost matching.TCost
	// Placement selects how formed blocks are assigned to virtual disks.
	Placement Placement
	// Internal selects the memoryload sorting algorithm.
	Internal InternalSort
	// Context, when non-nil, cancels the sort: it is polled between
	// work-list steps, between phase-1 memoryloads, and between
	// distribution tracks, and a done context aborts the sort with an
	// Abort wrapping ctx.Err(). In-flight parallel I/Os always complete,
	// so the scratch array stays consistent and resumable.
	Context context.Context
	// Checkpoint, when non-nil, runs after every completed work-list step
	// (a base case or one distribution pass) with the sorter's complete
	// serializable state. The callback owns durability — flush the array,
	// then journal the state — and an error from it aborts the sort.
	Checkpoint func(CheckpointState) error
	// CrashAfterCommits > 0 simulates a crash for recovery tests: the
	// sorter panics an Abort carrying ErrInjectedCrash immediately before
	// the k-th Checkpoint call of this run, after the step's work is done
	// — so exactly that step's work is lost and must be redone on resume.
	CrashAfterCommits int
	// Trace, when non-nil, records a span per work-list step ("base-case",
	// "distribute-pass") and per distribution sub-phase ("run-formation",
	// "partition-elements", "distribute-tracks") under the "sort" layer;
	// the balancer's "repair-rearrange" spans are children of
	// "distribute-tracks". Nil is free and cannot perturb the model I/O
	// counts — tracing is pure host-side timekeeping.
	Trace *obs.Tracer
}

// InternalSort selects how memoryloads are sorted in internal memory.
type InternalSort int

const (
	// SortComparison uses the Cole-cost parallel merge sort (default).
	SortComparison InternalSort = iota
	// SortRadix uses the Rajasekaran–Reif-style parallel radix sort that
	// Section 5 invokes for the Θ((N/P) log N) internal bound.
	SortRadix
)

// Placement selects the block-placement discipline of the distribution
// pass. PlacementBalanced is the paper's contribution; the other two are the
// algorithms it is measured against.
type Placement int

const (
	// PlacementBalanced uses the histogram/auxiliary-matrix machinery with
	// matching-based rebalancing (Balance Sort proper).
	PlacementBalanced Placement = iota
	// PlacementRandom assigns each track's blocks to a uniformly random
	// permutation of the virtual disks — the randomized placement of
	// Vitter–Shriver's distribution sort [ViSa], which Balance Sort
	// derandomizes.
	PlacementRandom
	// PlacementRoundRobin assigns each bucket's blocks to consecutive
	// virtual disks with a per-bucket cursor — the naive deterministic
	// strategy. Blocks of different buckets that collide on a virtual disk
	// within a track are pushed to extra write rounds, inflating the I/O
	// count (the failure mode the balance matrices exist to avoid).
	PlacementRoundRobin
)

// Region names n records stored block-aligned and striped over all D disks
// starting at block offset Off (the layout of pdm.WriteStripe).
type Region struct {
	Off int
	N   int
}

// Metrics reports what one Sort call did, in model units.
type Metrics struct {
	N          int
	IOs        int64
	ReadIOs    int64
	WriteIOs   int64
	BlocksRead int64
	BlocksWrit int64

	PRAMTime float64
	PRAMWork float64

	Balance balance.Stats

	// MaxBucketReadRatio is the worst observed (parallel reads needed for a
	// bucket) / (optimal ⌈N_b/(H·VB)⌉) — Theorem 4 bounds it near 2.
	MaxBucketReadRatio float64
	// MaxBucketFrac is the worst observed N_b / (N/S) over all distribution
	// passes — the partition-element guarantee bounds it near 2.
	MaxBucketFrac float64
	// Depth is the deepest recursion level reached (0 = no distribution).
	Depth int
	// Passes counts distribution passes performed.
	Passes int
	// MemPeak is the high-water internal memory use in records.
	MemPeak int
}

// LowerBoundIOs evaluates the paper's I/O lower bound (Theorem 1),
// (N/(DB)) · log(N/B)/log(M/B), with log x = max(1, log2 x). Balance Sort's
// measured I/Os divided by this should be a flat constant (experiment E1).
func LowerBoundIOs(n int, p pdm.Params) float64 {
	if n == 0 {
		return 0
	}
	lg := func(x float64) float64 {
		if x <= 2 {
			return 1
		}
		return math.Log2(x)
	}
	fn := float64(n)
	return fn / float64(p.D*p.B) * lg(fn/float64(p.B)) / lg(float64(p.M)/float64(p.B))
}

// DiskSorter runs Balance Sort on a simulated disk array.
type DiskSorter struct {
	arr *pdm.Array
	vd  *pdm.Virtual
	cpu *pram.Machine
	cfg DiskConfig

	memload int // records per memoryload (phase-1 unit), B-aligned

	// Host buffers reused across steps so the in-memory work allocates
	// nothing at steady state. They are not model memory: the MemTracker
	// charges stay on the records they hold. loadBuf receives a level's
	// memoryloads, stageBuf one round of a chain source's virtual blocks,
	// trackBuf a run's phase-3 tracks, freeBlocks holds VB-record block
	// buffers whose writes have completed, and sampleBuf backs a pass's
	// phase-1 sample.
	loadBuf, stageBuf, trackBuf []record.Record
	freeBlocks                  [][]record.Record
	sampleBuf                   []record.Record

	met Metrics
}

// NewDiskSorter prepares a sorter over the array. The array's parameters
// must satisfy the model constraints; cfg.V must divide D.
func NewDiskSorter(arr *pdm.Array, cfg DiskConfig) *DiskSorter {
	p := arr.Params()
	if cfg.V == 0 {
		cfg.V = p.D
	}
	if cfg.P == 0 {
		cfg.P = 1
	}
	if cfg.TCost == nil {
		cfg.TCost = matching.PRAMCost
	}
	ds := &DiskSorter{
		arr: arr,
		vd:  pdm.NewVirtual(arr, cfg.V),
		cpu: pram.NewVariant(cfg.P, cfg.PRAM),
		cfg: cfg,
	}
	// The distribution pass keeps one track, the pending/carried blocks of
	// the previous track, and the partial per-bucket pools resident at
	// once, so the sorter wants DB <= M/4 (a constant factor tighter than
	// the model's DB <= M/2).
	if 4*p.D*p.B > p.M {
		panic(fmt.Sprintf("core: DB = %d exceeds M/4 = %d; the sorter needs that headroom", p.D*p.B, p.M/4))
	}
	ds.memload = Memoryload(p)
	if ds.memload < ds.vd.V()*ds.vd.VB() {
		panic(fmt.Sprintf("core: memoryload %d smaller than one track %d", ds.memload, ds.vd.V()*ds.vd.VB()))
	}
	if err := CheckBuckets(p, ds.vd.VB(), cfg.S); err != nil {
		panic(err.Error())
	}
	return ds
}

// Memoryload is the phase-1 unit: ⌊M/2B⌋·B records, one B-aligned half of
// internal memory. A subproblem of at most this many records is a base case.
func Memoryload(p pdm.Params) int { return (p.M / 2 / p.B) * p.B }

// PaperS is the paper's bucket count, S = ⌊(M/B)^{1/4}⌋ floored at 2: the
// largest S with S⁴·B ≤ M, found in integers so an exact fourth power is
// not rounded down. The experiments pass it explicitly so they reproduce
// the paper's constant.
func PaperS(p pdm.Params) int {
	s := 2
	for t := s + 1; t*t*t*t*p.B <= p.M; t++ {
		s = t
	}
	return s
}

// Fanout is the size-aware bucket count of one distribution pass over n
// records with virtual blocks of vb records. Theorem 1 holds for any fixed
// exponent c in S = (M/B)^c, so the pass takes just enough buckets that
// every bucket fits one memoryload L: the partition elements bound a
// bucket by 2n/S, so S = ⌈2n/L⌉. Two caps apply. maxBuckets keeps the
// pass inside internal memory. S ≤ ⌊(M/4)/runs⌋, with runs = ⌈n/L⌉,
// keeps one sample per run inside every bucket of phase 1's M/4-record
// sample; without it the 2n/S bound fails. The floor is 2, so a subproblem
// just over L gets a 2- or 3-way split rather than a full pass.
func Fanout(n int, p pdm.Params, vb int) int {
	load := Memoryload(p)
	runs := (n + load - 1) / load
	limit := maxBuckets(p, vb)
	if runs > 0 {
		limit = min(limit, p.M/4/runs)
	}
	return max(2, min((2*n+load-1)/load, limit))
}

// maxBuckets is the largest bucket count a distribution pass with virtual
// blocks of vb records (h = DB/vb virtual disks) holds in internal memory.
// The S partial block pools get the M/4 records reserved for them,
// S·VB ≤ M/4, and the whole of phase 3 must fit M. Phase 3 keeps S−1
// pivots, ⌊3Sh/2⌋ words of balancer matrices, fewer than VB records in
// each pool, fewer than h blocks queued for placement, and the h·VB-record
// track being read: at most S·VB + ⌊3Sh/2⌋ + 2DB − VB − 1 words. Rounding
// the matrix words up to S·⌈3h/2⌉ gives the bound in closed form. The
// result may be below 2 at a geometry too small for any pass.
func maxBuckets(p pdm.Params, vb int) int {
	h := p.D * p.B / vb
	return min(p.M/(4*vb), (p.M-2*p.D*p.B+vb+1)/(vb+(3*h+1)/2))
}

// CheckBuckets reports whether a distribution pass can run with bucket
// count s (0 = the size-aware fan-out) and virtual blocks of vb records:
// s must not be negative or exceed maxBuckets. Every pass uses at least
// two buckets, so s = 0 and s = 1 need room for two.
func CheckBuckets(p pdm.Params, vb, s int) error {
	if s < 0 {
		return fmt.Errorf("core: negative bucket count S = %d", s)
	}
	if limit := maxBuckets(p, vb); max(s, 2) > limit {
		return fmt.Errorf("core: S = %d buckets exceed the %d a distribution pass fits in M = %d with VB = %d; lower S or V",
			max(s, 2), limit, p.M, vb)
	}
	return nil
}

// CPU exposes the PRAM cost model (for experiment harnesses).
func (ds *DiskSorter) CPU() *pram.Machine { return ds.cpu }

// internalSort sorts an in-memory slice with the configured algorithm.
func (ds *DiskSorter) internalSort(rs []record.Record) {
	if ds.cfg.Internal == SortRadix {
		ds.cpu.SortRadix(rs)
		return
	}
	ds.cpu.Sort(rs)
}

// Metrics returns the metrics of the last Sort call.
func (ds *DiskSorter) Metrics() Metrics { return ds.met }

// Sort sorts the n records striped at block offset off and returns the
// sorted output as an ordered list of striped segments (reading the
// segments in order yields the records in nondecreasing order).
func (ds *DiskSorter) Sort(off, n int) []Region {
	return ds.Resume(nil, []SourceDesc{StripedDesc(off, n, 0)}, Metrics{N: n})
}

const maxDepth = 64 // runaway-recursion guard; log_S(N) never approaches this

// Resume drives Algorithm 1's recursion as an explicit depth-first
// work-list, starting from checkpointed state: done segments already
// emitted, work still pending (front first), and the cumulative metrics
// recorded at the checkpoint. Sort is Resume from the initial state. The
// work-list visits levels in exactly the order the recursion would —
// a distribution pass pushes its bucket descriptors at the front — so an
// uninterrupted Resume performs the identical I/O sequence, and a resumed
// one continues it from the last committed step.
func (ds *DiskSorter) Resume(done []Region, work []SourceDesc, prior Metrics) []Region {
	ds.met = prior
	ds.arr.ResetStats()
	ds.cpu.Reset()

	done = append([]Region(nil), done...)
	work = append([]SourceDesc(nil), work...)
	commits := 0
	for len(work) > 0 {
		ds.checkCtx()
		d := work[0]
		work = work[1:]
		if d.Depth > maxDepth {
			panic(&StallError{Depth: d.Depth, N: d.Total()})
		}
		if d.Depth > ds.met.Depth {
			ds.met.Depth = d.Depth
		}
		src := ds.openSource(d)
		n := src.Total()
		if n == 0 {
			continue
		}
		if n <= ds.memload {
			sp := ds.cfg.Trace.Begin("sort", "base-case", 0)
			done = append(done, ds.baseCase(src))
			sp.End(obs.Attr{Key: "depth", Val: int64(d.Depth)}, obs.Attr{Key: "n", Val: int64(n)})
		} else {
			sp := ds.cfg.Trace.Begin("sort", "distribute-pass", 0)
			work = append(ds.distribute(sp, src, d.Depth), work...)
			sp.End(obs.Attr{Key: "depth", Val: int64(d.Depth)}, obs.Attr{Key: "n", Val: int64(n)})
		}
		ds.cfg.Trace.Count("sort", "records-moved", 0, int64(n))
		ds.refreshMetrics(prior)
		commits++
		if ds.cfg.CrashAfterCommits > 0 && commits == ds.cfg.CrashAfterCommits {
			panic(Abort{Err: ErrInjectedCrash})
		}
		if ds.cfg.Checkpoint != nil {
			if err := ds.cfg.Checkpoint(CheckpointState{Done: done, Work: work, Metrics: ds.met}); err != nil {
				panic(Abort{Err: err})
			}
		}
	}
	ds.refreshMetrics(prior)
	return done
}

// openSource materialises a work-list descriptor as a readable source.
func (ds *DiskSorter) openSource(d SourceDesc) source {
	switch d.Kind {
	case KindStriped:
		return newStripedSource(ds.arr, d.Off, d.N, &ds.loadBuf)
	case KindChains:
		return newChainSource(ds.vd, &chains{perDisk: d.Chains, total: d.Total()}, &ds.loadBuf, &ds.stageBuf)
	}
	panic(fmt.Sprintf("core: unknown source kind %q", d.Kind))
}

// refreshMetrics folds this run's counters on top of the checkpointed
// prior ones, so Metrics stays cumulative across crash/resume.
func (ds *DiskSorter) refreshMetrics(prior Metrics) {
	st := ds.arr.Stats()
	ds.met.IOs = prior.IOs + st.IOs
	ds.met.ReadIOs = prior.ReadIOs + st.ReadIOs
	ds.met.WriteIOs = prior.WriteIOs + st.WriteIOs
	ds.met.BlocksRead = prior.BlocksRead + st.BlocksRead
	ds.met.BlocksWrit = prior.BlocksWrit + st.BlocksWritten
	ds.met.PRAMTime = prior.PRAMTime + ds.cpu.Time()
	ds.met.PRAMWork = prior.PRAMWork + ds.cpu.Work()
	if peak := ds.arr.Mem.Peak(); peak > prior.MemPeak {
		ds.met.MemPeak = peak
	} else {
		ds.met.MemPeak = prior.MemPeak
	}
}

// baseCase reads the remaining records, sorts them internally, and writes
// them out as one striped segment (Algorithm 1's N <= M branch, with the
// memoryload as the threshold so one buffer fits alongside bookkeeping).
func (ds *DiskSorter) baseCase(src source) Region {
	n := src.Total()
	ds.arr.Mem.Use(n)
	recs := src.ReadSome(n)
	if len(recs) != n {
		panic(fmt.Sprintf("core: source yielded %d of %d records", len(recs), n))
	}
	ds.internalSort(recs)
	seg := ds.writeStriped(recs)
	ds.arr.Mem.Release(n)
	return seg
}

// writeStriped allocates a fresh aligned region and writes recs to it.
func (ds *DiskSorter) writeStriped(recs []record.Record) Region {
	p := ds.arr.Params()
	blocks := (len(recs) + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	off := ds.arr.AllocStripe(perDisk)
	ds.arr.WriteStripe(off, 0, recs)
	return Region{Off: off, N: len(recs)}
}

// formedBlock is a virtual block assembled in memory, waiting for the
// balancer to place it.
type formedBlock struct {
	bucket int
	recs   []record.Record // len <= VB; padded at write time
	count  int
}

// newBlock returns an empty block buffer with room for one virtual block,
// recycled from the blocks flushWrites has written when there is one.
func (ds *DiskSorter) newBlock() []record.Record {
	if k := len(ds.freeBlocks); k > 0 {
		blk := ds.freeBlocks[k-1]
		ds.freeBlocks = ds.freeBlocks[:k-1]
		return blk[:0]
	}
	return make([]record.Record, 0, ds.vd.VB())
}

// buckets is the bucket count of a distribution pass over n records: the
// configured S when set, else the size-aware fan-out. It depends only on n
// and the geometry, so a resumed sort recomputes it exactly.
func (ds *DiskSorter) buckets(n int) int {
	if ds.cfg.S > 0 {
		return max(2, ds.cfg.S)
	}
	return Fanout(n, ds.arr.Params(), ds.vd.VB())
}

// distribute is one pass of Algorithm 1's else-branch on the disk model:
// form sorted runs while sampling (phase 1), pick partition elements
// (phase 2), stream the runs through the balancer into per-bucket block
// chains (phase 3), and return the per-bucket descriptors (in bucket
// order) for the work-list to recurse into.
// pass is the enclosing distribute-pass span; the three phase spans are
// its children, so the trace shows the pass as a causal tree rather than
// four disjoint siblings.
func (ds *DiskSorter) distribute(pass obs.Active, src source, depth int) []SourceDesc {
	n := src.Total()
	ds.met.Passes++

	// --- Phase 1: memoryload runs + evenly spaced sampling ---------------
	phase1 := pass.Child("sort", "run-formation", 0)
	stride := (4*n + ds.arr.M() - 1) / ds.arr.M() // sample size <= M/4
	if stride < 4 {
		stride = 4
	}
	if stride > ds.memload {
		// Tiny-memory regime: the one-level stride would skip whole
		// memoryloads and leave the sample empty. Sample every load and
		// thin below instead (multi-level sampling).
		stride = ds.memload
	}
	sample := ds.sampleBuf[:0]
	var runs []Region
	// every is the interval between sampled runs: each thinning below
	// doubles it, so later runs are sampled as sparsely as the thinned
	// earlier ones and the sample stays spread over the whole input.
	every := 1
	for src.Total() > 0 {
		ds.checkCtx()
		want := ds.memload
		if t := src.Total(); t < want {
			want = t
		}
		ds.arr.Mem.Use(want)
		load := src.ReadSome(want)
		ds.internalSort(load)
		switch {
		case (len(runs)+1)%every != 0:
		case len(load) < 2*stride:
			// A run that yields one sample gives its median, not its
			// maximum: a sample of run maxima puts every pivot near the
			// top and can leave a pass without progress.
			sample = append(sample, load[len(load)/2])
			ds.arr.Mem.Use(1)
		default:
			for i := stride - 1; i < len(load); i += stride {
				sample = append(sample, load[i])
				ds.arr.Mem.Use(1)
			}
		}
		// Keep the sample within its M/4 budget: halve it whenever it
		// overflows. Thinning coarsens the pivots (buckets may exceed
		// 2N/S), which only deepens the recursion — correctness is
		// unaffected.
		for len(sample) > ds.arr.M()/4 {
			kept := sample[:0]
			for k := 1; k < len(sample); k += 2 {
				kept = append(kept, sample[k])
			}
			ds.arr.Mem.Release(len(sample) - len(kept))
			sample = kept
			every *= 2
		}
		runs = append(runs, ds.writeStriped(load))
		ds.arr.Mem.Release(want)
	}
	phase1.End(obs.Attr{Key: "runs", Val: int64(len(runs))}, obs.Attr{Key: "sample", Val: int64(len(sample))})

	// --- Phase 2: partition elements from the sample ---------------------
	phase2 := pass.Child("sort", "partition-elements", 0)
	ds.internalSort(sample)
	s := ds.buckets(n)
	pivots := make([]record.Record, 0, s-1)
	// A sample smaller than 2S would put the first pivot at index 0; if
	// that is the subproblem's minimum, bucket 0 is empty and the pass
	// splits less. With two or more samples, start at index 1.
	lo := min(1, len(sample)-1)
	for j := 1; j < s; j++ {
		idx := max(j*len(sample)/s-1, lo)
		if idx >= len(sample) {
			idx = len(sample) - 1
		}
		pivots = append(pivots, sample[idx])
	}
	ds.arr.Mem.Release(len(sample))
	ds.sampleBuf = sample[:0]
	ds.arr.Mem.Use(len(pivots))
	phase2.End(obs.Attr{Key: "pivots", Val: int64(len(pivots))})

	// --- Phase 3: balanced distribution into block chains ----------------
	phase3 := pass.Child("sort", "distribute-tracks", 0)
	h := ds.vd.V()
	vb := ds.vd.VB()
	pl := ds.newPlacer(phase3, s, h)
	matrixWords := 3 * s * h
	ds.arr.Mem.Use(matrixWords / 2) // X, A, L matrices; 2 words per record-equivalent

	buckets := make([]*chains, s)
	for b := range buckets {
		buckets[b] = newChains(h)
	}
	pools := make([][]record.Record, s)
	var pending, carried []formedBlock
	counts := make([]int, s)
	trackLabels := make([]int, h)

	// Records are charged against internal memory exactly once, when their
	// track is read; flushWrites releases a block's records when they reach
	// disk, so pools, pending blocks, and carried blocks stay charged for
	// as long as they are resident.
	placeTracks := func(final bool) {
		idle := 0
		for (len(pending) >= h) || (final && len(pending) > 0) {
			take := len(pending)
			if take > h {
				take = h
			}
			track := pending[:take]
			labels := trackLabels[:take]
			for i, fb := range track {
				labels[i] = fb.bucket
			}
			writes, carry := pl.placeTrack(labels)
			if len(writes) == 0 {
				idle++
				if idle > 10*h {
					panic("core: balancer made no progress on tail blocks")
				}
			} else {
				idle = 0
			}
			ds.flushWrites(track, writes, buckets)
			// The queue becomes the untouched blocks followed by the
			// carried ones, in place.
			carried = carried[:0]
			for _, c := range carry {
				carried = append(carried, track[c])
			}
			rest := copy(pending, pending[take:])
			pending = append(pending[:rest], carried...)
		}
	}

	trackRecs := h * vb
	for _, run := range runs {
		rsrc := newStripedSource(ds.arr, run.Off, run.N, &ds.trackBuf)
		for rsrc.Total() > 0 {
			ds.checkCtx()
			want := trackRecs
			if t := rsrc.Total(); t < want {
				want = t
			}
			ds.arr.Mem.Use(want)
			recs := rsrc.ReadSome(want)
			ds.cpu.ChargePartition(len(recs), len(pivots)+1)
			ds.cpu.ChargeScan(len(recs))
			pending = ds.poolTrack(recs, pivots, pools, counts, pending)
			placeTracks(false)
		}
	}

	// Flush leftovers as (possibly partial) blocks and drain the queue.
	for b, pool := range pools {
		if len(pool) > 0 {
			pending = append(pending, formedBlock{bucket: b, recs: pool, count: len(pool)})
			pools[b] = nil
		}
	}
	placeTracks(true)

	ds.arr.Mem.Release(len(pivots))
	ds.arr.Mem.Release(matrixWords / 2)

	// Bookkeeping for the paper's guarantees.
	bs := pl.stats()
	ds.met.Balance.Tracks += bs.Tracks
	ds.met.Balance.BlocksPlaced += bs.BlocksPlaced
	ds.met.Balance.BlocksCarried += bs.BlocksCarried
	ds.met.Balance.TwosIntroduced += bs.TwosIntroduced
	ds.met.Balance.RearrangeCalls += bs.RearrangeCalls
	ds.met.Balance.RearrangeMoves += bs.RearrangeMoves
	ds.met.Balance.MatchTime += bs.MatchTime
	ds.met.Balance.ExtraWriteSteps += bs.ExtraWriteSteps
	ds.cpu.Charge(0, bs.MatchTime)
	phase3.End(
		obs.Attr{Key: "buckets", Val: int64(s)},
		obs.Attr{Key: "tracks", Val: int64(bs.Tracks)},
		obs.Attr{Key: "carried", Val: int64(bs.BlocksCarried)},
	)

	for b := 0; b < s; b++ {
		if counts[b] > 0 {
			frac := float64(counts[b]) * float64(s) / float64(n)
			if frac > ds.met.MaxBucketFrac {
				ds.met.MaxBucketFrac = frac
			}
			if counts[b] >= n {
				panic(&StallError{Depth: depth, N: n})
			}
			opt := (buckets[b].total + h*vb - 1) / (h * vb)
			if opt > 0 {
				ratio := float64(buckets[b].rounds()) / float64(opt)
				if ratio > ds.met.MaxBucketReadRatio {
					ds.met.MaxBucketReadRatio = ratio
				}
			}
		}
	}

	// --- Emit bucket descriptors in order for the work-list --------------
	var kids []SourceDesc
	for b := 0; b < s; b++ {
		if buckets[b].total == 0 {
			continue
		}
		kids = append(kids, SourceDesc{Kind: KindChains, Depth: depth + 1, Chains: buckets[b].perDisk})
	}
	return kids
}

// poolTrack appends recs, a track of a sorted run, to the bucket pools
// and returns pending with every block that filled appended. Bucket b
// holds the records r with pivots[b-1] <= r < pivots[b], so a record equal
// to a pivot goes to the upper bucket, and in a sorted track each bucket's
// records form one stretch: a binary search finds where it ends against
// the next pivot, and copies of at most VB records move it into the pool.
// counts gains each stretch's length.
func (ds *DiskSorter) poolTrack(recs, pivots []record.Record, pools [][]record.Record, counts []int, pending []formedBlock) []formedBlock {
	vb := ds.vd.VB()
	for b := 0; len(recs) > 0; b++ {
		// The next record lies at or past pivots[b-1], so its bucket is b
		// plus the later pivots at most it: more than one when buckets are
		// empty in this track, as repeated pivots bound an empty bucket.
		b += bucketOf(recs[0], pivots[b:])
		end := len(recs)
		if b < len(pivots) {
			p := pivots[b]
			lo, hi := 1, len(recs) // recs[0] < p
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if recs[mid].Less(p) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			end = lo
		}
		stretch := recs[:end]
		recs = recs[end:]
		counts[b] += len(stretch)
		for len(stretch) > 0 {
			if pools[b] == nil {
				pools[b] = ds.newBlock()
			}
			k := min(vb-len(pools[b]), len(stretch))
			pools[b] = append(pools[b], stretch[:k]...)
			stretch = stretch[k:]
			if len(pools[b]) == vb {
				pending = append(pending, formedBlock{bucket: b, recs: pools[b], count: vb})
				pools[b] = nil
			}
		}
	}
	return pending
}

// flushWrites performs the parallel write I/Os for one track's placements,
// one ParallelVIO per balancer round, and records the chain entries. The
// stores copy every block before ParallelVIO returns, so each written
// block's buffer goes straight back to the free list.
func (ds *DiskSorter) flushWrites(track []formedBlock, writes []balance.Placement, buckets []*chains) {
	if len(writes) == 0 {
		return
	}
	maxRound := 0
	for _, w := range writes {
		if w.Round > maxRound {
			maxRound = w.Round
		}
	}
	vb := ds.vd.VB()
	ops := make([]pdm.VOp, 0, len(writes))
	for r := 0; r <= maxRound; r++ {
		ops = ops[:0]
		for _, w := range writes {
			if w.Round != r {
				continue
			}
			fb := track[w.Block]
			data := fb.recs[:vb] // every block buffer has room for VB records
			for i := len(fb.recs); i < vb; i++ {
				data[i] = record.Record{Key: ^uint64(0), Loc: ^uint64(0)}
			}
			off := ds.vd.Alloc(w.VDisk, 1)
			ops = append(ops, pdm.VOp{VDisk: w.VDisk, Off: off, Write: true, Data: data})
			buckets[fb.bucket].add(w.VDisk, off, fb.count)
			ds.arr.Mem.Release(fb.count)
		}
		ds.vd.ParallelVIO(ops)
		for _, op := range ops {
			ds.freeBlocks = append(ds.freeBlocks, op.Data)
		}
	}
}

// ReadRegion reads a striped segment back into memory (verification and
// facade use; counts I/Os like any other access).
func (ds *DiskSorter) ReadRegion(r Region) []record.Record {
	dst := make([]record.Record, r.N)
	ds.arr.ReadStripe(r.Off, 0, dst)
	return dst
}

// WriteInput stripes the given records onto the array and returns the
// region, for loading workloads before sorting.
func (ds *DiskSorter) WriteInput(recs []record.Record) Region {
	return ds.writeStriped(recs)
}

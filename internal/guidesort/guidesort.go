// Package guidesort implements Guidesort — the guided mergesort of
// Hagerup ("Guidesort: Simpler Optimal Deterministic Sorting for the
// Parallel Disk Model", PAPERS.md) — on the same simulated disk arrays the
// rest of this repository runs on.
//
// Plain striped merge sort keeps its reads full-width by treating the D
// disks as one logical disk of DB-record blocks, which collapses the merge
// arity from Θ(M/B) to Θ(M/(DB)) and costs the Θ(log(M/B)/log(M/DB))
// extra factor of experiment E11. Guidesort restores the high arity while
// staying deterministic and (mostly) full-width: while each sorted run is
// still in memory it records a sidecar of *block minima* (the first record
// of every B-record block), and before each merge it builds a **guide** —
// the merged, deterministically thinned sequence of all participating
// runs' block minima. The guide predicts, exactly and in advance, the
// order in which the merge will consume blocks, so a windowed prefetcher
// can stream one block per disk per I/O in guide order. A block that the
// merge demands before its scheduled fetch (possible only when the
// prefetch window is exhausted by skew) is demand-fetched with a
// single-block I/O, so progress is never blocked; the count of such
// fallbacks is reported in Metrics.DemandFetches.
//
// The phases map one-to-one onto the distribution-sort skeleton of the
// Nodine–Vitter paper this repository reproduces: run formation is the
// memoryload base case, the guide plays the role of the partitioning
// elements (a deterministically refined sample of the data that steers all
// data movement), and the guided merge is the distribution pass run in
// reverse — see DESIGN.md §5g.
//
// The sorter has first-class parity with the Balance Sort engine on every
// robustness axis: its complete state between commits is the serializable
// State (run formation and each merge are the commit points), it honors
// context cancellation and crash injection through the same core.Abort
// panic protocol, it charges every buffer against the array's MemTracker,
// and it traces its phases through the obs layer.
//
// With Config.Striped the same machinery degrades to the classic striped
// merge (arity M/(2DB), stripe-row reads, no guide) — the file-backed
// "stripedmerge" engine inherits journaling and resume for free.
package guidesort

import (
	"context"
	"fmt"
	"sort"

	"balancesort/internal/core"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// Config tunes one Guidesort instance.
type Config struct {
	// P is the PRAM processor count for internal-work accounting.
	P int
	// Striped switches to classic striped-merge behavior: arity M/(2DB),
	// sequential stripe-row reads, no guide and no minima sidecars.
	Striped bool
	// NoRadix sorts memoryloads with the comparison sort instead of the
	// LSD radix sort (the radix base case is the default).
	NoRadix bool
	// Context, when non-nil, cancels the sort between memoryloads, fetch
	// rounds, and output flushes (panics core.Abort, like the core sorter).
	Context context.Context
	// Checkpoint, when non-nil, is called with the complete resumable
	// state after every formed run and every completed merge.
	Checkpoint func(State) error
	// CrashAfterCommits > 0 injects a crash immediately before the k-th
	// Checkpoint call (the recovery tests' kill switch).
	CrashAfterCommits int
	// Trace receives phase spans; nil is a no-op.
	Trace *obs.Tracer
}

// Run is one sorted run on the array: N records striped at block offset
// Off, plus (in guided mode) a sidecar region holding its block minima so
// a resumed sort never rescans the run to rebuild a guide.
type Run struct {
	Off   int `json:"off"`
	N     int `json:"n"`
	Level int `json:"level"`
	// MinOff/MinN locate the block-minima sidecar (MinN = ceil(N/B)
	// records). Zero MinN means no sidecar (striped mode, or the final
	// merge's output, which no later merge will consume).
	MinOff int `json:"min_off,omitempty"`
	MinN   int `json:"min_n,omitempty"`
}

// State is the complete resumable state of a sort between commits: which
// prefix of the input region has been formed into runs, and the pending
// run queue (merges consume from the front and append at the back).
type State struct {
	InputOff int     `json:"input_off"`
	InputN   int     `json:"input_n"`
	InputPos int     `json:"input_pos"`
	Runs     []Run   `json:"runs"`
	Metrics  Metrics `json:"metrics"`
}

// Metrics reports what one sort did, in model units. Counters are
// cumulative across crash/resume (the checkpointed values are the prior).
type Metrics struct {
	N          int   `json:"n"`
	IOs        int64 `json:"ios"`
	ReadIOs    int64 `json:"read_ios"`
	WriteIOs   int64 `json:"write_ios"`
	BlocksRead int64 `json:"blocks_read"`
	BlocksWrit int64 `json:"blocks_writ"`

	PRAMTime float64 `json:"pram_time"`
	PRAMWork float64 `json:"pram_work"`

	// Passes counts completed merge operations; Depth is the deepest merge
	// level (0 = the input fit in one memoryload).
	Passes int `json:"passes"`
	Depth  int `json:"depth"`
	// MergeArity is the configured maximum merge fan-in.
	MergeArity int `json:"merge_arity"`
	// GuidePeak is the largest guide built (entries, after thinning).
	GuidePeak int `json:"guide_peak"`
	// DemandFetches counts blocks the merge needed before their scheduled
	// prefetch — each one is a lone, sub-full-width I/O.
	DemandFetches int64 `json:"demand_fetches"`
	MemPeak       int   `json:"mem_peak"`
}

// Sorter runs Guidesort on one array. Not safe for concurrent use.
type Sorter struct {
	arr *pdm.Array
	cpu *pram.Machine
	cfg Config

	memload  int // records per formation memoryload
	arity    int // max merge fan-in
	window   int // prefetch cache capacity in blocks (guided mode)
	guideCap int // max guide entries before thinning (guided mode)

	met     Metrics
	prior   Metrics
	commits int

	// Reused buffers: the op list of one parallel I/O, one block for a
	// partial last block (sentinel-padded on writes), the formation
	// memoryload, and the striped merge's per-run stripe rows. Full blocks
	// move as subslices of the caller's buffer, since every store copies
	// Op.Data before ParallelIO returns.
	ops  []pdm.Op
	pad  []record.Record
	load []record.Record
	rows [][]record.Record
}

// NewSorter builds a sorter for the array. Requires 4·D·B ≤ M (the same
// headroom rule as the core sorter: buffers for every phase must coexist).
func NewSorter(arr *pdm.Array, cfg Config) *Sorter {
	p := arr.Params()
	if 4*p.D*p.B > p.M {
		panic(fmt.Sprintf("guidesort: DB = %d needs M >= %d (got %d)", p.D*p.B, 4*p.D*p.B, p.M))
	}
	if cfg.P < 1 {
		cfg.P = 1
	}
	s := &Sorter{arr: arr, cpu: pram.New(cfg.P), cfg: cfg}
	s.ops = make([]pdm.Op, 0, p.D)
	s.pad = make([]record.Record, p.B)
	s.memload = (p.M / 2 / p.B) * p.B
	if !cfg.Striped && !GuidedFits(p) {
		// M is too small to host the guide, the prefetch cache, and the
		// merge buffers side by side; degrade to the striped discipline
		// (always affordable given 4·D·B ≤ M).
		s.cfg.Striped = true
	}
	if s.cfg.Striped {
		// One stripe-row buffer (DB records) per run plus the output row.
		s.arity = p.M / (2 * p.D * p.B)
	} else {
		s.arity, s.window, s.guideCap = guidedBudget(p)
	}
	if s.arity < 2 {
		s.arity = 2
	}
	s.met.MergeArity = s.arity
	return s
}

// guidedBudget sizes the guided merge's residents: the fan-in (one current
// block per run), the prefetch cache, and the guide, targeting M/8 of
// memory each and leaving room for the output row (DB), the minima buffer
// (B), and the guide's per-run rounding slack (one entry per run).
func guidedBudget(p pdm.Params) (arity, window, guideCap int) {
	arity = p.M / (8 * p.B)
	if arity < 2 {
		arity = 2
	}
	window = p.M / (8 * p.B)
	if window < 1 {
		window = 1
	}
	guideCap = p.M / 8
	if guideCap < 8 {
		guideCap = 8
	}
	return arity, window, guideCap
}

// GuidedFits reports whether the guided merge's worst-case residents fit
// in M for this geometry. When false, NewSorter (and the planner) fall
// back to the striped discipline.
func GuidedFits(p pdm.Params) bool {
	arity, window, guideCap := guidedBudget(p)
	need := arity*p.B + window*p.B + p.D*p.B + p.B + guideCap + arity
	return need <= p.M
}

// Metrics returns the cumulative metrics of the last Sort/Resume call.
func (s *Sorter) Metrics() Metrics { return s.met }

// Sort sorts the n records striped at block offset off and returns the
// output region. The input region is left intact.
func (s *Sorter) Sort(off, n int) core.Region {
	return s.Resume(State{InputOff: off, InputN: n, Metrics: Metrics{N: n, MergeArity: s.arity}})
}

// Resume continues a sort from a checkpointed State (or starts one, given
// a fresh State). Run formation finishes first, then the run queue merges
// down to a single region; a commit lands after every step.
func (s *Sorter) Resume(st State) core.Region {
	s.prior = st.Metrics
	s.prior.MergeArity = s.arity
	s.met = s.prior
	s.arr.ResetStats()
	s.cpu.Reset()
	s.commits = 0

	runs := append([]Run(nil), st.Runs...)

	// Phase 1: run formation over the unformed suffix of the input.
	for st.InputPos < st.InputN {
		s.checkCtx()
		want := s.memload
		if st.InputN-st.InputPos < want {
			want = st.InputN - st.InputPos
		}
		sp := s.cfg.Trace.Begin("sort", "guide-run-formation", 0)
		run := s.formRun(st.InputOff, st.InputPos, want)
		sp.End(obs.Attr{Key: "n", Val: int64(want)})
		runs = append(runs, run)
		st.InputPos += want
		st.Runs = runs
		s.commit(&st)
	}

	// Phase 2: merge the run queue front-to-back until one run remains.
	for len(runs) > 1 {
		s.checkCtx()
		k := s.arity
		if k > len(runs) {
			k = len(runs)
		}
		group := runs[:k]
		final := k == len(runs) // the final merge's output needs no sidecar
		sp := s.cfg.Trace.Begin("sort", s.mergeSpanName(), 0)
		merged := s.merge(sp, group, final)
		sp.End(obs.Attr{Key: "n", Val: int64(merged.N)}, obs.Attr{Key: "arity", Val: int64(k)})
		runs = append(append([]Run(nil), runs[k:]...), merged)
		s.met.Passes++
		if merged.Level > s.met.Depth {
			s.met.Depth = merged.Level
		}
		st.Runs = runs
		s.commit(&st)
	}

	s.refreshMetrics()
	if len(runs) == 0 {
		return core.Region{}
	}
	return core.Region{Off: runs[0].Off, N: runs[0].N}
}

func (s *Sorter) mergeSpanName() string {
	if s.cfg.Striped {
		return "striped-merge"
	}
	return "guided-merge"
}

// checkCtx panics a core.Abort if the configured context is done.
func (s *Sorter) checkCtx() {
	if s.cfg.Context == nil {
		return
	}
	if err := s.cfg.Context.Err(); err != nil {
		panic(core.Abort{Err: err})
	}
}

// commit refreshes the cumulative metrics and lands one checkpoint,
// injecting the configured crash immediately before the k-th commit.
func (s *Sorter) commit(st *State) {
	s.refreshMetrics()
	st.Metrics = s.met
	s.commits++
	if s.cfg.CrashAfterCommits > 0 && s.commits == s.cfg.CrashAfterCommits {
		panic(core.Abort{Err: core.ErrInjectedCrash})
	}
	if s.cfg.Checkpoint != nil {
		if err := s.cfg.Checkpoint(*st); err != nil {
			panic(core.Abort{Err: err})
		}
	}
}

// refreshMetrics folds this run's counters on top of the checkpointed
// prior ones, so Metrics stays cumulative across crash/resume.
func (s *Sorter) refreshMetrics() {
	st := s.arr.Stats()
	s.met.IOs = s.prior.IOs + st.IOs
	s.met.ReadIOs = s.prior.ReadIOs + st.ReadIOs
	s.met.WriteIOs = s.prior.WriteIOs + st.WriteIOs
	s.met.BlocksRead = s.prior.BlocksRead + st.BlocksRead
	s.met.BlocksWrit = s.prior.BlocksWrit + st.BlocksWritten
	s.met.PRAMTime = s.prior.PRAMTime + s.cpu.Time()
	s.met.PRAMWork = s.prior.PRAMWork + s.cpu.Work()
	if peak := s.arr.Mem.Peak(); peak > s.prior.MemPeak {
		s.met.MemPeak = peak
	} else {
		s.met.MemPeak = s.prior.MemPeak
	}
}

// internalSort sorts one memoryload with the configured base case.
func (s *Sorter) internalSort(rs []record.Record) {
	if s.cfg.NoRadix {
		s.cpu.Sort(rs)
		return
	}
	s.cpu.SortRadix(rs)
}

// formRun reads want records at record index pos of the input region,
// sorts them in memory, and writes them back as a fresh level-0 run with
// (in guided mode) its block-minima sidecar.
func (s *Sorter) formRun(inOff, pos, want int) Run {
	p := s.arr.Params()
	s.arr.Mem.Use(want)
	if cap(s.load) < want {
		s.load = make([]record.Record, s.memload)
	}
	buf := s.load[:want]
	s.readAligned(inOff, pos, buf)
	s.internalSort(buf)
	outOff := s.allocStripe(want)
	s.writeAligned(outOff, 0, buf)
	run := Run{Off: outOff, N: want}
	if !s.cfg.Striped {
		nmins := (want + p.B - 1) / p.B
		s.arr.Mem.Use(nmins)
		mins := make([]record.Record, 0, nmins)
		for k := 0; k < want; k += p.B {
			mins = append(mins, buf[k])
		}
		minOff := s.allocStripe(len(mins))
		s.writeAligned(minOff, 0, mins)
		run.MinOff, run.MinN = minOff, len(mins)
		s.arr.Mem.Release(nmins)
	}
	s.arr.Mem.Release(want)
	return run
}

// merge merges the group of runs into one fresh run. The output gets a
// block-minima sidecar unless final (no later merge will consume it).
// parent is the enclosing merge span; sub-phase spans (guide-build) are
// recorded as its children.
func (s *Sorter) merge(parent obs.Active, group []Run, final bool) Run {
	total := 0
	level := 0
	for _, r := range group {
		total += r.N
		if r.Level >= level {
			level = r.Level + 1
		}
	}
	if s.cfg.Striped {
		return s.mergeStriped(group, total, level)
	}
	return s.mergeGuided(parent, group, total, level, final)
}

// ---------------------------------------------------------------------------
// Guided merge.

// gEnt is one guide entry: the minimum record of a span of `span`
// consecutive blocks of run `run` starting at block index `block`. With no
// thinning every span is 1 block; thinning doubles spans until the guide
// fits its memory budget.
type gEnt struct {
	key   record.Record
	run   int32
	block int32
	span  int32
}

// blockKey packs (run, block) into a map key.
func blockKey(run, block int) int64 { return int64(run)<<32 | int64(block) }

// gCursor walks the guide in order, restricted to one disk: nextFor
// yields the next not-yet-fetched block of the guide sequence that lives
// on disk d. Each disk owns an independent cursor.
type gCursor struct {
	gi, so int
}

func (s *Sorter) mergeGuided(parent obs.Active, group []Run, total, level int, final bool) Run {
	p := s.arr.Params()

	// Build the guide from the runs' minima sidecars, thinned so it fits
	// guideCap. Thinning keeps every thin-th minimum per run; a kept entry
	// then guides a span of thin blocks.
	sp := parent.Child("sort", "guide-build", 0)
	totalBlocks := 0
	nblocks := make([]int, len(group))
	for i, r := range group {
		nblocks[i] = (r.N + p.B - 1) / p.B
		totalBlocks += nblocks[i]
	}
	thin := 1
	for totalBlocks/thin > s.guideCap {
		thin *= 2
	}
	guide := make([]gEnt, 0, totalBlocks/thin+len(group))
	chunk := p.D * p.B
	s.arr.Mem.Use(chunk)
	minbuf := make([]record.Record, chunk)
	charged := 0
	for i, r := range group {
		if r.MinN != nblocks[i] {
			panic(fmt.Sprintf("guidesort: run %d has %d minima for %d blocks", i, r.MinN, nblocks[i]))
		}
		for pos := 0; pos < r.MinN; pos += chunk {
			s.checkCtx()
			m := chunk
			if r.MinN-pos < m {
				m = r.MinN - pos
			}
			s.readAligned(r.MinOff, pos, minbuf[:m])
			for j := 0; j < m; j++ {
				if (pos+j)%thin == 0 {
					span := thin
					if r.MinN-(pos+j) < span {
						span = r.MinN - (pos + j)
					}
					guide = append(guide, gEnt{key: minbuf[j], run: int32(i), block: int32(pos + j), span: int32(span)})
				}
			}
		}
		if add := len(guide) - charged; add > 0 {
			s.arr.Mem.Use(add)
			charged = len(guide)
		}
	}
	s.arr.Mem.Release(chunk)
	// Sort the guide by (key, run, block). Runs' minima are already sorted
	// internally; ties across runs break by (run, block) so the schedule
	// is deterministic and matches the merge's own tie-breaking closely.
	sort.Slice(guide, func(a, b int) bool {
		ga, gb := guide[a], guide[b]
		if c := ga.key.Compare(gb.key); c != 0 {
			return c < 0
		}
		if ga.run != gb.run {
			return ga.run < gb.run
		}
		return ga.block < gb.block
	})
	s.cpu.ChargeSort(len(guide))
	if len(guide) > s.met.GuidePeak {
		s.met.GuidePeak = len(guide)
	}
	sp.End(obs.Attr{Key: "entries", Val: int64(len(guide))}, obs.Attr{Key: "thin", Val: int64(thin)})

	// Fixed memory budget for the merge residents: one current block per
	// run, the prefetch cache, the output row, and the one-block minima
	// buffer (minima trickle in at one record per B output records, so a
	// single-block buffer costs only rare lone write I/Os).
	resident := len(group)*p.B + s.window*p.B + p.D*p.B
	if !final {
		resident += p.B
	}
	s.arr.Mem.Use(resident)

	// Prefetch machinery: per-disk guide cursors, the block cache, and the
	// fetched set (a block is fetched at most once, by schedule or demand).
	cursors := make([]gCursor, p.D)
	cache := make(map[int64][]record.Record)
	fetched := make(map[int64]bool)
	cached := 0

	// nextFor advances disk d's guide cursor to its next unfetched block.
	nextFor := func(d int) (run, block int, ok bool) {
		c := &cursors[d]
		for c.gi < len(guide) {
			e := guide[c.gi]
			if c.so >= int(e.span) {
				c.gi++
				c.so = 0
				continue
			}
			b := int(e.block) + c.so
			c.so++
			if b%p.D != d || fetched[blockKey(int(e.run), b)] {
				continue
			}
			return int(e.run), b, true
		}
		return 0, 0, false
	}

	// blockData trims a raw block to the records it actually holds (the
	// last block of a run is sentinel-padded on disk).
	blockCount := func(run, b int) int {
		n := group[run].N - b*p.B
		if n > p.B {
			n = p.B
		}
		return n
	}

	// fetchRound issues one parallel I/O: each disk with cache headroom
	// fetches the next block of its guide schedule. Returns false when no
	// disk had both headroom and a schedulable block.
	type pend struct {
		run, block int
		buf        []record.Record
	}
	fetchRound := func() bool {
		s.checkCtx()
		var ops []pdm.Op
		var pends []pend
		for d := 0; d < p.D; d++ {
			if cached+len(ops) >= s.window {
				break
			}
			run, b, ok := nextFor(d)
			if !ok {
				continue
			}
			buf := make([]record.Record, p.B)
			ops = append(ops, pdm.Op{Disk: d, Off: group[run].Off + b/p.D, Data: buf})
			fetched[blockKey(run, b)] = true
			pends = append(pends, pend{run, b, buf})
		}
		if len(ops) == 0 {
			return false
		}
		s.arr.ParallelIO(ops)
		for _, pe := range pends {
			cache[blockKey(pe.run, pe.block)] = pe.buf[:blockCount(pe.run, pe.block)]
		}
		cached += len(pends)
		return true
	}

	// Per-run consumption cursors.
	type runCur struct {
		next int // next block index to consume
		buf  []record.Record
	}
	curs := make([]runCur, len(group))

	// needBlock loads run i's next block into its cursor: from the cache
	// if prefetched, else by driving fetch rounds until it lands, else by
	// a single-block demand fetch once the window is saturated.
	needBlock := func(i int) bool {
		c := &curs[i]
		if c.next >= nblocks[i] {
			return false
		}
		k := blockKey(i, c.next)
		for {
			if data, ok := cache[k]; ok {
				delete(cache, k)
				cached--
				c.buf = data
				c.next++
				return true
			}
			if cached >= s.window || !fetchRound() {
				// Demand fetch straight into the cursor slot.
				s.checkCtx()
				b := c.next
				buf := make([]record.Record, p.B)
				s.arr.ParallelIO([]pdm.Op{{Disk: b % p.D, Off: group[i].Off + b/p.D, Data: buf}})
				fetched[k] = true
				c.buf = buf[:blockCount(i, b)]
				c.next++
				s.met.DemandFetches++
				return true
			}
		}
	}

	// The merge proper, streaming into the output region (and, unless
	// final, the output's own minima sidecar).
	out := s.newRegionWriter(total, p.D)
	var mins *regionWriter
	if !final {
		mins = s.newRegionWriter((total+p.B-1)/p.B, 1)
	}
	var h mergeHeap
	for i := range curs {
		if needBlock(i) {
			h = append(h, mergeItem{rec: curs[i].buf[0], run: i})
			curs[i].buf = curs[i].buf[1:]
		}
	}
	h.init()
	written := 0
	for len(h) > 0 {
		it := h[0]
		if mins != nil && written%p.B == 0 {
			mins.add(it.rec)
		}
		out.add(it.rec)
		written++
		c := &curs[it.run]
		if len(c.buf) == 0 {
			needBlock(it.run)
		}
		if len(c.buf) > 0 {
			h[0] = mergeItem{rec: c.buf[0], run: it.run}
			c.buf = c.buf[1:]
			h.down(0)
		} else {
			h.pop()
		}
	}
	out.close()
	if written != total {
		panic(fmt.Sprintf("guidesort: merged %d of %d records", written, total))
	}
	s.cpu.ChargeMerge(total)
	s.cpu.ChargePartition(total, len(group))

	run := Run{Off: out.off, N: total, Level: level}
	if mins != nil {
		mins.close()
		run.MinOff, run.MinN = mins.off, mins.n
	}
	s.arr.Mem.Release(resident)
	s.arr.Mem.Release(charged)
	return run
}

// ---------------------------------------------------------------------------
// Striped merge (the no-guide degradation; arity M/(2DB)).

func (s *Sorter) mergeStriped(group []Run, total, level int) Run {
	p := s.arr.Params()
	row := p.D * p.B
	resident := len(group)*row + row // one stripe row per run + output row
	s.arr.Mem.Use(resident)

	type runCur struct {
		pos int
		buf []record.Record
	}
	curs := make([]runCur, len(group))
	for len(s.rows) < len(group) {
		s.rows = append(s.rows, make([]record.Record, row))
	}
	refill := func(i int) bool {
		c := &curs[i]
		if c.pos >= group[i].N {
			return false
		}
		want := row
		if group[i].N-c.pos < want {
			want = group[i].N - c.pos
		}
		s.checkCtx()
		buf := s.rows[i][:want]
		s.readAligned(group[i].Off, c.pos, buf)
		c.pos += want
		c.buf = buf
		return true
	}

	out := s.newRegionWriter(total, p.D)
	var h mergeHeap
	for i := range curs {
		if refill(i) {
			h = append(h, mergeItem{rec: curs[i].buf[0], run: i})
			curs[i].buf = curs[i].buf[1:]
		}
	}
	h.init()
	written := 0
	for len(h) > 0 {
		it := h[0]
		out.add(it.rec)
		written++
		c := &curs[it.run]
		if len(c.buf) == 0 {
			refill(it.run)
		}
		if len(c.buf) > 0 {
			h[0] = mergeItem{rec: c.buf[0], run: it.run}
			c.buf = c.buf[1:]
			h.down(0)
		} else {
			h.pop()
		}
	}
	out.close()
	if written != total {
		panic(fmt.Sprintf("guidesort: striped-merged %d of %d records", written, total))
	}
	s.cpu.ChargeMerge(total)
	s.cpu.ChargePartition(total, len(group))
	s.arr.Mem.Release(resident)
	return Run{Off: out.off, N: total, Level: level}
}

// ---------------------------------------------------------------------------
// Shared plumbing.

type mergeItem struct {
	rec record.Record
	run int
}

// mergeHeap is a binary min-heap of run heads ordered by record.
type mergeHeap []mergeItem

func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down restores the heap order below position i.
func (h mergeHeap) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].rec.Less(h[j].rec) {
			j = r
		}
		if !h[j].rec.Less(h[i].rec) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// pop removes the minimum.
func (h *mergeHeap) pop() {
	last := len(*h) - 1
	(*h)[0] = (*h)[last]
	*h = (*h)[:last]
	h.down(0)
}

// allocStripe allocates a striped region for n records.
func (s *Sorter) allocStripe(n int) int {
	p := s.arr.Params()
	blocks := (n + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	if perDisk == 0 {
		perDisk = 1
	}
	return s.arr.AllocStripe(perDisk)
}

// readAligned reads buf's worth of records starting at record index pos of
// the striped region at block offset off, full-width. pos must be a
// multiple of B. Full blocks land straight in buf; only a partial last
// block goes through the reused pad block.
func (s *Sorter) readAligned(off, pos int, buf []record.Record) {
	p := s.arr.Params()
	if pos%p.B != 0 {
		panic("guidesort: unaligned region read")
	}
	first := pos / p.B
	nblocks := (len(buf) + p.B - 1) / p.B
	for base := 0; base < nblocks; base += p.D {
		ops := s.ops[:0]
		tail := -1
		for j := 0; j < p.D && base+j < nblocks; j++ {
			blk := first + base + j
			lo := (base + j) * p.B
			dst := buf[lo:min(lo+p.B, len(buf))]
			if len(dst) < p.B {
				dst, tail = s.pad, lo
			}
			ops = append(ops, pdm.Op{Disk: blk % p.D, Off: off + blk/p.D, Data: dst})
		}
		s.arr.ParallelIO(ops)
		if tail >= 0 {
			copy(buf[tail:], s.pad)
		}
	}
}

// writeAligned writes buf starting at record index pos of the striped
// region at block offset off, full-width, sentinel-padding the last
// partial block. pos must be a multiple of B.
func (s *Sorter) writeAligned(off, pos int, buf []record.Record) {
	p := s.arr.Params()
	if pos%p.B != 0 {
		panic("guidesort: unaligned region write")
	}
	first := pos / p.B
	nblocks := (len(buf) + p.B - 1) / p.B
	for base := 0; base < nblocks; base += p.D {
		ops := s.ops[:0]
		for j := 0; j < p.D && base+j < nblocks; j++ {
			blk := first + base + j
			lo := (base + j) * p.B
			ops = append(ops, pdm.Op{Disk: blk % p.D, Off: off + blk/p.D, Write: true, Data: s.block(buf[lo:min(lo+p.B, len(buf))])})
		}
		s.arr.ParallelIO(ops)
	}
}

// block returns recs as a whole block to write: recs itself when full,
// else recs copied into the reused pad block and sentinel-padded.
func (s *Sorter) block(recs []record.Record) []record.Record {
	if len(recs) == len(s.pad) {
		return recs
	}
	for k := copy(s.pad, recs); k < len(s.pad); k++ {
		s.pad[k] = record.Record{Key: ^uint64(0), Loc: ^uint64(0)}
	}
	return s.pad
}

// regionWriter streams records into a fresh striped region, flushing
// rowBlocks blocks per parallel I/O (D for full-width output, 1 for the
// trickling minima sidecar).
type regionWriter struct {
	s         *Sorter
	off       int
	blk       int
	n         int
	row       int
	rowBlocks int
	buf       []record.Record
}

func (s *Sorter) newRegionWriter(capacity, rowBlocks int) *regionWriter {
	p := s.arr.Params()
	row := rowBlocks * p.B
	return &regionWriter{s: s, off: s.allocStripe(capacity), row: row, rowBlocks: rowBlocks, buf: make([]record.Record, 0, row)}
}

func (w *regionWriter) add(r record.Record) {
	w.buf = append(w.buf, r)
	w.n++
	if len(w.buf) >= w.row {
		w.flush(false)
	}
}

// flush writes out full stripe rows (every buffered record when force,
// sentinel-padding the final partial block) and compacts the buffer.
func (w *regionWriter) flush(force bool) {
	p := w.s.arr.Params()
	pos := 0
	for len(w.buf)-pos >= p.B || (force && len(w.buf) > pos) {
		ops := w.s.ops[:0]
		for j := 0; j < w.rowBlocks && len(w.buf) > pos; j++ {
			take := min(p.B, len(w.buf)-pos)
			if take < p.B && !force {
				break
			}
			blk := w.s.block(w.buf[pos : pos+take])
			pos += take
			ops = append(ops, pdm.Op{Disk: w.blk % p.D, Off: w.off + w.blk/p.D, Write: true, Data: blk})
			w.blk++
		}
		if len(ops) == 0 {
			break
		}
		w.s.arr.ParallelIO(ops)
	}
	w.buf = w.buf[:copy(w.buf, w.buf[pos:])]
}

func (w *regionWriter) close() { w.flush(true) }

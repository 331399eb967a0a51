// Package guidesort is the stripedmerge engine: merge sort over the D
// disks striped as one logical disk of DB-record blocks, on the same
// simulated disk arrays the rest of this repository runs on. Run formation
// sorts M/2-record memoryloads in memory and writes each as a striped run;
// merges of up to M/(2DB) runs then read and write whole stripe rows, so
// every parallel I/O is full-width. A memoryload moves in one striped
// transfer, a merge's output collects in the idle formation buffer, and a
// merge refills each run with its share of the other M/2 records, so each
// of them moves in one device call. The narrow fan-in
// costs the Θ(log(M/B)/log(M/DB)) extra factor of experiment E11. The
// package and its run-formation span keep the name of Hagerup's guided
// merge, which issued more parallel I/Os than this merge at every geometry
// probed and was removed (DESIGN.md §5g).
//
// The sorter has first-class parity with the Balance Sort engine on every
// robustness axis: its complete state between commits is the serializable
// State (run formation and each merge are the commit points), it honors
// context cancellation and crash injection through the same core.Abort
// panic protocol, it charges every buffer against the array's MemTracker,
// and it traces its phases through the obs layer.
package guidesort

import (
	"context"
	"fmt"

	"balancesort/internal/core"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// Config tunes one sorter.
type Config struct {
	// P is the PRAM processor count for internal-work accounting.
	P int
	// NoRadix sorts memoryloads with the comparison sort instead of the
	// radix sort (the radix base case is the default).
	NoRadix bool
	// Context, when non-nil, cancels the sort between memoryloads and
	// stripe-row reads (panics core.Abort, like the core sorter).
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
// Off.
type Run struct {
	Off   int `json:"off"`
	N     int `json:"n"`
	Level int `json:"level"`
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
	MemPeak    int `json:"mem_peak"`
}

// Sorter runs the striped merge sort on one array. Not safe for
// concurrent use.
type Sorter struct {
	arr *pdm.Array
	cpu *pram.Machine
	cfg Config

	memload int // records per formation memoryload
	arity   int // max merge fan-in

	met     Metrics
	prior   Metrics
	commits int

	// The formation memoryload, which the merges take as their output
	// buffer once the runs are formed.
	load []record.Record
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
	s.memload = (p.M / 2 / p.B) * p.B
	// One stripe-row buffer (DB records) per run, at most M/2 in all, beside
	// an output buffer of at most a memoryload.
	s.arity = p.M / (2 * p.D * p.B)
	if s.arity < 2 {
		s.arity = 2
	}
	s.met.MergeArity = s.arity
	return s
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
		sp := s.cfg.Trace.Begin("sort", "striped-merge", 0)
		merged := s.merge(runs[:k])
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
// sorts them in memory, and writes them back as a fresh level-0 run.
func (s *Sorter) formRun(inOff, pos, want int) Run {
	s.arr.Mem.Use(want)
	buf := s.loadBuf()[:want]
	s.readAligned(inOff, pos, buf)
	s.internalSort(buf)
	outOff := s.allocStripe(want)
	s.arr.WriteStripe(outOff, 0, buf)
	s.arr.Mem.Release(want)
	return Run{Off: outOff, N: want}
}

// loadBuf returns the formation buffer, a memoryload long.
func (s *Sorter) loadBuf() []record.Record {
	if s.load == nil {
		s.load = make([]record.Record, s.memload)
	}
	return s.load
}

// merge merges the group of g runs into one fresh run, writing full
// stripe rows through the output buffer. Each run gets an equal share of
// the M/2 records beside that buffer, ⌊M/(2·DB·g)⌋ stripe rows and at
// least one, and a refill reads a run's share in one striped transfer:
// one device call, charged one parallel I/O per row as a row-at-a-time
// refill is. The shares live in a pooled radix buffer,
// which merges leave idle.
func (s *Sorter) merge(group []Run) Run {
	total := 0
	level := 0
	for _, r := range group {
		total += r.N
		if r.Level >= level {
			level = r.Level + 1
		}
	}
	p := s.arr.Params()
	share := max(1, p.M/(2*p.D*p.B*len(group))) * p.D * p.B
	out := s.newRegionWriter(total)
	resident := len(group)*share + cap(out.buf) // ≤ M/2 + M/2
	s.arr.Mem.Use(resident)
	shares := pram.TakeBuffer(len(group) * share)
	defer shares.Release()
	bufs := shares.Records()

	type runCur struct {
		pos int
		buf []record.Record
	}
	curs := make([]runCur, len(group))
	refill := func(i int) bool {
		c := &curs[i]
		if c.pos >= group[i].N {
			return false
		}
		want := min(share, group[i].N-c.pos)
		s.checkCtx()
		buf := bufs[i*share : i*share+want]
		s.readAligned(group[i].Off, c.pos, buf)
		c.pos += want
		c.buf = buf
		return true
	}

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
		if len(c.buf) == 0 && !refill(it.run) {
			h.pop()
			continue
		}
		// The winner keeps the lead while the best other head, h[j], does
		// not precede its next record. That is down's own test, so a streak
		// ends exactly where a sift would hand the lead over, and it goes
		// out in one copy.
		j := h.minChild(0)
		if j < 0 || !h[j].rec.Less(c.buf[0]) {
			for {
				n := 1
				if j < 0 {
					n = len(c.buf)
				}
				for n < len(c.buf) && !h[j].rec.Less(c.buf[n]) {
					n++
				}
				out.addRun(c.buf[:n])
				written += n
				c.buf = c.buf[n:]
				if len(c.buf) > 0 || !refill(it.run) || j >= 0 && h[j].rec.Less(c.buf[0]) {
					break
				}
			}
			if len(c.buf) == 0 {
				h.pop()
				continue
			}
		}
		// h[j] precedes the run's next record: the sift's first swap.
		h[0], h[j] = h[j], mergeItem{rec: c.buf[0], run: it.run}
		c.buf = c.buf[1:]
		h.down(j)
	}
	out.close()
	if written != total {
		panic(fmt.Sprintf("guidesort: merged %d of %d records", written, total))
	}
	s.cpu.ChargeMerge(total)
	s.cpu.ChargePartition(total, len(group))
	s.arr.Mem.Release(resident)
	return Run{Off: out.off, N: total, Level: level}
}

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

// minChild returns the child of i that down would swap i with, or -1 if
// i has none.
func (h mergeHeap) minChild(i int) int {
	j := 2*i + 1
	if j >= len(h) {
		return -1
	}
	if r := j + 1; r < len(h) && h[r].rec.Less(h[j].rec) {
		j = r
	}
	return j
}

// down restores the heap order below position i.
func (h mergeHeap) down(i int) {
	for {
		j := h.minChild(i)
		if j < 0 || !h[j].rec.Less(h[i].rec) {
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
// multiple of B.
func (s *Sorter) readAligned(off, pos int, buf []record.Record) {
	b := s.arr.B()
	if pos%b != 0 {
		panic("guidesort: unaligned region read")
	}
	s.arr.ReadStripe(off, pos/b, buf)
}

// regionWriter streams records into a fresh striped region through the
// sorter's formation buffer, cut to whole stripe rows: each flush writes
// what it holds in one striped transfer, so the rows go out full-width,
// and only the final flush may end in a partial row.
type regionWriter struct {
	arr *pdm.Array
	off int
	blk int // blocks written so far
	buf []record.Record
}

func (s *Sorter) newRegionWriter(capacity int) regionWriter {
	row := s.arr.D() * s.arr.B()
	return regionWriter{arr: s.arr, off: s.allocStripe(capacity), buf: s.loadBuf()[: 0 : s.memload/row*row]}
}

func (w *regionWriter) add(r record.Record) {
	w.buf = append(w.buf, r)
	if len(w.buf) == cap(w.buf) {
		w.flush()
	}
}

// addRun adds rs in order, flushing each time the buffer fills, at the
// same records as one add per record would.
func (w *regionWriter) addRun(rs []record.Record) {
	for len(rs) > 0 {
		k := copy(w.buf[len(w.buf):cap(w.buf)], rs)
		w.buf = w.buf[:len(w.buf)+k]
		rs = rs[k:]
		if len(w.buf) == cap(w.buf) {
			w.flush()
		}
	}
}

// flush writes the buffered records as the region's next blocks,
// sentinel-padding a partial last block, and empties the buffer.
func (w *regionWriter) flush() {
	w.arr.WriteStripe(w.off, w.blk, w.buf)
	w.blk += (len(w.buf) + w.arr.B() - 1) / w.arr.B()
	w.buf = w.buf[:0]
}

func (w *regionWriter) close() { w.flush() }

// Package baseline implements the algorithms the paper positions Balance
// Sort against on the parallel disk model:
//
//   - ForecastMergeSort — a deterministic merge sort with Greed Sort's
//     defining trait: the disks read *independently*, each I/O fetching on
//     every disk the block most urgently needed by the merge. The arity is
//     Θ(M/B) and the I/O count is optimal-shaped. (Greed Sort's
//     worst-case fix-up pass — the Columnsort cleanup after its approximate
//     merge — is not needed here because the merge is exact; see DESIGN.md
//     for the substitution note.)
//   - GreedSort and ColumnSortDisk — the Nodine–Vitter Greed Sort and
//     Leighton's Columnsort run externally.
//
// Merge sort over the D disks striped into one logical disk, whose merge
// arity collapses to Θ(M/(DB)) and costs Section 1's Θ(log(M/B)/log(M/DB))
// factor (experiment E11), is the stripedmerge engine in
// internal/guidesort. Randomized distribution sort [ViSa] lives in
// internal/core as PlacementRandom, since it shares the whole distribution
// skeleton with Balance Sort.
package baseline

import (
	"container/heap"
	"fmt"

	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// Metrics reports the cost of one baseline sort.
type Metrics struct {
	N          int
	IOs        int64
	ReadIOs    int64
	WriteIOs   int64
	MergeArity int
	Passes     int // merge passes after run formation
	PRAMTime   float64
	PRAMWork   float64
}

// ForecastMergeSort sorts the n records striped at block offset off on the
// array, reading the disks independently with per-disk forecasting, and
// returns the output region plus metrics. P is the PRAM processor count
// for internal-work accounting.
func ForecastMergeSort(arr *pdm.Array, off, n, p int) (pdm.Params, Region, Metrics) {
	s := &mergeSorter{arr: arr, cpu: pram.New(maxInt(p, 1))}
	reg, met := s.sort(off, n)
	return arr.Params(), reg, met
}

// Region names n records striped at block offset Off (same layout as
// core.Region; duplicated here so baseline does not import core).
type Region struct {
	Off int
	N   int
}

type mergeSorter struct {
	arr *pdm.Array
	cpu *pram.Machine
	met Metrics
}

func (ms *mergeSorter) sort(off, n int) (Region, Metrics) {
	ms.arr.ResetStats()
	ms.cpu.Reset()
	ms.met = Metrics{N: n}

	p := ms.arr.Params()
	memload := (p.M / 2 / p.B) * p.B

	// Run formation: sort memoryloads.
	runs := ms.formRuns(off, n, memload)

	// Merge arity: the disks read independently, so each run buffers one
	// physical block of B records, double-buffered, where a striped merge
	// must hold a logical block of DB.
	arity := p.M / (4 * p.B)
	if arity < 2 {
		arity = 2
	}
	ms.met.MergeArity = arity

	for len(runs) > 1 {
		ms.met.Passes++
		var next []Region
		for i := 0; i < len(runs); i += arity {
			j := i + arity
			if j > len(runs) {
				j = len(runs)
			}
			next = append(next, ms.mergeOnce(runs[i:j]))
		}
		runs = next
	}

	st := ms.arr.Stats()
	ms.met.IOs = st.IOs
	ms.met.ReadIOs = st.ReadIOs
	ms.met.WriteIOs = st.WriteIOs
	ms.met.PRAMTime = ms.cpu.Time()
	ms.met.PRAMWork = ms.cpu.Work()
	if len(runs) == 0 {
		return Region{}, ms.met
	}
	return runs[0], ms.met
}

func (ms *mergeSorter) formRuns(off, n, memload int) []Region {
	runs, _ := ms.formRunsWithMinima(off, n, memload)
	return runs
}

// formRunsWithMinima also returns, per run, the first key of each of its
// blocks — the forecasting metadata Greed Sort records while the sorted
// memoryload is still in memory (B keys of bookkeeping per run, free).
func (ms *mergeSorter) formRunsWithMinima(off, n, memload int) ([]Region, [][]record.Record) {
	p := ms.arr.Params()
	var runs []Region
	var minima [][]record.Record
	for pos := 0; pos < n; pos += memload {
		sz := memload
		if pos+sz > n {
			sz = n - pos
		}
		ms.arr.Mem.Use(sz)
		buf := make([]record.Record, sz)
		// The input region is block-aligned; pos is a multiple of memload,
		// itself a multiple of B, so it starts at block pos/B.
		ms.arr.ReadStripe(off, pos/p.B, buf)
		ms.cpu.Sort(buf)
		outOff := allocStripeFor(ms.arr, sz)
		ms.arr.WriteStripe(outOff, 0, buf)
		runs = append(runs, Region{Off: outOff, N: sz})
		mins := make([]record.Record, 0, (sz+p.B-1)/p.B)
		for k := 0; k < sz; k += p.B {
			mins = append(mins, buf[k])
		}
		minima = append(minima, mins)
		ms.arr.Mem.Release(sz)
	}
	return runs, minima
}

// runCursor walks one run block by block during a merge. pos counts the
// records fetched from disk so far; buf holds the records handed to the
// merge but not yet consumed; ahead holds at most one prefetched block
// (the forecasting lookahead).
type runCursor struct {
	reg   Region
	pos   int
	buf   []record.Record
	ahead []record.Record
}

func (rc *runCursor) exhausted() bool {
	return rc.pos >= rc.reg.N && len(rc.buf) == 0 && len(rc.ahead) == 0
}

// hasData reports whether the merge can take a record without an I/O.
func (rc *runCursor) hasData() bool { return len(rc.buf) > 0 || len(rc.ahead) > 0 }

// promote moves the lookahead block into buf if buf is empty.
func (rc *runCursor) promote() {
	if len(rc.buf) == 0 && len(rc.ahead) > 0 {
		rc.buf, rc.ahead = rc.ahead, nil
	}
}

// forecastKey is the last buffered record — the moment this run will next
// demand a block. Runs with no buffered data are infinitely urgent.
func (rc *runCursor) forecastKey() (record.Record, bool) {
	if len(rc.ahead) > 0 {
		return rc.ahead[len(rc.ahead)-1], true
	}
	if len(rc.buf) > 0 {
		return rc.buf[len(rc.buf)-1], true
	}
	return record.Record{}, false
}

// diskOf returns which disk the run's block i lives on.
func (rc *runCursor) diskOf(i, d int) int { return i % d }

func (rc *runCursor) offOf(i, d int) int { return rc.reg.Off + i/d }

type mergeItem struct {
	rec record.Record
	run int
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int            { return len(h) }
func (h mergeHeap) Less(i, j int) bool  { return h[i].rec.Less(h[j].rec) }
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// mergeOnce merges the given runs into a fresh region.
func (ms *mergeSorter) mergeOnce(runs []Region) Region {
	p := ms.arr.Params()
	total := 0
	cursors := make([]*runCursor, len(runs))
	for i, r := range runs {
		cursors[i] = &runCursor{reg: r}
		total += r.N
	}

	outOff := allocStripeFor(ms.arr, total)
	outBuf := make([]record.Record, 0, p.D*p.B)
	outBlock := 0
	written := 0
	ms.arr.Mem.Use(p.D * p.B) // output buffer

	// flushOut writes the output buffer as the next stripe row once it is
	// full, or, forced, whatever is left (WriteStripe pads the last block).
	flushOut := func(force bool) {
		if len(outBuf) == cap(outBuf) || force && len(outBuf) > 0 {
			ms.arr.WriteStripe(outOff, outBlock, outBuf)
			outBlock += p.D
			outBuf = outBuf[:0]
		}
	}

	// Per-run buffer budget (charged while the merge runs): the current
	// block plus the lookahead block.
	bufRecords := 2 * len(runs) * p.B
	ms.arr.Mem.Use(bufRecords)

	var h mergeHeap
	ms.refillForecast(cursors, nil)
	for i, rc := range cursors {
		if len(rc.buf) > 0 {
			h = append(h, mergeItem{rec: rc.buf[0], run: i})
			rc.buf = rc.buf[1:]
		}
	}
	heap.Init(&h)
	ms.cpu.ChargeScan(len(runs))

	for h.Len() > 0 {
		it := h[0]
		outBuf = append(outBuf, it.rec)
		written++
		rc := cursors[it.run]
		if len(rc.buf) == 0 && !rc.exhausted() {
			ms.refillForecast(cursors, []int{it.run})
		}
		if len(rc.buf) > 0 {
			h[0] = mergeItem{rec: rc.buf[0], run: it.run}
			rc.buf = rc.buf[1:]
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
		flushOut(false)
	}
	flushOut(true)
	ms.arr.Mem.Release(bufRecords)
	ms.arr.Mem.Release(p.D * p.B)
	if written != total {
		panic(fmt.Sprintf("baseline: merged %d of %d records", written, total))
	}
	// Charge the merge's comparisons: total * log(arity).
	ms.cpu.ChargeMerge(total)
	ms.cpu.ChargePartition(total, len(runs))
	return Region{Off: outOff, N: total}
}

// refillForecast is Greed Sort's defining discipline: every I/O lets each
// disk independently fetch the block it will be asked for soonest. needy
// names runs whose buffers just emptied; the function loops full-width
// fetch rounds until every needy, non-exhausted run has data again, and
// every round also prefetches opportunistically on the remaining disks
// (most urgent run first, judged by each run's last buffered key).
func (ms *mergeSorter) refillForecast(cursors []*runCursor, needy []int) {
	p := ms.arr.Params()
	for _, i := range orDefault(needy, allIdx(len(cursors))) {
		cursors[i].promote()
	}
	for {
		blocked := false
		for _, i := range orDefault(needy, allIdx(len(cursors))) {
			rc := cursors[i]
			if !rc.hasData() && rc.pos < rc.reg.N {
				blocked = true
			}
		}
		if !blocked {
			return
		}
		// One fetch round: per disk, the most urgent candidate run.
		best := make(map[int]int) // disk -> cursor index
		for i, rc := range cursors {
			if rc.pos >= rc.reg.N || len(rc.ahead) > 0 {
				continue // exhausted or lookahead already full
			}
			disk := rc.diskOf(rc.pos/p.B, p.D)
			j, ok := best[disk]
			if !ok {
				best[disk] = i
				continue
			}
			// Bufferless runs outrank everything; otherwise smaller
			// forecast key wins.
			ki, oki := rc.forecastKey()
			kj, okj := cursors[j].forecastKey()
			if !oki && okj {
				best[disk] = i
			} else if oki && okj && ki.Less(kj) {
				best[disk] = i
			}
		}
		if len(best) == 0 {
			panic("baseline: forecast merge starved with blocked runs")
		}
		var ops []pdm.Op
		type fill struct {
			rc   *runCursor
			buf  []record.Record
			want int
		}
		var fills []fill
		for disk, i := range best {
			rc := cursors[i]
			blk := rc.pos / p.B
			want := p.B
			if rc.reg.N-rc.pos < want {
				want = rc.reg.N - rc.pos
			}
			buf := make([]record.Record, p.B)
			ops = append(ops, pdm.Op{Disk: disk, Off: rc.offOf(blk, p.D), Data: buf})
			fills = append(fills, fill{rc, buf, want})
		}
		ms.arr.ParallelIO(ops)
		for _, f := range fills {
			f.rc.ahead = f.buf[:f.want]
			f.rc.pos += f.want
			f.rc.promote()
		}
	}
}

func orDefault(xs, def []int) []int {
	if xs == nil {
		return def
	}
	return xs
}

func allIdx(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

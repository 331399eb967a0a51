package baseline

import (
	"container/heap"
	"fmt"
	"sort"

	"balancesort/internal/pdm"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// GreedSortMetrics extends the shared metrics with the quantities specific
// to the greedy merge: how disordered the approximate pass left the data
// and how many cleanup passes were needed to finish.
type GreedSortMetrics struct {
	Metrics
	// MaxDisplacement is the largest distance any record sat from its
	// final position after the greedy pass (per merge level, the maximum).
	MaxDisplacement int
	// CleanupPasses counts window-sort passes run (two per cleanup round).
	CleanupPasses int
}

// GreedSort is the Nodine–Vitter Greed Sort [NoV] reproduced in spirit: a
// merge sort whose merge pass is *approximate* — each parallel I/O lets
// every disk independently fetch the block whose first key is smallest
// among the runs' next blocks on that disk, and each step emits the DB
// smallest pooled records — followed by a deterministic cleanup that sorts
// overlapping memoryload windows until the residual disorder is gone.
//
// [NoV] bound the greedy pass's displacement analytically and clean up
// with a fixed Columnsort schedule; here the displacement is *measured*
// (the simulator can afford to) and the cleanup loops its two offset
// window passes until a full pass verifies sortedness, so correctness is
// unconditional and the metrics report how hard the cleanup had to work —
// on every workload in the test suite one round (two passes) suffices,
// matching the paper's fixed schedule.
func GreedSort(arr *pdm.Array, off, n, p int) (Region, GreedSortMetrics, error) {
	par := arr.Params()
	cpu := pram.New(maxInt(p, 1))
	arr.ResetStats()
	met := GreedSortMetrics{Metrics: Metrics{N: n}}
	if n == 0 {
		return Region{}, met, nil
	}

	ms := &mergeSorter{arr: arr, cpu: cpu}
	memload := (par.M / 2 / par.B) * par.B
	runs, minima := ms.formRunsWithMinima(off, n, memload)

	arity := par.M / (4 * par.B)
	if arity < 2 {
		arity = 2
	}
	met.MergeArity = arity

	for len(runs) > 1 {
		met.Passes++
		var next []Region
		var nextMinima [][]record.Record
		for i := 0; i < len(runs); i += arity {
			j := i + arity
			if j > len(runs) {
				j = len(runs)
			}
			out, disp := greedyMerge(arr, cpu, runs[i:j], minima[i:j])
			if disp > met.MaxDisplacement {
				met.MaxDisplacement = disp
			}
			cleaned, passes, mins, err := cleanupWindows(arr, cpu, out, memload)
			if err != nil {
				return Region{}, met, err
			}
			met.CleanupPasses += passes
			next = append(next, cleaned)
			nextMinima = append(nextMinima, mins)
		}
		runs, minima = next, nextMinima
	}

	met.fill(arr, cpu, met.Passes)
	if len(runs) == 0 {
		return Region{}, met, nil
	}
	return runs[0], met, nil
}

// poolItem is one buffered block's cursor in the greedy merge pool.
type poolItem struct {
	recs []record.Record
}

type poolHeap []*poolItem

func (h poolHeap) Len() int            { return len(h) }
func (h poolHeap) Less(i, j int) bool  { return h[i].recs[0].Less(h[j].recs[0]) }
func (h poolHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *poolHeap) Push(x interface{}) { *h = append(*h, x.(*poolItem)) }
func (h *poolHeap) Pop() interface{} {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// greedyMerge approximately merges the runs: per step, one parallel read
// I/O in which every disk independently fetches its most promising block
// (smallest first key among the runs' next blocks on that disk), then the
// DB smallest pooled records are written out as one stripe row. Returns
// the output region and the measured maximum displacement from sorted
// order.
func greedyMerge(arr *pdm.Array, cpu *pram.Machine, runs []Region, minima [][]record.Record) (Region, int) {
	par := arr.Params()
	total := 0
	type cursor struct {
		reg  Region
		mins []record.Record // first key of each block (run metadata)
		pos  int             // records fetched
	}
	cursors := make([]*cursor, len(runs))
	for i, r := range runs {
		cursors[i] = &cursor{reg: r, mins: minima[i]}
		total += r.N
	}

	outOff := allocStripeFor(arr, total)
	outBlock := 0
	emitted := 0

	var pool poolHeap
	pooled := 0
	// The pool may grow to a quarter memoryload: with arity M/(4B) runs
	// that is room for roughly one block per run, so the safe frontier can
	// usually be respected and unsafe (disorder-creating) emission stays a
	// pressure valve rather than the steady state.
	poolCap := par.M / 4
	if poolCap < 4*par.D*par.B {
		poolCap = 4 * par.D * par.B
	}
	arr.Mem.Use(poolCap + par.D*par.B)

	// fetchRound: each disk picks, among runs whose next block lives on
	// it, the block with the smallest first key. Runs already fully
	// fetched are skipped. One parallel I/O for the whole round.
	fetchRound := func() bool {
		type pick struct {
			c   *cursor
			key record.Record
		}
		best := make(map[int]pick, par.D)
		for _, c := range cursors {
			if c.pos >= c.reg.N {
				continue
			}
			blk := c.pos / par.B
			disk := blk % par.D
			key := c.mins[blk]
			if b, ok := best[disk]; !ok || key.Less(b.key) {
				best[disk] = pick{c: c, key: key}
			}
		}
		if len(best) == 0 {
			return false
		}
		var ops []pdm.Op
		type fill struct {
			c    *cursor
			buf  []record.Record
			want int
		}
		var fills []fill
		for disk, pk := range best {
			c := pk.c
			blk := c.pos / par.B
			want := par.B
			if c.reg.N-c.pos < want {
				want = c.reg.N - c.pos
			}
			buf := make([]record.Record, par.B)
			ops = append(ops, pdm.Op{Disk: disk, Off: c.reg.Off + blk/par.D, Data: buf})
			fills = append(fills, fill{c, buf, want})
		}
		arr.ParallelIO(ops)
		for _, f := range fills {
			heap.Push(&pool, &poolItem{recs: f.buf[:f.want]})
			pooled += f.want
			f.c.pos += f.want
		}
		return true
	}

	// frontier is the smallest first key among the runs' unfetched blocks:
	// every pooled record below it is globally safe to emit. Records at or
	// above it may still be overtaken by unfetched data — emitting them is
	// the "greed" that creates the bounded disorder the cleanup repairs.
	frontier := func() (record.Record, bool) {
		var f record.Record
		have := false
		for _, c := range cursors {
			if c.pos >= c.reg.N {
				continue
			}
			k := c.mins[c.pos/par.B]
			if !have || k.Less(f) {
				f, have = k, true
			}
		}
		return f, have
	}

	// outBuf stages emitted records; flushOut writes whole blocks, up to D
	// per parallel I/O, padding only the final block of the whole run.
	var outBuf []record.Record
	flushOut := func(force bool) {
		for len(outBuf) >= par.B || (force && len(outBuf) > 0) {
			var ops []pdm.Op
			for j := 0; j < par.D; j++ {
				if len(outBuf) < par.B && !(force && len(outBuf) > 0) {
					break
				}
				blk := make([]record.Record, par.B)
				take := copy(blk, outBuf)
				for k := take; k < par.B; k++ {
					blk[k] = record.Record{Key: ^uint64(0), Loc: ^uint64(0)}
				}
				outBuf = outBuf[take:]
				ops = append(ops, pdm.Op{Disk: outBlock % par.D, Off: outOff + outBlock/par.D, Write: true, Data: blk})
				outBlock++
			}
			arr.ParallelIO(ops)
		}
	}

	// emitRow drains up to DB records from the pool per call:
	// preferentially safe records; unsafe ones only when unsafeOK (pool
	// pressure or final drain).
	row := make([]record.Record, 0, par.D*par.B)
	emitRow := func(unsafeOK bool) int {
		f, bounded := frontier()
		want := par.D * par.B
		if want > pooled {
			want = pooled
		}
		row = row[:0]
		for len(row) < want && len(pool) > 0 {
			it := pool[0]
			if bounded && !unsafeOK && !it.recs[0].Less(f) {
				break // only unsafe records remain
			}
			take := it.recs
			room := want - len(row)
			if len(take) > room {
				take = take[:room]
			}
			if bounded && !unsafeOK {
				// Trim the take at the frontier.
				cut := len(take)
				for cut > 0 && !take[cut-1].Less(f) {
					cut--
				}
				take = take[:cut]
				if len(take) == 0 {
					break
				}
			}
			row = append(row, take...)
			it.recs = it.recs[len(take):]
			if len(it.recs) == 0 {
				heap.Pop(&pool)
			} else {
				heap.Fix(&pool, 0)
			}
			pooled -= len(take)
		}
		if len(row) == 0 {
			return 0
		}
		// Pool order interleaves blocks; sort the emitted chunk locally (a
		// base-level operation), then stage it so only whole blocks reach
		// disk — a partial block mid-stream would leave sentinel holes.
		sort.Slice(row, func(i, j int) bool { return row[i].Less(row[j]) })
		cpu.ChargeSort(len(row))
		outBuf = append(outBuf, row...)
		flushOut(false)
		emitted += len(row)
		return len(row)
	}

	for emitted < total {
		progressed := fetchRound()
		// Emit full safe rows while the pool holds a row's worth; under
		// pool pressure (or at the end) emit unsafely to keep draining.
		for pooled >= par.D*par.B || (!progressed && pooled > 0) {
			unsafeOK := pooled >= poolCap-par.D*par.B || !progressed
			if emitRow(unsafeOK) == 0 {
				if !unsafeOK {
					break // wait for the frontier to advance
				}
				panic(fmt.Sprintf("baseline: greedy merge stalled at %d of %d", emitted, total))
			}
		}
	}
	flushOut(true)
	arr.Mem.Release(poolCap + par.D*par.B)

	out := Region{Off: outOff, N: total}
	return out, measureDisplacement(arr, out)
}

// measureDisplacement reads the region through the array's measurement
// channel (no I/Os charged) and computes how far records sit from their
// sorted positions.
func measureDisplacement(arr *pdm.Array, reg Region) int {
	got := peekRegion(arr, reg)
	type kv struct {
		r   record.Record
		pos int
	}
	all := make([]kv, len(got))
	for i, r := range got {
		all[i] = kv{r, i}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r.Less(all[j].r) })
	maxd := 0
	for sortedPos, e := range all {
		d := e.pos - sortedPos
		if d < 0 {
			d = -d
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

// cleanupWindows repeatedly applies the two offset window-sort passes
// (windows of one memoryload, then offset by half a memoryload) until a
// measurement sweep sees a sorted region. Records within W/2 of their
// final position are fully repaired by one round — the classical
// nearly-sorted cleanup that stands in for [NoV]'s Columnsort schedule.
// It returns the region, the pass count, and the per-block minima of the
// now-sorted run (the forecasting metadata for the next merge level).
func cleanupWindows(arr *pdm.Array, cpu *pram.Machine, reg Region, w int) (Region, int, []record.Record, error) {
	passes := 0
	// The offset window passes are an odd-even transposition sort over
	// ⌈N/W⌉ blocks, which provably converges within that many rounds; the
	// expected case (displacement < W/2, as [NoV]'s analysis provides for
	// their discipline) finishes in one.
	maxRounds := (reg.N+w-1)/w + 2
	for round := 0; ; round++ {
		if round > maxRounds {
			return reg, passes, nil, fmt.Errorf("baseline: greedy cleanup did not converge after %d rounds", round)
		}
		sortWindowsPass(arr, cpu, reg, w, 0)
		sortWindowsPass(arr, cpu, reg, w, w/2)
		passes += 2
		if regionSorted(arr, reg) {
			return reg, passes, blockMinima(arr, reg), nil
		}
	}
}

// blockMinima collects the first key of each block of a sorted region via
// the measurement channel (in a real system the cleanup's final pass would
// record them as it streams).
func blockMinima(arr *pdm.Array, reg Region) []record.Record {
	p := arr.Params()
	blocks := (reg.N + p.B - 1) / p.B
	mins := make([]record.Record, blocks)
	for blk := 0; blk < blocks; blk++ {
		mins[blk] = arr.Peek(blk%p.D, reg.Off+blk/p.D)[0]
	}
	return mins
}

// peekRegion reads a whole region via the measurement channel.
func peekRegion(arr *pdm.Array, reg Region) []record.Record {
	p := arr.Params()
	out := make([]record.Record, 0, reg.N)
	blocks := (reg.N + p.B - 1) / p.B
	for blk := 0; blk < blocks; blk++ {
		b := arr.Peek(blk%p.D, reg.Off+blk/p.D)
		take := p.B
		if reg.N-len(out) < take {
			take = reg.N - len(out)
		}
		out = append(out, b[:take]...)
	}
	return out
}

// sortWindowsPass sorts consecutive windows of w records starting at the
// given offset, in place.
func sortWindowsPass(arr *pdm.Array, cpu *pram.Machine, reg Region, w, start int) {
	buf := make([]record.Record, w)
	arr.Mem.Use(w)
	for pos := start; pos < reg.N; pos += w {
		m := w
		if pos+m > reg.N {
			m = reg.N - pos
		}
		arr.ReadStripe(reg.Off, pos/arr.B(), buf[:m])
		cpu.Sort(buf[:m])
		arr.WriteStripe(reg.Off, pos/arr.B(), buf[:m])
	}
	arr.Mem.Release(w)
}

// regionSorted verifies sortedness with one charged sequential read pass.
func regionSorted(arr *pdm.Array, reg Region) bool {
	p := arr.Params()
	chunk := make([]record.Record, p.D*p.B)
	arr.Mem.Use(len(chunk))
	defer arr.Mem.Release(len(chunk))
	var prev record.Record
	first := true
	for pos := 0; pos < reg.N; pos += len(chunk) {
		m := len(chunk)
		if pos+m > reg.N {
			m = reg.N - pos
		}
		arr.ReadStripe(reg.Off, pos/p.B, chunk[:m])
		for _, r := range chunk[:m] {
			if !first && r.Less(prev) {
				return false
			}
			prev, first = r, false
		}
	}
	return true
}

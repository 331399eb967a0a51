// Package selection provides deterministic linear-time rank selection
// (Blum–Floyd–Pratt–Rivest–Tarjan median-of-medians, reference [BFP] of the
// paper). Balance Sort is deterministic end to end, so the medians m_b of
// the histogram rows and the ranked partition elements must come from a
// deterministic selector rather than from randomized quickselect.
package selection

import "balancesort/internal/record"

// Select returns the k-th smallest record of rs under the effective key
// (0-indexed). It runs in worst-case linear time and does not modify rs.
func Select(rs []record.Record, k int) record.Record {
	if k < 0 || k >= len(rs) {
		panic("selection: rank out of range")
	}
	work := append([]record.Record(nil), rs...)
	return selectInPlace(work, k)
}

// SelectInts returns the k-th smallest of xs (0-indexed), used for the
// histogram-row medians where the values are block counts, not records.
// It does not modify xs. It selects in scratch when scratch has room for
// len(xs) entries, and so allocates nothing; nil scratch allocates a copy.
func SelectInts(scratch, xs []int, k int) int {
	if k < 0 || k >= len(xs) {
		panic("selection: rank out of range")
	}
	return intSelect(append(scratch[:0], xs...), k)
}

// RowMedian returns the paper's median of a histogram row: the ceil(n/2)-th
// smallest element (1-indexed), per the convention in Section 4.1 footnote 3
// ("the median is always the ceil(D/2)-th smallest element"). scratch is as
// for SelectInts.
func RowMedian(scratch, xs []int) int {
	if len(xs) == 0 {
		panic("selection: median of empty row")
	}
	k := (len(xs)+1)/2 - 1 // ceil(n/2)-th smallest, 0-indexed
	return SelectInts(scratch, xs, k)
}

func selectInPlace(rs []record.Record, k int) record.Record {
	for {
		if len(rs) <= 10 {
			insertionSort(rs)
			return rs[k]
		}
		pivot := medianOfMedians(rs)
		lt, gt := partition3(rs, pivot)
		switch {
		case k < lt:
			rs = rs[:lt]
		case k >= gt:
			k -= gt
			rs = rs[gt:]
		default:
			return pivot
		}
	}
}

// medianOfMedians returns the BFPRT pivot: the median of the medians of
// groups of 5.
func medianOfMedians(rs []record.Record) record.Record {
	n := (len(rs) + 4) / 5
	meds := make([]record.Record, 0, n)
	for i := 0; i < len(rs); i += 5 {
		j := i + 5
		if j > len(rs) {
			j = len(rs)
		}
		g := append([]record.Record(nil), rs[i:j]...)
		insertionSort(g)
		meds = append(meds, g[(len(g)-1)/2])
	}
	return selectInPlace(meds, (len(meds)-1)/2)
}

// partition3 three-way partitions rs around pivot and returns the boundary
// indices: rs[:lt] < pivot, rs[lt:gt] == pivot, rs[gt:] > pivot.
func partition3(rs []record.Record, pivot record.Record) (lt, gt int) {
	lo, i, hi := 0, 0, len(rs)
	for i < hi {
		switch rs[i].Compare(pivot) {
		case -1:
			rs[lo], rs[i] = rs[i], rs[lo]
			lo++
			i++
		case 1:
			hi--
			rs[i], rs[hi] = rs[hi], rs[i]
		default:
			i++
		}
	}
	return lo, hi
}

func insertionSort(rs []record.Record) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Less(rs[j-1]); j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

func intSelect(xs []int, k int) int {
	for {
		if len(xs) <= 10 {
			intInsertionSort(xs)
			return xs[k]
		}
		pivot := intMedianOfMedians(xs)
		lt, gt := intPartition3(xs, pivot)
		switch {
		case k < lt:
			xs = xs[:lt]
		case k >= gt:
			k -= gt
			xs = xs[gt:]
		default:
			return pivot
		}
	}
}

// intMedianOfMedians permutes xs in place: it sorts each group of five and
// swaps the group's median to the front, so the selection allocates
// nothing. Callers only rely on xs keeping its multiset.
func intMedianOfMedians(xs []int) int {
	n := 0
	for i := 0; i < len(xs); i += 5 {
		g := xs[i:min(i+5, len(xs))]
		intInsertionSort(g)
		mid := i + (len(g)-1)/2
		xs[n], xs[mid] = xs[mid], xs[n]
		n++
	}
	return intSelect(xs[:n], (n-1)/2)
}

func intPartition3(xs []int, pivot int) (lt, gt int) {
	lo, i, hi := 0, 0, len(xs)
	for i < hi {
		switch {
		case xs[i] < pivot:
			xs[lo], xs[i] = xs[i], xs[lo]
			lo++
			i++
		case xs[i] > pivot:
			hi--
			xs[i], xs[hi] = xs[hi], xs[i]
		default:
			i++
		}
	}
	return lo, hi
}

func intInsertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

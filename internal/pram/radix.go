package pram

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"balancesort/internal/record"
)

// The digits SortRadix executes. An input whose varying Key bits span at
// most lsdSpan bits takes stable LSD passes over 8-bit digits: one or two.
// A wider one takes MSD passes from its top varying bit: the first on
// ⌊log2 n⌋−2 bits, held to 8..topBits, which leaves about four records per
// bucket at memoryload sizes (fewer per bucket ran no faster), and every
// deeper one on 8. A bucket passes to a deeper MSD level only if its own
// varying bits span more than lsdSpan, so its top varying bit is at least
// 16 while each level lowers it by at least 8 from at most 63: at most
// msdLevels levels run below the first.
const (
	lsdSpan   = 16
	topBits   = 12
	msdLevels = 5
)

// short is the longest slice SortRadix sorts by insertion: a whole input,
// a bucket of an MSD pass, or a run of equal keys out of Loc order. A
// longer run of equal keys gets LSD passes over its own Loc bytes instead,
// so the fix-up stays linear in the worst case.
const short = 32

// radixScratch is the reusable state of one SortRadix call: the ping-pong
// buffer and the digit counts of each MSD level and of the LSD passes. It
// is fixed in size beside buf, so a pool miss costs one allocation, or two
// when buf must grow.
type radixScratch struct {
	buf  []record.Record
	top  [1 << topBits]uint32
	deep [msdLevels][256]uint32
	lsd  [2][256]uint32
}

// radixPool recycles scratch across calls, so a steady stream of
// memoryload sorts allocates nothing; a pool rather than a field on
// Machine because one Machine may be charged from several goroutines.
var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// records returns the scratch's buffer resliced to n records, growing it
// only when it is short.
func (sc *radixScratch) records(n int) []record.Record {
	if cap(sc.buf) < n {
		sc.buf = make([]record.Record, n)
	}
	return sc.buf[:n]
}

// A Buffer is the record buffer of one pooled SortRadix workspace, lent
// out by TakeBuffer until Release.
type Buffer struct{ sc *radixScratch }

// TakeBuffer lends out the ping-pong buffer of a pooled SortRadix
// workspace, grown to at least n records, to a caller that sorts nothing
// while it holds it, such as a merge between run formations. Once a
// memoryload sort has grown a buffer as large, it costs no allocation.
func TakeBuffer(n int) Buffer {
	sc := radixPool.Get().(*radixScratch)
	sc.records(n)
	return Buffer{sc}
}

// Records returns the buffer's records, at least the n asked for.
func (b Buffer) Records() []record.Record { return b.sc.buf }

// Release returns the buffer to the pool; the caller must not touch it
// afterwards.
func (b Buffer) Release() { radixPool.Put(b.sc) }

// SortRadix sorts rs by the effective key (Key, Loc) with a radix sort —
// the integer-sorting path Section 5 of the paper invokes
// (Rajasekaran–Reif) to hit the Θ((N/P) log N) internal bound when keys
// are machine words.
//
// The charge is that algorithm's schedule: 8 counting-sort passes over
// 16-bit digits, each one scan's work plus a prefix over the 2^16
// counters at prefix depth (per-processor histograms, a prefix, and a
// stable scatter). The execution does only what the input needs. It
// sorts by Key alone, stably, after one read that finds which Key bits
// vary (an OR of each key's XOR with the first) and whether Loc ascends.
// Keys whose varying bits span at most 16 bits take one or two LSD passes
// over 8-bit digits; wider ones take MSD passes from the top varying bit,
// each bucket sorted by insertion when short and otherwise by the path
// its own varying bits call for. Loc only breaks ties, as the paper's
// appended location does, so when it ascends in the input the stable
// passes already leave every run of equal keys in Loc order. Otherwise
// each such run is put in Loc order afterwards. Every schedule gives the
// unique sorted order of (Key, Loc), so the output does not depend on the
// digits.
func (m *Machine) SortRadix(rs []record.Record) {
	n := len(rs)
	if n <= 1 {
		return
	}
	const chargedBuckets = 1 << 16
	for pass := 0; pass < 8; pass++ {
		m.Charge(float64(2*n+chargedBuckets), lg(float64(n))+lg(float64(chargedBuckets)))
	}
	switch {
	case n <= short:
		insertInto(rs, rs, true)
		return
	case uint64(n) > math.MaxUint32: // past the 32-bit digit counts
		slices.SortFunc(rs, record.Record.Compare)
		return
	}

	// The first read: the varying Key bits, whether Loc ascends, and the
	// low Key byte's counts, the first LSD digit of small keys.
	sc := radixPool.Get().(*radixScratch)
	defer radixPool.Put(sc)
	low := &sc.lsd[0]
	*low = [256]uint32{}
	first, prev := rs[0].Key, rs[0].Loc
	low[byte(first)]++
	var diff uint64
	locAscends := true
	for _, r := range rs[1:] {
		diff |= r.Key ^ first
		low[byte(r.Key)]++
		if r.Loc < prev {
			locAscends = false
		}
		prev = r.Loc
	}
	if diff == 0 && locAscends {
		return
	}

	tmp := sc.records(n)
	switch {
	case diff == 0:
	case span(diff) > lsdSpan:
		sc.msd(rs, tmp, diff, 0, true)
	default:
		counted := byte(diff) != 0 && bits.Len64(diff) <= lsdSpan
		if out := sc.lsdPasses(rs, tmp, diff, counted); &out[0] != &rs[0] {
			copy(rs, out)
		}
	}
	if !locAscends {
		sortTies(rs, tmp, &sc.lsd[0])
	}
}

// span is the width of the bit range from the lowest to the highest set
// bit of diff, which is not 0.
func span(diff uint64) int { return bits.Len64(diff) - bits.TrailingZeros64(diff) }

// msd moves x into y by the top digit of diff, the Key bits that vary in
// x, then sorts each digit's bucket by Key, leaving the result in x if
// back, else in y. level counts the MSD passes above this one.
func (sc *radixScratch) msd(x, y []record.Record, diff uint64, level int, back bool) {
	width := 8
	var c []uint32
	if level == 0 {
		width = min(max(bits.Len(uint(len(x)))-3, 8), topBits)
		c = sc.top[:1<<width]
	} else {
		c = sc.deep[level-1][:]
	}
	shift := uint(bits.Len64(diff) - width)
	mask := uint64(1)<<width - 1
	clear(c)
	for _, r := range x {
		c[r.Key>>shift&mask]++
	}
	prefix(c)
	for _, r := range x {
		d := r.Key >> shift & mask
		y[c[d]] = r
		c[d]++
	}
	// c[d] now ends digit d's bucket in y.
	lo := 0
	for _, end := range c {
		hi := int(end)
		switch hi - lo {
		case 0:
			continue
		case 1:
			if back {
				x[lo] = y[lo]
			}
		default:
			sc.sortBucket(y[lo:hi], x[lo:hi], level+1, back)
		}
		lo = hi
	}
}

// sortBucket sorts x by Key, stably, with y (as long as x) as scratch,
// leaving the result in y if into, else in x. level is the MSD level that
// would split it.
func (sc *radixScratch) sortBucket(x, y []record.Record, level int, into bool) {
	dst := x
	if into {
		dst = y
	}
	if len(x) <= short {
		insertInto(x, dst, false)
		return
	}
	first := x[0].Key
	var diff uint64
	for _, r := range x[1:] {
		diff |= r.Key ^ first
	}
	switch {
	case diff == 0:
		if into {
			copy(y, x)
		}
	case span(diff) > lsdSpan:
		sc.msd(x, y, diff, level, !into)
	default:
		if out := sc.lsdPasses(x, y, diff, false); &out[0] != &dst[0] {
			copy(dst, out)
		}
	}
}

// lsdPasses sorts x by Key, stably, with one counting pass per 8-bit
// digit of diff, the varying Key bits, ping-ponging between x and y; diff
// spans at most two digits. It returns whichever of x and y holds the
// result. If counted, the digits are x's two low Key bytes and the first
// one's counts are already in sc.lsd[0]; otherwise they start at the
// lowest varying bit and a read of their own counts the first. The second
// digit is counted during the first one's scatter.
func (sc *radixScratch) lsdPasses(x, y []record.Record, diff uint64, counted bool) []record.Record {
	c, next := &sc.lsd[0], &sc.lsd[1]
	var shift uint
	if !counted {
		shift = uint(bits.TrailingZeros64(diff))
		*c = [256]uint32{}
		for _, r := range x {
			c[byte(r.Key>>shift)]++
		}
	}
	if diff>>(shift+8) == 0 {
		scatter(c, x, y, shift, false)
		return y
	}
	prefix(c[:])
	*next = [256]uint32{}
	for _, r := range x {
		k := r.Key
		b := byte(k >> shift)
		y[c[b]] = r
		c[b]++
		next[byte(k>>(shift+8))]++
	}
	scatter(next, y, x, shift+8, false)
	return x
}

// prefix turns a digit's counts into the offsets where its values start.
func prefix(counts []uint32) {
	var total uint32
	for i, c := range counts {
		counts[i] = total
		total += c
	}
}

// scatter is one stable counting-sort pass: it moves src into dst by the
// byte at shift of each record's Key, or of its Loc if byLoc, given that
// byte's counts, which it turns into the running offsets.
func scatter(counts *[256]uint32, src, dst []record.Record, shift uint, byLoc bool) {
	prefix(counts[:])
	if byLoc {
		for _, r := range src {
			b := byte(r.Loc >> shift)
			dst[counts[b]] = r
			counts[b]++
		}
		return
	}
	for _, r := range src {
		b := byte(r.Key >> shift)
		dst[counts[b]] = r
		counts[b]++
	}
}

// insertInto leaves the short slice src sorted in dst, which is as long
// and may be src itself: by Key, stably, or by (Key, Loc) if byLoc.
func insertInto(src, dst []record.Record, byLoc bool) {
	for i, r := range src {
		j := i
		for ; j > 0 && (r.Key < dst[j-1].Key || byLoc && r.Key == dst[j-1].Key && r.Loc < dst[j-1].Loc); j-- {
			dst[j] = dst[j-1]
		}
		dst[j] = r
	}
}

// sortTies puts every run of equal keys in rs, which is sorted by Key, in
// Loc order: by insertion sort when the run is short, else by LSD passes
// over the Loc bytes that vary within it, with tmp (as long as rs) as the
// ping-pong buffer and counts as the histogram.
func sortTies(rs, tmp []record.Record, counts *[256]uint32) {
	for lo := 0; lo < len(rs); {
		key, first := rs[lo].Key, rs[lo].Loc
		var varies uint64 // the Loc bits that differ within the run
		hi := lo + 1
		for ; hi < len(rs) && rs[hi].Key == key; hi++ {
			varies |= rs[hi].Loc ^ first
		}
		g := rs[lo:hi]
		lo = hi
		if len(g) <= short {
			insertInto(g, g, true)
			continue
		}
		src, dst := g, tmp[:len(g)]
		for shift := uint(0); shift < 64; shift += 8 {
			if byte(varies>>shift) == 0 {
				continue // every record of the run shares this digit
			}
			*counts = [256]uint32{}
			for _, r := range src {
				counts[byte(r.Loc>>shift)]++
			}
			scatter(counts, src, dst, shift, true)
			src, dst = dst, src
		}
		if &src[0] != &g[0] {
			copy(g, src)
		}
	}
}

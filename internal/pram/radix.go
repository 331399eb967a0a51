package pram

import (
	"sync"

	"balancesort/internal/record"
)

// radixScratch is the reusable state of one SortRadix call: the ping-pong
// buffer and one 256-bucket histogram per byte of Key, least significant
// first.
type radixScratch struct {
	buf  []record.Record
	hist [8]histogram
}

// histogram counts one digit's 256 values. The padding keeps histograms
// from starting 4 KiB apart, where a load from one stalls on a store to
// the same counter of another (4K aliasing): keys whose high bytes every
// record shares bump counter 0 of each high-byte histogram per record.
type histogram struct {
	c [256]int
	_ [8]int
}

// radixPool recycles scratch across calls, so a steady stream of
// memoryload sorts allocates nothing; a pool rather than a field on
// Machine because one Machine may be charged from several goroutines.
var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// shortGroup is the longest run of equal keys that SortRadix puts in Loc
// order by insertion sort. A longer run gets LSD passes over its own Loc
// bytes instead, so the fix-up stays linear in the worst case.
const shortGroup = 32

// SortRadix sorts rs by the effective key (Key, Loc) with a stable LSD
// radix sort — the integer-sorting path Section 5 of the paper invokes
// (Rajasekaran–Reif) to hit the Θ((N/P) log N) internal bound when keys
// are machine words.
//
// The charge is that algorithm's schedule: 8 counting-sort passes over
// 16-bit digits, each one scan's work plus a prefix over the 2^16
// counters at prefix depth (per-processor histograms, a prefix, and a
// stable scatter). The execution sorts by Key alone, with 8-bit digits:
// one read of the input builds the 8 Key-byte histograms and notes
// whether Loc ascends, and a digit that every record shares is skipped,
// because its scatter would be the identity. Loc only breaks ties, as the
// paper's appended location does, so when it ascends in the input the
// stable passes already leave every run of equal keys in Loc order.
// Otherwise each such run is put in Loc order afterwards. Both schedules
// give the unique sorted order of (Key, Loc), so the output does not
// depend on the digit width.
func (m *Machine) SortRadix(rs []record.Record) {
	n := len(rs)
	if n <= 1 {
		return
	}
	const chargedBuckets = 1 << 16
	for pass := 0; pass < 8; pass++ {
		m.Charge(float64(2*n+chargedBuckets), lg(float64(n))+lg(float64(chargedBuckets)))
	}

	sc := radixPool.Get().(*radixScratch)
	defer radixPool.Put(sc)
	if cap(sc.buf) < n {
		sc.buf = make([]record.Record, n)
	}
	sc.hist = [8]histogram{}
	h := &sc.hist
	locAscends := true
	prev := rs[0].Loc
	for _, r := range rs {
		k := r.Key
		h[0].c[byte(k)]++
		h[1].c[byte(k>>8)]++
		h[2].c[byte(k>>16)]++
		h[3].c[byte(k>>24)]++
		h[4].c[byte(k>>32)]++
		h[5].c[byte(k>>40)]++
		h[6].c[byte(k>>48)]++
		h[7].c[byte(k>>56)]++
		if r.Loc < prev {
			locAscends = false
		}
		prev = r.Loc
	}

	src, dst := rs, sc.buf[:n]
	for d := range h {
		shift := uint(d) * 8
		if h[d].c[byte(src[0].Key>>shift)] == n {
			continue // every record shares this digit
		}
		scatter(&h[d].c, src, dst, shift, false)
		src, dst = dst, src
	}
	if &src[0] != &rs[0] {
		copy(rs, src)
	}
	if !locAscends {
		sortTies(rs, sc.buf[:n], &h[0].c)
	}
}

// scatter is one stable counting-sort pass: it moves src into dst by the
// byte at shift of each record's Key, or of its Loc if byLoc, given that
// byte's histogram, which it turns into the running offsets.
func scatter(counts *[256]int, src, dst []record.Record, shift uint, byLoc bool) {
	total := 0
	for i, c := range counts {
		counts[i] = total
		total += c
	}
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

// sortTies puts every run of equal keys in rs, which is sorted by Key, in
// Loc order: by insertion sort when the run is short, else by LSD passes
// over the Loc bytes that vary within it, with tmp (as long as rs) as the
// ping-pong buffer and counts as the histogram.
func sortTies(rs, tmp []record.Record, counts *[256]int) {
	for lo := 0; lo < len(rs); {
		key, first := rs[lo].Key, rs[lo].Loc
		var varies uint64 // the Loc bits that differ within the run
		hi := lo + 1
		for ; hi < len(rs) && rs[hi].Key == key; hi++ {
			varies |= rs[hi].Loc ^ first
		}
		g := rs[lo:hi]
		lo = hi
		if len(g) <= shortGroup {
			for i := 1; i < len(g); i++ {
				r := g[i]
				j := i
				for ; j > 0 && r.Loc < g[j-1].Loc; j-- {
					g[j] = g[j-1]
				}
				g[j] = r
			}
			continue
		}
		src, dst := g, tmp[:len(g)]
		for shift := uint(0); shift < 64; shift += 8 {
			if byte(varies>>shift) == 0 {
				continue // every record of the run shares this digit
			}
			*counts = [256]int{}
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

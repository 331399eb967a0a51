package pram

import (
	"sync"

	"balancesort/internal/record"
)

// radixScratch is the reusable state of one SortRadix call: the ping-pong
// buffer and one 256-bucket histogram per byte of the effective key (bytes
// 0-7 of Loc, then bytes 0-7 of Key, least significant first).
type radixScratch struct {
	buf  []record.Record
	hist [16][256]int
}

// radixPool recycles scratch across calls, so a steady stream of
// memoryload sorts allocates nothing; a pool rather than a field on
// Machine because one Machine may be charged from several goroutines.
var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// SortRadix sorts rs by the effective key (Key, Loc) with a stable LSD
// radix sort — the integer-sorting path Section 5 of the paper invokes
// (Rajasekaran–Reif) to hit the Θ((N/P) log N) internal bound when keys
// are machine words.
//
// The charge is that algorithm's schedule: 8 counting-sort passes over
// 16-bit digits, each one scan's work plus a prefix over the 2^16
// counters at prefix depth (per-processor histograms, a prefix, and a
// stable scatter). The execution is the same stable LSD sort with 8-bit
// digits: one read of the input builds all 16 digit histograms, and a
// digit that every record shares is skipped, because its scatter would
// be the identity. Both orders are the unique sorted order of (Key, Loc),
// so the output does not depend on the digit width.
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
	sc.hist = [16][256]int{}
	for _, r := range rs {
		sc.hist[0][byte(r.Loc)]++
		sc.hist[1][byte(r.Loc>>8)]++
		sc.hist[2][byte(r.Loc>>16)]++
		sc.hist[3][byte(r.Loc>>24)]++
		sc.hist[4][byte(r.Loc>>32)]++
		sc.hist[5][byte(r.Loc>>40)]++
		sc.hist[6][byte(r.Loc>>48)]++
		sc.hist[7][byte(r.Loc>>56)]++
		sc.hist[8][byte(r.Key)]++
		sc.hist[9][byte(r.Key>>8)]++
		sc.hist[10][byte(r.Key>>16)]++
		sc.hist[11][byte(r.Key>>24)]++
		sc.hist[12][byte(r.Key>>32)]++
		sc.hist[13][byte(r.Key>>40)]++
		sc.hist[14][byte(r.Key>>48)]++
		sc.hist[15][byte(r.Key>>56)]++
	}

	src, dst := rs, sc.buf[:n]
	for d := range sc.hist {
		counts := &sc.hist[d]
		shift := uint(d%8) * 8
		word := src[0].Loc
		if d >= 8 {
			word = src[0].Key
		}
		if counts[byte(word>>shift)] == n {
			continue // every record shares this digit
		}
		total := 0
		for i, c := range counts {
			counts[i] = total
			total += c
		}
		if d < 8 {
			for _, r := range src {
				b := byte(r.Loc >> shift)
				dst[counts[b]] = r
				counts[b]++
			}
		} else {
			for _, r := range src {
				b := byte(r.Key >> shift)
				dst[counts[b]] = r
				counts[b]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &rs[0] {
		copy(rs, src)
	}
}

// Package pram models the P-processor EREW PRAM that interconnects the
// CPUs (parallel disk model, Figure 2b) or the base memory levels of the
// hierarchies (Figure 4). It plays two roles:
//
//  1. Cost accounting. The paper's internal-processing bounds (Theorem 1:
//     Θ((N/P) log N); Theorems 2-3: the T(H) terms) are stated in PRAM
//     steps. Machine accrues parallel time under Brent's scheduling
//     principle, time = work/P + depth, with the work/depth of each
//     primitive charged at the complexity of the algorithm the paper cites
//     (Cole's EREW merge sort for sorting, prefix/segmented-prefix scans,
//     monotone routing per Leighton §3.4.3).
//
//  2. Real execution. The primitives actually compute their results (with
//     goroutine fan-out for large inputs), so the simulated costs are
//     attached to genuinely performed work.
package pram

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"balancesort/internal/record"
)

// Variant selects the PRAM's concurrency rules. Section 5 notes that for
// P up to M with log(M/B) = o(log M) the algorithm needs a CRCW PRAM; the
// CRCW variant charges the classical stronger primitives (Θ(log log n)
// semigroup operations, Θ(log n / log log n) comparison sorting) so that
// regime can be measured too.
type Variant int

const (
	// EREW is the exclusive-read/exclusive-write PRAM (the default).
	EREW Variant = iota
	// CRCW is the concurrent-read/concurrent-write PRAM.
	CRCW
)

// Machine is a PRAM cost accumulator with P processors.
type Machine struct {
	mu      sync.Mutex
	p       int
	variant Variant
	time    float64 // parallel steps, by Brent's principle
	work    float64 // total operations
	syncs   int64   // number of charged primitives (each implies a barrier)
}

// New returns an EREW PRAM cost model with p processors. p must be >= 1.
func New(p int) *Machine {
	return NewVariant(p, EREW)
}

// NewVariant returns a PRAM cost model of the given variant.
func NewVariant(p int, v Variant) *Machine {
	if p < 1 {
		panic("pram: P must be >= 1")
	}
	return &Machine{p: p, variant: v}
}

// Variant returns the machine's concurrency rules.
func (m *Machine) Variant() Variant { return m.variant }

// scanDepth is the critical path of a prefix/route-style primitive on n
// items: log n on EREW, log log n on CRCW (Valiant-style semigroup).
func (m *Machine) scanDepth(n float64) float64 {
	if m.variant == CRCW {
		return lg(lg(n))
	}
	return lg(n)
}

// sortDepth is the critical path of sorting n items: log n on EREW (Cole),
// log n / log log n on CRCW (AKS-style with concurrent access).
func (m *Machine) sortDepth(n float64) float64 {
	if m.variant == CRCW {
		d := lg(n) / lg(lg(n))
		if d < 1 {
			return 1
		}
		return d
	}
	return lg(n)
}

// P returns the processor count.
func (m *Machine) P() int { return m.p }

// Charge accrues one primitive with the given total work and critical-path
// depth: parallel time increases by work/P + depth.
func (m *Machine) Charge(work, depth float64) {
	if work < 0 || depth < 0 {
		panic("pram: negative charge")
	}
	m.mu.Lock()
	m.work += work
	m.time += work/float64(m.p) + depth
	m.syncs++
	m.mu.Unlock()
}

// Time returns the accumulated parallel time in PRAM steps.
func (m *Machine) Time() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.time
}

// Work returns the accumulated total work.
func (m *Machine) Work() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.work
}

// Syncs returns the number of charged primitives.
func (m *Machine) Syncs() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

// Reset zeroes the accumulated time and work.
func (m *Machine) Reset() {
	m.mu.Lock()
	m.time, m.work, m.syncs = 0, 0, 0
	m.mu.Unlock()
}

// lg returns the paper's log x = max(1, log2 x).
func lg(x float64) float64 {
	if x <= 2 {
		return 1
	}
	return math.Log2(x)
}

// ChargeSort charges an EREW sort of n items at Cole's merge-sort cost:
// work n log n, depth log n.
func (m *Machine) ChargeSort(n int) {
	if n <= 1 {
		return
	}
	fn := float64(n)
	m.Charge(fn*lg(fn), m.sortDepth(fn))
}

// ChargeScan charges a (segmented) prefix operation on n items: work n,
// depth log n.
func (m *Machine) ChargeScan(n int) {
	if n == 0 {
		return
	}
	fn := float64(n)
	m.Charge(fn, m.scanDepth(fn))
}

// ChargeRoute charges a monotone routing of n items (Leighton §3.4.3):
// work n, depth log n.
func (m *Machine) ChargeRoute(n int) {
	if n == 0 {
		return
	}
	fn := float64(n)
	m.Charge(fn, m.scanDepth(fn))
}

// ChargePartition charges partitioning n records among s sorted partition
// elements by parallel binary search: work n log s, depth log s.
func (m *Machine) ChargePartition(n, s int) {
	if n == 0 || s <= 1 {
		return
	}
	fn, fs := float64(n), float64(s)
	m.Charge(fn*lg(fs), lg(fs))
}

// ChargeMerge charges a parallel two-way merge of n total items: work n,
// depth log n.
func (m *Machine) ChargeMerge(n int) {
	if n == 0 {
		return
	}
	fn := float64(n)
	m.Charge(fn, m.scanDepth(fn))
}

// --- Executed primitives -------------------------------------------------

// grain is the minimum per-goroutine slice for real fan-out; below it the
// sequential path is faster on any machine.
const grain = 4096

// workers returns how many goroutines to actually spawn for n items on a
// machine with P model processors: the model cost is always charged for P,
// but real fan-out is capped by the host.
func (m *Machine) workers(n int) int {
	w := m.p
	if hc := runtime.GOMAXPROCS(0); w > hc {
		w = hc
	}
	if w > n/grain {
		w = n / grain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PrefixSums computes the exclusive prefix sums of xs and returns them with
// the grand total. Charges one scan.
func (m *Machine) PrefixSums(xs []int) (prefix []int, total int) {
	m.ChargeScan(len(xs))
	prefix = make([]int, len(xs))
	for i, x := range xs {
		prefix[i] = total
		total += x
	}
	return prefix, total
}

// SegmentedCount takes per-item segment IDs (nondecreasing) and returns the
// size of each of nseg segments. Charges one scan. This is the "segmented
// prefix operation for each unique key" of Section 4.2.
func (m *Machine) SegmentedCount(seg []int, nseg int) []int {
	m.ChargeScan(len(seg))
	counts := make([]int, nseg)
	for i, s := range seg {
		if s < 0 || s >= nseg {
			panic("pram: segment id out of range")
		}
		if i > 0 && seg[i] < seg[i-1] {
			panic("pram: segment ids not monotone")
		}
		counts[s]++
	}
	return counts
}

// MonotoneRoute places src[i] at dst[rank[i]], where rank is strictly
// increasing (a monotone routing). Charges one route.
func (m *Machine) MonotoneRoute(src []record.Record, rank []int, dst []record.Record) {
	if len(src) != len(rank) {
		panic("pram: rank length mismatch")
	}
	m.ChargeRoute(len(src))
	prev := -1
	for i, r := range rank {
		if r <= prev {
			panic("pram: ranks not monotone")
		}
		prev = r
		dst[r] = src[i]
	}
}

// Sort sorts rs in place and charges Cole's EREW merge-sort cost. For large
// inputs it runs a real parallel merge sort across workers.
func (m *Machine) Sort(rs []record.Record) {
	m.ChargeSort(len(rs))
	w := m.workers(len(rs))
	if w <= 1 {
		slices.SortFunc(rs, record.Record.Compare)
		return
	}
	parallelMergeSort(rs, w)
}

// parallelMergeSort splits rs into w chunks, sorts them concurrently, and
// merges pairwise.
func parallelMergeSort(rs []record.Record, w int) {
	n := len(rs)
	chunks := make([][]record.Record, 0, w)
	for i := 0; i < w; i++ {
		lo, hi := i*n/w, (i+1)*n/w
		if lo < hi {
			chunks = append(chunks, rs[lo:hi])
		}
	}
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c []record.Record) {
			defer wg.Done()
			slices.SortFunc(c, record.Record.Compare)
		}(c)
	}
	wg.Wait()
	// Pairwise merge rounds.
	buf := make([]record.Record, n)
	for len(chunks) > 1 {
		next := make([][]record.Record, 0, (len(chunks)+1)/2)
		var mwg sync.WaitGroup
		off := 0
		for i := 0; i < len(chunks); i += 2 {
			if i+1 == len(chunks) {
				next = append(next, chunks[i])
				continue
			}
			a, b := chunks[i], chunks[i+1]
			out := buf[off : off+len(a)+len(b)]
			off += len(a) + len(b)
			next = append(next, out)
			mwg.Add(1)
			go func(a, b, out []record.Record) {
				defer mwg.Done()
				mergeInto(a, b, out)
			}(a, b, out)
		}
		mwg.Wait()
		// Copy merged data back into rs's storage so slices stay aligned.
		pos := 0
		for i, c := range next {
			target := rs[pos : pos+len(c)]
			if &c[0] != &target[0] {
				copy(target, c)
				next[i] = target
			}
			pos += len(c)
		}
		chunks = next
	}
}

func mergeInto(a, b, out []record.Record) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Less(a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	copy(out[k:], a[i:])
	copy(out[k+len(a)-i:], b[j:])
}

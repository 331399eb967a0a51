// Package balance implements the paper's deterministic load-balancing core
// (Section 4.1, Algorithms 3-6): the histogram matrix X, the auxiliary
// matrix A, and the track-by-track placement discipline that keeps every
// bucket spread almost evenly over the virtual disks/hierarchies.
//
// The Balancer is deliberately I/O-free: it decides *where* each formed
// virtual block may be written and which blocks must be carried to the next
// track, while the callers in internal/core perform the actual transfers on
// the parallel-disk or hierarchy substrate. That is what lets the same
// machinery drive Theorem 1 (disks) and Theorems 2-3 (hierarchies).
//
// Terminology follows the paper: there are S buckets and H virtual
// disks/hierarchies (the paper's H'), X[b][h] counts the virtual blocks of
// bucket b resident on h, m_b is the ⌈H/2⌉-th smallest entry of row b, and
// A[b][h] = max(0, X[b][h] - m_b). The two invariants maintained are:
//
//	Invariant 1: every row of A has at least ⌈H/2⌉ zeros.
//	Invariant 2: after each track is processed (with unprocessed blocks
//	             conceptually returned to the input), A is 0/1-valued,
//	             hence X[b][h] <= m_b + 1.
//
// Invariant 2 is what yields Theorem 4: bucket b occupies at most m_b + 1
// blocks on any virtual disk, and since at least ⌈H/2⌉ disks hold >= m_b
// blocks, m_b + 1 is at most about twice the even share N_b/(H·VB).
package balance

import (
	"fmt"

	"balancesort/internal/matching"
	"balancesort/internal/obs"
	"balancesort/internal/record"
	"balancesort/internal/selection"
)

// AuxRule selects how the auxiliary matrix is derived from the histogram.
type AuxRule int

const (
	// AuxMedian is the paper's rule: A[b][h] = max(0, X[b][h] - m_b) with
	// m_b the ⌈H/2⌉-th smallest entry of row b.
	AuxMedian AuxRule = iota
	// AuxTwiceAverage is the alternative attributed to Arge (Section 4.1):
	// an entry is overloaded (treated like a 2) when the block count
	// exceeds twice the evenly-balanced share, and balanced (0) otherwise.
	AuxTwiceAverage
)

// MatchStrategy selects the partial-matching algorithm used by Rearrange.
type MatchStrategy int

const (
	// MatchDerandomized is the paper's deterministic Fast-Partial-Match.
	MatchDerandomized MatchStrategy = iota
	// MatchRandomized is Algorithm 7 as stated, with an explicit seed; the
	// paper's Section 6 notes it is "even simpler to implement in practice".
	MatchRandomized
	// MatchGreedy is sequential maximal matching — the quality ceiling that
	// is too slow in the parallel model (experiment E12).
	MatchGreedy
)

// Config parameterizes a Balancer.
type Config struct {
	S     int           // buckets
	H     int           // virtual disks / virtual hierarchies
	Rule  AuxRule       // auxiliary matrix definition
	Match MatchStrategy // Rearrange matching algorithm
	Seed  uint64        // seed for MatchRandomized
	TCost matching.TCost
	// Parent, when live, gets a "repair-rearrange" child span per
	// Rearrange call (the Algorithm 5-7 repair step) under the "sort"
	// layer. The zero value is inert: free, and changes nothing observable.
	Parent obs.Active
}

// Stats counts the balancing work performed, for experiments E4/E12/E13/E15.
type Stats struct {
	Tracks          int // PlaceTrack calls
	BlocksPlaced    int // blocks finally written
	BlocksCarried   int // blocks returned to the input ("conceptual" 2s)
	TwosIntroduced  int // entries that reached 2 at tentative placement
	RearrangeCalls  int
	RearrangeMoves  int     // blocks moved by matching
	MatchTime       float64 // simulated parallel time spent matching
	ExtraWriteSteps int     // additional parallel write references from Rearrange rounds
}

// Placement directs the caller to write its block index Block to virtual
// disk VDisk. Writes within one Round can share a parallel I/O; distinct
// rounds are distinct parallel memory references (the good-column write plus
// one per Rearrange call).
type Placement struct {
	Block int
	VDisk int
	Round int
}

// Balancer tracks placement state for one distribution pass.
type Balancer struct {
	cfg Config
	x   [][]int
	rot int
	rng *record.RNG

	// Per-track scratch, reused so placing a track allocates nothing that
	// grows with S: the track's block->vdisk assignment, the block holding
	// a 2 in each column (-1 for none), one auxiliary row, and the row copy
	// the median selection works in.
	assigned, twoAt, auxBuf, medBuf []int

	stats Stats
}

// New creates a Balancer for S buckets over H virtual disks.
func New(cfg Config) *Balancer {
	if cfg.S < 1 || cfg.H < 1 {
		panic(fmt.Sprintf("balance: S=%d H=%d", cfg.S, cfg.H))
	}
	if cfg.TCost == nil {
		cfg.TCost = matching.PRAMCost
	}
	b := &Balancer{cfg: cfg, rng: record.NewRNG(cfg.Seed)}
	b.x = make([][]int, cfg.S)
	for i := range b.x {
		b.x[i] = make([]int, cfg.H)
	}
	b.assigned = make([]int, cfg.H)
	b.twoAt = make([]int, cfg.H)
	b.auxBuf = make([]int, cfg.H)
	b.medBuf = make([]int, cfg.H)
	return b
}

// S returns the bucket count.
func (bl *Balancer) S() int { return bl.cfg.S }

// H returns the virtual disk count.
func (bl *Balancer) H() int { return bl.cfg.H }

// Stats returns a copy of the accumulated counters.
func (bl *Balancer) Stats() Stats { return bl.stats }

// Histogram returns a copy of X, for tests and experiments.
func (bl *Balancer) Histogram() [][]int {
	out := make([][]int, len(bl.x))
	for i, row := range bl.x {
		out[i] = append([]int(nil), row...)
	}
	return out
}

// MemoryWords returns the internal-memory footprint of the balance state in
// machine words (X, A, and L are each S x H; the paper keeps all three
// resident).
func (bl *Balancer) MemoryWords() int { return 3 * bl.cfg.S * bl.cfg.H }

// rowMedian returns m_b for the current X, selecting in a reused row.
func (bl *Balancer) rowMedian(b int) int {
	return selection.RowMedian(bl.medBuf, bl.x[b])
}

// auxRow computes row b of the auxiliary matrix for the current histogram
// into a reused buffer, valid until the next call. Placing a track reads A
// only on its own blocks' rows, so this keeps the per-track work
// independent of S.
func (bl *Balancer) auxRow(b int) []int {
	row := bl.auxBuf
	switch bl.cfg.Rule {
	case AuxMedian:
		m := bl.rowMedian(b)
		for h, x := range bl.x[b] {
			row[h] = max(0, x-m)
		}
	case AuxTwiceAverage:
		total := 0
		for _, x := range bl.x[b] {
			total += x
		}
		// Twice the evenly-balanced number, rounded up; +1 keeps the rule
		// permissive when a bucket holds almost nothing yet.
		limit := 2*((total+bl.cfg.H-1)/bl.cfg.H) + 1
		for h, x := range bl.x[b] {
			row[h] = 0
			if x > limit {
				row[h] = 2
			}
		}
	default:
		panic("balance: unknown aux rule")
	}
	return row
}

// Aux computes the auxiliary matrix for the current histogram (Algorithm 4
// under AuxMedian; the Arge variant under AuxTwiceAverage, scaled so that
// "overloaded" entries read 2 and balanced entries 0, which lets the rest
// of the machinery treat both rules uniformly). It materialises all S rows,
// for the invariant checks and tests; placement reads rows with auxRow.
func (bl *Balancer) Aux() [][]int {
	a := make([][]int, bl.cfg.S)
	for b := range a {
		a[b] = append([]int(nil), bl.auxRow(b)...)
	}
	return a
}

// CheckInvariant1 verifies that every row of A has at least ⌈H/2⌉ zeros.
func (bl *Balancer) CheckInvariant1() error {
	a := bl.Aux()
	need := (bl.cfg.H + 1) / 2
	for b, row := range a {
		zeros := 0
		for _, v := range row {
			if v == 0 {
				zeros++
			}
		}
		if zeros < need {
			return fmt.Errorf("balance: row %d has %d zeros, invariant 1 needs %d", b, zeros, need)
		}
	}
	return nil
}

// CheckInvariant2 verifies that A is 0/1-valued, i.e. X[b][h] <= m_b + 1.
// It must hold after every PlaceTrack call returns.
func (bl *Balancer) CheckInvariant2() error {
	a := bl.Aux()
	for b, row := range a {
		for h, v := range row {
			if v > 1 {
				return fmt.Errorf("balance: A[%d][%d] = %d after track, invariant 2 violated", b, h, v)
			}
		}
	}
	return nil
}

// CheckInvariants verifies Invariants 1 and 2 together — the full Theorem 4
// precondition. Callers that re-plan a placement over a shrunk disk set
// (cluster failover drops H to H−1 per lost worker) use this to assert the
// balance guarantees still hold on the smaller matrix before committing to
// the new plan.
func (bl *Balancer) CheckInvariants() error {
	if err := bl.CheckInvariant1(); err != nil {
		return err
	}
	return bl.CheckInvariant2()
}

// PlaceTrack processes one track of formed virtual blocks. buckets[j] is the
// bucket of block j; len(buckets) must be at most H. It returns the final
// placements (grouped into parallel write rounds) and the indices of blocks
// that could not be placed without unbalancing their buckets — the caller
// must return those records to its input pool, exactly the paper's
// "conceptually written back to the input".
func (bl *Balancer) PlaceTrack(buckets []int) (writes []Placement, carry []int) {
	if len(buckets) > bl.cfg.H {
		panic(fmt.Sprintf("balance: track of %d blocks exceeds H = %d", len(buckets), bl.cfg.H))
	}
	for _, b := range buckets {
		if b < 0 || b >= bl.cfg.S {
			panic(fmt.Sprintf("balance: bucket %d of %d", b, bl.cfg.S))
		}
	}
	bl.stats.Tracks++

	// Line (2-3) of Algorithm 3: tentatively assign block j to virtual disk
	// (j + rot) mod H — distinct disks within the track — and update X.
	// The rotation spreads the formation order across columns over time.
	assigned := bl.assigned[:len(buckets)] // block -> vdisk
	for j, b := range buckets {
		h := (j + bl.rot) % bl.cfg.H
		assigned[j] = h
		bl.x[b][h]++
	}
	bl.rot = (bl.rot + len(buckets)) % bl.cfg.H

	// Line (4): A := ComputeAux(X), read at this track's entries only. Only
	// incremented entries can have become 2 (medians never decrease), so
	// each overloaded column carries exactly one of this track's blocks.
	twoAt := bl.twoAt // vdisk -> block index with the 2, or -1
	for h := range twoAt {
		twoAt[h] = -1
	}
	twos := 0
	for j, b := range buckets {
		if bl.auxRow(b)[assigned[j]] >= 2 {
			bl.stats.TwosIntroduced++
			twoAt[assigned[j]] = j
			twos++
		}
	}

	// Line (5-6): write out blocks on columns free of 2s (round 0).
	writes = make([]Placement, 0, len(buckets))
	for j := range buckets {
		if twoAt[assigned[j]] != j {
			writes = append(writes, Placement{Block: j, VDisk: assigned[j], Round: 0})
		}
	}

	// Lines (7-8), Algorithm 5 (Rebalance): while at least ⌊H/2⌋ columns
	// still hold 2s, run Rearrange on ⌊H/2⌋ of them; each call removes at
	// least ⌈H/4⌉, so the loop runs at most twice.
	round := 1
	for twos >= bl.cfg.H/2 && bl.cfg.H >= 2 {
		moved := bl.rearrange(buckets, round)
		writes = append(writes, moved...)
		if len(moved) == 0 {
			break // degenerate instance; remaining blocks will be carried
		}
		twos -= len(moved)
		round++
	}

	// Remaining 2s become unprocessed blocks, in column order: decrement X
	// (line 7's compensation) and report them as carry.
	for _, j := range twoAt {
		if j >= 0 {
			bl.x[buckets[j]][assigned[j]]--
			carry = append(carry, j)
		}
	}

	bl.stats.BlocksPlaced += len(writes)
	bl.stats.BlocksCarried += len(carry)
	bl.stats.ExtraWriteSteps += round - 1
	return writes, carry
}

// rearrange is Algorithm 6: build the bipartite instance over the first
// ⌊H/2⌋ columns holding 2s, match, and move each matched block to its zero
// column. Matched columns are cleared from twoAt. The returned placements
// share one write round (one parallel memory reference).
func (bl *Balancer) rearrange(buckets []int, round int) []Placement {
	sp := bl.cfg.Parent.Child("sort", "repair-rearrange", 0)
	// U is at most ⌊H/2⌋ columns ("the next ⌊H'/2⌋ 2s").
	var cols []int
	for h, j := range bl.twoAt {
		if j >= 0 && len(cols) < bl.cfg.H/2 {
			cols = append(cols, h)
		}
	}
	g := matching.NewGraph(bl.cfg.H, len(cols))
	for i, h := range cols {
		g.U[i] = h
		for v, a := range bl.auxRow(buckets[bl.twoAt[h]]) {
			g.Adj[i][v] = a == 0
		}
	}

	var res matching.Result
	switch bl.cfg.Match {
	case MatchDerandomized:
		res = matching.Derandomized(g, bl.cfg.TCost)
	case MatchRandomized:
		res = matching.Randomized(g, bl.rng, bl.cfg.TCost)
	case MatchGreedy:
		res = matching.Greedy(g, bl.cfg.TCost)
	default:
		panic("balance: unknown match strategy")
	}
	bl.stats.RearrangeCalls++
	bl.stats.MatchTime += res.ParallelTime

	var moved []Placement
	for _, pr := range res.Pairs {
		h := g.U[pr.I]
		j := bl.twoAt[h]
		b := buckets[j]
		// Swap the placement: the 2 at (b, h) moves to the 0 at (b, pr.V).
		bl.x[b][h]--
		bl.x[b][pr.V]++
		moved = append(moved, Placement{Block: j, VDisk: pr.V, Round: round})
		bl.twoAt[h] = -1
		bl.stats.RearrangeMoves++
	}
	sp.End(
		obs.Attr{Key: "round", Val: int64(round)},
		obs.Attr{Key: "twos", Val: int64(len(cols))},
		obs.Attr{Key: "moved", Val: int64(len(moved))},
	)
	return moved
}

// PlaceStream drives the track discipline over an arbitrary stream of
// formed blocks and returns the final virtual disk of each one: buckets[i]
// is block i's bucket label in formation order, and the result's entry i is
// the disk PlaceTrack ultimately assigned it. Carried blocks are returned
// to the head of the next track — the paper's "conceptually written back to
// the input" — so callers that batch placement round by round (the cluster
// coordinator planning an all-to-all exchange) get exactly the same
// placements as callers that interleave PlaceTrack with real I/O, and
// Invariant 2 holds when PlaceStream returns.
func (bl *Balancer) PlaceStream(buckets []int) []int {
	dest := make([]int, len(buckets))
	for i := range dest {
		dest[i] = -1
	}
	var pending []int // indices into buckets, carried from the last track
	next := 0
	stuck := 0
	for next < len(buckets) || len(pending) > 0 {
		track := pending
		pending = nil
		for len(track) < bl.cfg.H && next < len(buckets) {
			track = append(track, next)
			next++
		}
		labels := make([]int, len(track))
		for j, idx := range track {
			labels[j] = buckets[idx]
		}
		writes, carry := bl.PlaceTrack(labels)
		for _, pl := range writes {
			dest[track[pl.Block]] = pl.VDisk
		}
		for _, c := range carry {
			pending = append(pending, track[c])
		}
		// The rotation guarantees a carried block places within O(H) further
		// tracks; a longer stall is a bug, not an input property.
		if len(writes) == 0 {
			if stuck++; stuck > 16*bl.cfg.H {
				panic("balance: PlaceStream made no progress")
			}
		} else {
			stuck = 0
		}
	}
	return dest
}

// MaxRowSpread returns, for each bucket, the maximum number of blocks on
// any single virtual disk and the bucket's total block count — the inputs
// to Theorem 4's read-cost bound.
func (bl *Balancer) MaxRowSpread() (maxPer []int, totals []int) {
	maxPer = make([]int, bl.cfg.S)
	totals = make([]int, bl.cfg.S)
	for b, row := range bl.x {
		for _, x := range row {
			totals[b] += x
			if x > maxPer[b] {
				maxPer[b] = x
			}
		}
	}
	return maxPer, totals
}

package balance

import (
	"testing"
	"testing/quick"

	"balancesort/internal/record"
)

// runTracks feeds n tracks of random bucket labels (distribution dist over
// S buckets) through the balancer, simulating the caller's carry loop: a
// carried block is re-offered on the next track, exactly like records
// conceptually returned to the input. It verifies invariants after every
// track and returns the balancer.
func runTracks(t *testing.T, cfg Config, nTracks int, seed uint64, dist func(*record.RNG) int) *Balancer {
	t.Helper()
	bl := New(cfg)
	rng := record.NewRNG(seed)
	var pending []int
	for i := 0; i < nTracks; i++ {
		track := pending
		pending = nil
		for len(track) < cfg.H {
			track = append(track, dist(rng))
		}
		writes, carry := bl.PlaceTrack(track)
		if len(writes)+len(carry) != len(track) {
			t.Fatalf("track %d: %d writes + %d carries != %d blocks", i, len(writes), len(carry), len(track))
		}
		seen := make(map[int]bool)
		for _, w := range writes {
			if seen[w.Block] {
				t.Fatalf("track %d: block %d placed twice", i, w.Block)
			}
			seen[w.Block] = true
		}
		// No two writes in the same round may share a virtual disk.
		type rv struct{ r, v int }
		used := make(map[rv]bool)
		for _, w := range writes {
			k := rv{w.Round, w.VDisk}
			if used[k] {
				t.Fatalf("track %d: two blocks on vdisk %d in round %d", i, w.VDisk, w.Round)
			}
			used[k] = true
		}
		for _, c := range carry {
			if seen[c] {
				t.Fatalf("track %d: block %d both placed and carried", i, c)
			}
			pending = append(pending, track[c])
		}
		if err := bl.CheckInvariant2(); err != nil {
			t.Fatalf("track %d: %v", i, err)
		}
		if err := bl.CheckInvariant1(); err != nil {
			t.Fatalf("track %d: %v", i, err)
		}
	}
	return bl
}

func uniformDist(s int) func(*record.RNG) int {
	return func(r *record.RNG) int { return r.Intn(s) }
}

// hotDist sends 90% of blocks to bucket 0.
func hotDist(s int) func(*record.RNG) int {
	return func(r *record.RNG) int {
		if r.Intn(10) != 0 {
			return 0
		}
		return r.Intn(s)
	}
}

func TestInvariantsUniform(t *testing.T) {
	runTracks(t, Config{S: 8, H: 8}, 200, 1, uniformDist(8))
}

func TestInvariantsHotBucket(t *testing.T) {
	runTracks(t, Config{S: 8, H: 8}, 200, 2, hotDist(8))
}

func TestInvariantsSingleBucket(t *testing.T) {
	// Every block in one bucket: the adversarial extreme.
	runTracks(t, Config{S: 4, H: 16}, 100, 3, func(*record.RNG) int { return 0 })
}

func TestInvariantsSmallH(t *testing.T) {
	for _, h := range []int{1, 2, 3, 4} {
		runTracks(t, Config{S: 5, H: h}, 100, uint64(h), uniformDist(5))
	}
}

func TestInvariantsManyBucketsFewDisks(t *testing.T) {
	runTracks(t, Config{S: 64, H: 4}, 150, 4, uniformDist(64))
}

func TestInvariantsRandomizedMatching(t *testing.T) {
	runTracks(t, Config{S: 8, H: 8, Match: MatchRandomized, Seed: 7}, 200, 5, hotDist(8))
}

func TestInvariantsGreedyMatching(t *testing.T) {
	runTracks(t, Config{S: 8, H: 8, Match: MatchGreedy}, 200, 6, hotDist(8))
}

func TestTheorem4BalanceFactor(t *testing.T) {
	// After many tracks, every bucket must be readable in at most about
	// twice the optimal number of parallel reads: max_h X[b][h] <=
	// 2*ceil(total_b/H) + 1 (the +1 absorbs start-up rounding; the paper's
	// statement is "no more than a factor of about 2").
	for _, dist := range []func(*record.RNG) int{uniformDist(8), hotDist(8), func(*record.RNG) int { return 0 }} {
		bl := runTracks(t, Config{S: 8, H: 8}, 300, 9, dist)
		maxPer, totals := bl.MaxRowSpread()
		for b := range maxPer {
			if totals[b] == 0 {
				continue
			}
			opt := (totals[b] + bl.H() - 1) / bl.H()
			if maxPer[b] > 2*opt+1 {
				t.Fatalf("bucket %d: max/disk %d vs optimal %d — balance factor exceeded", b, maxPer[b], opt)
			}
		}
	}
}

func TestPlaceTrackDeterministic(t *testing.T) {
	run := func() ([][]int, Stats) {
		bl := New(Config{S: 4, H: 8})
		rng := record.NewRNG(11)
		for i := 0; i < 50; i++ {
			track := make([]int, 8)
			for j := range track {
				track[j] = rng.Intn(4)
			}
			bl.PlaceTrack(track)
		}
		return bl.Histogram(), bl.Stats()
	}
	x1, s1 := run()
	x2, s2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	for b := range x1 {
		for h := range x1[b] {
			if x1[b][h] != x2[b][h] {
				t.Fatal("histogram differs across identical runs")
			}
		}
	}
}

func TestPartialTrack(t *testing.T) {
	bl := New(Config{S: 3, H: 8})
	writes, carry := bl.PlaceTrack([]int{0, 1})
	if len(writes) != 2 || len(carry) != 0 {
		t.Fatalf("partial track mishandled: %d writes %d carries", len(writes), len(carry))
	}
}

func TestEmptyTrack(t *testing.T) {
	bl := New(Config{S: 3, H: 8})
	writes, carry := bl.PlaceTrack(nil)
	if len(writes) != 0 || len(carry) != 0 {
		t.Fatal("empty track produced placements")
	}
	if bl.Stats().Tracks != 1 {
		t.Fatal("empty track not counted")
	}
}

func TestOversizedTrackPanics(t *testing.T) {
	bl := New(Config{S: 2, H: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("oversized track did not panic")
		}
	}()
	bl.PlaceTrack(make([]int, 5))
}

func TestBadBucketPanics(t *testing.T) {
	bl := New(Config{S: 2, H: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range bucket did not panic")
		}
	}()
	bl.PlaceTrack([]int{0, 2})
}

func TestHistogramMatchesPlacements(t *testing.T) {
	// Reconstruct X from the returned placements; it must equal the
	// balancer's own histogram (carried blocks excluded).
	bl := New(Config{S: 4, H: 8})
	rng := record.NewRNG(13)
	shadow := make([][]int, 4)
	for i := range shadow {
		shadow[i] = make([]int, 8)
	}
	var pending []int
	for i := 0; i < 120; i++ {
		track := pending
		pending = nil
		for len(track) < 8 {
			track = append(track, rng.Intn(4))
		}
		writes, carry := bl.PlaceTrack(track)
		for _, w := range writes {
			shadow[track[w.Block]][w.VDisk]++
		}
		for _, c := range carry {
			pending = append(pending, track[c])
		}
	}
	x := bl.Histogram()
	for b := range x {
		for h := range x[b] {
			if x[b][h] != shadow[b][h] {
				t.Fatalf("X[%d][%d] = %d, placements say %d", b, h, x[b][h], shadow[b][h])
			}
		}
	}
}

func TestAuxMedianDefinition(t *testing.T) {
	bl := New(Config{S: 1, H: 4})
	bl.x[0] = []int{1, 1, 3, 2}
	a := bl.Aux()
	// Median = ceil(4/2) = 2nd smallest = 1; A = max(0, x-1).
	want := []int{0, 0, 2, 1}
	for h := range want {
		if a[0][h] != want[h] {
			t.Fatalf("aux = %v, want %v", a[0], want)
		}
	}
}

func TestAuxTwiceAverageRule(t *testing.T) {
	bl := New(Config{S: 1, H: 4, Rule: AuxTwiceAverage})
	bl.x[0] = []int{0, 0, 0, 12}
	a := bl.Aux()
	// total 12, even share 3, limit 2*3+1=7; only the 12 is overloaded.
	want := []int{0, 0, 0, 2}
	for h := range want {
		if a[0][h] != want[h] {
			t.Fatalf("aux = %v, want %v", a[0], want)
		}
	}
}

func TestInvariantsArgeRule(t *testing.T) {
	bl := runTracks(t, Config{S: 8, H: 8, Rule: AuxTwiceAverage}, 200, 15, hotDist(8))
	// The Arge rule also keeps buckets within a factor ~2 (its definition).
	maxPer, totals := bl.MaxRowSpread()
	for b := range maxPer {
		if totals[b] == 0 {
			continue
		}
		opt := (totals[b] + bl.H() - 1) / bl.H()
		if maxPer[b] > 2*opt+1 {
			t.Fatalf("bucket %d: max/disk %d vs optimal %d under Arge rule", b, maxPer[b], opt)
		}
	}
}

func TestInvariant2Property(t *testing.T) {
	// Property: for any bucket-label stream, invariant 2 holds after every
	// track and the balance factor stays bounded.
	f := func(seed uint64, sRaw, hRaw uint8) bool {
		s := 1 + int(sRaw) // up to 256, the widest size-aware fan-out
		h := 1 + int(hRaw%16)
		bl := New(Config{S: s, H: h})
		rng := record.NewRNG(seed)
		var pending []int
		for i := 0; i < 40; i++ {
			track := pending
			pending = nil
			for len(track) < h {
				track = append(track, rng.Intn(s))
			}
			_, carry := bl.PlaceTrack(track)
			for _, c := range carry {
				pending = append(pending, track[c])
			}
			if bl.CheckInvariant2() != nil || bl.CheckInvariant1() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceTrackAllocsIndependentOfS pins the per-track cost: placement
// reads A only on the track's own rows, so a pass with 256 buckets
// allocates no more per track than one with 4. Both see the same labels.
func TestPlaceTrackAllocsIndependentOfS(t *testing.T) {
	perTrack := func(s int) float64 {
		bl := New(Config{S: s, H: 8})
		rng := record.NewRNG(1)
		track := make([]int, 8)
		return testing.AllocsPerRun(200, func() {
			for j := range track {
				track[j] = rng.Intn(4)
			}
			bl.PlaceTrack(track)
		})
	}
	few, many := perTrack(4), perTrack(256)
	t.Logf("allocations per track: %.1f at S=4, %.1f at S=256", few, many)
	if many > few {
		t.Fatalf("PlaceTrack allocates %.1f times per track at S=256, %.1f at S=4", many, few)
	}
}

func TestCheckInvariantsShrunkDiskSet(t *testing.T) {
	// Failover re-plans the same bucket stream over one fewer disk. The
	// combined invariant check must pass on every H' from H down to 1 —
	// the Theorem 4 guarantees are per-matrix, not tied to the original
	// width — and must report a fabricated violation.
	rng := record.NewRNG(7)
	labels := make([]int, 4096)
	for i := range labels {
		labels[i] = rng.Intn(13)
	}
	for h := 4; h >= 1; h-- {
		bl := New(Config{S: 13, H: h})
		bl.PlaceStream(labels)
		if err := bl.CheckInvariants(); err != nil {
			t.Fatalf("H'=%d: %v", h, err)
		}
	}
	// A forced invariant-2 violation must surface through the combined check.
	bl := New(Config{S: 2, H: 2})
	bl.x[0][0] = 6 // pile bucket 0 onto disk 0 behind the balancer's back
	if err := bl.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a matrix with A[0][0] > 1")
	}
}

func TestCarryIsBounded(t *testing.T) {
	// At most ⌊H/2⌋-1 blocks may be carried from any track (Rebalance
	// leaves fewer than ⌊H/2⌋ 2s).
	bl := New(Config{S: 4, H: 8})
	rng := record.NewRNG(21)
	var pending []int
	for i := 0; i < 200; i++ {
		track := pending
		pending = nil
		for len(track) < 8 {
			track = append(track, rng.Intn(4))
		}
		_, carry := bl.PlaceTrack(track)
		if len(carry) >= 4 {
			t.Fatalf("track %d carried %d blocks, Rebalance guarantees < H/2 = 4", i, len(carry))
		}
		for _, c := range carry {
			pending = append(pending, track[c])
		}
	}
}

func TestMemoryWords(t *testing.T) {
	bl := New(Config{S: 10, H: 7})
	if bl.MemoryWords() != 210 {
		t.Fatalf("MemoryWords = %d, want 210", bl.MemoryWords())
	}
}

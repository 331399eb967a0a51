package core

import (
	"balancesort/internal/balance"
	"balancesort/internal/obs"
	"balancesort/internal/record"
)

// A placer decides which virtual disk receives each formed block of a
// track. PlacementBalanced delegates to the balance machinery; the two
// baseline placers implement the strategies Balance Sort is compared with.
type placer interface {
	placeTrack(labels []int) (writes []balance.Placement, carry []int)
	stats() balance.Stats
}

// newPlacer returns the configured placer for one distribution pass whose
// distribute-tracks span is parent (repair spans become its children).
func (ds *DiskSorter) newPlacer(parent obs.Active, s, h int) placer {
	switch ds.cfg.Placement {
	case PlacementBalanced:
		return &balancedPlacer{bal: balance.New(balance.Config{
			S: s, H: h,
			Rule:   ds.cfg.Rule,
			Match:  ds.cfg.Match,
			Seed:   ds.cfg.Seed,
			TCost:  ds.cfg.TCost,
			Parent: parent,
		})}
	case PlacementRandom:
		return &randomPlacer{h: h, rng: record.NewRNG(ds.cfg.Seed ^ 0x5eed)}
	case PlacementRoundRobin:
		return &rrPlacer{h: h, next: make([]int, s)}
	default:
		panic("core: unknown placement strategy")
	}
}

type balancedPlacer struct {
	bal *balance.Balancer
}

func (p *balancedPlacer) placeTrack(labels []int) ([]balance.Placement, []int) {
	return p.bal.PlaceTrack(labels)
}

func (p *balancedPlacer) stats() balance.Stats { return p.bal.Stats() }

// randomPlacer writes each track's blocks to a uniformly random set of
// distinct virtual disks in a single round, with no carrying — the
// Vitter–Shriver randomized placement.
type randomPlacer struct {
	h   int
	rng *record.RNG
	st  balance.Stats
}

func (p *randomPlacer) placeTrack(labels []int) ([]balance.Placement, []int) {
	p.st.Tracks++
	perm := make([]int, p.h)
	for i := range perm {
		perm[i] = i
	}
	for i := p.h - 1; i > 0; i-- {
		j := p.rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	writes := make([]balance.Placement, len(labels))
	for j := range labels {
		writes[j] = balance.Placement{Block: j, VDisk: perm[j], Round: 0}
	}
	p.st.BlocksPlaced += len(labels)
	return writes, nil
}

func (p *randomPlacer) stats() balance.Stats { return p.st }

// rrPlacer gives every bucket an independent round-robin cursor over the
// virtual disks. Cursor collisions within a track are resolved by pushing
// blocks to additional write rounds, so each block still lands on the disk
// its bucket's cursor demanded — at the price of extra parallel I/Os.
type rrPlacer struct {
	h    int
	next []int // per-bucket cursor
	st   balance.Stats
}

func (p *rrPlacer) placeTrack(labels []int) ([]balance.Placement, []int) {
	p.st.Tracks++
	used := make(map[[2]int]bool) // (round, vdisk) -> taken
	writes := make([]balance.Placement, len(labels))
	maxRound := 0
	for j, b := range labels {
		v := p.next[b]
		p.next[b] = (v + 1) % p.h
		round := 0
		for used[[2]int{round, v}] {
			round++
		}
		used[[2]int{round, v}] = true
		if round > maxRound {
			maxRound = round
		}
		writes[j] = balance.Placement{Block: j, VDisk: v, Round: round}
	}
	p.st.BlocksPlaced += len(labels)
	p.st.ExtraWriteSteps += maxRound
	return writes, nil
}

func (p *rrPlacer) stats() balance.Stats { return p.st }

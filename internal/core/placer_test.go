package core

import (
	"testing"

	"balancesort/internal/obs"
	"balancesort/internal/record"
)

// TestRepairSpansNestUnderDistributeTracks checks that the balancer's
// repair spans are children of the pass's distribute-tracks span, one per
// Rearrange call, at a geometry small enough that repairs happen.
func TestRepairSpansNestUnderDistributeTracks(t *testing.T) {
	tr := obs.New(1<<16, nil)
	in := record.Generate(record.Uniform, 20000, 1)
	out, ds := sortOnDisks(t, smallParams(), DiskConfig{Trace: tr}, in)
	checkSorted(t, in, out)
	calls := ds.Metrics().Balance.RearrangeCalls
	if calls == 0 {
		t.Fatal("no Rearrange calls; the test needs a geometry that repairs")
	}
	names := make(map[uint64]string)
	for _, s := range tr.Spans() {
		names[s.SpanID] = s.Name
	}
	repairs := 0
	for _, s := range tr.Spans() {
		if s.Name != "repair-rearrange" {
			continue
		}
		repairs++
		if p := names[s.Parent]; p != "distribute-tracks" {
			t.Fatalf("repair-rearrange span %d parented under %q, want distribute-tracks", s.SpanID, p)
		}
	}
	if repairs != calls {
		t.Fatalf("%d repair-rearrange spans for %d Rearrange calls", repairs, calls)
	}
}

func TestSortRandomPlacementStillSorts(t *testing.T) {
	for _, w := range []record.Workload{record.Uniform, record.BucketSkew} {
		in := record.Generate(w, 10000, 21)
		out, _ := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementRandom, Seed: 5}, in)
		checkSorted(t, in, out)
	}
}

func TestSortRoundRobinPlacementStillSorts(t *testing.T) {
	for _, w := range []record.Workload{record.Uniform, record.BucketSkew} {
		in := record.Generate(w, 10000, 22)
		out, _ := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementRoundRobin}, in)
		checkSorted(t, in, out)
	}
}

func TestRandomPlacementIsSeedDeterministic(t *testing.T) {
	in := record.Generate(record.Uniform, 8000, 23)
	_, ds1 := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementRandom, Seed: 9}, in)
	_, ds2 := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementRandom, Seed: 9}, in)
	if ds1.Metrics().IOs != ds2.Metrics().IOs {
		t.Fatal("same seed produced different I/O counts")
	}
}

func TestRoundRobinPaysExtraWriteRounds(t *testing.T) {
	// With many buckets cycling independently, cursor collisions force
	// extra write rounds; the balanced placer avoids almost all of them.
	in := record.Generate(record.Uniform, 16000, 24)
	_, rr := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementRoundRobin}, in)
	_, bl := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementBalanced}, in)
	if rr.Metrics().Balance.ExtraWriteSteps == 0 {
		t.Log("round-robin placement saw no collisions on this workload (acceptable, but unusual)")
	}
	if bl.Metrics().IOs > 2*rr.Metrics().IOs {
		t.Fatalf("balanced placement used %d I/Os vs round-robin %d — should be comparable or better",
			bl.Metrics().IOs, rr.Metrics().IOs)
	}
}

func TestBalancedReadRatioNoWorseThanNaive(t *testing.T) {
	// On the skewed workload, the balanced placer's bucket-read ratio must
	// stay near 2; the point of the machinery.
	in := record.Generate(record.BucketSkew, 16000, 25)
	_, bl := sortOnDisks(t, smallParams(), DiskConfig{Placement: PlacementBalanced}, in)
	if r := bl.Metrics().MaxBucketReadRatio; r > 3 {
		t.Fatalf("balanced read ratio %.2f", r)
	}
}

package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// poolTrackByRecord is phase 3's classification one record at a time:
// each record's bucket is the number of pivots at most it, found by binary
// search, and the record is appended to that bucket's pool. It is the
// reference poolTrack's stretch copies must reproduce block for block.
func poolTrackByRecord(recs, pivots []record.Record, vb int, pools [][]record.Record, counts []int, pending []formedBlock) []formedBlock {
	for _, r := range recs {
		b := bucketOf(r, pivots)
		counts[b]++
		pools[b] = append(pools[b], r)
		if len(pools[b]) == vb {
			pending = append(pending, formedBlock{bucket: b, recs: pools[b], count: vb})
			pools[b] = nil
		}
	}
	return pending
}

// TestPoolTrackMatchesBucketOf feeds three sorted runs of every generator,
// a track at a time, to poolTrack and to the per-record reference, with
// pivots that include the runs' minimum and maximum, a repeated pivot,
// adjacent records and a pivot above every record. Every record equals or
// lies between pivots, and one equal to a pivot goes to the upper bucket.
// The formed blocks, in order, the pools left over and the bucket counts
// must be the same.
func TestPoolTrackMatchesBucketOf(t *testing.T) {
	p := pdm.Params{D: 4, B: 8, M: 1024}
	ds := NewDiskSorter(pdm.New(p), DiskConfig{})
	vb, track := ds.vd.VB(), ds.vd.V()*ds.vd.VB()
	for _, w := range record.AllWorkloads {
		const n = 3000
		in := record.Generate(w, n, 41)
		var runs [][]record.Record
		for lo := 0; lo < n; lo += n / 3 {
			run := slices.Clone(in[lo:min(lo+n/3, n)])
			slices.SortFunc(run, record.Record.Compare)
			runs = append(runs, run)
		}
		all := slices.Clone(in)
		slices.SortFunc(all, record.Record.Compare)
		var pivots []record.Record
		for _, i := range []int{0, n / 7, n / 7, n / 3, n / 2, n/2 + 1, 2 * n / 3, n - 1} {
			pivots = append(pivots, all[i])
		}
		pivots = append(pivots, record.Record{Key: math.MaxUint64, Loc: math.MaxUint64})
		s := len(pivots) + 1

		gotPools, wantPools := make([][]record.Record, s), make([][]record.Record, s)
		gotCounts, wantCounts := make([]int, s), make([]int, s)
		var got, want []formedBlock
		for _, run := range runs {
			for lo := 0; lo < len(run); lo += track {
				recs := run[lo:min(lo+track, len(run))]
				got = ds.poolTrack(recs, pivots, gotPools, gotCounts, got)
				want = poolTrackByRecord(recs, pivots, vb, wantPools, wantCounts, want)
			}
		}
		if !slices.Equal(gotCounts, wantCounts) {
			t.Fatalf("%v: bucket counts %v, want %v", w, gotCounts, wantCounts)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d blocks formed, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i].bucket != want[i].bucket || got[i].count != want[i].count || !slices.Equal(got[i].recs, want[i].recs) {
				t.Fatalf("%v: block %d is bucket %d with %d records, want bucket %d with %d (or its records differ)",
					w, i, got[i].bucket, got[i].count, want[i].bucket, want[i].count)
			}
		}
		for b := range wantPools {
			if !slices.Equal(gotPools[b], wantPools[b]) {
				t.Fatalf("%v: bucket %d's pool holds %d records, want %d (or they differ)", w, b, len(gotPools[b]), len(wantPools[b]))
			}
		}
		if wantCounts[0] != 0 || wantCounts[2] != 0 || wantCounts[s-1] != 0 {
			t.Fatalf("%v: counts %v; buckets below the minimum, between the repeated pivots and above every record must be empty", w, wantCounts)
		}
	}
}

// firstPassShape sorts recs and describes the work its first distribution
// pass left: each nonempty bucket's record count and its chain length on
// every virtual disk, in bucket order.
func firstPassShape(t *testing.T, p pdm.Params, cfg DiskConfig, recs []record.Record) string {
	t.Helper()
	arr := pdm.New(p)
	defer arr.Close()
	var first []SourceDesc
	cfg.Checkpoint = func(st CheckpointState) error {
		if first == nil {
			first = st.Work
		}
		return nil
	}
	ds := NewDiskSorter(arr, cfg)
	in := ds.WriteInput(recs)
	ds.Sort(in.Off, in.N)
	var b strings.Builder
	for i, d := range first {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:", d.Total())
		for h, ch := range d.Chains {
			if h > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", len(ch))
		}
	}
	return b.String()
}

// TestFirstPassBucketsUnchanged pins, for every generator, the buckets of
// a first distribution pass (S = 8 over four virtual disks, and the
// size-aware fan-out over two) as phase 3 classified them one record at a
// time: the stretch copies over sorted runs must form the same blocks, so
// every bucket's count and chain lengths stay as they were.
func TestFirstPassBucketsUnchanged(t *testing.T) {
	want := map[record.Workload][2]string{
		record.Uniform: {
			"1096:35,34,33,35 923:29,29,29,29 318:11,10,9,10 951:30,31,30,28 900:28,27,29,29 272:8,9,9,8 994:32,30,31,32 546:18,17,17,17",
			"3965:124,124 2964:93,93 2884:90,91 3322:104,104 2716:85,85 4149:130,130",
		},
		record.FewDistinct: {
			"1287:40,40,40,41 581:19,17,19,18 515:17,16,16,16 799:24,25,26,25 990:30,31,31,32 636:21,19,20,20 626:20,20,20,19 566:17,18,18,18",
			"4943:155,154 3213:100,101 3053:96,95 2941:92,92 2873:90,90 2977:93,94",
		},
		record.NearlySorted: {
			"706:23,23,22,21 766:22,25,25,24 714:23,21,23,23 768:24,25,23,24 770:24,24,24,25 719:23,23,23,21 768:22,25,24,25 789:24,25,25,25",
			"3311:104,103 3318:104,104 3325:104,104 3325:104,104 3334:105,104 3387:106,106",
		},
		record.Reversed: {
			"717:23,23,23,21 768:24,24,24,24 721:23,22,23,23 768:23,24,24,25 768:25,24,24,23 700:22,22,22,22 768:25,24,24,23 790:24,25,25,25",
			"3261:102,102 3309:104,103 3347:105,105 3309:104,103 3347:105,105 3427:108,107",
		},
		record.BucketSkew: {
			"1130:35,36,35,36 967:31,28,31,31 272:8,9,8,9 977:31,32,29,31 853:27,27,28,25 287:9,9,8,10 971:31,31,30,30 543:17,18,16,17",
			"3762:118,118 3342:104,105 2667:84,83 3211:100,101 3134:98,98 3884:121,122",
		},
		record.Zipf: {
			"803:26,25,25,25 1264:40,40,38,40 270:7,9,9,9 949:30,29,30,30 861:27,28,26,27 305:10,10,10,9 1035:32,33,32,33 513:17,17,16,15",
			"4528:141,142 2601:81,82 2829:89,88 3117:97,98 3037:95,95 3888:122,121",
		},
	}
	cases := []struct {
		p   pdm.Params
		cfg DiskConfig
		n   int
	}{
		{pdm.Params{D: 4, B: 8, M: 512}, DiskConfig{S: 8, Internal: SortRadix}, 6000},
		{pdm.Params{D: 4, B: 8, M: 1024}, DiskConfig{V: 2, Internal: SortRadix}, 20000},
	}
	for _, w := range record.AllWorkloads {
		for i, c := range cases {
			if got := firstPassShape(t, c.p, c.cfg, record.Generate(w, c.n, 31)); got != want[w][i] {
				t.Errorf("%v n=%d: first pass buckets\n got %s\nwant %s", w, c.n, got, want[w][i])
			}
		}
	}
}

package balancesort_test

import (
	"errors"
	"testing"

	"balancesort"
	"balancesort/internal/balance"
	"balancesort/internal/core"
	"balancesort/internal/record"
)

// FuzzSort drives the whole disk sorter with fuzzer-chosen keys and model
// parameters; any unsorted output, lost record, invariant violation, or
// memory-budget overflow surfaces as a panic or a reported failure.
func FuzzSort(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{255, 0, 255, 0, 9, 9, 9, 9, 1}, uint8(3), uint8(2))
	f.Add(make([]byte, 4096), uint8(3), uint8(0))         // one giant duplicate run
	f.Add([]byte{7}, uint8(3), uint8(2))                  // single record, widest geometry
	f.Add([]byte{31, 30, 29, 28, 27, 26, 25, 24, 23, 22}, // strictly descending keys
		uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, dRaw, bRaw uint8) {
		if len(raw) > 1<<14 {
			raw = raw[:1<<14]
		}
		d := 1 << (dRaw % 4)  // 1..8 disks
		bs := 4 << (bRaw % 3) // 4..16 records per block
		m := 16 * d * bs      // comfortably >= 4DB
		in := make([]balancesort.Record, 0, len(raw))
		for i, by := range raw {
			// Narrow key space provokes duplicates and skewed buckets.
			in = append(in, balancesort.Record{Key: uint64(by % 32), Loc: uint64(i)})
		}
		res, err := balancesort.Sort(in, balancesort.Config{Disks: d, BlockSize: bs, Memory: m})
		if err != nil {
			t.Fatal(err)
		}
		if !balancesort.Verify(in, res.Records) {
			t.Fatalf("bad output for d=%d b=%d n=%d", d, bs, len(in))
		}
	})
}

// geometryWorkloads are the workloads FuzzSortGeometry draws from.
var geometryWorkloads = []balancesort.Workload{
	balancesort.Uniform, balancesort.FewDistinct, balancesort.NearlySorted,
	balancesort.Reversed, balancesort.BucketSkew, balancesort.Zipf,
}

// FuzzSortGeometry drives Sort over the geometries Config.Validate
// accepts — D and B in 1..16, M in [4DB, 64DB], fewer than 8192 records of
// any workload — down to the smallest memories, where a distribution pass
// can stall. Sort must never panic: it sorts, or it returns the sorter's
// *core.StallError.
func FuzzSortGeometry(f *testing.F) {
	// Rows that panicked before single-sample runs gave their median,
	// thinning spread the sample over every run, and the first pivot
	// skipped the sample minimum: (D-1, B-1, M-4DB, n, workload, seed).
	f.Add(uint8(3), uint8(1), uint16(96), uint16(6000), uint8(0), uint64(1)) // D=4 B=2 M=128 uniform
	f.Add(uint8(3), uint8(1), uint16(0), uint16(6000), uint8(3), uint64(1))  // D=4 B=2 M=32 reversed
	f.Add(uint8(3), uint8(1), uint16(32), uint16(6000), uint8(4), uint64(2)) // D=4 B=2 M=64 bucketskew
	f.Add(uint8(3), uint8(1), uint16(64), uint16(6000), uint8(0), uint64(3)) // D=4 B=2 M=96 uniform
	f.Add(uint8(3), uint8(3), uint16(0), uint16(6000), uint8(4), uint64(1))  // D=4 B=4 M=64 bucketskew
	f.Add(uint8(3), uint8(3), uint16(64), uint16(6000), uint8(0), uint64(2)) // D=4 B=4 M=128 uniform
	f.Add(uint8(7), uint8(3), uint16(0), uint16(6000), uint8(4), uint64(3))  // D=8 B=4 M=128 bucketskew
	f.Add(uint8(1), uint8(3), uint16(0), uint16(6000), uint8(2), uint64(1))  // D=2 B=4 M=32 nearlysorted
	f.Add(uint8(7), uint8(1), uint16(0), uint16(6000), uint8(0), uint64(4))  // D=8 B=2 M=64 uniform
	f.Add(uint8(0), uint8(0), uint16(4), uint16(6000), uint8(3), uint64(1))  // D=1 B=1 M=8 reversed, now sorts
	f.Add(uint8(0), uint8(0), uint16(4), uint16(6000), uint8(1), uint64(1))  // D=1 B=1 M=8 fewdistinct, still stalls
	f.Fuzz(func(t *testing.T, dRaw, bRaw uint8, mRaw, nRaw uint16, wRaw uint8, seed uint64) {
		d, b := 1+int(dRaw%16), 1+int(bRaw%16)
		cfg := balancesort.Config{Disks: d, BlockSize: b, Memory: 4*d*b + int(mRaw)%(60*d*b+1)}
		if cfg.Validate() != nil {
			t.Skip()
		}
		in := balancesort.NewWorkload(geometryWorkloads[int(wRaw)%len(geometryWorkloads)], int(nRaw%8192), seed)
		res, err := balancesort.Sort(in, cfg)
		if err != nil {
			var stall *core.StallError
			if !errors.As(err, &stall) {
				t.Fatalf("D=%d B=%d M=%d n=%d: %v", d, b, cfg.Memory, len(in), err)
			}
			return
		}
		if !balancesort.Verify(in, res.Records) {
			t.Fatalf("D=%d B=%d M=%d n=%d: output is not the sorted input", d, b, cfg.Memory, len(in))
		}
	})
}

// FuzzBalancer feeds arbitrary bucket-label streams through the balance
// core and checks both invariants after every track.
func FuzzBalancer(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0}, uint8(4), uint8(4))
	f.Add([]byte{0}, uint8(1), uint8(1))
	f.Add(make([]byte, 512), uint8(255), uint8(15)) // all one bucket, S=256, H=16
	f.Add([]byte{5, 5, 5, 5, 1, 1, 1, 1, 5, 5, 5, 5}, uint8(2), uint8(8))
	f.Fuzz(func(t *testing.T, labels []byte, sRaw, hRaw uint8) {
		if len(labels) > 4096 {
			labels = labels[:4096]
		}
		s := 1 + int(sRaw) // up to 256, the widest size-aware fan-out
		h := 1 + int(hRaw%16)
		bl := balance.New(balance.Config{S: s, H: h})
		var pending []int
		pos := 0
		for pos < len(labels) || len(pending) > 0 {
			track := pending
			pending = nil
			for len(track) < h && pos < len(labels) {
				track = append(track, int(labels[pos])%s)
				pos++
			}
			if len(track) == 0 {
				break
			}
			writes, carry := bl.PlaceTrack(track)
			if len(writes)+len(carry) != len(track) {
				t.Fatalf("placement lost blocks: %d+%d != %d", len(writes), len(carry), len(track))
			}
			for _, c := range carry {
				pending = append(pending, track[c])
			}
			if err := bl.CheckInvariant1(); err != nil {
				t.Fatal(err)
			}
			if err := bl.CheckInvariant2(); err != nil {
				t.Fatal(err)
			}
			if pos >= len(labels) && len(carry) == len(track) {
				// Tail blocks that never place would loop forever only if
				// the balancer stopped making progress; the rotation
				// guarantees placement within H further tracks, so give it
				// that long before declaring failure.
				deadline := 10 * h
				for len(pending) > 0 && deadline > 0 {
					w2, c2 := bl.PlaceTrack(pending)
					next := make([]int, 0, len(c2))
					for _, c := range c2 {
						next = append(next, pending[c])
					}
					pending = next
					deadline--
					_ = w2
				}
				if len(pending) > 0 {
					t.Fatal("balancer failed to drain tail blocks")
				}
			}
		}
	})
}

// FuzzRecordCodec round-trips the wire format.
func FuzzRecordCodec(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(42))
	f.Fuzz(func(t *testing.T, k, l uint64) {
		r := record.Record{Key: k, Loc: l}
		buf := record.Encode(nil, r)
		if got := record.Decode(buf); got != r {
			t.Fatalf("codec round trip: %v != %v", got, r)
		}
	})
}

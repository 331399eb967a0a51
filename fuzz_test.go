package balancesort_test

import (
	"testing"

	"balancesort"
	"balancesort/internal/balance"
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

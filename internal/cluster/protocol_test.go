package cluster

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"balancesort/internal/obs"
)

// roundTrip encodes m, decodes into fresh, and compares. Every message type
// must survive its own codec bit-exactly and reject trailing garbage.
func roundTrip(t *testing.T, name string, m interface {
	encode() []byte
}, fresh interface {
	decode([]byte) error
}) {
	t.Helper()
	p := m.encode()
	if err := fresh.decode(p); err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	// The decoded message must re-encode to the same bytes.
	re, ok := fresh.(interface{ encode() []byte })
	if !ok {
		t.Fatalf("%s: no encode on decoded value", name)
	}
	if !bytes.Equal(re.encode(), p) {
		t.Fatalf("%s: re-encode differs", name)
	}
	if !reflect.DeepEqual(normalize(m), normalize(fresh)) {
		t.Fatalf("%s: round trip mutated the message:\n  sent %+v\n  got  %+v", name, m, fresh)
	}
	if err := fresh.decode(append(p, 0)); err == nil {
		t.Fatalf("%s: trailing byte went undetected", name)
	}
	if len(p) > 0 {
		if err := fresh.decode(p[:len(p)-1]); err == nil {
			t.Fatalf("%s: truncated payload went undetected", name)
		}
	}
}

// normalize flattens nil-vs-empty slice differences before DeepEqual.
func normalize(v any) string {
	re := v.(interface{ encode() []byte })
	return string(re.encode())
}

func TestMessageRoundTrips(t *testing.T) {
	roundTrip(t, "hello", &msgHello{
		Version: protocolVersion, JobID: 0xDEADBEEF, Worker: 1, Workers: 4,
		S: 16, BlockRecs: 2048, Beat: 250 * time.Millisecond,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:2", "", "host:99"},
	}, &msgHello{})
	roundTrip(t, "count", &msgCount{Count: 1 << 40}, &msgCount{})
	bins := make([]uint64, histBins)
	for i := range bins {
		bins[i] = uint64(i * i)
	}
	roundTrip(t, "histogram", &msgHistogram{Bins: bins}, &msgHistogram{})
	roundTrip(t, "pivots", &msgPivots{Pivots: []uint64{1, 99, ^uint64(0)}}, &msgPivots{})
	roundTrip(t, "plan", &msgPlan{
		Dests:            [][]uint32{{0, 1, 2}, {}, {3}},
		ExpectRecvBlocks: 12,
		Owners:           []uint32{0, 0, 1},
		ExpectGatherRecs: 9999,
	}, &msgPlan{})
	roundTrip(t, "phasedone", &msgPhaseDone{Phase: 2, BlocksSent: 5, BlocksRecv: 6, RecsRecv: 7}, &msgPhaseDone{})
	roundTrip(t, "peerhello", &msgPeerHello{JobID: 42, Src: 3, Epoch: 2}, &msgPeerHello{})
	roundTrip(t, "block", &msgBlock{Phase: 1, Src: 2, Bucket: 3, Seq: 4, Data: make([]byte, 64)}, &msgBlock{})
	roundTrip(t, "blockack", &msgBlockAck{Phase: 1, Bucket: 3, Seq: 4}, &msgBlockAck{})
	roundTrip(t, "error", &msgError{Code: ecWorkerLost, Worker: 2, Addr: "h:1", Text: "gone"}, &msgError{})
	roundTrip(t, "trace", &msgTrace{
		EpochNanos: 0x1122334455667788,
		Spans: []obs.Span{
			{Layer: "cluster", Name: "exchange", ID: 3, Start: 5 * time.Millisecond, Dur: time.Millisecond,
				SpanID: 7, Parent: 2,
				Attrs: []obs.Attr{{Key: "blocks", Val: 12}, {Key: "neg", Val: -7}}},
			{Layer: "cluster", Name: "flow-plan", ID: 1, Start: time.Microsecond,
				SpanID: 9, Flow: 0xDEADBEEFCAFE, FlowOut: true},
			{Layer: "sort", Name: "base-case", Start: time.Microsecond, Dur: time.Microsecond},
		},
	}, &msgTrace{})
	roundTrip(t, "trace-empty", &msgTrace{EpochNanos: 1}, &msgTrace{})
	roundTrip(t, "version", &msgVersion{Version: protocolVersion}, &msgVersion{})
	roundTrip(t, "progress", &msgProgress{Phase: 5, Units: 1 << 40}, &msgProgress{})
	roundTrip(t, "crash", &msgCrash{Mode: crashHang}, &msgCrash{})
	roundTrip(t, "crash-stall", &msgCrash{Mode: crashStall, Factor: 20}, &msgCrash{})
	roundTrip(t, "peerlost", &msgPeerLost{Epoch: 4, Worker: 2, Addr: "h:9", Text: "conn reset"}, &msgPeerLost{})
	roundTrip(t, "rescatter", &msgRescatter{Epoch: 1, Active: []uint32{0, 2, 3}}, &msgRescatter{})
	roundTrip(t, "rescatter-churn", &msgRescatter{
		Epoch: 3, Active: []uint32{0, 1, 4}, Fresh: true, Peers: []string{"a:1", "b:2", "", "d:4", "e:5"},
	}, &msgRescatter{})
	roundTrip(t, "rescatterdone", &msgRescatterDone{Epoch: 1, Total: 1 << 33}, &msgRescatterDone{})
	roundTrip(t, "rescatterack", &msgRescatterAck{Epoch: 1, ShardRecs: 77}, &msgRescatterAck{})
	roundTrip(t, "resumestate", &msgResumeState{
		Version: protocolVersion, HaveShard: 1, Epoch: 3, ShardRecs: 5000,
	}, &msgResumeState{})
	roundTrip(t, "hedgesend", &msgHedgeSend{Epoch: 2, Victim: 1, Target: 3, Recs: 5000, Buckets: []uint32{3, 4}}, &msgHedgeSend{})
}

// TestHandshakeVersionMismatch: one dialect means an exact version match on
// every handshake. A worker refuses mHello and mResume at any other
// version with an mError naming both versions; a coordinator whose worker
// acks with another version fails the job at once, with no failover; and a
// joiner that acks with another version is not admitted.
func TestHandshakeVersionMismatch(t *testing.T) {
	addrs := startWorkers(t, 1, fastWorker)
	for _, typ := range []byte{mHello, mResume} {
		for _, v := range []uint32{protocolVersion - 1, protocolVersion + 1} {
			h := msgHello{Version: v, JobID: 9, Worker: 0, Workers: 1, S: 4, BlockRecs: 16, Peers: addrs}
			conn, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
			if err := writeFrame(conn, typ, h.encode()); err != nil {
				t.Fatal(err)
			}
			rt, payload, err := readFrame(bufio.NewReader(conn), nil)
			conn.Close()
			if err != nil {
				t.Fatalf("message %d at protocol %d: %v, want an mError", typ, v, err)
			}
			var e msgError
			if rt != mError || e.decode(payload) != nil {
				t.Fatalf("message %d at protocol %d answered with message %d, want mError", typ, v, rt)
			}
			if want := versionMismatch(v).Error(); e.Text != want {
				t.Fatalf("message %d at protocol %d refused with %q, want %q", typ, v, e.Text, want)
			}
		}
	}

	// A fake worker that answers every handshake with another version.
	other := uint32(protocolVersion + 1)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		fakes  sync.WaitGroup
		hellos atomic.Int32 // mHello handshakes the fake answered
	)
	defer fakes.Wait()
	defer ln.Close()
	fakes.Add(1)
	go func() {
		defer fakes.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			fakes.Add(1)
			go func() {
				defer fakes.Done()
				defer conn.Close()
				br := bufio.NewReader(conn)
				typ, _, err := readFrame(br, nil)
				if err != nil {
					return
				}
				if typ == mHello {
					hellos.Add(1)
				}
				_ = writeFrame(conn, mHelloAck, (&msgVersion{Version: other}).encode())
				_, _, _ = readFrame(br, nil) // hold the connection until the coordinator drops it
			}()
		}
	}()

	inPath, _ := makeInput(t, 3000, 13, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = Sort(ctx, inPath, outPath, SortSpec{Workers: []string{ln.Addr().String()}, Dial: fastDial})
	if err == nil || !strings.Contains(err.Error(), versionMismatch(other).Error()) {
		t.Fatalf("sort against a protocol-%d worker returned %v, want the version mismatch", other, err)
	}
	var lost *WorkerLostError
	if errors.As(err, &lost) || ctx.Err() != nil {
		t.Fatalf("version mismatch surfaced as a loss or a hang: %v", err)
	}
	if _, serr := os.Stat(outPath); serr == nil {
		t.Fatal("refused sort left an output file behind")
	}

	addrs = startWorkers(t, 2, fastWorker)
	hellos.Store(0)
	stats := runClusterSort(t, addrs, 3000, 13, false, SortSpec{
		BlockRecs: 128, Dial: fastDial, Heartbeat: fastHeartbeat(),
		Join: &JoinSpec{Phase: "plan", Addr: ln.Addr().String()},
	})
	if hellos.Load() != 1 {
		t.Fatalf("the fake joiner saw %d mHello handshakes, want 1", hellos.Load())
	}
	if stats.Workers != 2 || (stats.Recovery != nil && stats.Recovery.Joins != 0) {
		t.Fatalf("a protocol-%d joiner was admitted: workers %d, recovery %+v", other, stats.Workers, stats.Recovery)
	}
}

// TestHelloRefusesSpinningBeat: the beat period comes from outside the
// worker, and one under 1ms would keep the worker busy sending beats, so
// the hello check refuses it; 0 (no beats) and 1ms pass.
func TestHelloRefusesSpinningBeat(t *testing.T) {
	for _, tc := range []struct {
		beat time.Duration
		ok   bool
	}{
		{0, true}, {time.Millisecond, true}, {time.Hour, true},
		{time.Millisecond - 1, false}, {time.Nanosecond, false}, {-time.Second, false},
	} {
		h := msgHello{Version: protocolVersion, Workers: 1, S: 4, BlockRecs: 16, Beat: tc.beat, Peers: []string{"a"}}
		var got msgHello
		if err := got.decode(h.encode()); err != nil {
			t.Fatal(err)
		}
		if err := got.check(); (err == nil) != tc.ok {
			t.Errorf("beat period %v: check returned %v, want ok=%v", tc.beat, err, tc.ok)
		}
	}
}

func TestBlockRejectsPartialRecords(t *testing.T) {
	m := msgBlock{Phase: 1, Data: make([]byte, 17)} // not a whole record
	if err := (&msgBlock{}).decode(m.encode()); err == nil {
		t.Fatal("17-byte block payload went undetected")
	}
}

func TestBucketOf(t *testing.T) {
	pivots := []uint64{10, 20, 20, 30} // repeated pivot: empty bucket is legal
	linear := func(key uint64) int {
		n := 0
		for _, p := range pivots {
			if p <= key {
				n++
			}
		}
		return n
	}
	for _, key := range []uint64{0, 9, 10, 11, 19, 20, 21, 29, 30, 31, ^uint64(0)} {
		if got, want := bucketOf(key, pivots), linear(key); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", key, got, want)
		}
	}
	if got := bucketOf(5, nil); got != 0 {
		t.Fatalf("bucketOf with no pivots = %d, want 0", got)
	}
}

// TestCountsFromBins: per-bucket counts folded from a histogram through
// the bucket table equal a per-key classification through the same table,
// every bucket is an ascending, contiguous key range, and every key but
// MaxUint64 lands where a per-key bucketOf puts it. The draws cover
// uniform keys, every key in one bin, keys at bin starts, and a heavy
// share of MaxUint64 keys, whose pivots include MaxUint64.
func TestCountsFromBins(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	draws := []struct {
		name string
		key  func() uint64
	}{
		{"uniform", rng.Uint64},
		{"one-bin", func() uint64 { return binStart(1234) | rng.Uint64()>>histBits }},
		{"bin-starts", func() uint64 { return binStart(rng.IntN(histBins)) }},
		{"max", func() uint64 {
			if rng.IntN(2) == 0 {
				return ^uint64(0)
			}
			return rng.Uint64()
		}},
	}
	maxPivot := false
	for _, d := range draws {
		for s := 1; s <= 64; s++ {
			keys := make([]uint64, 1000+rng.IntN(1000))
			bins := make([]uint64, histBins)
			for i := range keys {
				keys[i] = d.key()
				bins[keyBin(keys[i])]++
			}
			pivots := pickPivots(bins, uint64(len(keys)), s)
			if err := checkPivots(pivots, s); err != nil {
				t.Fatalf("%s S=%d: pickPivots output refused: %v", d.name, s, err)
			}
			maxPivot = maxPivot || slices.Contains(pivots, ^uint64(0))
			table := bucketTable(pivots)
			want := make([]uint64, s)
			lo, hi := make([]uint64, s), make([]uint64, s)
			for _, k := range keys {
				b := table[keyBin(k)]
				if k != ^uint64(0) && int(b) != bucketOf(k, pivots) {
					t.Fatalf("%s S=%d: key %#x in bucket %d, bucketOf says %d", d.name, s, k, b, bucketOf(k, pivots))
				}
				if want[b] == 0 || k < lo[b] {
					lo[b] = k
				}
				if want[b] == 0 || k > hi[b] {
					hi[b] = k
				}
				want[b]++
			}
			if got := foldCounts(bins, table, s); !slices.Equal(got, want) {
				t.Fatalf("%s S=%d: folded counts %v, per-key counts %v", d.name, s, got, want)
			}
			var prevHi uint64
			seen := false
			for b := 0; b < s; b++ {
				if want[b] == 0 {
					continue
				}
				if seen && lo[b] <= prevHi {
					t.Fatalf("%s S=%d: bucket %d starts at %#x, not above the previous bucket's %#x", d.name, s, b, lo[b], prevHi)
				}
				prevHi, seen = hi[b], true
			}
			for j := 1; j < histBins; j++ {
				if table[j] < table[j-1] {
					t.Fatalf("%s S=%d: bucket table falls at bin %d", d.name, s, j)
				}
			}
		}
	}
	if !maxPivot {
		t.Fatal("no draw produced a MaxUint64 pivot")
	}
}

// TestCheckPivots: a pivot set the bucket table cannot represent — out of
// order, inside a bin, or the wrong count — is refused.
func TestCheckPivots(t *testing.T) {
	good := []uint64{binStart(3), binStart(3), binStart(9), ^uint64(0)}
	if err := checkPivots(good, 5); err != nil {
		t.Fatalf("valid pivots refused: %v", err)
	}
	for name, piv := range map[string][]uint64{
		"out of order": {binStart(9), binStart(3), binStart(12), ^uint64(0)},
		"inside a bin": {binStart(3), binStart(9) + 1, binStart(12), ^uint64(0)},
		"below max":    {binStart(3), binStart(9), binStart(12), ^uint64(0) - 1},
		"short":        {binStart(3), binStart(9), binStart(12)},
	} {
		if err := checkPivots(piv, 5); err == nil {
			t.Errorf("%s: pivots %#x accepted", name, piv)
		}
	}
}

func TestPickPivots(t *testing.T) {
	bins := make([]uint64, histBins)
	var n uint64
	for i := range bins {
		bins[i] = uint64(i % 5)
		n += bins[i]
	}
	for _, s := range []int{1, 2, 7, 64} {
		piv := pickPivots(bins, n, s)
		if len(piv) != s-1 {
			t.Fatalf("S=%d: %d pivots", s, len(piv))
		}
		for i := 1; i < len(piv); i++ {
			if piv[i] < piv[i-1] {
				t.Fatalf("S=%d: pivots not nondecreasing at %d", s, i)
			}
		}
	}
	// Empty input: every pivot must still be defined.
	piv := pickPivots(make([]uint64, histBins), 0, 8)
	if len(piv) != 7 {
		t.Fatalf("empty input: %d pivots", len(piv))
	}
}

func TestAssignOwners(t *testing.T) {
	totals := []uint64{5, 5, 5, 5, 100, 5, 5, 5}
	owners := assignOwners(totals, 4)
	if len(owners) != len(totals) {
		t.Fatalf("%d owners for %d buckets", len(owners), len(totals))
	}
	for b := 1; b < len(owners); b++ {
		if owners[b] < owners[b-1] {
			t.Fatalf("owners not contiguous ascending at bucket %d", b)
		}
	}
	if owners[0] != 0 {
		t.Fatalf("first bucket owned by %d", owners[0])
	}
	if int(owners[len(owners)-1]) > 3 {
		t.Fatalf("owner out of range: %d", owners[len(owners)-1])
	}
}

package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"testing"
	"time"

	"balancesort/internal/obs"
	"balancesort/internal/record"
)

// readFrom reads one frame from p with a freshly allocated payload.
func readFrom(p []byte) (byte, []byte, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(p)), nil)
}

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xAB}, 1000),
		bytes.Repeat([]byte{0}, MaxFramePayload),
	}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := writeFrame(&buf, mRecords, p); err != nil {
			t.Fatalf("writeFrame(%d bytes): %v", len(p), err)
		}
		typ, got, err := readFrame(bufio.NewReader(&buf), nil)
		if err != nil {
			t.Fatalf("readFrame(%d bytes): %v", len(p), err)
		}
		if typ != mRecords || !bytes.Equal(got, p) {
			t.Fatalf("round trip of %d bytes: type %d, %d bytes back", len(p), typ, len(got))
		}
	}
}

func TestFrameWriteTooLarge(t *testing.T) {
	var buf bytes.Buffer
	err := writeFrame(&buf, mRecords, make([]byte, MaxFramePayload+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write: %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write still emitted %d bytes", buf.Len())
	}
}

// TestFrameHostileLength feeds the decoder a header claiming a payload far
// beyond the bound. It must reject before allocating or reading further —
// the reader only holds the 5 header bytes, so any attempt to consume the
// claimed payload would error differently.
func TestFrameHostileLength(t *testing.T) {
	for _, n := range []uint32{MaxFramePayload + 1, 1 << 30, ^uint32(0)} {
		hdr := make([]byte, 5)
		binary.LittleEndian.PutUint32(hdr, n)
		hdr[4] = mHello
		_, _, err := readFrom(hdr)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("claimed %d bytes: %v, want ErrFrameTooLarge", n, err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	frame := appendFrame(nil, mPivots, []byte("some payload bytes"))
	for i := 4; i < len(frame); i++ { // every byte except the length prefix
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		_, _, err := readFrom(bad)
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	frame := appendFrame(nil, mPlan, bytes.Repeat([]byte{7}, 64))
	for n := 0; n < len(frame); n++ {
		_, _, err := readFrom(frame[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(frame))
		}
		if n >= 5 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("truncation to %d bytes: %v, want an EOF error", n, err)
		}
	}
}

// TestWriteFrameParts: a frame written from its payload split into parts,
// empty parts included, is byte-identical to appendFrame of the whole.
func TestWriteFrameParts(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for draw := 0; draw < 300; draw++ {
		n := rng.IntN(3000)
		if draw%50 == 0 {
			n = 1<<16 + rng.IntN(100)
		}
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.Uint32())
		}
		var parts [][]byte
		for rest := payload; ; {
			k := rng.IntN(len(rest) + 1)
			if rng.IntN(4) == 0 {
				k = len(rest)
			}
			parts = append(parts, rest[:k])
			if rest = rest[k:]; len(rest) == 0 && rng.IntN(2) == 0 {
				break
			}
		}
		typ := byte(rng.Uint32())
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, parts...); err != nil {
			t.Fatal(err)
		}
		if want := appendFrame(nil, typ, payload); !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("draw %d: %d-byte payload in %d parts wrote different bytes than appendFrame", draw, n, len(parts))
		}
	}
}

// TestReadFrameBuffer: a read into a caller's buffer returns what a read
// into a fresh payload returns, whatever the buffer's capacity, and the
// payload aliases the buffer exactly when it fits.
func TestReadFrameBuffer(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789abcdef"), 100)
	frame := appendFrame(nil, mRecords, payload)
	wantTyp, want, err := readFrom(frame)
	if err != nil {
		t.Fatal(err)
	}
	n := len(payload)
	for _, c := range []int{0, 1, n - 1, n, n + 1, 2 * n} {
		buf := make([]byte, 0, c)
		typ, got, err := readFrame(bufio.NewReader(bytes.NewReader(frame)), buf)
		if err != nil || typ != wantTyp || !bytes.Equal(got, want) {
			t.Fatalf("capacity %d: type %d, %d bytes, %v; want type %d, %d bytes", c, typ, len(got), err, wantTyp, len(want))
		}
		aliased := c > 0 && &got[:1][0] == &buf[:1][0]
		if fits := n <= c; aliased != fits {
			t.Fatalf("capacity %d for a %d-byte payload: aliased %v, want %v", c, n, aliased, fits)
		}
	}
}

// TestReadFrameNoAllocs: a frame read into a big-enough buffer allocates
// nothing.
func TestReadFrameNoAllocs(t *testing.T) {
	frame := appendFrame(nil, mBlock, make([]byte, 4096))
	r := bytes.NewReader(frame)
	br := bufio.NewReaderSize(r, 1<<16)
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		br.Reset(r)
		if _, _, err := readFrame(br, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a read into a big-enough buffer made %v allocations, want 0", allocs)
	}
}

// FuzzFrame holds the decoder to its contract on arbitrary bytes: never
// panic, never over-allocate on a hostile length prefix, and any frame it
// does accept must re-encode to bytes that decode to the same frame. Each
// accepted frame is read again through a reader that reuses one buffer
// across frames, which must return the same type and payload. The
// accepted payloads are also pushed through every message decoder, which
// must likewise survive hostile input without panicking.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, mHello, (&msgHello{Version: protocolVersion, Workers: 2, Peers: []string{"a", "b"}}).encode()))
	f.Add(appendFrame(nil, mBlock, (&msgBlock{Phase: 1, Bucket: 3, Data: make([]byte, 32)}).encode()))
	f.Add(appendFrame(nil, mError, (&msgError{Code: ecWorkerLost, Addr: "x", Text: "y"}).encode()))
	f.Add(appendFrame(nil, mRescatter, (&msgRescatter{Epoch: 2, Active: []uint32{0, 2}, Fresh: true, Peers: []string{"a", "b", "c"}}).encode()))
	f.Add(appendFrame(nil, mHello, (&msgHello{Version: protocolVersion, JobID: 7, Worker: 4, Workers: 5, S: 16, BlockRecs: 128, Peers: []string{"a", "b", "c", "d", "e"}}).encode()))
	f.Add(appendFrame(nil, mResume, (&msgHello{Version: protocolVersion, JobID: 7, Worker: 0, Workers: 1, S: 16, BlockRecs: 128, Peers: []string{"a"}}).encode()))
	f.Add(appendFrame(nil, mResumeState, (&msgResumeState{Version: protocolVersion, HaveShard: 1, Epoch: 3, ShardRecs: 5000}).encode()))
	f.Add(appendFrame(nil, mProgress, (&msgProgress{Phase: 3, Units: 100}).encode()))
	f.Add(appendFrame(nil, mCrash, (&msgCrash{Mode: crashStall, Factor: 10}).encode()))
	f.Add(appendFrame(nil, mError, (&msgError{Code: ecGeneric, Worker: 1, Text: "cluster: worker 1 local sort: no space left on device"}).encode()))
	f.Add(appendFrame(nil, mTrace, (&msgTrace{EpochNanos: 1, Spans: []obs.Span{
		{Layer: "cluster", Name: "gather", ID: 2, Dur: 5, SpanID: 3, Parent: 1, Flow: 99, FlowOut: true,
			Attrs: []obs.Attr{{Key: "records", Val: 12}}},
	}}).encode()))
	f.Add(appendFrame(nil, mHedgeSend, (&msgHedgeSend{Epoch: 1, Victim: 2, Target: 0, Recs: 300, Buckets: []uint32{4, 5}}).encode()))
	f.Add(appendFrame(nil, mHedgeDone, (&msgCount{Count: 300}).encode()))
	f.Add(appendFrame(nil, mFetch, (&msgCount{Count: 2}).encode()))
	f.Add(appendFrame(nil, mPivots, (&msgPivots{Pivots: []uint64{10, 20}}).encode()))
	f.Add(appendFrame(nil, mRecords, record.EncodeSlice(record.Generate(record.Uniform, 20, 1))))
	f.Add(appendFrame(nil, mPlan, (&msgPlan{Dests: [][]uint32{{0, 1}, {1}}, ExpectRecvBlocks: 3, Owners: []uint32{0, 1}, ExpectGatherRecs: 40}).encode()))
	f.Add(appendFrame(nil, mPhaseDone, (&msgPhaseDone{Phase: 2, BlocksSent: 4, BlocksRecv: 5, RecsRecv: 60}).encode()))
	f.Add(appendFrame(nil, mPeerHello, (&msgPeerHello{JobID: 7, Src: 1, Epoch: 2}).encode()))
	f.Add(appendFrame(nil, mHelloAck, (&msgVersion{Version: protocolVersion}).encode()))
	f.Add(appendFrame(nil, mHello, (&msgHello{Version: protocolVersion, JobID: 7, Worker: 1, Workers: 2, S: 8, BlockRecs: 64, Beat: 25 * time.Millisecond, Peers: []string{"a", "b"}}).encode()))
	f.Add(appendFrame(nil, mHello, (&msgHello{Version: protocolVersion, JobID: 7, Worker: 1, Workers: 2, S: 8, BlockRecs: 64, Beat: 500 * time.Microsecond, Peers: []string{"a", "b"}}).encode()))
	f.Add(appendFrame(nil, mPeerLost, (&msgPeerLost{Epoch: 1, Worker: 3, Addr: "x", Text: "reset"}).encode()))
	f.Add(appendFrame(nil, mRescatterDone, (&msgRescatterDone{Epoch: 2, Total: 5000}).encode()))
	f.Add(appendFrame(nil, mRescatterAck, (&msgRescatterAck{Epoch: 2, ShardRecs: 5000}).encode()))
	f.Add(appendFrame(nil, mBlockAck, (&msgBlockAck{Phase: 3, Bucket: 4, Seq: 5}).encode()))
	trunc := appendFrame(nil, mPlan, []byte("truncate me"))
	f.Add(trunc[:len(trunc)-3])
	corrupt := appendFrame(nil, mPivots, []byte("corrupt me"))
	corrupt[7] ^= 0xFF
	f.Add(corrupt)
	huge := make([]byte, 5)
	binary.LittleEndian.PutUint32(huge, ^uint32(0))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		reuse := bufio.NewReader(bytes.NewReader(data))
		buf := make([]byte, 0, 256)
		for {
			typ, payload, err := readFrame(r, nil)
			if err != nil {
				break
			}
			re := appendFrame(nil, typ, payload)
			typ2, p2, err2 := readFrom(re)
			if err2 != nil || typ2 != typ || !bytes.Equal(p2, payload) {
				t.Fatalf("re-encoded frame did not round trip: %v", err2)
			}
			typ3, p3, err3 := readFrame(reuse, buf)
			if err3 != nil || typ3 != typ || !bytes.Equal(p3, payload) {
				t.Fatalf("buffer-reusing read differs: type %d vs %d, %v", typ3, typ, err3)
			}
			decodeAny(payload)
		}
	})
}

// decodeAny runs payload through every message decoder; values are
// discarded, only absence of panics matters.
func decodeAny(p []byte) {
	var h msgHello
	if h.decode(p) == nil {
		_ = h.check()
	}
	_ = (&msgCount{}).decode(p)
	_ = (&msgHistogram{}).decode(p)
	_ = (&msgPivots{}).decode(p)
	_ = (&msgPlan{}).decode(p)
	_ = (&msgPhaseDone{}).decode(p)
	_ = (&msgPeerHello{}).decode(p)
	_ = (&msgVersion{}).decode(p)
	_ = (&msgProgress{}).decode(p)
	_ = (&msgHedgeSend{}).decode(p)
	_ = (&msgCrash{}).decode(p)
	_ = (&msgPeerLost{}).decode(p)
	_ = (&msgRescatter{}).decode(p)
	_ = (&msgRescatterDone{}).decode(p)
	_ = (&msgRescatterAck{}).decode(p)
	_ = (&msgResumeState{}).decode(p)
	_ = (&msgBlock{}).decode(p)
	_ = (&msgBlockAck{}).decode(p)
	_ = (&msgError{}).decode(p)
	_ = (&msgTrace{}).decode(p)
}

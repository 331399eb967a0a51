package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"balancesort/internal/obs"
)

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
		typ, got, err := readFrame(&buf)
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
		_, _, err := readFrame(bytes.NewReader(hdr))
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
		_, _, err := readFrame(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	frame := appendFrame(nil, mCounts, bytes.Repeat([]byte{7}, 64))
	for n := 0; n < len(frame); n++ {
		_, _, err := readFrame(bytes.NewReader(frame[:n]))
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", n, len(frame))
		}
		if n >= 5 && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("truncation to %d bytes: %v, want an EOF error", n, err)
		}
	}
}

// FuzzFrame holds the decoder to its contract on arbitrary bytes: never
// panic, never over-allocate on a hostile length prefix, and any frame it
// does accept must re-encode to bytes that decode to the same frame. The
// accepted payloads are also pushed through every message decoder, which
// must likewise survive hostile input without panicking.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendFrame(nil, mHello, (&msgHello{Version: protocolVersion, Workers: 2, Peers: []string{"a", "b"}}).encode()))
	f.Add(appendFrame(nil, mBlock, (&msgBlock{Phase: 1, Bucket: 3, Data: make([]byte, 32)}).encode()))
	f.Add(appendFrame(nil, mError, (&msgError{Code: ecWorkerLost, Addr: "x", Text: "y"}).encode()))
	f.Add(appendFrame(nil, mRescatter, (&msgRescatter{Epoch: 2, Active: []uint32{0, 2}, Fresh: true, Peers: []string{"a", "b", "c"}}).encode()))
	f.Add(appendFrame(nil, mJoin, (&msgHello{Version: protocolVersion, JobID: 7, Worker: 4, Workers: 5, S: 16, BlockRecs: 128, Peers: []string{"a", "b", "c", "d", "e"}}).encode()))
	f.Add(appendFrame(nil, mResume, (&msgHello{Version: protocolVersion, JobID: 7, Worker: 0, Workers: 1, S: 16, BlockRecs: 128, Peers: []string{"a"}}).encode()))
	f.Add(appendFrame(nil, mResumeState, (&msgResumeState{Version: protocolVersion, HaveShard: 1, Epoch: 3, ShardRecs: 5000}).encode()))
	f.Add(appendFrame(nil, mPong, (&msgProgress{Seq: 4, Phase: 3, Units: 100, ShardRecs: 5000, RecvBlocks: 7, GatherRecs: 9}).encode()))
	f.Add(appendFrame(nil, mCrash, (&msgCrash{Mode: crashStall, Factor: 10}).encode()))
	f.Add(appendFrame(nil, mError, (&msgError{Code: ecStraggler, Worker: 1, Addr: "x", Text: "slow", Phase: "gather", Budget: 1 << 30}).encode()))
	f.Add(appendFrame(nil, mTrace, (&msgTrace{EpochNanos: 1, Spans: []obs.Span{
		{Layer: "cluster", Name: "gather", ID: 2, Dur: 5, SpanID: 3, Parent: 1, Flow: 99, FlowOut: true,
			Attrs: []obs.Attr{{Key: "records", Val: 12}}},
	}}).encode()))
	f.Add(appendFrame(nil, mHedgeHello, (&msgHedgeHello{JobID: 7, Epoch: 1, Victim: 2, Recs: 300, Buckets: []uint32{4, 5}}).encode()))
	f.Add(appendFrame(nil, mHedgeSend, (&msgHedgeSend{Epoch: 1, Victim: 2, Target: 0, Buckets: []uint32{4, 5}}).encode()))
	trunc := appendFrame(nil, mPlan, []byte("truncate me"))
	f.Add(trunc[:len(trunc)-3])
	corrupt := appendFrame(nil, mPivots, []byte("corrupt me"))
	corrupt[7] ^= 0xFF
	f.Add(corrupt)
	huge := make([]byte, 5)
	binary.LittleEndian.PutUint32(huge, ^uint32(0))
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			typ, payload, err := readFrame(r)
			if err != nil {
				break
			}
			re := appendFrame(nil, typ, payload)
			typ2, p2, err2 := readFrame(bytes.NewReader(re))
			if err2 != nil || typ2 != typ || !bytes.Equal(p2, payload) {
				t.Fatalf("re-encoded frame did not round trip: %v", err2)
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
	_ = (&msgCounts{}).decode(p)
	_ = (&msgPlan{}).decode(p)
	_ = (&msgPhaseDone{}).decode(p)
	_ = (&msgPeerHello{}).decode(p)
	_ = (&msgVersion{}).decode(p)
	_ = (&msgMonHello{}).decode(p)
	_ = (&msgPing{}).decode(p)
	_ = (&msgProgress{}).decode(p)
	_ = (&msgHedgeHello{}).decode(p)
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

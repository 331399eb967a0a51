// Package cluster is the shared-nothing runtime that turns the repository's
// single-process Balance Sort into a coordinator/worker distributed system
// over TCP. The coordinator runs the Balance Sort distribution logic — it
// gathers per-worker key histograms, picks the S bucket pivots
// deterministically, and drives an all-to-all bucket exchange whose
// per-worker placement is decided by the internal/balance histogram and
// auxiliary-matrix machinery, so every exchange round's receive volume obeys
// the paper's x_bh <= m_b + 1 bound (Invariant 2). Each worker then sorts
// its final shard locally with whatever local sorter the embedder wires in
// (the repository wires the file-backed SortFile path), and the coordinator
// drains the shards in key order into the output file.
//
// The wire protocol is length-prefixed, CRC-framed binary: every frame is
//
//	uint32 LE  payload length n      (bounded by MaxFramePayload)
//	byte       message type
//	n bytes    payload
//	uint32 LE  CRC32C over type byte + payload
//
// The decoder validates the length bound before allocating, verifies the
// checksum before handing the payload up, and never panics on hostile
// input — FuzzFrame holds it to that. Payloads move through reused
// buffers: a frame is written from its parts without a copy and read into
// the caller's buffer when it fits.
package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// MaxFramePayload bounds a single frame's payload. It must accommodate the
// largest message (a histogram or a full exchange block) with room to
// spare; anything larger on the wire is a protocol violation, not a reason
// to allocate.
const MaxFramePayload = 1 << 21 // 2 MiB

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing error values. ErrFrameTooLarge and ErrFrameChecksum identify the
// two hostile-input failure modes distinctly so tests (and peers) can tell
// a resource-exhaustion attempt from corruption.
var (
	ErrFrameTooLarge = errors.New("cluster: frame exceeds MaxFramePayload")
	ErrFrameChecksum = errors.New("cluster: frame checksum mismatch")
)

// frameOverhead is the non-payload byte count of a frame: the length
// prefix, the type byte, and the trailing CRC.
const frameOverhead = 4 + 1 + 4

// appendFrame appends the encoded frame for (typ, payload) to dst and
// returns the extended slice.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	hdr[4] = typ
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	sum := crc32.Checksum([]byte{typ}, castagnoli)
	sum = crc32.Update(sum, castagnoli, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], sum)
	return append(dst, tail[:]...)
}

// writeFrame writes one frame to w whose payload is the concatenation of
// parts. The header, the parts and the CRC trailer go out as one
// net.Buffers write — one writev on a TCP connection — so no part is
// copied; the bytes equal appendFrame's for the concatenated parts.
func writeFrame(w io.Writer, typ byte, parts ...[]byte) error {
	var ends [frameOverhead]byte // the header, then the trailer
	ends[4] = typ
	n, sum := 0, crc32.Checksum(ends[4:5], castagnoli)
	for _, p := range parts {
		n, sum = n+len(p), crc32.Update(sum, castagnoli, p)
	}
	if n > MaxFramePayload {
		return ErrFrameTooLarge
	}
	binary.LittleEndian.PutUint32(ends[0:4], uint32(n))
	binary.LittleEndian.PutUint32(ends[5:], sum)
	bufs := append(append(net.Buffers{ends[:5]}, parts...), ends[5:])
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame from br. The payload lands in buf when it fits
// within buf's capacity, and then aliases buf; otherwise it is freshly
// allocated (bounded by MaxFramePayload before allocation, so a hostile
// length prefix cannot balloon memory). The header and trailer are peeked
// in br's own buffer, so a read into a big-enough buf allocates nothing.
func readFrame(br *bufio.Reader, buf []byte) (typ byte, payload []byte, err error) {
	hdr, err := br.Peek(5)
	if err != nil {
		return 0, nil, err
	}
	n, typ := binary.LittleEndian.Uint32(hdr[0:4]), hdr[4]
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	sum := crc32.Checksum(hdr[4:5], castagnoli)
	_, _ = br.Discard(5) // cannot fail: Peek buffered the bytes
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(br, payload); err != nil {
		return 0, nil, err
	}
	tail, err := br.Peek(4)
	if err != nil {
		return 0, nil, err
	}
	got := binary.LittleEndian.Uint32(tail)
	_, _ = br.Discard(4)
	if sum = crc32.Update(sum, castagnoli, payload); got != sum {
		return 0, nil, fmt.Errorf("%w: frame says %08x, bytes hash to %08x", ErrFrameChecksum, got, sum)
	}
	return typ, payload, nil
}

// freeList is a bounded free list of byte buffers. get takes one, emptied,
// or nil when the list is empty; put hands one back, dropping it when the
// list is full. Only the last holder of a buffer's bytes puts it back.
type freeList chan []byte

func (f freeList) get() []byte {
	select {
	case b := <-f:
		return b[:0]
	default:
		return nil
	}
}

func (f freeList) put(b []byte) {
	select {
	case f <- b:
	default:
	}
}

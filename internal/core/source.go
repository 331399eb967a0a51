package core

import (
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// A source yields the records of one recursion level's input through
// parallel I/Os. The two layouts that occur are the block-aligned striped
// region (the original input and every sorted run) and the per-virtual-disk
// block chains that the balancing pass leaves behind for each bucket.
type source interface {
	// Total returns how many records remain unread.
	Total() int
	// ReadSome reads up to max records using parallel I/Os of the
	// virtual-disk layer and returns them. It returns fewer records only
	// when the source is exhausted. The records live in a read buffer the
	// sorter owns and reuses: the slice stays valid only until the next
	// ReadSome on a source sharing that buffer.
	ReadSome(max int) []record.Record
}

// grow returns (*buf)[:n], replacing *buf with a larger buffer only when
// its capacity is short, so a sorter's read buffers reach their working
// size once and are reused from then on.
func grow(buf *[]record.Record, n int) []record.Record {
	if cap(*buf) < n {
		*buf = make([]record.Record, n)
	}
	return (*buf)[:n]
}

// stripedSource reads a block-aligned striped region of the physical array.
type stripedSource struct {
	arr *pdm.Array
	off int              // block offset of the region start
	n   int              // records remaining
	pos int              // records already consumed
	buf *[]record.Record // read buffer; blocks land in it directly
}

func newStripedSource(arr *pdm.Array, off, n int, buf *[]record.Record) *stripedSource {
	return &stripedSource{arr: arr, off: off, n: n, buf: buf}
}

func (s *stripedSource) Total() int { return s.n }

func (s *stripedSource) ReadSome(max int) []record.Record {
	if max > s.n {
		max = s.n
	}
	if max == 0 {
		return nil
	}
	b := s.arr.B()
	// Stay block-aligned: the region was written by WriteStripe, so record
	// i lives in stripe block i/B. We always consume whole blocks; the
	// caller's track size is a multiple of the virtual block size, which is
	// a multiple of B.
	if s.pos%b != 0 {
		panic("core: striped source consumed off block boundary")
	}
	out := grow(s.buf, max)
	s.arr.ReadStripe(s.off, s.pos/b, out)
	s.pos += max
	s.n -= max
	return out
}

// chains records where a bucket's blocks live: chains[h] lists the blocks
// on virtual disk h in write order. The entry type is the exported
// ChainEntry (checkpoint.go) so a bucket's chains serialize directly into
// a work-list descriptor.
type chains struct {
	perDisk [][]ChainEntry
	total   int
}

func newChains(h int) *chains {
	return &chains{perDisk: make([][]ChainEntry, h)}
}

func (c *chains) add(h, off, count int) {
	c.perDisk[h] = append(c.perDisk[h], ChainEntry{Off: off, Count: count})
	c.total += count
}

// rounds returns the number of parallel reads needed to fetch the whole
// chain set: the longest per-disk chain (Theorem 4 bounds this by about
// twice the optimal ⌈total/(H·VB)⌉).
func (c *chains) rounds() int {
	r := 0
	for _, ch := range c.perDisk {
		if len(ch) > r {
			r = len(ch)
		}
	}
	return r
}

// chainSource reads a bucket's chains, one block per virtual disk per
// parallel I/O. Each round's virtual blocks land in a staging buffer of H
// virtual blocks; their real records are compacted into the read buffer,
// and whatever does not fit stays compacted at the front of the staging
// buffer as spill until the next call.
type chainSource struct {
	vd     *pdm.Virtual
	ch     *chains
	round  int
	rounds int
	n      int
	out    *[]record.Record // read buffer ReadSome returns records in
	stage  *[]record.Record // one round of virtual blocks
	spill  []record.Record  // records read but not yet returned, in stage
	ops    []pdm.VOp
}

func newChainSource(vd *pdm.Virtual, ch *chains, out, stage *[]record.Record) *chainSource {
	return &chainSource{vd: vd, ch: ch, rounds: ch.rounds(), n: ch.total, out: out, stage: stage}
}

// Total returns the records not yet returned (buffered spill included,
// since n is only decremented when records are handed to the caller).
func (s *chainSource) Total() int { return s.n }

func (s *chainSource) ReadSome(max int) []record.Record {
	out := grow(s.out, max)[:0]
	// Serve buffered records first.
	if len(s.spill) > 0 {
		take := len(s.spill)
		if take > max {
			take = max
		}
		out = append(out, s.spill[:take]...)
		s.spill = s.spill[take:]
	}
	vb := s.vd.VB()
	for len(out) < max && s.round < s.rounds {
		stage := grow(s.stage, len(s.ch.perDisk)*vb)
		s.ops = s.ops[:0]
		for h, ch := range s.ch.perDisk {
			if s.round >= len(ch) {
				continue
			}
			k := len(s.ops)
			s.ops = append(s.ops, pdm.VOp{VDisk: h, Off: ch[s.round].Off, Data: stage[k*vb : (k+1)*vb]})
		}
		s.vd.ParallelVIO(s.ops)
		// Compacting the spill towards the front of stage never overtakes
		// the block being read, since each block holds at most vb records.
		spill := stage[:0]
		for _, op := range s.ops {
			real := op.Data[:s.ch.perDisk[op.VDisk][s.round].Count]
			take := max - len(out)
			if take > len(real) {
				take = len(real)
			}
			out = append(out, real[:take]...)
			spill = append(spill, real[take:]...)
		}
		s.spill = spill
		s.round++
	}
	s.n -= len(out)
	return out
}

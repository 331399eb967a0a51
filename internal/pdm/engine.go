package pdm

import (
	"fmt"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// Engine-mounted backends: instead of moving each block itself, the array
// hands each parallel I/O to a diskio.Engine as one batch, gaining the
// engine's concurrent per-disk workers, read-ahead, write-behind
// coalescing, fault tolerance, and metrics. The cost model is untouched —
// parallel I/Os are still counted in ParallelIO, one layer up, and the
// one-block-per-disk rule is enforced before the engine ever sees a
// request — so an experiment measures identical model costs with the
// engine on or off.

// engineMount is the I/O path of an engine-mounted array. A parallel I/O
// encodes its writes into one reused D-block wire buffer, hands every
// transfer to the engine in one Do and waits once, then records the
// writes' checksums and verifies and decodes the reads. Checksums are
// computed host-side from the wire bytes handed to (or received from) the
// engine, so the model's parallel I/O accounting is untouched.
type engineMount struct {
	eng    *diskio.Engine
	stores []*engineStore
	bb     int               // bytes per block
	wire   []byte            // D blocks of wire bytes, reused per I/O
	batch  []diskio.Transfer // reused per I/O
}

func newEngineMount(p Params, eng *diskio.Engine) *engineMount {
	m := &engineMount{
		eng:    eng,
		stores: make([]*engineStore, p.D),
		bb:     p.B * record.EncodedSize,
		batch:  make([]diskio.Transfer, 0, p.D),
	}
	m.wire = make([]byte, p.D*m.bb)
	for i := range m.stores {
		m.stores[i] = &engineStore{blockIndex: blockIndex{disk: i}, mount: m}
	}
	return m
}

// do runs one validated parallel I/O (at most D ops of B records each) as
// a single engine batch. Each transfer's outcome is applied as it would be
// on its own: a failed write leaves its block unmarked, and the first
// error in op order is returned.
func (m *engineMount) do(ops []Op) error {
	m.batch = m.batch[:0]
	for i, op := range ops {
		buf := m.wire[i*m.bb : (i+1)*m.bb : (i+1)*m.bb]
		if op.Write {
			record.AppendSlice(buf[:0], op.Data)
		} else if !m.stores[op.Disk].isWritten(op.Off) && !writtenEarlier(ops[:i], op) {
			return fmt.Errorf("pdm: read of unwritten block off=%d", op.Off)
		}
		m.batch = append(m.batch, diskio.Transfer{Disk: op.Disk, Block: int64(op.Off), Write: op.Write, Buf: buf})
	}
	m.eng.Do(m.batch)
	var first error
	for i, op := range ops {
		t := &m.batch[i]
		s := m.stores[op.Disk]
		err := t.Err
		switch {
		case err != nil && op.Write:
			err = fmt.Errorf("pdm: engine write: %w", err)
		case err != nil:
			err = fmt.Errorf("pdm: engine read: %w", err)
		case op.Write:
			s.record(op.Off, t.Buf)
		default:
			if err = s.verify(op.Off, t.Buf); err == nil {
				record.DecodeInto(op.Data, t.Buf)
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writtenEarlier reports whether an op before read in the same I/O writes
// the block it reads — possible only in AgV mode, where the batch runs
// the write first.
func writtenEarlier(before []Op, read Op) bool {
	for _, op := range before {
		if op.Write && op.Disk == read.Disk && op.Off == read.Off {
			return true
		}
	}
	return false
}

// engineStore is one drive of an engine mount: its write marks and
// checksum table. Its blocks move through the mount's batches; a read or
// write on its own, such as Peek's, is a one-op batch.
type engineStore struct {
	blockIndex
	mount *engineMount
	raw   []byte // Scrub's block buffer
}

func (s *engineStore) read(off int, dst []record.Record) error {
	return s.mount.do([]Op{{Disk: s.disk, Off: off, Data: dst}})
}

func (s *engineStore) write(off int, src []record.Record) error {
	return s.mount.do([]Op{{Disk: s.disk, Off: off, Write: true, Data: src}})
}

// close drains the disk's write-behind run and flushes the checksum table
// to the sidecar; the devices themselves are closed by the engine (see the
// array's onClose).
func (s *engineStore) close() error {
	err := s.mount.eng.Flush(s.disk)
	if cerr := s.closeSidecar(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func (s *engineStore) verifyAll() (int, []*CorruptBlockError) {
	if s.raw == nil {
		s.raw = make([]byte, s.mount.bb)
	}
	return s.scrub(s.raw, func(off int, buf []byte) error {
		return s.mount.eng.Read(s.disk, int64(off), buf)
	})
}

// NewModeEngine creates an in-memory array in the given mode whose disks
// are served by a diskio.Engine over memory devices — the full engine
// stack (queues, prefetch, coalescing, faults, metrics) without touching
// the filesystem. Like NewMode it panics on invalid parameters.
func NewModeEngine(p Params, mode Mode, ecfg diskio.Config) *Array {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	ecfg.BlockBytes = p.B * record.EncodedSize
	devs := make([]diskio.Device, p.D)
	for i := range devs {
		devs[i] = diskio.NewMemDevice()
	}
	eng, err := diskio.New(ecfg, devs)
	if err != nil {
		panic(err)
	}
	mount := newEngineMount(p, eng)
	stores := make([]blockStore, p.D)
	for i, es := range mount.stores {
		stores[i] = es
	}
	a := newWithStores(p, mode, stores, eng.Close)
	a.mount = mount
	return a
}

// IOMetrics snapshots the mounted engine's per-disk counters, or returns
// nil when the array runs without an engine.
func (a *Array) IOMetrics() *diskio.Snapshot {
	if a.mount == nil {
		return nil
	}
	snap := a.mount.eng.Metrics()
	return &snap
}

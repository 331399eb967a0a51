// Package pdm simulates the parallel disk model of Vitter and Shriver
// (Figure 2 of the paper): D physically distinct disks, each able to
// transfer one block of B contiguous records per parallel I/O, attached to
// an internal memory of capacity M records.
//
// The simulator is the measurement instrument for every disk experiment in
// this repository: it executes the real data movement, counts parallel I/O
// operations, and enforces the model's two rules — at most one block per
// disk per I/O, and at most M records resident in internal memory. The
// array stores its D disks in stripe order: block o of disk d is array
// block o·D + d, so the blocks of a striped region, which sits at one
// offset on every disk, are consecutive. A parallel I/O runs on the
// calling goroutine: in memory, or through the file-backed array's
// guarded device (internal/diskio), one device call per block. A striped
// transfer of any number of rows is one device call (two when its last
// block is short), and is charged as the rows it stands for. An AgV
// compatibility mode (Figure 1, the Aggarwal–Vitter model) relaxes the
// one-block-per-disk rule so the two models can be compared head to head
// (experiment E14).
package pdm

import (
	"fmt"
	"math"
	"sync"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// Params fixes the model parameters for a disk array. The paper's
// constraints are M < N, 1 <= P <= M, and 1 <= DB <= M/2; constructors
// validate what they can locally (D, B, M) and sorters validate the rest.
type Params struct {
	D int // number of disks
	B int // records per block
	M int // records of internal memory
}

// Validate reports whether the parameters satisfy the model constraints
// that do not involve N.
func (p Params) Validate() error {
	if p.D < 1 {
		return fmt.Errorf("pdm: D = %d, want >= 1", p.D)
	}
	if p.B < 1 {
		return fmt.Errorf("pdm: B = %d, want >= 1", p.B)
	}
	if p.D*p.B > p.M/2 {
		return fmt.Errorf("pdm: DB = %d exceeds M/2 = %d", p.D*p.B, p.M/2)
	}
	return nil
}

// Mode selects which model's I/O rule the array enforces.
type Mode int

const (
	// ModePDM is the Vitter–Shriver parallel disk model: in one I/O each
	// disk transfers at most one block.
	ModePDM Mode = iota
	// ModeAgV is the Aggarwal–Vitter model: one I/O transfers any D blocks,
	// even if several live on the same disk.
	ModeAgV
)

// Op is one block transfer within a parallel I/O.
type Op struct {
	Disk  int  // which disk
	Off   int  // block offset on that disk
	Write bool // direction
	// Data is the source for a write (exactly B records) or the
	// destination for a read (exactly B records). Every block store copies
	// Data before ParallelIO returns, so callers may reuse the buffer as
	// soon as it does.
	Data []record.Record
}

// Stats is a snapshot of the array's I/O counters.
type Stats struct {
	IOs           int64 // parallel I/O operations
	ReadIOs       int64 // parallel I/Os that contained at least one read
	WriteIOs      int64 // parallel I/Os that contained at least one write
	BlocksRead    int64
	BlocksWritten int64
	PerDiskReads  []int64
	PerDiskWrites []int64
	// WidthHist[w] counts parallel I/Os that moved exactly w blocks
	// (w = 1..D); WriteWidthHist restricts to all-write I/Os. Together they
	// measure how close the algorithm runs to full-width, striped-looking
	// transfers — the property Section 6 highlights ("without need of
	// non-striped write operations").
	WidthHist      []int64
	WriteWidthHist []int64
}

// Utilization returns moved blocks per I/O slot, in [0, 1]: 1.0 means every
// parallel I/O used all D disks.
func (s Stats) Utilization(d int) float64 {
	if s.IOs == 0 {
		return 0
	}
	return float64(s.BlocksRead+s.BlocksWritten) / float64(s.IOs*int64(d))
}

// WriteFullness returns the fraction of all-write parallel I/Os that used
// at least frac of the disks.
func (s Stats) WriteFullness(d int, frac float64) float64 {
	total, wide := int64(0), int64(0)
	for w, c := range s.WriteWidthHist {
		total += c
		if float64(w) >= frac*float64(d) {
			wide += c
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wide) / float64(total)
}

// Array is a simulated array of D disks plus the internal-memory tracker.
type Array struct {
	params Params
	mode   Mode

	store blockStore

	// ioMu serializes transfers: the scratch below and the file store's
	// buffers are reused by every one.
	ioMu sync.Mutex
	// claimed[d] marks disk d as taken by the I/O being validated (PDM
	// mode's one-block-per-disk rule).
	claimed []bool
	// drives guards a file-backed array's device; nil in memory (see
	// IOMetrics).
	drives *diskio.Drives

	mu    sync.Mutex // guards stats
	stats Stats

	// Mem tracks internal memory occupancy against params.M.
	Mem *MemTracker

	// nextFree[d] is the lowest never-allocated block offset on disk d.
	nextFree []int

	onClose func() error

	// syncFn, when set (file-backed arrays), makes all written data durable
	// and persists a manifest consistent with it. See Sync.
	syncFn func() error
}

// blockStore is the storage behind an array's D disks. It addresses them
// in array blocks, in stripe order: block o of disk d is array block
// o·D + d. The in-memory store is the default; the file-backed store in
// file.go persists blocks to a real file so the library can sort datasets
// larger than host memory.
//
// One call moves the consecutive array blocks blk, blk+1, ...: block j of
// the call is recs[j*B : min((j+1)*B, len(recs))], so a call moves
// ⌈len(recs)/B⌉ blocks. Only the last may be short: a write pads it with
// +inf sentinels, a read fills only the records it has. ParallelIO moves
// one whole block per call, a striped transfer all of its blocks in one.
// The stores copy recs before returning, and run on the calling goroutine.
type blockStore interface {
	// read fills recs from the blocks starting at blk; it errors on a
	// block that was never written.
	read(blk int, recs []record.Record) error
	// write stores recs as the blocks starting at blk.
	write(blk int, recs []record.Record) error
	// isWritten reports whether array block blk (≥ 0) holds data.
	isWritten(blk int) bool
	close() error
}

// sentinel pads the short last block of a write.
var sentinel = record.Record{Key: ^uint64(0), Loc: ^uint64(0)}

// memStore keeps blocks in a growable slice indexed by array block.
type memStore struct {
	b, d   int
	blocks [][]record.Record
}

func (s *memStore) isWritten(blk int) bool { return blk < len(s.blocks) && s.blocks[blk] != nil }

func (s *memStore) read(blk int, recs []record.Record) error {
	for j := 0; j*s.b < len(recs); j++ {
		if !s.isWritten(blk + j) {
			return unwrittenError(blk+j, s.d)
		}
		copy(recs[j*s.b:], s.blocks[blk+j])
	}
	return nil
}

func (s *memStore) write(blk int, recs []record.Record) error {
	n := (len(recs) + s.b - 1) / s.b
	if blk+n > len(s.blocks) {
		s.blocks = extend(s.blocks, blk+n)
	}
	for j := 0; j < n; j++ {
		dst := s.blocks[blk+j]
		if dst == nil {
			dst = make([]record.Record, s.b)
			s.blocks[blk+j] = dst
		}
		for k := copy(dst, recs[j*s.b:]); k < s.b; k++ {
			dst[k] = sentinel
		}
	}
	return nil
}

func (s *memStore) close() error { return nil }

// unwrittenError reports a read of array block blk of a d-disk array that
// no transfer wrote.
func unwrittenError(blk, d int) error {
	return fmt.Errorf("pdm: read of unwritten block %d of disk %d", blk/d, blk%d)
}

// New creates a disk array with the given parameters in PDM mode.
// It panics if the parameters are invalid; model parameters are chosen by
// the programmer, not by runtime input.
func New(p Params) *Array {
	return NewMode(p, ModePDM)
}

// NewMode creates a disk array enforcing the given model's I/O rule.
func NewMode(p Params, mode Mode) *Array {
	return newWithStore(p, mode, &memStore{b: p.B, d: p.D}, nil)
}

// newWithStore wires an array over the given store; onClose (if non-nil)
// runs after the store is closed.
func newWithStore(p Params, mode Mode, store blockStore, onClose func() error) *Array {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	a := &Array{
		params:   p,
		mode:     mode,
		store:    store,
		claimed:  make([]bool, p.D),
		nextFree: make([]int, p.D),
		Mem:      NewMemTracker(p.M),
		onClose:  onClose,
	}
	a.stats.PerDiskReads = make([]int64, p.D)
	a.stats.PerDiskWrites = make([]int64, p.D)
	a.stats.WidthHist = make([]int64, p.D+1)
	a.stats.WriteWidthHist = make([]int64, p.D+1)
	return a
}

// Params returns the model parameters of the array.
func (a *Array) Params() Params { return a.params }

// Mode returns which model's I/O rule the array enforces.
func (a *Array) Mode() Mode { return a.mode }

// Close releases the backing store (for file-backed arrays this flushes
// the checksum tables and persists the manifest). The array must not be
// used afterwards.
func (a *Array) Close() error {
	firstErr := a.store.close()
	if a.onClose != nil {
		if err := a.onClose(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Sync makes everything written so far durable and rewrites the manifest
// to match — the commit primitive the sort-pass journal builds on. On a
// purely in-memory array it is a no-op. The ordering matters for crash
// consistency: data and checksums are fsynced before the manifest names
// them, so an on-disk manifest never describes blocks that are not there.
// Like Peek, it must not be called while a ParallelIO is in flight.
func (a *Array) Sync() error {
	if a.syncFn == nil {
		return nil
	}
	return a.syncFn()
}

// NextFree returns a copy of the per-disk allocation marks (the lowest
// never-allocated block offset on each disk).
func (a *Array) NextFree() []int {
	return append([]int(nil), a.nextFree...)
}

// SetNextFree restores the per-disk allocation marks, e.g. from a journal
// entry when resuming a sort: blocks the crashed run allocated after its
// last commit are handed out again and simply overwritten.
func (a *Array) SetNextFree(marks []int) {
	if len(marks) != len(a.nextFree) {
		panic(fmt.Sprintf("pdm: %d allocation marks for D=%d", len(marks), len(a.nextFree)))
	}
	copy(a.nextFree, marks)
}

// Written reports whether block off of disk d holds data: a transfer wrote
// it, or it lies below the disk's write mark in the manifest of a reopened
// file-backed array. Reading any other block fails. Like Peek, it must not
// be called while a transfer is in flight.
func (a *Array) Written(d, off int) bool {
	if d < 0 || d >= a.params.D {
		panic(fmt.Sprintf("pdm: disk %d of %d", d, a.params.D))
	}
	// The bound keeps off·D + d from overflowing: no store holds a block
	// that far out.
	return off >= 0 && off <= (math.MaxInt-d)/a.params.D && a.store.isWritten(off*a.params.D+d)
}

// scrubbable is implemented by stores that maintain block checksums.
type scrubbable interface {
	checksummed() bool
	// verifyAll re-reads every written block, disk by disk, returning how
	// many were checked and the ones whose checksum did not match.
	verifyAll() (int, []*CorruptBlockError)
}

// ScrubReport summarises a full-array integrity sweep.
type ScrubReport struct {
	// Checksummed is false when the array has no checksums to verify (an
	// in-memory array, or a file-backed one created with NoChecksums).
	Checksummed bool
	// BlocksChecked counts the written blocks that were re-read and
	// verified across all disks.
	BlocksChecked int
	// Corrupt lists every block whose data disagreed with its checksum.
	Corrupt []*CorruptBlockError
}

// Scrub walks every written block on every disk and verifies it against
// its stored checksum, without touching model I/O accounting. Like Peek,
// it must not run concurrently with a ParallelIO.
func (a *Array) Scrub() ScrubReport {
	var rep ScrubReport
	if s, ok := a.store.(scrubbable); ok && s.checksummed() {
		rep.Checksummed = true
		rep.BlocksChecked, rep.Corrupt = s.verifyAll()
	}
	return rep
}

// ParallelIO performs one parallel I/O consisting of the given block
// transfers. In ModePDM at most one op may address each disk; in ModeAgV at
// most D ops are allowed in total. A nil or empty op list is a no-op that
// costs nothing. It runs on the calling goroutine and is safe for
// concurrent callers, which it serializes. A rule violation or a failed
// transfer panics; the failure keeps its error type (a *CorruptBlockError,
// a wrapped *diskio.DiskFailedError, a context error).
func (a *Array) ParallelIO(ops []Op) {
	a.ioMu.Lock()
	defer a.ioMu.Unlock()
	a.parallelIO(ops)
}

// parallelIO is ParallelIO for a caller that holds ioMu.
func (a *Array) parallelIO(ops []Op) {
	if len(ops) == 0 {
		return
	}
	a.validate(ops)
	if err := a.transfer(ops); err != nil {
		panic(err)
	}

	a.mu.Lock()
	a.stats.IOs++
	hasRead, hasWrite := false, false
	for _, op := range ops {
		if op.Write {
			hasWrite = true
			a.stats.BlocksWritten++
			a.stats.PerDiskWrites[op.Disk]++
		} else {
			hasRead = true
			a.stats.BlocksRead++
			a.stats.PerDiskReads[op.Disk]++
		}
	}
	if hasRead {
		a.stats.ReadIOs++
	}
	if hasWrite {
		a.stats.WriteIOs++
	}
	width := len(ops)
	if width > a.params.D {
		width = a.params.D // AgV mode can exceed D only per-disk, not total
	}
	a.stats.WidthHist[width]++
	if hasWrite && !hasRead {
		a.stats.WriteWidthHist[width]++
	}
	a.mu.Unlock()
}

// validate panics unless ops obey the array's I/O rule and each moves
// exactly one block. The caller holds ioMu.
func (a *Array) validate(ops []Op) {
	if len(ops) > a.params.D {
		panic(fmt.Sprintf("pdm: %d ops in one I/O, model allows at most D = %d", len(ops), a.params.D))
	}
	defer func() {
		for _, op := range ops {
			if op.Disk >= 0 && op.Disk < a.params.D {
				a.claimed[op.Disk] = false
			}
		}
	}()
	for _, op := range ops {
		if op.Disk < 0 || op.Disk >= a.params.D {
			panic(fmt.Sprintf("pdm: op addresses disk %d of %d", op.Disk, a.params.D))
		}
		if a.mode == ModePDM && a.claimed[op.Disk] {
			panic(fmt.Sprintf("pdm: two blocks on disk %d in one I/O (PDM mode)", op.Disk))
		}
		a.claimed[op.Disk] = true
		if len(op.Data) != a.params.B {
			panic(fmt.Errorf("pdm: op transfers %d records, block size is %d", len(op.Data), a.params.B))
		}
	}
}

// transfer moves the blocks of validated ops, one store call each,
// stopping at the first error. Reading a never-written block is almost
// always a bug in the caller, so the stores fail loudly (the error becomes
// a panic in ParallelIO).
func (a *Array) transfer(ops []Op) error {
	for _, op := range ops {
		blk := op.Off*a.params.D + op.Disk
		var err error
		if op.Write {
			err = a.store.write(blk, op.Data)
		} else {
			err = a.store.read(blk, op.Data)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// IOCounts returns the scalar model-I/O tallies without copying the
// per-disk histograms — cheap enough for per-span resource attribution to
// call on every span open and close.
func (a *Array) IOCounts() (ios, blocksRead, blocksWritten int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats.IOs, a.stats.BlocksRead, a.stats.BlocksWritten
}

// Stats returns a snapshot of the I/O counters.
func (a *Array) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stats
	s.PerDiskReads = append([]int64(nil), a.stats.PerDiskReads...)
	s.PerDiskWrites = append([]int64(nil), a.stats.PerDiskWrites...)
	s.WidthHist = append([]int64(nil), a.stats.WidthHist...)
	s.WriteWidthHist = append([]int64(nil), a.stats.WriteWidthHist...)
	return s
}

// ResetStats zeroes the I/O counters (allocation state is kept).
func (a *Array) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = Stats{
		PerDiskReads:   make([]int64, a.params.D),
		PerDiskWrites:  make([]int64, a.params.D),
		WidthHist:      make([]int64, a.params.D+1),
		WriteWidthHist: make([]int64, a.params.D+1),
	}
}

// Peek returns a copy of one block without counting any I/O. It is the
// simulator's measurement channel — verification sweeps and displacement
// measurements use it so that observing the data does not perturb the cost
// being measured. It must not be called while a ParallelIO is in flight.
func (a *Array) Peek(d, off int) []record.Record {
	if d < 0 || d >= a.params.D {
		panic(fmt.Sprintf("pdm: peek at disk %d of %d", d, a.params.D))
	}
	dst := make([]record.Record, a.params.B)
	a.ioMu.Lock()
	defer a.ioMu.Unlock()
	if err := a.store.read(off*a.params.D+d, dst); err != nil {
		panic(err)
	}
	return dst
}

// Alloc reserves n fresh blocks on disk d and returns the offset of the
// first. The simulator never reuses freed space; regions are cheap.
func (a *Array) Alloc(d, n int) int {
	off := a.nextFree[d]
	a.nextFree[d] += n
	return off
}

// AllocStripe reserves n fresh block offsets valid on every disk (the same
// offset range on all D disks) and returns the first offset.
func (a *Array) AllocStripe(n int) int {
	off := 0
	for _, f := range a.nextFree {
		if f > off {
			off = f
		}
	}
	for d := range a.nextFree {
		a.nextFree[d] = off + n
	}
	return off
}

// WriteStripe writes data as blocks first, first+1, ... of the striped
// region at block offset off: block i of the call goes to disk (first+i)%D
// at offset off+(first+i)/D, which is array block off·D+first+i. Records
// beyond the last full block are padded with +inf sentinels the caller
// must track. The call's blocks are consecutive in the array and move in
// one store call, straight from data. The model is charged exactly what
// the row-by-row loop the call stands for would cost: one parallel I/O per
// D consecutive blocks, ⌈n/D⌉ for n blocks, which it returns.
func (a *Array) WriteStripe(off, first int, data []record.Record) int {
	return a.stripe(off, first, data, true)
}

// ReadStripe reads len(dst) records from blocks first, first+1, ... of the
// striped region at block offset off (the layout WriteStripe writes), in
// one store call, straight into dst. It is charged and returns its
// parallel I/Os like WriteStripe.
func (a *Array) ReadStripe(off, first int, dst []record.Record) int {
	return a.stripe(off, first, dst, false)
}

// stripe is the striped transfer behind WriteStripe and ReadStripe. Like
// ParallelIO, it runs on the calling goroutine, serializes with every
// other transfer, and panics on a failed store call.
func (a *Array) stripe(off, first int, recs []record.Record, write bool) int {
	b, d := a.params.B, a.params.D
	n := (len(recs) + b - 1) / b
	if n == 0 {
		return 0
	}
	a.ioMu.Lock()
	defer a.ioMu.Unlock()
	var err error
	if write {
		err = a.store.write(off*d+first, recs)
	} else {
		err = a.store.read(off*d+first, recs)
	}
	if err != nil {
		panic(err)
	}

	// Row r of the loop moves blocks rD .. rD+D-1 of the call: the full
	// rows are D wide, a partial last row n mod D.
	rows, tail := n/d, n%d
	ios := int64((n + d - 1) / d)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats.IOs += ios
	perDisk := a.stats.PerDiskReads
	if write {
		a.stats.WriteIOs += ios
		a.stats.BlocksWritten += int64(n)
		perDisk = a.stats.PerDiskWrites
	} else {
		a.stats.ReadIOs += ios
		a.stats.BlocksRead += int64(n)
	}
	for i := 0; i < min(n, d); i++ {
		perDisk[(first+i)%d] += int64((n - i + d - 1) / d)
	}
	addRows(a.stats.WidthHist, d, rows, tail)
	if write {
		addRows(a.stats.WriteWidthHist, d, rows, tail)
	}
	return int(ios)
}

// addRows counts rows full-width I/Os and, if tail > 0, one tail-wide I/O
// in the width histogram h.
func addRows(h []int64, d, rows, tail int) {
	h[d] += int64(rows)
	if tail > 0 {
		h[tail]++
	}
}

// D returns the number of disks.
func (a *Array) D() int { return a.params.D }

// B returns the block size in records.
func (a *Array) B() int { return a.params.B }

// M returns the internal memory capacity in records.
func (a *Array) M() int { return a.params.M }

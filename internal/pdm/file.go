package pdm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// File-backed disk arrays: each simulated drive persists its blocks to one
// file under a directory, in the 16-byte wire format of internal/record.
// The cost model is unchanged — parallel I/O counting and the
// one-block-per-disk rule work exactly as with the in-memory store — but
// the data outlives the process and its footprint is disk, not RAM, so the
// library genuinely sorts datasets larger than host memory.
//
// Every transfer moves on the calling goroutine through the drive's guarded
// device (internal/diskio) as one device op, however many consecutive
// blocks it holds: fault injection, retry with backoff, the circuit breaker
// and fail-fast *diskio.DiskFailedError, and the per-disk counters
// IOMetrics reports. FileOptions.IO configures that layer.
//
// Integrity: unless disabled, every block carries a CRC32C (Castagnoli) of
// its wire bytes. Each drive keeps the checksums in an in-memory table,
// recorded on every block write and verified on every block read, and
// writes the entries changed since the last flush to its sidecar file
// (disk%03d.crc, 4 little-endian bytes per block) at every Sync and Close,
// before the manifest names the blocks. A mismatch surfaces as a typed
// *CorruptBlockError, and Scrub sweeps every written block without the
// sort having to touch it.
//
// Close writes a manifest (parameters, mode, allocation and write marks,
// checksum algorithm) so a later OpenFileBacked can resume against the
// same directory; the manifest is also rewritten on every Sync, and always
// via write-to-temp-then-rename so a crash can never leave a torn
// manifest behind.

// castagnoli is the CRC32C polynomial table shared by the block sidecars
// and the journal line checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumCRC32C names the only checksum algorithm the manifest accepts.
const ChecksumCRC32C = "crc32c"

// crcSize is the sidecar bytes per block.
const crcSize = 4

// flushPiece is how many checksum entries a sidecar flush encodes and
// writes per WriteAt.
const flushPiece = 1024

// CorruptBlockError reports a block whose stored checksum disagrees with
// its data — a torn write, a truncated sidecar, or silent media
// corruption. It is the typed error behind read verification and Scrub.
type CorruptBlockError struct {
	Disk  int    // which simulated drive
	Block int    // block offset on that drive
	Want  uint32 // checksum recorded in the sidecar (0 if unreadable)
	Got   uint32 // checksum of the bytes actually read
}

func (e *CorruptBlockError) Error() string {
	return fmt.Sprintf("pdm: corrupt block: disk %d block %d checksum %08x, data hashes to %08x",
		e.Disk, e.Block, e.Want, e.Got)
}

// TruncatedDiskError reports a scratch file that disagrees with the
// manifest at open time: shorter than the recorded write high-water mark,
// or not a whole number of blocks. Catching this at OpenFileBacked beats
// failing later, deep inside a read.
type TruncatedDiskError struct {
	Disk       int
	Path       string
	WantBlocks int   // manifest's write high-water mark
	GotBytes   int64 // actual file size
	BlockBytes int
}

func (e *TruncatedDiskError) Error() string {
	return fmt.Sprintf("pdm: disk %d file %s is %d bytes, want at least %d whole %d-byte blocks",
		e.Disk, e.Path, e.GotBytes, e.WantBlocks, e.BlockBytes)
}

// blockIndex is the bookkeeping of one file-backed drive: which blocks hold
// data and, with checksums on, the CRC32C table. The table costs 4 bytes of
// host memory per written block and reaches the sidecar only at flush
// (Sync and Close), so a block transfer is the data transfer alone.
type blockIndex struct {
	disk    int
	written []bool
	crc     *os.File // checksum sidecar; nil = checksums off
	// sums[off] is the CRC32C of block off's wire bytes; entries
	// [dirtyLo, dirtyHi) changed since the last flush.
	sums             []uint32
	dirtyLo, dirtyHi int
	enc              [flushPiece * crcSize]byte // flush staging buffer
}

func (x *blockIndex) isWritten(off int) bool { return off < len(x.written) && x.written[off] }

func (x *blockIndex) highWater() int { return len(x.written) }

func (x *blockIndex) checksummed() bool { return x.crc != nil }

// record marks block off written with the given wire bytes.
func (x *blockIndex) record(off int, wire []byte) {
	if off >= len(x.written) {
		x.written = extend(x.written, off+1)
	}
	x.written[off] = true
	if x.crc == nil {
		return
	}
	if off >= len(x.sums) {
		x.sums = extend(x.sums, off+1)
	}
	x.sums[off] = crc32.Checksum(wire, castagnoli)
	if x.dirtyLo == x.dirtyHi {
		x.dirtyLo, x.dirtyHi = off, off+1
	} else {
		x.dirtyLo, x.dirtyHi = min(x.dirtyLo, off), max(x.dirtyHi, off+1)
	}
}

// extend returns s lengthened to n > len(s) entries, zeroing the new ones.
// A reallocation at least doubles the capacity, so a table that grows a
// block at a time is reallocated O(log n) times in all; append would grow
// it by about 1.25x past 256 entries and copy it some four times over.
func extend[T any](s []T, n int) []T {
	if n > cap(s) {
		t := make([]T, len(s), max(n, 2*cap(s)))
		copy(t, s)
		s = t
	}
	old := len(s)
	s = s[:n]
	clear(s[old:])
	return s
}

// verify checks a written block's wire bytes against its table entry.
func (x *blockIndex) verify(off int, wire []byte) error {
	if x.crc == nil {
		return nil
	}
	got := crc32.Checksum(wire, castagnoli)
	if want := x.sums[off]; want != got {
		return &CorruptBlockError{Disk: x.disk, Block: off, Want: want, Got: got}
	}
	return nil
}

// isAllocationHole reports whether a block below the write high-water
// mark was in fact never written: distribution allocates chains eagerly,
// so the data file can be sparse there, reading back as zeros, with a zero
// table entry. A genuinely written all-zero block is distinguishable — its
// entry holds the (nonzero) CRC32C of the zero block.
func (x *blockIndex) isAllocationHole(off int, wire []byte) bool {
	if x.sums[off] != 0 {
		return false
	}
	for _, v := range wire {
		if v != 0 {
			return false
		}
	}
	return true
}

// flush writes the table entries changed since the last flush to the
// sidecar, flushPiece entries per WriteAt through a fixed staging buffer.
func (x *blockIndex) flush() error {
	if x.crc == nil || x.dirtyLo == x.dirtyHi {
		return nil
	}
	for lo := x.dirtyLo; lo < x.dirtyHi; lo += flushPiece {
		piece := x.sums[lo:min(lo+flushPiece, x.dirtyHi)]
		for i, v := range piece {
			binary.LittleEndian.PutUint32(x.enc[i*crcSize:], v)
		}
		if _, err := x.crc.WriteAt(x.enc[:len(piece)*crcSize], int64(lo)*crcSize); err != nil {
			return fmt.Errorf("pdm: checksum write: %w", err)
		}
	}
	x.dirtyLo, x.dirtyHi = 0, 0
	return nil
}

// load resumes a reopened drive: its first n blocks count as written and,
// with checksums on, their table entries come from the sidecar.
func (x *blockIndex) load(n int) error {
	x.written = make([]bool, n)
	for i := range x.written {
		x.written[i] = true
	}
	if x.crc == nil {
		return nil
	}
	raw := make([]byte, n*crcSize)
	if _, err := x.crc.ReadAt(raw, 0); err != nil {
		return fmt.Errorf("pdm: checksum sidecar: %w", err)
	}
	x.sums = make([]uint32, n)
	for i := range x.sums {
		x.sums[i] = binary.LittleEndian.Uint32(raw[i*crcSize:])
	}
	return nil
}

// closeSidecar flushes the table and closes the sidecar.
func (x *blockIndex) closeSidecar() error {
	if x.crc == nil {
		return nil
	}
	err := x.flush()
	if cerr := x.crc.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// scrub re-reads every written block into buf with readRaw and verifies
// it against the table, returning how many were checked and the ones
// whose checksum did not match. An unreadable block counts as corrupt.
func (x *blockIndex) scrub(buf []byte, readRaw func(off int, buf []byte) error) (int, []*CorruptBlockError) {
	checked := 0
	var bad []*CorruptBlockError
	for off, w := range x.written {
		if !w {
			continue
		}
		if err := readRaw(off, buf); err != nil {
			bad = append(bad, &CorruptBlockError{Disk: x.disk, Block: off})
			checked++
			continue
		}
		if x.isAllocationHole(off, buf) {
			continue
		}
		checked++
		if err := x.verify(off, buf); err != nil {
			bad = append(bad, err.(*CorruptBlockError))
		}
	}
	return checked, bad
}

// fileStore backs one drive with one file; block i occupies bytes
// [i*B*EncodedSize, (i+1)*B*EncodedSize). A store call moves its k
// consecutive blocks as one device op on the calling goroutine, through the
// drive's guarded device.
type fileStore struct {
	blockIndex
	dev *diskio.Drive
	b   int // records per block
	// wire holds one call's wire bytes. The array's stores share it: the
	// array serializes its transfers, and Peek and Scrub are contractually
	// never concurrent with one.
	wire *[]byte
}

// newFileStores puts one store over each drive, all sharing one wire
// buffer.
func newFileStores(drives *diskio.Drives, p Params) []*fileStore {
	wire := new([]byte)
	stores := make([]*fileStore, p.D)
	for i := range stores {
		stores[i] = &fileStore{blockIndex: blockIndex{disk: i}, dev: drives.Drive(i), b: p.B, wire: wire}
	}
	return stores
}

// wireBuf returns the shared wire buffer resliced to n bytes, growing it
// only when it is short.
func (s *fileStore) wireBuf(n int) []byte {
	if cap(*s.wire) < n {
		*s.wire = make([]byte, n)
	}
	return (*s.wire)[:n]
}

func (s *fileStore) read(off, stride int, recs []record.Record) error {
	k := (len(recs) + stride - 1) / stride
	for j := 0; j < k; j++ {
		if !s.isWritten(off + j) {
			return fmt.Errorf("pdm: read of unwritten block off=%d", off+j)
		}
	}
	bb := s.b * record.EncodedSize
	wire := s.wireBuf(k * bb)
	if err := s.dev.Read(int64(off), wire); err != nil {
		return fmt.Errorf("pdm: file read: %w", err)
	}
	for j := 0; j < k; j++ {
		blk := wire[j*bb : (j+1)*bb]
		if err := s.verify(off+j, blk); err != nil {
			return err
		}
		record.DecodeInto(blockOf(recs, j, stride, s.b), blk)
	}
	return nil
}

func (s *fileStore) write(off, stride int, recs []record.Record) error {
	k := (len(recs) + stride - 1) / stride
	bb := s.b * record.EncodedSize
	wire := s.wireBuf(k * bb)
	for j := 0; j < k; j++ {
		src, blk := blockOf(recs, j, stride, s.b), wire[j*bb:(j+1)*bb]
		record.AppendSlice(blk[:0], src)
		for i := len(src) * record.EncodedSize; i < bb; i++ {
			blk[i] = 0xff // a +inf sentinel record is all one bits
		}
	}
	if err := s.dev.Write(int64(off), wire); err != nil {
		return fmt.Errorf("pdm: file write: %w", err)
	}
	for j := 0; j < k; j++ {
		s.record(off+j, wire[j*bb:(j+1)*bb])
	}
	return nil
}

// close flushes the checksum table to the sidecar; the data files are
// closed with the drives (see the array's onClose).
func (s *fileStore) close() error { return s.closeSidecar() }

func (s *fileStore) verifyAll() (int, []*CorruptBlockError) {
	return s.scrub(s.wireBuf(s.b*record.EncodedSize), func(off int, buf []byte) error {
		return s.dev.Read(int64(off), buf)
	})
}

// Manifest is the JSON persisted next to the disk files. It is exported
// so its parser can be fuzzed and so tools can inspect scratch
// directories without opening the array.
type Manifest struct {
	D        int    `json:"d"`
	B        int    `json:"b"`
	M        int    `json:"m"`
	Mode     Mode   `json:"mode"`
	NextFree []int  `json:"next_free"`
	Written  []int  `json:"written,omitempty"`  // per-disk write high-water marks in blocks
	Checksum string `json:"checksum,omitempty"` // "" or ChecksumCRC32C
}

// ParseManifest decodes and validates a manifest. It never panics on
// corrupted or truncated input; every malformation is an error.
func ParseManifest(raw []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("pdm: bad manifest: %w", err)
	}
	p := Params{D: m.D, B: m.B, M: m.M}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// The persisted mode decides which I/O rule resumes: an AgV array
	// must not silently come back under PDM accounting (or vice versa).
	if m.Mode != ModePDM && m.Mode != ModeAgV {
		return nil, fmt.Errorf("pdm: manifest has unknown mode %d", m.Mode)
	}
	if len(m.NextFree) != m.D {
		return nil, fmt.Errorf("pdm: manifest has %d allocation marks for D=%d", len(m.NextFree), m.D)
	}
	for i, nf := range m.NextFree {
		if nf < 0 {
			return nil, fmt.Errorf("pdm: manifest allocation mark %d on disk %d", nf, i)
		}
	}
	if m.Written != nil {
		if len(m.Written) != m.D {
			return nil, fmt.Errorf("pdm: manifest has %d write marks for D=%d", len(m.Written), m.D)
		}
		for i, w := range m.Written {
			if w < 0 || w > m.NextFree[i] {
				return nil, fmt.Errorf("pdm: manifest write mark %d exceeds allocation mark %d on disk %d",
					w, m.NextFree[i], i)
			}
		}
	}
	if m.Checksum != "" && m.Checksum != ChecksumCRC32C {
		return nil, fmt.Errorf("pdm: manifest has unknown checksum algorithm %q", m.Checksum)
	}
	return &m, nil
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }
func diskPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("disk%03d.bin", i))
}
func crcPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("disk%03d.crc", i))
}

// FileOptions configures a file-backed array beyond the model parameters.
type FileOptions struct {
	// Mode selects the model's I/O rule (new arrays; reopened arrays
	// follow their manifest).
	Mode Mode
	// IO configures the drives' I/O layer: fault injection, retries, the
	// circuit breaker, the context that cancels its sleeps, and its trace.
	// BlockBytes is derived and may be left zero.
	IO diskio.Config
	// NoChecksums disables the CRC32C block sidecars for a new array.
	// Reopened arrays follow their manifest, whatever this says.
	NoChecksums bool
}

// NewFileBacked creates a file-backed array under dir (created if absent)
// in PDM mode with checksums on and a default I/O layer. Any existing array
// files in dir are truncated.
func NewFileBacked(p Params, dir string) (*Array, error) {
	return NewFileBackedOpts(p, dir, FileOptions{})
}

// NewFileBackedMode is NewFileBacked with an explicit model mode; the mode
// is persisted in the manifest so the array resumes under the same rule.
func NewFileBackedMode(p Params, dir string, mode Mode) (*Array, error) {
	return NewFileBackedOpts(p, dir, FileOptions{Mode: mode})
}

// NewFileBackedOpts creates a file-backed array under dir with the given
// options. Any existing array files in dir are truncated, and a manifest
// is written immediately so even a freshly crashed run leaves a readable
// directory behind.
func NewFileBackedOpts(p Params, dir string, o FileOptions) (*Array, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if o.Mode != ModePDM && o.Mode != ModeAgV {
		return nil, fmt.Errorf("pdm: unknown mode %d", o.Mode)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := make([]*os.File, p.D)
	var crcs []*os.File
	if !o.NoChecksums {
		crcs = make([]*os.File, p.D)
	}
	fail := func(err error) (*Array, error) {
		closeFiles(files)
		closeFiles(crcs)
		return nil, err
	}
	for i := range files {
		f, err := os.Create(diskPath(dir, i))
		if err != nil {
			return fail(err)
		}
		files[i] = f
		if crcs != nil {
			c, err := os.Create(crcPath(dir, i))
			if err != nil {
				return fail(err)
			}
			crcs[i] = c
		}
	}
	a, err := assembleFileBacked(p, dir, o.Mode, o.IO, files, crcs, nil, nil)
	if err != nil {
		return nil, err
	}
	if err := a.Sync(); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// OpenFileBacked resumes the array persisted under dir, with a default I/O
// layer, in the mode recorded by the manifest.
func OpenFileBacked(dir string) (*Array, error) {
	return OpenFileBackedOpts(dir, FileOptions{})
}

// OpenFileBackedOpts resumes the array persisted under dir. The manifest
// decides the mode and the checksum discipline (o.Mode and o.NoChecksums
// are ignored); o.IO configures the drives' I/O layer. Per-disk file
// sizes are validated against the manifest's write marks at open time —
// a truncated or ragged scratch file is a typed *TruncatedDiskError here
// rather than a confusing failure deep inside a later read.
func OpenFileBackedOpts(dir string, o FileOptions) (*Array, error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("pdm: no manifest: %w", err)
	}
	m, err := ParseManifest(raw)
	if err != nil {
		return nil, err
	}
	p := Params{D: m.D, B: m.B, M: m.M}
	blockBytes := p.B * record.EncodedSize

	files := make([]*os.File, p.D)
	var crcs []*os.File
	if m.Checksum == ChecksumCRC32C {
		crcs = make([]*os.File, p.D)
	}
	fail := func(err error) (*Array, error) {
		closeFiles(files)
		closeFiles(crcs)
		return nil, err
	}
	written := make([]int, p.D)
	for i := range files {
		f, err := os.OpenFile(diskPath(dir, i), os.O_RDWR, 0)
		if err != nil {
			return fail(err)
		}
		files[i] = f
		st, err := f.Stat()
		if err != nil {
			return fail(err)
		}
		want := 0
		if m.Written != nil {
			want = m.Written[i]
		}
		if st.Size()%int64(blockBytes) != 0 || st.Size() < int64(want)*int64(blockBytes) {
			return fail(&TruncatedDiskError{
				Disk: i, Path: diskPath(dir, i),
				WantBlocks: want, GotBytes: st.Size(), BlockBytes: blockBytes,
			})
		}
		if m.Written != nil {
			written[i] = want
		} else {
			// Legacy manifest without write marks: trust the file extent.
			written[i] = int(st.Size()) / blockBytes
		}
		if crcs != nil {
			c, err := os.OpenFile(crcPath(dir, i), os.O_RDWR, 0)
			if err != nil {
				return fail(fmt.Errorf("pdm: checksum sidecar: %w", err))
			}
			crcs[i] = c
			cst, err := c.Stat()
			if err != nil {
				return fail(err)
			}
			if cst.Size() < int64(written[i])*crcSize {
				return fail(&TruncatedDiskError{
					Disk: i, Path: crcPath(dir, i),
					WantBlocks: written[i], GotBytes: cst.Size(), BlockBytes: crcSize,
				})
			}
		}
	}
	return assembleFileBacked(p, dir, m.Mode, o.IO, files, crcs, m.NextFree, written)
}

// assembleFileBacked builds the array over the opened files, one
// fileStore per drive behind the guarded devices, and arranges for Sync
// and Close to persist the checksum tables and the manifest. A resumed
// array passes its allocation marks and per-disk write marks; its
// checksum tables are loaded from the sidecars up to the write marks.
func assembleFileBacked(p Params, dir string, mode Mode, cfg diskio.Config, files, crcs []*os.File, nextFree, written []int) (*Array, error) {
	fail := func(err error) (*Array, error) {
		closeFiles(files)
		closeFiles(crcs)
		return nil, err
	}
	cfg.BlockBytes = p.B * record.EncodedSize
	devs := make([]diskio.Device, p.D)
	for i, f := range files {
		devs[i] = f
	}
	drives, err := diskio.New(cfg, devs)
	if err != nil {
		return fail(err)
	}
	idx := make([]*blockIndex, p.D)
	stores := make([]blockStore, p.D)
	for i, fs := range newFileStores(drives, p) {
		if crcs != nil {
			fs.crc = crcs[i]
		}
		if written != nil {
			if err := fs.load(written[i]); err != nil {
				return fail(err)
			}
		}
		idx[i], stores[i] = &fs.blockIndex, fs
	}
	checksum := ""
	if crcs != nil {
		checksum = ChecksumCRC32C
	}
	var a *Array
	persist := func() error {
		return writeManifest(dir, Manifest{
			D: p.D, B: p.B, M: p.M, Mode: mode,
			NextFree: append([]int(nil), a.nextFree...),
			Written:  a.writtenMarks(),
			Checksum: checksum,
		})
	}
	a = newWithStores(p, mode, stores, func() error {
		// The stores have flushed their checksum tables and closed the
		// sidecars; the data files close before the manifest is written.
		firstErr := drives.Close()
		if err := persist(); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	})
	// Sync makes everything written so far durable and the manifest
	// consistent with it — the commit primitive the sort-pass journal
	// builds on: the changed checksum entries reach the sidecars, then
	// data, sidecars, and manifest are made durable in that order.
	a.syncFn = func() error {
		for _, x := range idx {
			if err := x.flush(); err != nil {
				return err
			}
		}
		for _, f := range files {
			if err := f.Sync(); err != nil {
				return err
			}
		}
		for _, c := range crcs {
			if err := c.Sync(); err != nil {
				return err
			}
		}
		return persist()
	}
	a.drives = drives
	if nextFree != nil {
		copy(a.nextFree, nextFree)
	}
	return a, nil
}

// IOMetrics snapshots the I/O layer's per-disk counters of a file-backed
// array, or returns nil for an in-memory one.
func (a *Array) IOMetrics() *diskio.Snapshot {
	if a.drives == nil {
		return nil
	}
	snap := a.drives.Metrics()
	return &snap
}

func closeFiles(files []*os.File) {
	for _, f := range files {
		if f != nil {
			f.Close()
		}
	}
}

// writeManifest persists the manifest atomically (temp file + rename), so
// a crash mid-write can never leave a torn manifest.
func writeManifest(dir string, m Manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := manifestPath(dir) + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, manifestPath(dir))
}

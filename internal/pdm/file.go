package pdm

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// File-backed disk arrays: the D simulated disks persist their blocks to
// one data file under a directory (disks.bin), in the 16-byte wire format
// of internal/record and in stripe order — block o of disk d is array
// block o·D + d, at byte (o·D + d)·B·16. The cost model is unchanged —
// parallel I/O counting and the one-block-per-disk rule work exactly as
// with the in-memory store — but the data outlives the process and its
// footprint is disk, not RAM, so the library genuinely sorts datasets
// larger than host memory.
//
// Every transfer moves on the calling goroutine through the array's
// guarded device (internal/diskio) as one device op, however many
// consecutive array blocks it holds: fault injection, retry with backoff,
// the circuit breaker and fail-fast *diskio.DiskFailedError, and the
// per-disk counters IOMetrics reports. FileOptions.IO configures that
// layer. On a little-endian host the whole blocks of a transfer move
// straight from and into the caller's records, and a short last block
// through a one-block buffer, as a second device call of the same op.
//
// Integrity: unless disabled, every block carries a CRC32C (Castagnoli) of
// its wire bytes. Each disk keeps the checksums of its blocks in an
// in-memory table, recorded on every block write and verified on every
// block read, and writes the entries changed since the last flush to its
// sidecar file (disk%03d.crc, 4 little-endian bytes per block of the disk)
// at every Sync and Close, before the manifest names the blocks. A
// mismatch surfaces as a typed *CorruptBlockError, and Scrub sweeps every
// written block without the sort having to touch it.
//
// Close writes a manifest (parameters, mode, per-disk allocation and write
// marks, checksum algorithm) so a later OpenFileBacked can resume against
// the same directory; the manifest is also rewritten on every Sync, and
// always via write-to-temp-then-rename so a crash can never leave a torn
// manifest behind. Earlier versions kept one data file per disk
// (disk%03d.bin); OpenFileBacked converts such a directory.

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
// manifest at open time: too short to hold a disk's blocks below its
// recorded write high-water mark, or not a whole number of blocks.
// Catching this at OpenFileBacked beats failing later, deep inside a read.
type TruncatedDiskError struct {
	Disk int
	Path string
	// WantBlocks is how many of the file's blocks the disk needs: for the
	// data file, its last written block's array block plus one; for a
	// sidecar or a per-disk file, the disk's write mark.
	WantBlocks int
	GotBytes   int64 // actual file size
	BlockBytes int
}

func (e *TruncatedDiskError) Error() string {
	return fmt.Sprintf("pdm: disk %d file %s is %d bytes, want at least %d whole %d-byte blocks",
		e.Disk, e.Path, e.GotBytes, e.WantBlocks, e.BlockBytes)
}

// blockIndex is the bookkeeping of one disk of a file-backed array, in
// the disk's own block offsets: which blocks hold data and, with
// checksums on, the CRC32C table. The table costs 4 bytes of host memory
// per written block and reaches the sidecar only at flush (Sync and
// Close), so a block transfer is the data transfer alone.
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

// load resumes a reopened disk: its first n blocks count as written and,
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

// fileStore backs an array's disks with one data file; array block i
// occupies bytes [i*B*EncodedSize, (i+1)*B*EncodedSize). A store call
// moves its consecutive array blocks as one device op on the calling
// goroutine, through the array's guarded device, and records and verifies
// each block's checksum in its own disk's index.
type fileStore struct {
	disks []blockIndex // disk d's bookkeeping, in d's own block offsets
	dev   *diskio.Drives
	b, bb int // records and bytes per block
	// last holds a transfer's short last block, and a scrub's block.
	last []byte
	// wire holds a whole transfer's wire bytes on a host whose records'
	// memory is not their wire form; nil until one needs it.
	wire []byte
}

// newFileStore puts a store over the guarded device of a p-shaped array.
func newFileStore(dev *diskio.Drives, p Params) *fileStore {
	s := &fileStore{disks: make([]blockIndex, p.D), dev: dev, b: p.B, bb: p.B * record.EncodedSize}
	for d := range s.disks {
		s.disks[d].disk = d
	}
	s.last = make([]byte, s.bb)
	return s
}

// index returns the bookkeeping of array block blk's disk and the block's
// offset on it.
func (s *fileStore) index(blk int) (*blockIndex, int) {
	d := len(s.disks)
	return &s.disks[blk%d], blk / d
}

func (s *fileStore) isWritten(blk int) bool {
	x, off := s.index(blk)
	return x.isWritten(off)
}

func (s *fileStore) highWater(d int) int { return s.disks[d].highWater() }

func (s *fileStore) checksummed() bool { return s.disks[0].checksummed() }

// wireOf returns the wire bytes a transfer of recs moves: body holds its
// whole blocks and tail, when the last block is short, the store's
// one-block buffer. On a little-endian host body is recs' own memory
// (direct is true); on any other it is the store's wire buffer, sized for
// every block, and tail is nil.
func (s *fileStore) wireOf(recs []record.Record) (body, tail []byte, direct bool) {
	whole := len(recs) / s.b * s.b
	if body, ok := record.WireView(recs[:whole]); ok {
		if whole < len(recs) {
			tail = s.last
		}
		return body, tail, true
	}
	n := (len(recs) + s.b - 1) / s.b
	if cap(s.wire) < n*s.bb {
		s.wire = make([]byte, n*s.bb)
	}
	return s.wire[:n*s.bb], nil, false
}

// block returns block j of a transfer's wire bytes.
func (s *fileStore) block(body, tail []byte, j int) []byte {
	if lo := j * s.bb; lo < len(body) {
		return body[lo : lo+s.bb]
	}
	return tail
}

// pad fills dst with the wire form of recs and +inf sentinels after them
// (a sentinel record is all one bits).
func pad(dst []byte, recs []record.Record) {
	for i := len(record.AppendSlice(dst[:0], recs)); i < len(dst); i++ {
		dst[i] = 0xff
	}
}

func (s *fileStore) read(blk int, recs []record.Record) error {
	n := (len(recs) + s.b - 1) / s.b
	for j := 0; j < n; j++ {
		if !s.isWritten(blk + j) {
			return unwrittenError(blk+j, len(s.disks))
		}
	}
	body, tail, direct := s.wireOf(recs)
	if err := s.dev.Read(int64(blk), body, tail); err != nil {
		return fmt.Errorf("pdm: file read: %w", err)
	}
	for j := 0; j < n; j++ {
		x, off := s.index(blk + j)
		if err := x.verify(off, s.block(body, tail, j)); err != nil {
			return err
		}
	}
	switch {
	case !direct:
		record.DecodeInto(recs, body)
	case tail != nil:
		record.DecodeInto(recs[len(body)/record.EncodedSize:], tail)
	}
	return nil
}

func (s *fileStore) write(blk int, recs []record.Record) error {
	n := (len(recs) + s.b - 1) / s.b
	body, tail, direct := s.wireOf(recs)
	switch {
	case !direct:
		pad(body, recs)
	case tail != nil:
		pad(tail, recs[len(body)/record.EncodedSize:])
	}
	if err := s.dev.Write(int64(blk), body, tail); err != nil {
		return fmt.Errorf("pdm: file write: %w", err)
	}
	for j := 0; j < n; j++ {
		x, off := s.index(blk + j)
		x.record(off, s.block(body, tail, j))
	}
	return nil
}

// close flushes the checksum tables to the sidecars; the data file is
// closed with the device (see the array's onClose).
func (s *fileStore) close() error {
	var firstErr error
	for d := range s.disks {
		if err := s.disks[d].closeSidecar(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (s *fileStore) verifyAll() (int, []*CorruptBlockError) {
	checked := 0
	var bad []*CorruptBlockError
	for d := range s.disks {
		n, corrupt := s.disks[d].scrub(s.last, func(off int, buf []byte) error {
			return s.dev.Read(int64(off*len(s.disks)+d), nil, buf)
		})
		checked += n
		bad = append(bad, corrupt...)
	}
	return checked, bad
}

// Manifest is the JSON persisted next to the data file. It is exported
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

// dataPath is the file that holds every disk's blocks, in stripe order.
func dataPath(dir string) string { return filepath.Join(dir, "disks.bin") }

// diskPath is disk i's data file in the per-disk layout of earlier
// versions, which OpenFileBacked converts.
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
// options. The data file is created empty, truncating any existing one,
// and a manifest is written immediately so even a freshly crashed run
// leaves a readable directory behind.
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
	data, err := os.Create(dataPath(dir))
	if err != nil {
		return nil, err
	}
	var crcs []*os.File
	if !o.NoChecksums {
		crcs = make([]*os.File, p.D)
		for i := range crcs {
			if crcs[i], err = os.Create(crcPath(dir, i)); err != nil {
				data.Close()
				closeFiles(crcs)
				return nil, err
			}
		}
	}
	a, err := assembleFileBacked(p, dir, o.Mode, o.IO, data, crcs, nil, nil)
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
// are ignored); o.IO configures the array's I/O layer. The data file's
// size is validated against every disk's write mark at open time — a
// truncated or ragged scratch file is a typed *TruncatedDiskError here
// rather than a confusing failure deep inside a later read. A directory
// in the per-disk layout of earlier versions is converted first (see
// openData).
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

	data, err := openData(dir, m, blockBytes)
	if err != nil {
		return nil, err
	}
	var crcs []*os.File
	fail := func(err error) (*Array, error) {
		data.Close()
		closeFiles(crcs)
		return nil, err
	}
	st, err := data.Stat()
	if err != nil {
		return fail(err)
	}
	size := st.Size()
	blocks := int(size / int64(blockBytes))
	if size%int64(blockBytes) != 0 {
		return fail(&TruncatedDiskError{
			Disk: blocks % p.D, Path: dataPath(dir),
			WantBlocks: blocks + 1, GotBytes: size, BlockBytes: blockBytes,
		})
	}
	written := make([]int, p.D)
	for d := range written {
		if m.Written == nil {
			// Legacy manifest without write marks: trust the file extent.
			written[d] = max(0, (blocks-d+p.D-1)/p.D)
			continue
		}
		written[d] = m.Written[d]
		if want := (written[d]-1)*p.D + d + 1; written[d] > 0 && blocks < want {
			return fail(&TruncatedDiskError{
				Disk: d, Path: dataPath(dir),
				WantBlocks: want, GotBytes: size, BlockBytes: blockBytes,
			})
		}
	}
	if m.Checksum == ChecksumCRC32C {
		crcs = make([]*os.File, p.D)
		for d := range crcs {
			c, err := os.OpenFile(crcPath(dir, d), os.O_RDWR, 0)
			if err != nil {
				return fail(fmt.Errorf("pdm: checksum sidecar: %w", err))
			}
			crcs[d] = c
			cst, err := c.Stat()
			if err != nil {
				return fail(err)
			}
			if cst.Size() < int64(written[d])*crcSize {
				return fail(&TruncatedDiskError{
					Disk: d, Path: crcPath(dir, d),
					WantBlocks: written[d], GotBytes: cst.Size(), BlockBytes: crcSize,
				})
			}
		}
	}
	return assembleFileBacked(p, dir, m.Mode, o.IO, data, crcs, m.NextFree, written)
}

// openData opens dir's data file. A directory in the per-disk layout of
// earlier versions, one diskNNN.bin per disk, is converted first: the
// disks' blocks below their write marks are interleaved in stripe order
// into a temporary file, which is fsynced and renamed into place before
// the disk files are removed. A manifest without write marks takes the
// disk files' extents as its marks, and is rewritten with them before the
// rename. A crash at any point leaves a directory that opens:
// the disk files stay until the data file is whole, and disk files left
// beside a data file, as a crash after the rename leaves them, are
// removed. A disk file shorter than its write mark, or missing while its
// mark is above zero, is a *TruncatedDiskError, and the directory is left
// as it was.
func openData(dir string, m *Manifest, blockBytes int) (*os.File, error) {
	f, err := os.OpenFile(dataPath(dir), os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if err := convertDiskFiles(dir, m, blockBytes); err != nil {
			return nil, err
		}
		f, err = os.OpenFile(dataPath(dir), os.O_RDWR, 0)
	}
	if err != nil {
		return nil, err
	}
	removeDiskFiles(dir, m.D)
	return f, nil
}

// convertDiskFiles writes the data file from a per-disk directory and
// renames it into place (see openData); it closes every file it opened
// before it returns.
func convertDiskFiles(dir string, m *Manifest, blockBytes int) error {
	disks := make([]*os.File, m.D)
	defer closeFiles(disks)
	marks := make([]int, m.D)
	for d := range disks {
		path := diskPath(dir, d)
		var size int64
		f, err := os.Open(path)
		switch {
		case err == nil:
			disks[d] = f
			st, err := f.Stat()
			if err != nil {
				return err
			}
			size = st.Size()
		case !errors.Is(err, fs.ErrNotExist):
			return err
		}
		if m.Written == nil {
			marks[d] = int(size / int64(blockBytes))
		} else {
			marks[d] = m.Written[d]
		}
		if size%int64(blockBytes) != 0 || size < int64(marks[d])*int64(blockBytes) {
			return &TruncatedDiskError{Disk: d, Path: path, WantBlocks: marks[d], GotBytes: size, BlockBytes: blockBytes}
		}
	}

	tmp := dataPath(dir) + ".tmp"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer out.Close()
	// Interleave a piece of rows at a time: row o holds block o of every
	// disk, zero where a disk's mark lies below the row.
	rows := slices.Max(marks)
	piece := max(1, (1<<16)/blockBytes)
	in := make([]byte, piece*blockBytes)
	buf := make([]byte, piece*m.D*blockBytes)
	for lo := 0; lo < rows; lo += piece {
		hi := min(lo+piece, rows)
		clear(buf)
		for d, f := range disks {
			k := min(hi, marks[d]) - lo
			if k <= 0 {
				continue
			}
			if _, err := f.ReadAt(in[:k*blockBytes], int64(lo)*int64(blockBytes)); err != nil {
				return fmt.Errorf("pdm: converting %s: %w", diskPath(dir, d), err)
			}
			for j := 0; j < k; j++ {
				copy(buf[(j*m.D+d)*blockBytes:], in[j*blockBytes:(j+1)*blockBytes])
			}
		}
		if _, err := out.Write(buf[:(hi-lo)*m.D*blockBytes]); err != nil {
			return err
		}
	}
	if err := out.Sync(); err != nil {
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if m.Written == nil {
		// A manifest without write marks trusts each disk file's extent,
		// which the data file does not keep: record the extents first.
		m.Written = marks
		if err := writeManifest(dir, *m); err != nil {
			return err
		}
	}
	return os.Rename(tmp, dataPath(dir))
}

// removeDiskFiles removes the per-disk data files of earlier versions,
// which a data file in place supersedes.
func removeDiskFiles(dir string, d int) {
	for i := 0; i < d; i++ {
		// A file that is absent, or cannot be removed, is only stale.
		_ = os.Remove(diskPath(dir, i))
	}
}

// assembleFileBacked builds the array over the opened files, one
// fileStore over the guarded data file, and arranges for Sync and Close to
// persist the checksum tables and the manifest. A resumed array passes its
// allocation marks and per-disk write marks; its checksum tables are
// loaded from the sidecars up to the write marks.
func assembleFileBacked(p Params, dir string, mode Mode, cfg diskio.Config, data *os.File, crcs []*os.File, nextFree, written []int) (*Array, error) {
	fail := func(err error) (*Array, error) {
		data.Close()
		closeFiles(crcs)
		return nil, err
	}
	cfg.BlockBytes = p.B * record.EncodedSize
	drives, err := diskio.New(cfg, p.D, data)
	if err != nil {
		return fail(err)
	}
	store := newFileStore(drives, p)
	for d := range store.disks {
		x := &store.disks[d]
		if crcs != nil {
			x.crc = crcs[d]
		}
		if written != nil {
			if err := x.load(written[d]); err != nil {
				return fail(err)
			}
		}
	}
	checksum := ""
	if crcs != nil {
		checksum = ChecksumCRC32C
	}
	var a *Array
	persist := func() error {
		marks := make([]int, p.D)
		for d := range marks {
			marks[d] = store.highWater(d)
		}
		return writeManifest(dir, Manifest{
			D: p.D, B: p.B, M: p.M, Mode: mode,
			NextFree: append([]int(nil), a.nextFree...),
			Written:  marks,
			Checksum: checksum,
		})
	}
	a = newWithStore(p, mode, store, func() error {
		// The store has flushed its checksum tables and closed the
		// sidecars; the data file closes before the manifest is written.
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
		for d := range store.disks {
			if err := store.disks[d].flush(); err != nil {
				return err
			}
		}
		if err := data.Sync(); err != nil {
			return err
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
// array, or returns nil for an in-memory one. A transfer counts as one
// device op on every disk it touches, with the bytes of that disk's
// blocks and a share of its device time weighted by them.
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

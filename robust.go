package balancesort

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"balancesort/internal/core"
	"balancesort/internal/diskio"
	"balancesort/internal/pdm"
)

// Integrity and crash recovery for file-backed sorts. Three mechanisms
// compose here:
//
//   - every scratch block carries a CRC32C verified on read (internal/pdm
//     sidecars), so silent corruption surfaces as *pdm.CorruptBlockError
//     instead of flowing into "sorted" output;
//   - with RobustConfig.Journal on, the sorter commits its complete
//     resumable state to a checksummed journal next to the manifest after
//     every pass, and ResumeSortFile restarts from the last commit;
//   - SortFileContext/SortContext cancel between passes and tracks, and a
//     permanently failed disk (diskio breaker open with no recovery)
//     surfaces as *diskio.DiskFailedError.
//
// The checksums, the journal fsyncs, and the scrub are all host-side work:
// model parallel-I/O counts are byte-for-byte identical with them on or
// off (pinned by TestSortFileRobustParity).
//
// Cluster mode layers the distributed duals on top of these: a vanished
// worker surfaces as *WorkerLostError (the analogue of a failed disk) and
// a live-but-stalled worker as *StragglerError — a *latency* fault with no
// single-node counterpart here, because a slow local disk only stretches
// the wall clock, while a slow worker stalls every barrier phase of the
// whole cluster. ClusterConfig.Straggler configures its detection and the
// hedged re-execution that routes around it; DESIGN.md §5i maps the
// mechanism back onto this file's failed-disk recovery model.

// RobustConfig tunes the integrity and recovery machinery of file-backed
// sorts.
type RobustConfig struct {
	// NoChecksums disables the per-block CRC32C sidecars in the scratch
	// array. Checksums are on by default.
	NoChecksums bool
	// Journal records every committed sort pass into scratchDir's journal
	// so an interrupted sort can be continued with ResumeSortFile. It
	// costs one fsync + one journal line per pass and no model I/Os.
	Journal bool
	// ScrubAfter re-reads and verifies every written scratch block after
	// the sort and reports the sweep in Result.Scrub.
	ScrubAfter bool
	// crashAfterCommits, when positive, injects a crash immediately
	// before the k-th pass commit — the recovery tests' kill switch.
	crashAfterCommits int
}

// CorruptBlock identifies one scratch block whose data disagreed with its
// checksum.
type CorruptBlock struct {
	Disk  int    `json:"disk"`
	Block int    `json:"block"`
	Want  uint32 `json:"want"` // checksum on record
	Got   uint32 `json:"got"`  // checksum of the data actually read
}

// ScrubReport summarises a full-array integrity sweep.
type ScrubReport struct {
	// Checksummed is false when the array carries no checksums to verify.
	Checksummed bool `json:"checksummed"`
	// BlocksChecked counts written blocks that were re-read and verified.
	BlocksChecked int `json:"blocks_checked"`
	// Corrupt lists the blocks that failed verification.
	Corrupt []CorruptBlock `json:"corrupt,omitempty"`
}

func scrubReportFrom(rep pdm.ScrubReport) *ScrubReport {
	out := &ScrubReport{Checksummed: rep.Checksummed, BlocksChecked: rep.BlocksChecked}
	for _, c := range rep.Corrupt {
		out.Corrupt = append(out.Corrupt, CorruptBlock{Disk: c.Disk, Block: c.Block, Want: c.Want, Got: c.Got})
	}
	return out
}

// Scrub opens the scratch directory of a previous file-backed sort and
// verifies every written block against its checksum, without running any
// sort. It is the library form of the CLI's -scrub flag.
func Scrub(scratchDir string) (*ScrubReport, error) {
	arr, err := pdm.OpenFileBacked(scratchDir)
	if err != nil {
		return nil, err
	}
	rep := arr.Scrub()
	if err := arr.Close(); err != nil {
		return nil, err
	}
	return scrubReportFrom(rep), nil
}

// JournalCommits reports how many sort passes have been committed to the
// journal of a journaled sort's scratch directory — 0 when no journal
// exists or nothing was committed yet. It is the "has this sort reached a
// durable commit point?" probe: a scratch directory with at least one
// commit resumes through ResumeSortFile without re-reading the input. The
// job server uses it to decide whether an interrupted job is resumable,
// and the kill-and-restart tests use it to aim their kills mid-sort.
func JournalCommits(scratchDir string) (int, error) {
	entries, err := pdm.LoadJournal(pdm.JournalPath(scratchDir))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	return len(entries), nil
}

// commitPoint is where a resume starts: the journal, open for appending,
// and its last commit, whose header picked the engine.
type commitPoint struct {
	jnl    *pdm.Journal
	raw    []byte
	head   journalHead
	engine Engine
}

// lastCommit opens a scratch directory's journal for a resume, reading it
// once, and decodes its last commit's header. A missing or empty journal
// returns nil: nothing was committed, so the sort starts fresh from its
// input file. Any other error returns before anything in the directory
// changes, so a journal that cannot be read never restarts a sort over
// committed state.
func lastCommit(scratchDir string) (*commitPoint, error) {
	jnl, entries, err := pdm.OpenJournalAppend(pdm.JournalPath(scratchDir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, jnl.Close()
	}
	c := &commitPoint{jnl: jnl, raw: entries[len(entries)-1].Payload}
	err = json.Unmarshal(c.raw, &c.head)
	switch {
	case err != nil:
		err = fmt.Errorf("balancesort: bad journal payload: %w", err)
	case c.head.Engine == "", c.head.Engine == string(EngineBalanceSort):
		// Untagged journals predate engine selection.
		c.engine = EngineBalanceSort
	case c.head.Engine == string(EngineStripedMerge):
		c.engine = EngineStripedMerge
	default:
		err = fmt.Errorf("balancesort: journal names unknown engine %q", c.head.Engine)
	}
	if err != nil {
		jnl.Close()
		return nil, err
	}
	return c, nil
}

// journalHead is the part of a journal payload every engine writes: the
// engine tag, the geometry (checked against the manifest on resume), and
// the allocation marks a resume restores.
type journalHead struct {
	Engine   string `json:"engine"`
	D        int    `json:"d"`
	B        int    `json:"b"`
	M        int    `json:"m"`
	NextFree []int  `json:"next_free"`
}

// headOf is the header of a commit engine makes on arr.
func headOf(engine Engine, arr *pdm.Array) journalHead {
	p := arr.Params()
	return journalHead{Engine: string(engine), D: p.D, B: p.B, M: p.M, NextFree: arr.NextFree()}
}

// check validates a resumed commit's header against the manifest the
// scratch directory was opened with. Journals come off disk after a
// crash; nothing in them is trusted blindly.
func (h *journalHead) check(p pdm.Params) error {
	if h.D != p.D || h.B != p.B || h.M != p.M {
		return fmt.Errorf("balancesort: journal geometry D=%d B=%d M=%d disagrees with manifest D=%d B=%d M=%d",
			h.D, h.B, h.M, p.D, p.B, p.M)
	}
	if len(h.NextFree) != p.D {
		return fmt.Errorf("balancesort: journal has %d allocation marks for D=%d", len(h.NextFree), p.D)
	}
	for i, nf := range h.NextFree {
		if nf < 0 {
			return fmt.Errorf("balancesort: journal allocation mark %d on disk %d", nf, i)
		}
	}
	return nil
}

// checkStripeWritten returns an error unless arr holds every block that a
// striped transfer of n records from block first of the striped region at
// block offset off moves: block i lies on disk i mod D at offset off+i/D.
// A commit naming a block the array never wrote is a damaged journal, and
// the resume fails on it before any read would.
func checkStripeWritten(arr *pdm.Array, off, first, n int) error {
	for i := first; (i-first)*arr.B() < n; i++ {
		if d, o := i%arr.D(), off+i/arr.D(); !arr.Written(d, o) {
			return fmt.Errorf("balancesort: journal names block %d of disk %d, which the array never wrote", o, d)
		}
	}
	return nil
}

// sortJournalState is the Balance Sort engine as sortScratch drives it,
// and the payload of one of its journal commits: everything a resume needs
// to continue the sort from this boundary. The geometry fields double as
// a consistency check against the manifest.
type sortJournalState struct {
	// Engine tags the journal with the engine that wrote it ("" in
	// journals from before engine selection; both mean balancesort).
	Engine string `json:"engine,omitempty"`

	N int `json:"n"`
	D int `json:"d"`
	B int `json:"b"`
	M int `json:"m"`
	V int `json:"v"`
	S int `json:"s"`

	Passes     int     `json:"passes"`
	Depth      int     `json:"depth"`
	IOs        int64   `json:"ios"`
	ReadIOs    int64   `json:"read_ios"`
	WriteIOs   int64   `json:"write_ios"`
	BlocksRead int64   `json:"blocks_read"`
	BlocksWrit int64   `json:"blocks_writ"`
	NextFree   []int   `json:"next_free"`
	Done       []jsReg `json:"done"`

	Work []core.SourceDesc `json:"work"`
}

// jsReg is core.Region with explicit JSON tags, so the journal schema is
// stable even if the core type grows fields.
type jsReg struct {
	Off int `json:"off"`
	N   int `json:"n"`
}

func (js *sortJournalState) validate(cfg Config) error { return cfg.Validate() }

func (js *sortJournalState) start(off, n int) {
	js.N, js.Work = n, []core.SourceDesc{core.StripedDesc(off, n, 0)}
}

func (js *sortJournalState) size() int { return js.N }

func (js *sortJournalState) payload(arr *pdm.Array, cfg Config) ([]byte, error) {
	h := headOf(EngineBalanceSort, arr)
	js.Engine, js.D, js.B, js.M, js.NextFree = h.Engine, h.D, h.B, h.M, h.NextFree
	js.V, js.S = cfg.VirtualDisks, cfg.Buckets
	if js.V == 0 {
		js.V = h.D
	}
	return json.Marshal(js)
}

// restore decodes a balancesort commit, restores the VirtualDisks and
// Buckets it ran with, and validates them and the sort's state: nothing
// read off disk after a crash is trusted blindly.
func (js *sortJournalState) restore(raw []byte, arr *pdm.Array, cfg *Config) error {
	if err := json.Unmarshal(raw, js); err != nil {
		return fmt.Errorf("balancesort: bad journal payload: %w", err)
	}
	if js.V == 0 {
		js.V = js.D
	}
	cfg.VirtualDisks, cfg.Buckets = js.V, js.S
	if err := cfg.Validate(); err != nil {
		return err
	}
	if js.N < 0 || js.Passes < 0 || js.IOs < 0 {
		return fmt.Errorf("balancesort: journal has negative counters")
	}
	total := 0
	for _, r := range js.Done {
		if r.Off < 0 || r.N < 0 {
			return fmt.Errorf("balancesort: journal has bad done segment %+v", r)
		}
		if err := checkStripeWritten(arr, r.Off, 0, r.N); err != nil {
			return err
		}
		total += r.N
	}
	g := arr.D() / js.V
	if err := core.CheckDescs(js.Work, js.V, g*arr.B()); err != nil {
		return fmt.Errorf("balancesort: journal work-list invalid: %w", err)
	}
	for _, d := range js.Work {
		// A chains descriptor has no striped region: N is 0.
		if err := checkStripeWritten(arr, d.Off, 0, d.N); err != nil {
			return err
		}
		// Block off of virtual disk h is block off of its g physical disks
		// hg … hg+g−1: a transfer of VB records from block hg at offset off.
		for h, ch := range d.Chains {
			for _, e := range ch {
				if err := checkStripeWritten(arr, e.Off, h*g, g*arr.B()); err != nil {
					return err
				}
			}
		}
		total += d.Total()
	}
	if total != js.N {
		return fmt.Errorf("balancesort: journal accounts for %d of %d records", total, js.N)
	}
	return nil
}
func (js *sortJournalState) run(arr *pdm.Array, cfg Config, commit func() error) ([]core.Region, *Result) {
	dc := cfg.diskConfig()
	if commit != nil {
		dc.Checkpoint = func(st core.CheckpointState) error {
			m := st.Metrics
			js.N, js.Passes, js.Depth = m.N, m.Passes, m.Depth
			js.IOs, js.ReadIOs, js.WriteIOs = m.IOs, m.ReadIOs, m.WriteIOs
			js.BlocksRead, js.BlocksWrit = m.BlocksRead, m.BlocksWrit
			js.Done = nil
			for _, r := range st.Done {
				js.Done = append(js.Done, jsReg{Off: r.Off, N: r.N})
			}
			js.Work = st.Work
			return commit()
		}
	}
	done := make([]core.Region, len(js.Done))
	for i, r := range js.Done {
		done[i] = core.Region{Off: r.Off, N: r.N}
	}
	ds := core.NewDiskSorter(arr, dc)
	segs := ds.Resume(done, js.Work, core.Metrics{
		N: js.N, Passes: js.Passes, Depth: js.Depth,
		IOs: js.IOs, ReadIOs: js.ReadIOs, WriteIOs: js.WriteIOs,
		BlocksRead: js.BlocksRead, BlocksWrit: js.BlocksWrit,
	})
	m := ds.Metrics()
	return segs, &Result{
		IOs:                m.IOs,
		PRAMTime:           m.PRAMTime,
		PRAMWork:           m.PRAMWork,
		MaxBucketReadRatio: m.MaxBucketReadRatio,
		MaxBucketFrac:      m.MaxBucketFrac,
		Depth:              m.Depth,
		Passes:             m.Passes,
		MemPeak:            m.MemPeak,
	}
}

// classifySortPanic converts the sorter's panic-based operational errors
// into returned errors: a core.Abort (cancellation, injected crash,
// checkpoint failure), a distribution that stopped making progress, a
// corrupt scratch block, or a permanently failed disk. Anything else is a
// programming bug and keeps panicking.
func classifySortPanic(r any) error {
	if r == nil {
		return nil
	}
	if ab, ok := r.(core.Abort); ok {
		return ab
	}
	if err, ok := r.(error); ok {
		var stall *core.StallError
		var corrupt *pdm.CorruptBlockError
		var failed *diskio.DiskFailedError
		if errors.As(err, &stall) || errors.As(err, &corrupt) || errors.As(err, &failed) || errors.Is(err, diskio.ErrInjected) {
			return err
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	panic(r)
}

// SortContext is Sort with cancellation: the sorter polls ctx between
// passes, memoryloads, and distribution tracks, and a done context aborts
// the sort with ctx's error.
func SortContext(ctx context.Context, recs []Record, cfg Config) (*Result, error) {
	cfg.ctx = ctx
	return Sort(recs, cfg)
}

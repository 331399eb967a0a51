package balancesort

import (
	"context"
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

// sortJournalState is the payload of one journal commit: everything a
// resume needs to continue the sort from this boundary. The geometry
// fields double as a consistency check against the manifest.
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

// checkJournalState validates a deserialized journal payload against the
// manifest the scratch directory was opened with. Journals come off disk
// after a crash; nothing in them is trusted blindly.
func checkJournalState(st *sortJournalState, p pdm.Params, v int) error {
	if st.D != p.D || st.B != p.B || st.M != p.M {
		return fmt.Errorf("balancesort: journal geometry D=%d B=%d M=%d disagrees with manifest D=%d B=%d M=%d",
			st.D, st.B, st.M, p.D, p.B, p.M)
	}
	if st.N < 0 || st.Passes < 0 || st.IOs < 0 {
		return fmt.Errorf("balancesort: journal has negative counters")
	}
	if len(st.NextFree) != p.D {
		return fmt.Errorf("balancesort: journal has %d allocation marks for D=%d", len(st.NextFree), p.D)
	}
	for i, nf := range st.NextFree {
		if nf < 0 {
			return fmt.Errorf("balancesort: journal allocation mark %d on disk %d", nf, i)
		}
	}
	total := 0
	for _, r := range st.Done {
		if r.Off < 0 || r.N < 0 {
			return fmt.Errorf("balancesort: journal has bad done segment %+v", r)
		}
		total += r.N
	}
	if err := core.CheckDescs(st.Work, v); err != nil {
		return fmt.Errorf("balancesort: journal work-list invalid: %w", err)
	}
	for _, d := range st.Work {
		total += d.Total()
	}
	if total != st.N {
		return fmt.Errorf("balancesort: journal accounts for %d of %d records", total, st.N)
	}
	return nil
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

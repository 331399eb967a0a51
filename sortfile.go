package balancesort

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"balancesort/internal/core"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// SortFile externally sorts a file of 16-byte records (little-endian Key
// then Loc; see RecordSize) into outPath, using a file-backed disk array
// under scratchDir as secondary storage. Only O(Memory) records are held in
// host memory at a time — the input streams onto the simulated disks, the
// sort runs there, and the sorted segments stream out — so files larger
// than RAM are fair game. scratchDir "" uses a temporary directory that is
// removed afterwards.
//
// The returned Result carries the model costs but not the records (they
// are in outPath).
//
// Every scratch block moves on the sorting goroutine through the I/O
// layer of internal/diskio: fault injection (cfg.IO), retries with
// backoff, a per-disk circuit breaker, and per-disk counters, which
// Result.IO reports. The layer changes wall-clock behavior only; the
// model's parallel I/O counts are identical whatever cfg.IO says.
//
// Every scratch block is checksummed (CRC32C) and verified on read unless
// cfg.Robust.NoChecksums is set; with cfg.Robust.Journal, every completed
// pass is committed to a journal in scratchDir so an interrupted sort can
// be continued with ResumeSortFile. See RobustConfig.
func SortFile(inPath, outPath, scratchDir string, cfg Config) (*Result, error) {
	return SortFileContext(context.Background(), inPath, outPath, scratchDir, cfg)
}

// SortFileContext is SortFile with cancellation: ctx is polled between
// sort passes, memoryloads, and distribution tracks, and also cuts short
// the I/O layer's retry backoffs. On cancellation the in-flight
// parallel I/O completes, the array closes cleanly, and — when journaling
// is on — the scratch directory remains resumable.
func SortFileContext(ctx context.Context, inPath, outPath, scratchDir string, cfg Config) (*Result, error) {
	return sortFile(ctx, inPath, outPath, scratchDir, cfg, nil)
}

// ResumeSortFile continues an interrupted journaled SortFile from its last
// committed pass, reusing the scratch directory's disk files, manifest,
// and journal. The output is byte-identical to what the uninterrupted run
// would have produced. If the journal is missing or holds no committed
// state (the sort crashed before its first commit, or never ran), the sort
// simply starts fresh; any other error reading it is returned, and the
// scratch directory is left as it was. A commit that fails its checks,
// such as one naming a block the array never wrote, is an error too. cfg
// supplies the I/O layer and robustness knobs; the model geometry comes
// from the scratch manifest.
func ResumeSortFile(inPath, outPath, scratchDir string, cfg Config) (*Result, error) {
	return ResumeSortFileContext(context.Background(), inPath, outPath, scratchDir, cfg)
}

// ResumeSortFileContext is ResumeSortFile with cancellation.
func ResumeSortFileContext(ctx context.Context, inPath, outPath, scratchDir string, cfg Config) (*Result, error) {
	if scratchDir == "" {
		return nil, errors.New("balancesort: resume needs the scratch directory of the interrupted sort")
	}
	from, err := lastCommit(scratchDir)
	if err != nil {
		return nil, err
	}
	cfg.Robust.Journal = true
	return sortFile(ctx, inPath, outPath, scratchDir, cfg, from)
}

// fileEngine is one external engine as sortScratch drives it. Its value
// is the engine's resumable state, which serializes as its journal
// payload.
type fileEngine interface {
	// validate checks a fresh sort's configuration before any file is
	// touched.
	validate(cfg Config) error
	// start sets the state of a fresh sort of n records, loaded as the
	// striped region at block offset off.
	start(off, n int)
	// size is the number of records being sorted.
	size() int
	// payload serializes the state as one journal commit.
	payload(arr *pdm.Array, cfg Config) ([]byte, error)
	// restore decodes and checks the payload of a resumed sort's last
	// commit against arr, whose geometry cfg already carries, and restores
	// any other Config field the payload records. The header fields were
	// checked before.
	restore(raw []byte, arr *pdm.Array, cfg *Config) error
	// run sorts from the state, calling commit (when non-nil) at each of
	// the sorter's commit points, and returns the sorted regions in output
	// order and a Result holding the sort's model costs.
	run(arr *pdm.Array, cfg Config, commit func() error) ([]core.Region, *Result)
}

// sortScratch runs either external engine on a file. It owns the scratch
// directory and its array, the input load, the journal and its commits,
// the run, the drain into outPath and the Result's I/O fields; e supplies
// the rest. A fresh sort (from == nil) loads inPath onto a new array; a
// resume reopens the array and continues from the commit from names. The
// array and the sorters report operational errors (a failed disk, a
// corrupt block, cancellation) by panicking, so sortScratch converts them
// under classifySortPanic, and it never leaves a partial output file
// behind.
func sortScratch(ctx context.Context, e fileEngine, inPath, outPath, scratchDir string, cfg Config, from *commitPoint) (res *Result, err error) {
	outCreated := false
	defer func() {
		if perr := classifySortPanic(recover()); perr != nil {
			res, err = nil, perr
		}
		if err != nil && outCreated {
			os.Remove(outPath)
		}
	}()
	cfg.ctx = ctx
	cfg.tracer = cfg.Obs.tracer()
	cfg.Obs.attach("sort", cfg.tracer)
	layer := cfg.IO.layerConfig(ctx, cfg.tracer)

	var arr *pdm.Array
	var jnl *pdm.Journal
	// commit makes one step durable: flush the array (data, checksums,
	// manifest — in that order, so the manifest never describes missing
	// bytes), then append the state to the journal and fsync it. Only
	// after the append returns is the step committed.
	commit := func() error {
		if err := arr.Sync(); err != nil {
			return err
		}
		payload, err := e.payload(arr, cfg)
		if err != nil {
			return err
		}
		_, err = jnl.Append(payload)
		return err
	}

	if from != nil {
		jnl = from.jnl
		defer jnl.Close()
		if arr, err = pdm.OpenFileBackedOpts(scratchDir, pdm.FileOptions{IO: layer}); err != nil {
			return nil, err
		}
		defer arr.Close()
		p := arr.Params()
		cfg.Disks, cfg.BlockSize, cfg.Memory = p.D, p.B, p.M
		if err := from.head.check(p); err != nil {
			return nil, err
		}
		if err := e.restore(from.raw, arr, &cfg); err != nil {
			return nil, err
		}
		arr.SetNextFree(from.head.NextFree)
	} else {
		if err := e.validate(cfg); err != nil {
			return nil, err
		}
		if scratchDir == "" {
			if cfg.Robust.Journal {
				return nil, errors.New("balancesort: journaling needs a persistent scratch directory")
			}
			if scratchDir, err = os.MkdirTemp("", "balancesort-scratch-*"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(scratchDir)
		}
		n, err := statRecords(inPath)
		if err != nil {
			return nil, err
		}
		p := pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory}
		if arr, err = pdm.NewFileBackedOpts(p, scratchDir, pdm.FileOptions{IO: layer, NoChecksums: cfg.Robust.NoChecksums}); err != nil {
			return nil, err
		}
		defer arr.Close()
		off, err := loadFileStriped(arr, inPath, n)
		if err != nil {
			return nil, err
		}
		e.start(off, n)
		if cfg.Robust.Journal {
			if jnl, err = pdm.CreateJournal(pdm.JournalPath(scratchDir)); err != nil {
				return nil, err
			}
			defer jnl.Close()
			// Commit the loaded-input state so even a crash before the
			// first pass resumes without re-reading inPath.
			if err := commit(); err != nil {
				return nil, err
			}
		}
	}
	defer startSortObs(cfg, arr)()

	if jnl == nil {
		commit = nil
	}
	regs, res := e.run(arr, cfg, commit)
	n := e.size()

	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	outCreated = true
	w := bufio.NewWriterSize(out, 1<<16)
	written, err := drainRegions(arr, regs, w)
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		out.Close()
		return nil, err
	}
	if err := out.Close(); err != nil {
		return nil, err
	}
	if written != n {
		return nil, fmt.Errorf("balancesort: internal error: wrote %d of %d records", written, n)
	}

	res.IO = ioStatsFrom(arr.IOMetrics(), arr.B()*record.EncodedSize)
	res.IOLowerBound = core.LowerBoundIOs(n, arr.Params())
	res.Trace = traceFrom(cfg.tracer)
	if cfg.Robust.ScrubAfter {
		res.Scrub = scrubReportFrom(arr.Scrub())
	}
	return res, nil
}

// stripeChunk is how many records the load and the drain move per striped
// transfer: D stripe rows, so each disk moves D consecutive blocks in one
// device call, but never more than a memoryload.
func stripeChunk(p pdm.Params) int {
	return min(p.D, p.M/(2*p.D*p.B)) * p.D * p.B
}

// drainRegions streams the sorted striped regions into w, in order, and
// returns the number of records written. It reads stripeChunk records per
// striped transfer into a reused buffer, checks the order across regions,
// and encodes into a reused byte buffer, so the drain allocates nothing
// per transfer.
func drainRegions(arr *pdm.Array, regs []core.Region, w io.Writer) (int, error) {
	p := arr.Params()
	chunk := stripeChunk(p)
	buf := make([]record.Record, chunk)
	wire := make([]byte, 0, chunk*record.EncodedSize)
	var prev record.Record
	written := 0
	for _, reg := range regs {
		for pos := 0; pos < reg.N; pos += chunk {
			recs := buf[:min(chunk, reg.N-pos)]
			arr.ReadStripe(reg.Off, pos/p.B, recs)
			for _, r := range recs {
				if written > 0 && r.Less(prev) {
					return written, errors.New("balancesort: internal error: output not sorted")
				}
				prev = r
				written++
			}
			if _, err := w.Write(record.AppendSlice(wire[:0], recs)); err != nil {
				return written, err
			}
		}
	}
	return written, nil
}

// RecordSize is the wire size of one record in SortFile's input and output
// files.
const RecordSize = record.EncodedSize

// WriteRecordFile writes records to path in SortFile's wire format (a
// convenience for generating test inputs).
func WriteRecordFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := record.WriteAll(w, recs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadRecordFile reads a wire-format record file fully into memory.
func ReadRecordFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return record.ReadAll(f)
}

// loadFileStriped streams the n records of inPath onto a fresh striped
// region of the array, stripeChunk records per striped transfer, and
// returns the region's block offset.
func loadFileStriped(arr *pdm.Array, inPath string, n int) (int, error) {
	f, err := os.Open(inPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)

	p := arr.Params()
	blocks := (n + p.B - 1) / p.B
	perDisk := (blocks + p.D - 1) / p.D
	if perDisk == 0 {
		perDisk = 1
	}
	off := arr.AllocStripe(perDisk)

	chunk := stripeChunk(p)
	buf := make([]byte, chunk*record.EncodedSize)
	recs := make([]record.Record, chunk)
	for pos := 0; pos < n; pos += chunk {
		m := min(chunk, n-pos)
		if _, err := io.ReadFull(r, buf[:m*record.EncodedSize]); err != nil {
			return 0, fmt.Errorf("balancesort: reading %s at record %d (byte offset %d): %w",
				inPath, pos, int64(pos)*record.EncodedSize, err)
		}
		record.DecodeInto(recs[:m], buf)
		arr.WriteStripe(off, pos/p.B, recs[:m])
	}
	return off, nil
}

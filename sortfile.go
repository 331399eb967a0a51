package balancesort

import (
	"bufio"
	"context"
	"encoding/json"
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
	return sortFile(ctx, inPath, outPath, scratchDir, cfg, false)
}

// ResumeSortFile continues an interrupted journaled SortFile from its last
// committed pass, reusing the scratch directory's disk files, manifest,
// and journal. The output is byte-identical to what the uninterrupted run
// would have produced. If the journal holds no committed state (the sort
// crashed before its first commit, or never ran), the sort simply starts
// fresh. cfg supplies the I/O layer and robustness knobs; the model
// geometry comes from the scratch manifest.
func ResumeSortFile(inPath, outPath, scratchDir string, cfg Config) (*Result, error) {
	return ResumeSortFileContext(context.Background(), inPath, outPath, scratchDir, cfg)
}

// ResumeSortFileContext is ResumeSortFile with cancellation.
func ResumeSortFileContext(ctx context.Context, inPath, outPath, scratchDir string, cfg Config) (*Result, error) {
	if scratchDir == "" {
		return nil, errors.New("balancesort: resume needs the scratch directory of the interrupted sort")
	}
	cfg.Robust.Journal = true
	entries, err := pdm.LoadJournal(pdm.JournalPath(scratchDir))
	if err != nil || len(entries) == 0 {
		// Nothing was committed: run from scratch (the input file is the
		// source of truth until the first commit lands).
		return sortFile(ctx, inPath, outPath, scratchDir, cfg, false)
	}
	return sortFile(ctx, inPath, outPath, scratchDir, cfg, true)
}

// balanceSortFile is the Balance Sort engine behind sortFile (see
// engine.go for the dispatch across engines).
func balanceSortFile(ctx context.Context, inPath, outPath, scratchDir string, cfg Config, resume bool) (*Result, error) {
	cfg.fill()
	cfg.ctx = ctx
	cfg.tracer = cfg.Obs.tracer()
	cfg.Obs.attach("sort", cfg.tracer)

	cleanup := func() {}
	if scratchDir == "" {
		if cfg.Robust.Journal {
			return nil, errors.New("balancesort: journaling needs a persistent scratch directory")
		}
		dir, err := os.MkdirTemp("", "balancesort-scratch-*")
		if err != nil {
			return nil, err
		}
		scratchDir = dir
		cleanup = func() { os.RemoveAll(dir) }
	}
	defer cleanup()

	var (
		arr   *pdm.Array
		jnl   *pdm.Journal
		done  []core.Region
		work  []core.SourceDesc
		prior core.Metrics
		n     int
	)

	if resume {
		var err error
		arr, jnl, done, work, prior, err = reopenScratch(ctx, scratchDir, &cfg)
		if err != nil {
			return nil, err
		}
		n = prior.N
	} else {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		p := pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory}

		in, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		st, err := in.Stat()
		if err != nil {
			in.Close()
			return nil, err
		}
		if st.Size()%record.EncodedSize != 0 {
			in.Close()
			return nil, fmt.Errorf("balancesort: %s is %d bytes, not a whole number of %d-byte records",
				inPath, st.Size(), record.EncodedSize)
		}
		n = int(st.Size() / record.EncodedSize)

		arr, err = pdm.NewFileBackedOpts(p, scratchDir, pdm.FileOptions{
			IO:          cfg.IO.layerConfig(ctx, cfg.tracer),
			NoChecksums: cfg.Robust.NoChecksums,
		})
		if err != nil {
			in.Close()
			return nil, err
		}

		// Stream the input onto the array one stripe row at a time. The
		// array reports store errors (a failed disk, a corrupt block) by
		// panicking, so the load runs under the same classifier as the sort.
		inOff, err := func() (off int, err error) {
			defer func() {
				if e := classifySortPanic(recover()); e != nil {
					off, err = 0, e
				}
			}()
			return loadFileStriped(arr, bufio.NewReaderSize(in, 1<<16), inPath, n)
		}()
		in.Close()
		if err != nil {
			arr.Close()
			return nil, err
		}
		work = []core.SourceDesc{core.StripedDesc(inOff, n, 0)}
		prior = core.Metrics{N: n}

		if cfg.Robust.Journal {
			jnl, err = pdm.CreateJournal(pdm.JournalPath(scratchDir))
			if err != nil {
				arr.Close()
				return nil, err
			}
			// Commit the loaded-input state so even a crash before the
			// first pass resumes without re-reading inPath.
			if err := commitState(arr, jnl, cfg, core.CheckpointState{Work: work, Metrics: prior}); err != nil {
				jnl.Close()
				arr.Close()
				return nil, err
			}
		}
	}
	defer arr.Close()
	if jnl != nil {
		defer jnl.Close()
	}
	defer startSortObs(cfg, arr)()

	dc := cfg.diskConfig()
	if jnl != nil {
		dc.Checkpoint = func(st core.CheckpointState) error {
			return commitState(arr, jnl, cfg, st)
		}
	}
	ds := core.NewDiskSorter(arr, dc)

	res, err := runAndDrain(ds, arr, done, work, prior, outPath, n, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runAndDrain runs (or resumes) the sort and streams the sorted segments
// into outPath, converting the sorter's panic-based operational errors
// into returned ones and never leaving a partial output file behind.
func runAndDrain(ds *core.DiskSorter, arr *pdm.Array, done []core.Region, work []core.SourceDesc, prior core.Metrics, outPath string, n int, cfg Config) (res *Result, err error) {
	outCreated := false
	defer func() {
		if e := classifySortPanic(recover()); e != nil {
			res, err = nil, e
		}
		if err != nil && outCreated {
			os.Remove(outPath)
		}
	}()

	segs := ds.Resume(done, work, prior)
	m := ds.Metrics()

	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	outCreated = true
	w := bufio.NewWriterSize(out, 1<<16)
	written, err := drainRegions(arr, segs, w)
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

	ioStats := ioStatsFrom(arr.IOMetrics(), arr.B()*record.EncodedSize)
	res = &Result{
		IO:                 ioStats,
		MeasuredThroughput: measuredThroughput(ioStats),
		IOs:                m.IOs,
		IOLowerBound:       core.LowerBoundIOs(n, arr.Params()),
		PRAMTime:           m.PRAMTime,
		PRAMWork:           m.PRAMWork,
		MaxBucketReadRatio: m.MaxBucketReadRatio,
		MaxBucketFrac:      m.MaxBucketFrac,
		Depth:              m.Depth,
		Passes:             m.Passes,
		MemPeak:            m.MemPeak,
		Trace:              traceFrom(cfg.tracer),
	}
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

// commitState makes one pass durable: flush the array (data, checksums,
// manifest — in that order, so the manifest never describes missing
// bytes), then append the serialized sorter state to the journal and
// fsync it. Only after the append returns is the pass committed.
func commitState(arr *pdm.Array, jnl *pdm.Journal, cfg Config, st core.CheckpointState) error {
	if err := arr.Sync(); err != nil {
		return err
	}
	p := arr.Params()
	v := cfg.VirtualDisks
	if v == 0 {
		v = p.D
	}
	js := sortJournalState{
		Engine: string(EngineBalanceSort),
		N:      st.Metrics.N, D: p.D, B: p.B, M: p.M, V: v, S: cfg.Buckets,
		Passes: st.Metrics.Passes, Depth: st.Metrics.Depth,
		IOs: st.Metrics.IOs, ReadIOs: st.Metrics.ReadIOs, WriteIOs: st.Metrics.WriteIOs,
		BlocksRead: st.Metrics.BlocksRead, BlocksWrit: st.Metrics.BlocksWrit,
		NextFree: arr.NextFree(),
		Work:     st.Work,
	}
	for _, r := range st.Done {
		js.Done = append(js.Done, jsReg{Off: r.Off, N: r.N})
	}
	payload, err := json.Marshal(js)
	if err != nil {
		return err
	}
	_, err = jnl.Append(payload)
	return err
}

// reopenScratch reopens a journaled scratch directory for resumption: it
// opens the array from its manifest, recovers the journal (truncating any
// torn tail), validates the recovered state against the manifest, and
// restores the allocation marks to the commit point. The model geometry
// in cfg is overwritten from the manifest.
func reopenScratch(ctx context.Context, scratchDir string, cfg *Config) (*pdm.Array, *pdm.Journal, []core.Region, []core.SourceDesc, core.Metrics, error) {
	var none core.Metrics
	arr, err := pdm.OpenFileBackedOpts(scratchDir, pdm.FileOptions{IO: cfg.IO.layerConfig(ctx, cfg.tracer)})
	if err != nil {
		return nil, nil, nil, nil, none, err
	}
	fail := func(err error) (*pdm.Array, *pdm.Journal, []core.Region, []core.SourceDesc, core.Metrics, error) {
		arr.Close()
		return nil, nil, nil, nil, none, err
	}
	p := arr.Params()
	cfg.Disks, cfg.BlockSize, cfg.Memory = p.D, p.B, p.M

	jnl, entries, err := pdm.OpenJournalAppend(pdm.JournalPath(scratchDir))
	if err != nil {
		return fail(err)
	}
	if len(entries) == 0 {
		jnl.Close()
		return fail(errors.New("balancesort: journal holds no committed state"))
	}
	var st sortJournalState
	if err := json.Unmarshal(entries[len(entries)-1].Payload, &st); err != nil {
		jnl.Close()
		return fail(fmt.Errorf("balancesort: bad journal payload: %w", err))
	}
	if st.V == 0 {
		st.V = st.D
	}
	cfg.VirtualDisks = st.V
	cfg.Buckets = st.S
	err = cfg.Validate()
	if err == nil {
		err = checkJournalState(&st, p, st.V)
	}
	if err != nil {
		jnl.Close()
		return fail(err)
	}
	arr.SetNextFree(st.NextFree)

	var done []core.Region
	for _, r := range st.Done {
		done = append(done, core.Region{Off: r.Off, N: r.N})
	}
	prior := core.Metrics{
		N: st.N, Passes: st.Passes, Depth: st.Depth,
		IOs: st.IOs, ReadIOs: st.ReadIOs, WriteIOs: st.WriteIOs,
		BlocksRead: st.BlocksRead, BlocksWrit: st.BlocksWrit,
	}
	return arr, jnl, done, st.Work, prior, nil
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

// loadFileStriped streams n records from r onto a fresh striped region of
// the array, stripeChunk records per striped transfer, and returns the
// region's block offset.
func loadFileStriped(arr *pdm.Array, r io.Reader, inPath string, n int) (int, error) {
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

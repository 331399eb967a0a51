package balancesort

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"balancesort/internal/core"
	"balancesort/internal/guidesort"
	"balancesort/internal/pdm"
	"balancesort/internal/plan"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// Engine selection for file-backed sorts. Config.Engine names which
// external sorting engine SortFile runs — or EngineAuto to let the
// cost-model planner (internal/plan) pick per instance. Every engine
// produces byte-identical output (the (Key, Loc) effective keys make the
// sorted permutation unique); they differ only in I/O schedule and cost.
// All engines share the robustness stack: scratch checksums, the pass
// journal with ResumeSortFile, cancellation, and obs phase spans.

// Engine names a file-sort engine.
type Engine string

// The engines SortFile can run.
const (
	// EngineAuto lets the planner pick; the decision lands in Result.Plan.
	EngineAuto Engine = "auto"
	// EngineBalanceSort is the paper's distribution sort (the default).
	EngineBalanceSort Engine = Engine(plan.EngineBalanceSort)
	// EngineStripedMerge is merge sort with the D disks striped as one
	// logical disk (internal/guidesort).
	EngineStripedMerge Engine = Engine(plan.EngineStripedMerge)
	// EngineInMem reads the whole file into memory — only when N ≤ M/2.
	EngineInMem Engine = Engine(plan.EngineInMem)
)

// Engines lists every selectable engine name, auto first.
var Engines = []Engine{EngineAuto, EngineBalanceSort, EngineStripedMerge, EngineInMem}

// ParseEngine parses an -engine flag value ("" = balancesort).
func ParseEngine(s string) (Engine, error) {
	switch Engine(s) {
	case "":
		return EngineBalanceSort, nil
	case EngineAuto, EngineBalanceSort, EngineStripedMerge, EngineInMem:
		return Engine(s), nil
	default:
		return "", fmt.Errorf("balancesort: unknown engine %q (want auto, balancesort, stripedmerge, or inmem)", s)
	}
}

// Plan is the planner's decision: the chosen engine plus every candidate
// engine's predicted cost at the instance's geometry.
type Plan = plan.Plan

// Prediction is one engine's predicted cost within a Plan.
type Prediction = plan.Prediction

// Throughput is the per-disk bandwidth assumption the planner ranks
// engines with; the zero value assumes symmetric commodity disks.
type Throughput = plan.Throughput

// MeasureThroughput derives a Throughput from a prior run's aggregate
// byte counts (e.g. Result.IO.Aggregate()) and wall-clock.
func MeasureThroughput(readBytes, writeBytes int64, disks int, seconds float64) Throughput {
	return plan.Measure(readBytes, writeBytes, disks, seconds)
}

// PlanFile runs the cost-model planner for sorting inPath at cfg's
// geometry without sorting anything: it stats the input, predicts every
// engine's pass count, I/O volume, and wall-clock, and returns the
// decision EngineAuto would take.
func PlanFile(inPath string, cfg Config) (*Plan, error) {
	cfg.fill()
	n, err := statRecords(inPath)
	if err != nil {
		return nil, err
	}
	return planGeometry(n, cfg)
}

func planGeometry(n int, cfg Config) (*Plan, error) {
	return plan.Choose(plan.Geometry{
		N: n, D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory, V: cfg.VirtualDisks,
		RecordBytes: RecordSize,
	}, cfg.Throughput)
}

// statRecords counts the records in a wire-format file.
func statRecords(path string) (int, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if st.Size()%record.EncodedSize != 0 {
		return 0, fmt.Errorf("balancesort: %s is %d bytes, not a whole number of %d-byte records",
			path, st.Size(), record.EncodedSize)
	}
	return int(st.Size() / record.EncodedSize), nil
}

// sortFile dispatches one file sort (fresh or resumed) to its engine. On a
// fresh sort the engine comes from cfg.Engine (EngineAuto asks the
// planner); on a resume it comes from the journal's engine tag, so a sort
// started under one engine always resumes under the same one regardless of
// what cfg says now.
func sortFile(ctx context.Context, inPath, outPath, scratchDir string, cfg Config, resume bool) (*Result, error) {
	cfg.fill()

	eng := cfg.Engine
	var pl *Plan
	if resume {
		tag, err := journalEngine(scratchDir)
		if err != nil {
			return nil, err
		}
		switch tag {
		case "", string(EngineBalanceSort):
			// Untagged journals predate engine selection.
			eng = EngineBalanceSort
		case string(EngineStripedMerge):
			eng = EngineStripedMerge
		default:
			return nil, fmt.Errorf("balancesort: journal names unknown engine %q", tag)
		}
	} else {
		switch eng {
		case "":
			eng = EngineBalanceSort
		case EngineAuto:
			n, err := statRecords(inPath)
			if err != nil {
				return nil, err
			}
			p, err := planGeometry(n, cfg)
			if err != nil {
				return nil, err
			}
			pl = p
			eng = Engine(p.Engine)
		case EngineBalanceSort, EngineStripedMerge, EngineInMem:
		default:
			return nil, fmt.Errorf("balancesort: unknown engine %q", cfg.Engine)
		}
	}

	var res *Result
	var err error
	switch eng {
	case EngineInMem:
		res, err = inMemSortFile(ctx, inPath, outPath, cfg)
	case EngineStripedMerge:
		res, err = guideSortFile(ctx, inPath, outPath, scratchDir, cfg, resume)
	default:
		res, err = balanceSortFile(ctx, inPath, outPath, scratchDir, cfg, resume)
	}
	if err != nil {
		return nil, err
	}
	res.Engine = string(eng)
	res.Plan = pl
	return res, nil
}

// journalEngine probes the engine tag of a scratch directory's last
// journal commit ("" for journals from before engine selection existed).
func journalEngine(scratchDir string) (string, error) {
	entries, err := pdm.LoadJournal(pdm.JournalPath(scratchDir))
	if err != nil {
		return "", err
	}
	if len(entries) == 0 {
		return "", errors.New("balancesort: journal holds no committed state")
	}
	var tag struct {
		Engine string `json:"engine"`
	}
	if err := json.Unmarshal(entries[len(entries)-1].Payload, &tag); err != nil {
		return "", fmt.Errorf("balancesort: bad journal payload: %w", err)
	}
	return tag.Engine, nil
}

// inMemSortFile is the degenerate engine for inputs that fit a
// half-memory load: read, sort in memory (metering the PRAM work), write.
// It needs no scratch array; its model I/O count is the two unavoidable
// data sweeps.
func inMemSortFile(ctx context.Context, inPath, outPath string, cfg Config) (*Result, error) {
	cfg.tracer = cfg.Obs.tracer()
	cfg.Obs.attach("sort", cfg.tracer)
	defer startSortObs(cfg, nil)() // runtime gauges only: no scratch array

	recs, err := ReadRecordFile(inPath)
	if err != nil {
		return nil, err
	}
	if len(recs) > cfg.Memory/2 {
		return nil, fmt.Errorf("balancesort: inmem engine needs N=%d ≤ M/2=%d", len(recs), cfg.Memory/2)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	sp := cfg.tracer.Begin("sort", "inmem-sort", 0)
	cpu := pram.New(cfg.Processors)
	if cfg.NoRadix {
		cpu.Sort(recs)
	} else {
		cpu.SortRadix(recs)
	}
	sp.End()
	if !record.IsSorted(recs) {
		return nil, errors.New("balancesort: internal error: output not sorted")
	}
	if err := WriteRecordFile(outPath, recs); err != nil {
		return nil, err
	}
	p := pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory}
	sweeps := int64((len(recs) + cfg.Disks*cfg.BlockSize - 1) / (cfg.Disks * cfg.BlockSize))
	return &Result{
		IOs:          2 * sweeps,
		IOLowerBound: core.LowerBoundIOs(len(recs), p),
		PRAMTime:     cpu.Time(),
		PRAMWork:     cpu.Work(),
		Passes:       1,
		MemPeak:      len(recs),
		Trace:        traceFrom(cfg.tracer),
	}, nil
}

// guideJournalState is the payload of one stripedmerge journal commit:
// the engine tag, the geometry (checked against the manifest on
// resume), the allocation marks, and the sorter's complete State.
type guideJournalState struct {
	Engine string `json:"engine"`
	D      int    `json:"d"`
	B      int    `json:"b"`
	M      int    `json:"m"`

	NextFree []int           `json:"next_free"`
	State    guidesort.State `json:"state"`
}

// checkGuideJournalState validates a deserialized stripedmerge journal
// payload; nothing read off disk after a crash is trusted blindly.
func checkGuideJournalState(js *guideJournalState, p pdm.Params) error {
	if js.D != p.D || js.B != p.B || js.M != p.M {
		return fmt.Errorf("balancesort: journal geometry D=%d B=%d M=%d disagrees with manifest D=%d B=%d M=%d",
			js.D, js.B, js.M, p.D, p.B, p.M)
	}
	if len(js.NextFree) != p.D {
		return fmt.Errorf("balancesort: journal has %d allocation marks for D=%d", len(js.NextFree), p.D)
	}
	for i, nf := range js.NextFree {
		if nf < 0 {
			return fmt.Errorf("balancesort: journal allocation mark %d on disk %d", nf, i)
		}
	}
	st := &js.State
	if st.InputN < 0 || st.InputPos < 0 || st.InputPos > st.InputN || st.InputOff < 0 {
		return fmt.Errorf("balancesort: journal input extent [%d,%d) pos %d invalid", st.InputOff, st.InputN, st.InputPos)
	}
	if st.Metrics.N != st.InputN {
		return fmt.Errorf("balancesort: journal metrics N=%d disagrees with input N=%d", st.Metrics.N, st.InputN)
	}
	if st.Metrics.IOs < 0 || st.Metrics.Passes < 0 {
		return errors.New("balancesort: journal has negative counters")
	}
	formed := 0
	for _, r := range st.Runs {
		if r.Off < 0 || r.N < 0 {
			return fmt.Errorf("balancesort: journal has bad run %+v", r)
		}
		formed += r.N
	}
	if formed != st.InputPos {
		return fmt.Errorf("balancesort: journal runs hold %d records but %d were formed", formed, st.InputPos)
	}
	return nil
}

// commitGuideState makes one stripedmerge step durable: flush the array, then
// append the tagged state to the journal and fsync it.
func commitGuideState(arr *pdm.Array, jnl *pdm.Journal, st guidesort.State) error {
	if err := arr.Sync(); err != nil {
		return err
	}
	p := arr.Params()
	payload, err := json.Marshal(guideJournalState{
		Engine: string(EngineStripedMerge), D: p.D, B: p.B, M: p.M,
		NextFree: arr.NextFree(), State: st,
	})
	if err != nil {
		return err
	}
	_, err = jnl.Append(payload)
	return err
}

// reopenGuideScratch reopens a journaled stripedmerge scratch directory for
// resumption, mirroring reopenScratch: array from manifest, journal
// recovery with torn-tail truncation, state validation, allocation marks
// restored to the commit point.
func reopenGuideScratch(ctx context.Context, scratchDir string, cfg *Config) (*pdm.Array, *pdm.Journal, guidesort.State, error) {
	var none guidesort.State
	arr, err := pdm.OpenFileBackedOpts(scratchDir, pdm.FileOptions{IO: cfg.IO.layerConfig(ctx, cfg.tracer)})
	if err != nil {
		return nil, nil, none, err
	}
	fail := func(err error) (*pdm.Array, *pdm.Journal, guidesort.State, error) {
		arr.Close()
		return nil, nil, none, err
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
	var js guideJournalState
	if err := json.Unmarshal(entries[len(entries)-1].Payload, &js); err != nil {
		jnl.Close()
		return fail(fmt.Errorf("balancesort: bad journal payload: %w", err))
	}
	if js.Engine != string(EngineStripedMerge) {
		jnl.Close()
		return fail(fmt.Errorf("balancesort: journal engine %q, resuming as %q", js.Engine, EngineStripedMerge))
	}
	if err := checkGuideJournalState(&js, p); err != nil {
		jnl.Close()
		return fail(err)
	}
	arr.SetNextFree(js.NextFree)
	return arr, jnl, js.State, nil
}

// guideSortFile runs the stripedmerge engine on a file, with the same
// scratch handling, journaling, crash classification, and drain contract
// as the balancesort path.
func guideSortFile(ctx context.Context, inPath, outPath, scratchDir string, cfg Config, resume bool) (*Result, error) {
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
		arr *pdm.Array
		jnl *pdm.Journal
		st  guidesort.State
	)
	if resume {
		var err error
		arr, jnl, st, err = reopenGuideScratch(ctx, scratchDir, &cfg)
		if err != nil {
			return nil, err
		}
	} else {
		p := pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory}
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if 4*p.D*p.B > p.M {
			return nil, fmt.Errorf("balancesort: DB = %d needs M >= %d (got %d)", p.D*p.B, 4*p.D*p.B, p.M)
		}

		in, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		n, err := statRecords(inPath)
		if err != nil {
			in.Close()
			return nil, err
		}
		arr, err = pdm.NewFileBackedOpts(p, scratchDir, pdm.FileOptions{
			IO:          cfg.IO.layerConfig(ctx, cfg.tracer),
			NoChecksums: cfg.Robust.NoChecksums,
		})
		if err != nil {
			in.Close()
			return nil, err
		}
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
		st = guidesort.State{InputOff: inOff, InputN: n, Metrics: guidesort.Metrics{N: n}}

		if cfg.Robust.Journal {
			jnl, err = pdm.CreateJournal(pdm.JournalPath(scratchDir))
			if err != nil {
				arr.Close()
				return nil, err
			}
			// Commit the loaded-input state so even a crash before the first
			// run resumes without re-reading inPath.
			if err := commitGuideState(arr, jnl, st); err != nil {
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

	gcfg := guidesort.Config{
		P:                 cfg.Processors,
		NoRadix:           cfg.NoRadix,
		Context:           ctx,
		CrashAfterCommits: cfg.Robust.crashAfterCommits,
		Trace:             cfg.tracer,
	}
	if jnl != nil {
		gcfg.Checkpoint = func(s guidesort.State) error {
			return commitGuideState(arr, jnl, s)
		}
	}

	return guideRunAndDrain(arr, gcfg, st, outPath, cfg)
}

// guideRunAndDrain runs (or resumes) the striped merge sort and streams
// the sorted region into outPath, converting panic-based operational
// errors into returned ones and never leaving a partial output file
// behind.
func guideRunAndDrain(arr *pdm.Array, gcfg guidesort.Config, st guidesort.State, outPath string, cfg Config) (res *Result, err error) {
	outCreated := false
	defer func() {
		if e := classifySortPanic(recover()); e != nil {
			res, err = nil, e
		}
		if err != nil && outCreated {
			os.Remove(outPath)
		}
	}()

	s := guidesort.NewSorter(arr, gcfg)
	reg := s.Resume(st)
	met := s.Metrics() // snapshot before the drain's read-back I/Os
	n := st.InputN

	out, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	outCreated = true
	w := bufio.NewWriterSize(out, 1<<16)
	written, err := drainRegions(arr, []core.Region{reg}, w)
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
		IOs:                met.IOs,
		IOLowerBound:       core.LowerBoundIOs(n, arr.Params()),
		PRAMTime:           met.PRAMTime,
		PRAMWork:           met.PRAMWork,
		Depth:              met.Depth,
		Passes:             met.Passes,
		MemPeak:            met.MemPeak,
		Trace:              traceFrom(cfg.tracer),
	}
	if cfg.Robust.ScrubAfter {
		res.Scrub = scrubReportFrom(arr.Scrub())
	}
	return res, nil
}

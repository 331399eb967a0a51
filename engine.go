package balancesort

import (
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
	return plan.Choose(plan.Geometry{
		N: n, D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory, V: cfg.VirtualDisks,
		RecordBytes: RecordSize,
	})
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

// sortFile dispatches one file sort to its engine. A fresh sort (from ==
// nil) runs cfg.Engine, EngineAuto asking the planner; a resume runs the
// engine its journal's last commit names, whatever cfg says now, so a
// sort started under one engine always resumes under the same one.
func sortFile(ctx context.Context, inPath, outPath, scratchDir string, cfg Config, from *commitPoint) (*Result, error) {
	cfg.fill()

	eng := cfg.Engine
	var pl *Plan
	switch {
	case from != nil:
		eng = from.engine
	case eng == "":
		eng = EngineBalanceSort
	case eng == EngineAuto:
		p, err := PlanFile(inPath, cfg)
		if err != nil {
			return nil, err
		}
		pl, eng = p, Engine(p.Engine)
	case eng != EngineBalanceSort && eng != EngineStripedMerge && eng != EngineInMem:
		return nil, fmt.Errorf("balancesort: unknown engine %q", cfg.Engine)
	}

	var res *Result
	var err error
	switch eng {
	case EngineInMem:
		res, err = inMemSortFile(ctx, inPath, outPath, cfg)
	case EngineStripedMerge:
		res, err = sortScratch(ctx, &guideJournalState{}, inPath, outPath, scratchDir, cfg, from)
	default:
		res, err = sortScratch(ctx, &sortJournalState{}, inPath, outPath, scratchDir, cfg, from)
	}
	if err != nil {
		return nil, err
	}
	res.Engine = string(eng)
	res.Plan = pl
	return res, nil
}

// inMemSortFile is the degenerate engine for inputs that fit a
// half-memory load: read, sort in memory (metering the PRAM work), write.
// It needs no scratch array; its model I/O count is the two unavoidable
// data sweeps. It refuses a larger input from its size, before reading it.
func inMemSortFile(ctx context.Context, inPath, outPath string, cfg Config) (*Result, error) {
	n, err := statRecords(inPath)
	if err != nil {
		return nil, err
	}
	if n > cfg.Memory/2 {
		return nil, fmt.Errorf("balancesort: inmem engine needs N=%d ≤ M/2=%d", n, cfg.Memory/2)
	}
	cfg.tracer = cfg.Obs.tracer()
	cfg.Obs.attach("sort", cfg.tracer)
	defer startSortObs(cfg, nil)() // runtime gauges only: no scratch array

	recs, err := ReadRecordFile(inPath)
	if err != nil {
		return nil, err
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

// guideJournalState is the stripedmerge engine as sortScratch drives it:
// the sorter's complete State, which serializes, under the header every
// engine writes, as the payload of one journal commit.
type guideJournalState struct {
	journalHead
	State guidesort.State `json:"state"`
}

// validate requires a geometry the model accepts with 4DB ≤ M.
func (js *guideJournalState) validate(cfg Config) error {
	return checkGeometry(pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory})
}

func (js *guideJournalState) start(off, n int) {
	js.State = guidesort.State{InputOff: off, InputN: n, Metrics: guidesort.Metrics{N: n}}
}

func (js *guideJournalState) size() int { return js.State.InputN }

func (js *guideJournalState) payload(arr *pdm.Array, _ Config) ([]byte, error) {
	js.journalHead = headOf(EngineStripedMerge, arr)
	return json.Marshal(js)
}

// restore decodes a stripedmerge commit and validates its state: nothing
// read off disk after a crash is trusted blindly.
func (js *guideJournalState) restore(raw []byte, arr *pdm.Array, _ *Config) error {
	if err := json.Unmarshal(raw, js); err != nil {
		return fmt.Errorf("balancesort: bad journal payload: %w", err)
	}
	st := &js.State
	if st.InputN < 0 || st.InputPos < 0 || st.InputPos > st.InputN || st.InputOff < 0 {
		return fmt.Errorf("balancesort: journal input extent [%d,%d) pos %d invalid", st.InputOff, st.InputN, st.InputPos)
	}
	if st.InputPos < st.InputN && st.InputPos%arr.B() != 0 {
		return fmt.Errorf("balancesort: journal input pos %d is not block-aligned", st.InputPos)
	}
	if st.Metrics.N != st.InputN {
		return fmt.Errorf("balancesort: journal metrics N=%d disagrees with input N=%d", st.Metrics.N, st.InputN)
	}
	if st.Metrics.IOs < 0 || st.Metrics.Passes < 0 {
		return errors.New("balancesort: journal has negative counters")
	}
	if err := checkStripeWritten(arr, st.InputOff, 0, st.InputN); err != nil {
		return err
	}
	formed := 0
	for _, r := range st.Runs {
		if r.Off < 0 || r.N < 0 {
			return fmt.Errorf("balancesort: journal has bad run %+v", r)
		}
		if err := checkStripeWritten(arr, r.Off, 0, r.N); err != nil {
			return err
		}
		formed += r.N
	}
	if formed != st.InputPos {
		return fmt.Errorf("balancesort: journal runs hold %d records but %d were formed", formed, st.InputPos)
	}
	return nil
}

func (js *guideJournalState) run(arr *pdm.Array, cfg Config, commit func() error) ([]core.Region, *Result) {
	gcfg := guidesort.Config{
		P:                 cfg.Processors,
		NoRadix:           cfg.NoRadix,
		Context:           cfg.ctx,
		CrashAfterCommits: cfg.Robust.crashAfterCommits,
		Trace:             cfg.tracer,
	}
	if commit != nil {
		gcfg.Checkpoint = func(st guidesort.State) error {
			js.State = st
			return commit()
		}
	}
	s := guidesort.NewSorter(arr, gcfg)
	reg := s.Resume(js.State)
	m := s.Metrics()
	return []core.Region{reg}, &Result{
		IOs:      m.IOs,
		PRAMTime: m.PRAMTime,
		PRAMWork: m.PRAMWork,
		Depth:    m.Depth,
		Passes:   m.Passes,
		MemPeak:  m.MemPeak,
	}
}

package main

import (
	"fmt"
	"os"
	"path/filepath"

	"balancesort"
)

// fileSort is a SortFile workload: one op sorts one generated input file.
type fileSort struct {
	dist   balancesort.Workload
	n      int // records; quickN at -quick
	quickN int
	engine balancesort.Engine
}

func (s fileSort) size(quick bool) int {
	if quick {
		return s.quickN
	}
	return s.n
}

// config is the geometry both sort workloads share: D=8 disks of B=64
// records, M=16Ki records of memory, with the concurrent I/O engine and
// scratch checksums on.
func (s fileSort) config() balancesort.Config {
	cfg := balancesort.Config{Disks: 8, BlockSize: 64, Memory: 1 << 14, Engine: s.engine}
	cfg.IO.Engine = true
	return cfg
}

// sortOnce sorts in into out with a scratch directory of its own under
// work, which is removed afterwards.
func sortOnce(work, in, out string, cfg balancesort.Config) (*balancesort.Result, error) {
	scratch, err := os.MkdirTemp(work, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	return balancesort.SortFile(in, out, scratch, cfg)
}

func (s fileSort) setup(spec setupSpec) error {
	_, err := sortOnce(spec.Dir, spec.In, spec.Out, s.config())
	return err
}

func (s fileSort) run(rc runConfig, r *result) error {
	n := s.size(rc.Quick)
	in, out := filepath.Join(rc.Work, "in.bin"), filepath.Join(rc.Work, "out.bin")
	want, err := writeInput(in, s.dist, n, rc.Seed)
	if err != nil {
		return err
	}
	if err := r.timeSetups(rc, in, want); err != nil {
		return err
	}
	ref, err := newRefKernel(rc.Quick)
	if err != nil {
		return err
	}
	defer ref.close()
	cfg := s.config()
	op := func(cfg balancesort.Config) (res *balancesort.Result, cost opSample, ok bool) {
		var err error
		cost = timed(func() { res, err = sortOnce(rc.Work, in, out, cfg) })
		return res, cost, r.verifyFile("sort", err, out, want)
	}
	op(cfg) // the cold run: page cache, heap growth

	var w window
	heap := startHeapSampler()
	w.measure(rc.Seconds, rc.minReps(), ref, func() {
		if _, cost, ok := op(cfg); ok {
			w.add(cost)
		}
	})
	peak := heap.Stop()
	if len(w.walls) == 0 {
		return fmt.Errorf("no measured sort succeeded")
	}
	r.opMetrics(n, w, peak)
	if !rc.Trace {
		return nil
	}

	// One traced repetition. The span ring must hold every span of the
	// sort, most of them per-flush disk spans, or resource deltas are lost.
	tcfg := cfg
	tcfg.Obs = balancesort.ObsConfig{Trace: true, SpanCapacity: n / 4}
	res, traced, ok := op(tcfg)
	if !ok {
		return fmt.Errorf("traced sort failed")
	}
	r.traceOverhead(traced, ref)
	if _, err := saveTrace(rc, res.Trace); err != nil {
		return err
	}
	sortLayers(r, tabulate(res.Trace.Spans()), false, n)
	sortResultLayers(r, res, n)
	untraced := summarize(w.walls).Median
	r.Values["obs.spans_dropped"] = float64(res.Trace.Dropped())
	plan, err := balancesort.PlanFile(in, cfg)
	if err != nil {
		return err
	}
	for _, c := range plan.Candidates {
		if c.Engine == res.Engine && c.Seconds > 0 {
			r.Values["plan.actual_over_pred"] = untraced / c.Seconds
		}
	}
	microLayers(r, cfg.Memory, rc.Quick)
	return nil
}

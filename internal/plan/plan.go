// Package plan is the engine-selection subsystem: a cost-model planner
// that, given the sort geometry (N records of a known width over D disks,
// B-record blocks, M records of memory), predicts the pass count, parallel
// I/O count, byte volume, and nominal wall-clock of every available engine
// and picks the cheapest feasible one. It is the "engineering over theory"
// layer of Rahn/Sanders/Singler ("Scalable Distributed-Memory External
// Sorting", PAPERS.md) applied to this repository's single-node hot path:
// the asymptotically optimal algorithm is not always the cheapest at a
// concrete geometry, so count each engine's passes there and choose per
// instance.
//
// The model is deliberately simple and closed-form. Every external engine
// moves the dataset passes × 2 times (read + write) in ⌈N/DB⌉-I/O sweeps;
// engines differ only in how many passes they make:
//
//   - balancesort:  each distribution level is two sweeps (run formation,
//     then distribution into buckets) and the memoryload base case one.
//     Levels follow the sorter's own size-aware fan-out (core.Fanout) at
//     the geometry's virtual block size, each shrinking the largest
//     bucket to ⌈2·span/S⌉.
//   - stripedmerge: run formation plus ⌈log_{M/(2DB)} runs⌉ merge passes.
//   - inmem:        one read + one write pass, only when N fits a
//     half-memory load.
//
// The ranking is by predicted passes, that is, by I/O volume. Seconds is
// that volume at a nominal 200 MiB/s per disk: every engine reads half
// its bytes and writes the other half, so any per-disk read and write
// bandwidth, measured or assumed, scales every candidate by one factor
// and cannot change the pick.
package plan

import (
	"fmt"
	"math"
	"sort"

	"balancesort/internal/core"
	"balancesort/internal/pdm"
)

// Engine names, shared with the root facade's Config.Engine.
const (
	EngineBalanceSort  = "balancesort"
	EngineStripedMerge = "stripedmerge"
	EngineInMem        = "inmem"
)

// Engines lists every engine the planner ranks, in preference order for
// cost ties (cheapest bookkeeping first).
var Engines = []string{EngineInMem, EngineStripedMerge, EngineBalanceSort}

// Geometry is the instance the planner decides for.
type Geometry struct {
	// N is the record count; D, B, M the parallel-disk-model parameters.
	N int `json:"n"`
	D int `json:"d"`
	B int `json:"b"`
	M int `json:"m"`
	// V is Balance Sort's virtual-disk count for partial striping (0 = D);
	// it must divide D. Its virtual blocks of D/V·B records set the fan-out.
	V int `json:"v,omitempty"`
	// RecordBytes is the on-disk width of one record (0 = 16).
	RecordBytes int `json:"record_bytes,omitempty"`
}

// diskBytesPerSec is the nominal per-disk bandwidth Seconds is priced at,
// a commodity disk's 200 MiB/s either way.
const diskBytesPerSec = 200 << 20

// Prediction is one engine's predicted cost at the geometry.
type Prediction struct {
	Engine string `json:"engine"`
	// Feasible is false when the engine cannot run at this geometry (the
	// Reason says why); infeasible engines are never chosen.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
	// Passes counts full sweeps over the data (run formation or the
	// initial load counts as one).
	Passes int `json:"passes"`
	// IOs is the predicted parallel I/O count; Bytes the total volume
	// moved; Seconds that volume at the nominal per-disk bandwidth.
	IOs     float64 `json:"ios"`
	Bytes   float64 `json:"bytes"`
	Seconds float64 `json:"seconds"`
}

// Plan is the planner's decision: the chosen engine plus every candidate's
// prediction (sorted cheapest first), for reporting and for the bench
// emitters.
type Plan struct {
	Engine        string       `json:"engine"`
	LowerBoundIOs float64      `json:"io_lower_bound"`
	Candidates    []Prediction `json:"candidates"`
}

// Predicted returns the chosen candidate's prediction.
func (p *Plan) Predicted() Prediction {
	for _, c := range p.Candidates {
		if c.Engine == p.Engine {
			return c
		}
	}
	return Prediction{}
}

// Choose validates the geometry, predicts every engine, and picks the
// cheapest feasible one (ties break by the Engines preference order).
func Choose(g Geometry) (*Plan, error) {
	if g.N < 0 {
		return nil, fmt.Errorf("plan: negative N %d", g.N)
	}
	p := pdm.Params{D: g.D, B: g.B, M: g.M}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if g.V < 0 || g.V > 0 && g.D%g.V != 0 {
		return nil, fmt.Errorf("plan: V = %d does not divide D = %d", g.V, g.D)
	}
	if g.RecordBytes <= 0 {
		g.RecordBytes = 16
	}

	rank := make(map[string]int, len(Engines))
	for i, e := range Engines {
		rank[e] = i
	}
	var cands []Prediction
	for _, e := range Engines {
		cands = append(cands, predict(e, g, p))
	}
	sort.SliceStable(cands, func(a, b int) bool {
		ca, cb := cands[a], cands[b]
		if ca.Feasible != cb.Feasible {
			return ca.Feasible
		}
		if ca.Seconds != cb.Seconds {
			return ca.Seconds < cb.Seconds
		}
		return rank[ca.Engine] < rank[cb.Engine]
	})
	if !cands[0].Feasible {
		return nil, fmt.Errorf("plan: no engine feasible at D=%d B=%d M=%d N=%d", g.D, g.B, g.M, g.N)
	}
	return &Plan{
		Engine:        cands[0].Engine,
		LowerBoundIOs: core.LowerBoundIOs(g.N, p),
		Candidates:    cands,
	}, nil
}

// predict models one engine at the geometry.
func predict(engine string, g Geometry, p pdm.Params) Prediction {
	pr := Prediction{Engine: engine}
	sweeps := math.Ceil(float64(g.N) / float64(p.D*p.B)) // I/Os per full read or write of the data
	memload := core.Memoryload(p)
	runs := ceilDiv(g.N, memload)

	switch engine {
	case EngineInMem:
		if g.N > p.M/2 {
			pr.Reason = fmt.Sprintf("N=%d exceeds the half-memory load M/2=%d", g.N, p.M/2)
			return pr
		}
		pr.Feasible = true
		pr.Passes = 1
		pr.IOs = 2 * sweeps // host read + host write, expressed in sweep units
	case EngineStripedMerge:
		if 4*p.D*p.B > p.M {
			pr.Reason = fmt.Sprintf("DB=%d needs M>=%d", p.D*p.B, 4*p.D*p.B)
			return pr
		}
		arity := p.M / (2 * p.D * p.B)
		if arity < 2 {
			arity = 2
		}
		pr.Feasible = true
		pr.Passes = 1 + mergePasses(runs, arity)
	case EngineBalanceSort:
		if 4*p.D*p.B > p.M {
			pr.Reason = fmt.Sprintf("DB=%d needs M>=%d", p.D*p.B, 4*p.D*p.B)
			return pr
		}
		vb := p.B
		if g.V > 0 {
			vb = p.D / g.V * p.B
		}
		if err := core.CheckBuckets(p, vb, 0); err != nil {
			pr.Reason = err.Error()
			return pr
		}
		pr.Feasible = true
		pr.Passes = 2*distributionLevels(g.N, p, vb) + 1
	default:
		pr.Reason = "unknown engine"
		return pr
	}
	pr.IOs = float64(pr.Passes) * 2 * sweeps

	pr.Bytes = pr.IOs * float64(p.D*p.B) * float64(g.RecordBytes)
	pr.Seconds = pr.Bytes / (float64(p.D) * diskBytesPerSec) // D disks in parallel
	return pr
}

// PhaseBudgetSeconds predicts the single-node wall-clock of sorting
// `records` records of `recordBytes` width at a nominal geometry (D=4
// disks, 64-record blocks, a 64Ki-record memory) and nominal bandwidth.
// The cluster's straggler detector uses it as an absolute ceiling on
// derived per-phase deadline budgets: no phase of a healthy worker's
// shard should take longer than a whole local sort of the full input,
// so a budget extrapolated from a handful of fast finishers can never
// balloon past physical plausibility. It never fails — an invalid or
// empty geometry yields 0, which callers treat as "no ceiling".
func PhaseBudgetSeconds(records, recordBytes int) float64 {
	if records <= 0 {
		return 0
	}
	p, err := Choose(Geometry{N: records, D: 4, B: 64, M: 1 << 16, RecordBytes: recordBytes})
	if err != nil {
		return 0
	}
	return p.Predicted().Seconds
}

// distributionLevels counts Balance Sort's distribution levels over n
// records with virtual blocks of vb records: each level takes the sorter's
// fan-out S for the largest bucket left, whose size the partition
// elements bound by ⌈2·span/S⌉, until that bucket fits one memoryload.
// At S = 2 the bound predicts no progress, while the sorter panics rather
// than leave one bucket holding everything; the model then takes three
// quarters of the span, so the count stays finite and grows with the span.
func distributionLevels(n int, p pdm.Params, vb int) int {
	memload := core.Memoryload(p)
	levels := 0
	for span := n; span > memload; levels++ {
		span = min(ceilDiv(2*span, core.Fanout(span, p, vb)), 3*span/4)
	}
	return levels
}

// mergePasses is ⌈log_arity(runs)⌉ for runs ≥ 1.
func mergePasses(runs, arity int) int {
	if runs <= 1 {
		return 0
	}
	passes := 0
	for runs > 1 {
		runs = ceilDiv(runs, arity)
		passes++
	}
	return passes
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

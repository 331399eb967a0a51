// Package analyze turns a merged Chrome trace emitted by the sorter into a
// bottleneck report: the critical path through the coordinator's phases, how
// much of each phase ran with workers genuinely in parallel, and how idle
// each resource track sat over the run.
//
// The input is the trace_event JSON that obs.WriteChromeTrace produces —
// "X" complete events for phase spans (pid = node, coordinator first),
// "C" counter samples, "s"/"f" flow edges, and "M" metadata. The analyzer
// only trusts event geometry (ts/dur/pid/cat), so it works on any trace in
// that shape, including hand-built fixtures.
package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Event is one Chrome trace_event entry, decoded loosely: unknown fields
// are dropped, numbers arrive as float64 microseconds.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// Trace is a loaded trace file.
type Trace struct {
	Events       []Event
	ProcNames    map[int]string // from process_name metadata events
	SpansDropped int64          // from the spans_dropped metadata / footer
}

type traceFile struct {
	TraceEvents []Event        `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData"`
}

// Load parses Chrome trace_event JSON (the object form with a traceEvents
// array, as the sorter writes it).
func Load(r io.Reader) (*Trace, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("analyze: parse trace: %w", err)
	}
	t := &Trace{Events: tf.TraceEvents, ProcNames: map[int]string{}}
	for _, e := range tf.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch e.Name {
		case "process_name":
			if n, ok := e.Args["name"].(string); ok {
				t.ProcNames[e.Pid] = n
			}
		case "spans_dropped":
			if c, ok := e.Args["count"].(float64); ok {
				t.SpansDropped = int64(c)
			}
		}
	}
	if d, ok := tf.OtherData["spansDropped"].(float64); ok && t.SpansDropped == 0 {
		t.SpansDropped = int64(d)
	}
	return t, nil
}

func (t *Trace) procName(pid int) string {
	if n, ok := t.ProcNames[pid]; ok {
		return n
	}
	if pid == 0 {
		return "coordinator"
	}
	return fmt.Sprintf("worker %d", pid-1)
}

// Report is the full analysis of one trace.
type Report struct {
	// TotalUS is the wall-clock extent of the trace in microseconds: from
	// the earliest span start to the latest span end.
	TotalUS float64 `json:"total_us"`
	// Workers counts the distinct non-coordinator processes that emitted
	// phase spans.
	Workers int `json:"workers"`
	// Phases are the coordinator's top-level cluster phases in time order;
	// together they are the critical path, since the coordinator runs them
	// strictly one after another.
	Phases []PhaseReport `json:"phases"`
	// Resources are per-track busy/idle summaries: one row per process
	// layer, plus one per disk track.
	Resources []ResourceReport `json:"resources"`
	// Bottlenecks ranks the phases by wall-clock cost, worst first, each
	// with the reason it cost what it did.
	Bottlenecks []Bottleneck `json:"bottlenecks"`
	// Stragglers is non-nil when the trace records straggler detections or
	// hedged shard re-executions — tail-latency events that explain a phase
	// window no resource-utilization row can.
	Stragglers *StragglerReport `json:"stragglers,omitempty"`
	// SpansDropped carries the trace's own loss warning; a non-zero value
	// means the timeline (and so this report) is incomplete.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// StragglerReport summarizes the straggler detector's activity: demotions
// (zero-length "straggler" marker spans) and hedged shard-sort
// re-executions ("hedge" spans with victim/target/armed/won args).
type StragglerReport struct {
	Detected []StragglerEvent `json:"detected,omitempty"`
	Hedges   []HedgeEvent     `json:"hedges,omitempty"`
}

// StragglerEvent is one demotion: a worker expelled to the failover path
// after blowing its phase deadline budget.
type StragglerEvent struct {
	Worker   int     `json:"worker"`
	AtUS     float64 `json:"at_us"`     // offset from trace start
	BudgetMS float64 `json:"budget_ms"` // the budget it fell past
}

// HedgeEvent is one hedged re-execution: the victim's shard speculatively
// re-sorted on the target, first finisher wins.
type HedgeEvent struct {
	Victim  int     `json:"victim"`
	Target  int     `json:"target"`
	Armed   bool    `json:"armed"`         // the target acknowledged the hedge
	Won     *bool   `json:"won,omitempty"` // nil: the race ended undecided (the hedge failed)
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
}

// PhaseReport covers one coordinator phase window.
type PhaseReport struct {
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// PctOfTotal is this phase's share of the end-to-end wall clock — its
	// weight on the critical path.
	PctOfTotal float64 `json:"pct_of_total"`
	// OverlapPct is the fraction of the window during which at least two
	// worker processes had a phase span open: 0 means the workers took
	// strict turns, 100 means they ran fully in parallel.
	OverlapPct float64 `json:"overlap_pct"`
	// Dominant names the single longest span inside the window — the
	// process and span the phase was actually waiting on.
	Dominant      string  `json:"dominant"`
	DominantDurUS float64 `json:"dominant_dur_us"`
}

// ResourceReport is one utilization row: how long a track had at least one
// span open, against the whole run.
type ResourceReport struct {
	Name    string  `json:"name"` // e.g. "worker 1/cluster", "coordinator/disk 0"
	BusyUS  float64 `json:"busy_us"`
	IdlePct float64 `json:"idle_pct"`
}

// Bottleneck is one ranked entry of the final verdict.
type Bottleneck struct {
	Rank       int     `json:"rank"`
	Phase      string  `json:"phase"`
	CostUS     float64 `json:"cost_us"`
	PctOfTotal float64 `json:"pct_of_total"`
	Reason     string  `json:"reason"`
}

type interval struct{ lo, hi float64 }

// unionLen returns the total length covered by the union of the intervals.
func unionLen(iv []interval) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	total, curLo, curHi := 0.0, iv[0].lo, iv[0].hi
	for _, x := range iv[1:] {
		if x.lo > curHi {
			total += curHi - curLo
			curLo, curHi = x.lo, x.hi
			continue
		}
		if x.hi > curHi {
			curHi = x.hi
		}
	}
	return total + curHi - curLo
}

// clip cuts the intervals to [lo, hi], dropping empties.
func clip(iv []interval, lo, hi float64) []interval {
	out := iv[:0:0]
	for _, x := range iv {
		l, h := math.Max(x.lo, lo), math.Min(x.hi, hi)
		if h > l {
			out = append(out, interval{l, h})
		}
	}
	return out
}

// multiCover returns the length of [lo, hi] covered by at least two of the
// per-key interval sets (each key's set is unioned first, so two spans of
// the same worker never count as overlap).
func multiCover(sets map[int][]interval, lo, hi float64) float64 {
	var bounds []float64
	clipped := make(map[int][]interval, len(sets))
	for k, iv := range sets {
		c := clip(iv, lo, hi)
		if len(c) == 0 {
			continue
		}
		clipped[k] = c
		for _, x := range c {
			bounds = append(bounds, x.lo, x.hi)
		}
	}
	if len(clipped) < 2 {
		return 0
	}
	sort.Float64s(bounds)
	covered := 0.0
	for i := 0; i+1 < len(bounds); i++ {
		segLo, segHi := bounds[i], bounds[i+1]
		if segHi <= segLo {
			continue
		}
		mid := (segLo + segHi) / 2
		active := 0
		for _, iv := range clipped {
			for _, x := range iv {
				if x.lo <= mid && mid < x.hi {
					active++
					break
				}
			}
		}
		if active >= 2 {
			covered += segHi - segLo
		}
	}
	return covered
}

// Analyze computes the report for a loaded trace. coordPid is normally 0
// (the merged-trace convention); pass a different pid to analyze a trace
// whose coordinator landed elsewhere.
func Analyze(t *Trace, coordPid int) *Report {
	rep := &Report{SpansDropped: t.SpansDropped}

	// Collect phase spans ("X" events), splitting coordinator cluster
	// phases from everything else.
	var coordPhases []Event
	workerSets := map[int][]interval{} // worker pid -> cluster span intervals
	trackIv := map[string][]interval{} // resource track -> intervals
	var spans []Event
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, e := range t.Events {
		if e.Ph != "X" || e.Dur < 0 {
			continue
		}
		spans = append(spans, e)
		if e.Ts < lo {
			lo = e.Ts
		}
		if end := e.Ts + e.Dur; end > hi {
			hi = end
		}
		iv := interval{e.Ts, e.Ts + e.Dur}
		if e.Cat == "cluster" {
			switch {
			case e.Pid == coordPid && (e.Name == "hedge" || e.Name == "straggler"):
				// Straggler-detector spans run concurrently with the phase
				// they rescue; they feed the straggler section, not the
				// strictly-sequential critical path.
			case e.Pid == coordPid:
				coordPhases = append(coordPhases, e)
			default:
				workerSets[e.Pid] = append(workerSets[e.Pid], iv)
			}
		}
		track := t.procName(e.Pid) + "/" + e.Cat
		if e.Cat == "disk" {
			track = fmt.Sprintf("%s/disk %d", t.procName(e.Pid), e.Tid)
		}
		trackIv[track] = append(trackIv[track], iv)
	}
	collectStragglers(rep, spans, lo)
	if len(spans) == 0 {
		return rep
	}
	rep.TotalUS = hi - lo
	rep.Workers = len(workerSets)

	// Coordinator phases in start order form the critical path: the
	// coordinator drives them strictly sequentially, so each window's
	// wall-clock cost lands on the end-to-end time in full.
	sort.Slice(coordPhases, func(a, b int) bool { return coordPhases[a].Ts < coordPhases[b].Ts })
	for _, p := range coordPhases {
		pLo, pHi := p.Ts, p.Ts+p.Dur
		pr := PhaseReport{
			Name:    p.Name,
			StartUS: p.Ts - lo,
			DurUS:   p.Dur,
		}
		if rep.TotalUS > 0 {
			pr.PctOfTotal = 100 * p.Dur / rep.TotalUS
		}
		// Dominant span: the longest worker span that overlaps the
		// window; the coordinator's own bookkeeping wins only when no
		// worker was active at all.
		domName, domProc, domDur := p.Name, t.procName(coordPid), 0.0
		for _, e := range spans {
			if e.Pid == coordPid || e.Cat != "cluster" {
				continue
			}
			if e.Ts >= pHi || e.Ts+e.Dur <= pLo {
				continue
			}
			if e.Dur > domDur {
				domName, domProc, domDur = e.Name, t.procName(e.Pid), e.Dur
			}
		}
		pr.Dominant = fmt.Sprintf("%s: %s", domProc, domName)
		pr.DominantDurUS = domDur
		if p.Dur > 0 {
			pr.OverlapPct = 100 * multiCover(workerSets, pLo, pHi) / p.Dur
		}
		rep.Phases = append(rep.Phases, pr)
	}

	// Resource utilization: union each track's spans against the run.
	names := make([]string, 0, len(trackIv))
	for n := range trackIv {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		busy := unionLen(trackIv[n])
		rr := ResourceReport{Name: n, BusyUS: busy}
		if rep.TotalUS > 0 {
			rr.IdlePct = 100 * (1 - busy/rep.TotalUS)
			if rr.IdlePct < 0 {
				rr.IdlePct = 0
			}
		}
		rep.Resources = append(rep.Resources, rr)
	}

	// Bottlenecks: phases ranked by wall-clock cost.
	ranked := append([]PhaseReport(nil), rep.Phases...)
	sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].DurUS > ranked[b].DurUS })
	for i, p := range ranked {
		reason := fmt.Sprintf("waiting on %s (%.0f%% of the window)", p.Dominant, pct(p.DominantDurUS, p.DurUS))
		if rep.Workers > 1 && p.OverlapPct == 0 && p.DominantDurUS > 0 {
			reason += "; workers never overlapped — serialized phase"
		} else if rep.Workers > 1 && p.OverlapPct > 0 {
			reason += fmt.Sprintf("; workers overlapped %.0f%% of the window", p.OverlapPct)
		}
		rep.Bottlenecks = append(rep.Bottlenecks, Bottleneck{
			Rank: i + 1, Phase: p.Name, CostUS: p.DurUS,
			PctOfTotal: p.PctOfTotal, Reason: reason,
		})
	}
	return rep
}

// collectStragglers fills the report's straggler section from the
// coordinator's "straggler" and "hedge" marker spans.
func collectStragglers(rep *Report, spans []Event, lo float64) {
	argInt := func(e Event, key string) int {
		if v, ok := e.Args[key].(float64); ok {
			return int(v)
		}
		return -1
	}
	var sr StragglerReport
	for _, e := range spans {
		if e.Cat != "cluster" {
			continue
		}
		switch e.Name {
		case "straggler":
			ev := StragglerEvent{Worker: argInt(e, "worker"), AtUS: e.Ts - lo}
			if v, ok := e.Args["budget-ms"].(float64); ok {
				ev.BudgetMS = v
			}
			sr.Detected = append(sr.Detected, ev)
		case "hedge":
			h := HedgeEvent{
				Victim:  argInt(e, "victim"),
				Target:  argInt(e, "target"),
				Armed:   argInt(e, "armed") == 1,
				StartUS: e.Ts - lo,
				DurUS:   e.Dur,
			}
			if won := argInt(e, "won"); won >= 0 {
				h.Won = new(bool)
				*h.Won = won == 1
			}
			sr.Hedges = append(sr.Hedges, h)
		}
	}
	if len(sr.Detected) > 0 || len(sr.Hedges) > 0 {
		rep.Stragglers = &sr
	}
}

func pct(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	p := 100 * part / whole
	if p > 100 {
		p = 100
	}
	return p
}

// OverlapGate returns an error when the trace shows more than one worker
// yet no coordinator phase ever had two workers running at once — the
// signature of an accidentally serialized cluster (a CI tripwire, not a
// perf heuristic).
func OverlapGate(rep *Report) error {
	if rep.Workers <= 1 {
		return nil
	}
	best := 0.0
	for _, p := range rep.Phases {
		if p.OverlapPct > best {
			best = p.OverlapPct
		}
	}
	if best == 0 {
		return fmt.Errorf("analyze: %d workers but no coordinator phase shows any worker overlap — cluster ran serialized", rep.Workers)
	}
	return nil
}

// WriteText renders the report as the human-readable bottleneck summary.
func WriteText(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "trace: %.1f ms end to end, %d workers\n", rep.TotalUS/1000, rep.Workers)
	if rep.SpansDropped > 0 {
		fmt.Fprintf(w, "WARNING: %d spans were dropped; the report undercounts\n", rep.SpansDropped)
	}
	if len(rep.Phases) > 0 {
		fmt.Fprintf(w, "\ncritical path (coordinator phases, in order):\n")
		for _, p := range rep.Phases {
			fmt.Fprintf(w, "  %-16s %9.1f ms  %5.1f%% of total  overlap %5.1f%%  <- %s (%.1f ms)\n",
				p.Name, p.DurUS/1000, p.PctOfTotal, p.OverlapPct, p.Dominant, p.DominantDurUS/1000)
		}
	}
	if len(rep.Resources) > 0 {
		fmt.Fprintf(w, "\nresource idle time:\n")
		for _, r := range rep.Resources {
			fmt.Fprintf(w, "  %-24s busy %9.1f ms  idle %5.1f%%\n", r.Name, r.BusyUS/1000, r.IdlePct)
		}
	}
	if len(rep.Bottlenecks) > 0 {
		fmt.Fprintf(w, "\nbottlenecks (worst first):\n")
		for _, b := range rep.Bottlenecks {
			fmt.Fprintf(w, "  #%d %s — %.1f ms (%.1f%% of total): %s\n",
				b.Rank, b.Phase, b.CostUS/1000, b.PctOfTotal, b.Reason)
		}
	}
	if s := rep.Stragglers; s != nil {
		fmt.Fprintf(w, "\nstragglers:\n")
		for _, d := range s.Detected {
			fmt.Fprintf(w, "  worker %d demoted at %.1f ms (budget %.0f ms blown)\n",
				d.Worker, d.AtUS/1000, d.BudgetMS)
		}
		for _, h := range s.Hedges {
			verdict := "failed"
			if h.Won != nil && *h.Won {
				verdict = "won"
			} else if h.Won != nil {
				verdict = "lost"
			}
			if h.Armed {
				verdict = "armed, " + verdict
			} else {
				verdict += " before arming"
			}
			fmt.Fprintf(w, "  hedge: worker %d re-ran worker %d's shard at %.1f ms for %.1f ms (%s)\n",
				h.Target, h.Victim, h.StartUS/1000, h.DurUS/1000, verdict)
		}
	}
}

// Command bench is the repository's benchmark: three workloads over the
// public entry points (SortFile, ClusterSortFile/ServeWorker, PlanFile),
// each run's outputs checked byte for byte against an in-memory oracle.
//
//	bash bench/run.sh --workload sort-dist --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh                      # the full set, 3 runs per workload
//	bash bench/run.sh -traced              # one traced run per workload
//	bash bench/run.sh -compare A.json B.json
//
// A single-workload run prints a table, then as its last line one JSON
// object with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). It exits 1 when any op failed or produced wrong output.
// See README.md for the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	if spec := os.Getenv(setupEnv); spec != "" {
		os.Exit(runSetupChild(spec))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// Where a run keeps its scratch files, and where traces and set records
// go; bench/run.sh runs the program from the repository root.
const (
	workRoot = ".bench_build/work"
	outRoot  = "bench/out"
	setRuns  = 3 // runs per workload in a set
)

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run one workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed (a set uses seed, seed+1, ...)")
	seconds := fs.Float64("seconds", 30, "measured window of one run, in seconds")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics, from a traced repetition")
	out := fs.String("out", "", "also write the run (or set) record as JSON to this file")
	traced := fs.Bool("traced", false, "set: one traced run per workload")
	compare := fs.Bool("compare", false, "compare two set files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two set files")
			return 2
		}
		var worse bool
		worse, err = compareSets(stdout, "BENCHMARK.json", fs.Arg(0), fs.Arg(1))
		if err == nil && worse {
			return 1
		}
	case *name != "":
		rc := runConfig{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, OutDir: outRoot}
		var rec runRecord
		rec, err = runOne(rc, stdout)
		if err == nil && *out != "" {
			err = writeJSON(*out, rec)
		}
		if err == nil && !rec.Correct {
			return 1
		}
	default:
		runs, tr := setRuns, 0
		if *traced {
			runs, tr = 1, 1
		}
		path := *out
		if path == "" {
			path = filepath.Join(outRoot, fmt.Sprintf("set-%s.json", time.Now().UTC().Format("20060102T150405Z")))
		}
		err = runSet(stdout, args, path, *seed, runs, *seconds, tr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runRecord is one run: what was measured, where, and every reported
// metric with the spread of the samples behind it.
type runRecord struct {
	Workload  string              `json:"workload"`
	Seed      uint64              `json:"seed"`
	Seconds   float64             `json:"seconds"`
	Trace     bool                `json:"trace"`
	Host      hostStamp           `json:"host"`
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Summary   string              `json:"summary"`
	Metrics   map[string]reported `json:"metrics"`
}

// reported is one metric as the last output line carries it; Samples, in
// the run record only, summarizes the per-op (or per-set-up) samples the
// value was taken from.
type reported struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// runOne measures one workload in this process and prints its table and
// result line.
func runOne(rc runConfig, stdout io.Writer) (runRecord, error) {
	wl, ok := findWorkload(rc.Workload)
	if !ok {
		return runRecord{}, fmt.Errorf("unknown workload %q (want one of %s)", rc.Workload, workloadNames())
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return runRecord{}, err
	}
	work, err := os.MkdirTemp(workRoot, rc.Workload+"-")
	if err != nil {
		return runRecord{}, err
	}
	defer os.RemoveAll(work)
	rc.Work = work

	r := newResult()
	if err := wl.run(rc, r); err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", rc.Workload, err)
	}
	rec := runRecord{
		Workload: rc.Workload, Seed: rc.Seed, Seconds: rc.Seconds, Trace: rc.Trace,
		Host: currentHost(), Correct: r.Failed == 0,
		Attempted: r.Attempted, Failed: r.Failed, Summary: r.Summary,
		Metrics: map[string]reported{},
	}
	defs := endToEnd
	if rc.Trace {
		defs = perLayer
	}
	for _, m := range defs {
		rep := reported{Value: r.Values[m.Name], Unit: m.Unit}
		if math.IsNaN(rep.Value) || math.IsInf(rep.Value, 0) {
			return runRecord{}, fmt.Errorf("%s: %s is %v", rc.Workload, m.Name, rep.Value)
		}
		if s, ok := r.Samples[m.Name]; ok {
			sum := summarize(s)
			rep.Samples = &sum
		}
		rec.Metrics[m.Name] = rep
	}
	printRun(stdout, rec, defs)
	return rec, nil
}

// printRun writes the run's table and, last, its one-line JSON result.
func printRun(w io.Writer, rec runRecord, defs []metricDef) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v: %d ops, %d failed\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.Attempted, rec.Failed)
	fmt.Fprintln(w, rec.Host)
	fmt.Fprintln(w, rec.Summary)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tunit\tvalue\tq1\tq3\tn\t")
	for _, m := range defs {
		rep := rec.Metrics[m.Name]
		if s := rep.Samples; s != nil {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t\n", m.Name, m.Unit, rep.Value, s.Q1, s.Q3, s.N)
		} else {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t\t\t\t\n", m.Name, m.Unit, rep.Value)
		}
	}
	tw.Flush()

	line := struct {
		Correct   bool                `json:"correct"`
		Attempted int                 `json:"attempted"`
		Failed    int                 `json:"failed"`
		Metrics   map[string]reported `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, map[string]reported{}}
	for name, rep := range rec.Metrics {
		line.Metrics[name] = reported{Value: rep.Value, Unit: rep.Unit}
	}
	b, _ := json.Marshal(line) // runOne admits only finite values
	fmt.Fprintln(w, string(b))
}

// setFile is a set of runs, as -compare reads it.
type setFile struct {
	Host    hostStamp   `json:"host"`
	Command string      `json:"command"`
	Runs    []runRecord `json:"runs"`
}

// runSet runs every workload `runs` times, each run in its own child
// process with its own seed, and writes the set to path. The runs go
// round-robin over the workloads, so each workload's runs span the whole
// set and their spread shows how far the host drifts over that time.
func runSet(stdout io.Writer, args []string, path string, seed uint64, runs int, seconds float64, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	set := setFile{Host: currentHost(), Command: strings.Join(append([]string{"bench"}, args...), " ")}
	rec := path + ".run"
	defer os.Remove(rec)
	for i := 0; i < runs; i++ {
		for _, wl := range workloads {
			cmd := exec.Command(exe, "--workload", wl.name, "--seed", fmt.Sprint(seed+uint64(i)),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace), "-out", rec)
			cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed+uint64(i), err)
			}
			var r runRecord
			if err := readJSON(rec, &r); err != nil {
				return err
			}
			set.Runs = append(set.Runs, r)
		}
	}
	if err := writeJSON(path, set); err != nil {
		return err
	}
	printSet(stdout, set)
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// printSet tabulates a set: per workload and metric, the median and
// quartiles of the run values and the number of runs.
func printSet(w io.Writer, set setFile) {
	fmt.Fprintln(w, set.Host)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\truns\tops\tfailed\t")
	for _, g := range groupRuns(set) {
		for _, name := range g.metrics {
			vals := g.values[name]
			s := summarize(vals)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%d\t%d\t\n",
				g.workload, name, g.units[name], s.Median, s.Q1, s.Q3, s.N, g.attempted, g.failed)
		}
	}
	tw.Flush()
}

// runGroup is one workload's runs within a set, metric by metric.
type runGroup struct {
	workload          string
	metrics           []string
	units             map[string]string
	values            map[string][]float64
	attempted, failed int
}

func groupRuns(set setFile) []runGroup {
	var out []runGroup
	index := map[string]int{}
	for _, rec := range set.Runs {
		i, ok := index[rec.Workload]
		if !ok {
			i = len(out)
			index[rec.Workload] = i
			out = append(out, runGroup{workload: rec.Workload, units: map[string]string{}, values: map[string][]float64{}})
		}
		g := &out[i]
		g.attempted += rec.Attempted
		g.failed += rec.Failed
		for name, rep := range rec.Metrics {
			if _, seen := g.units[name]; !seen {
				g.metrics = append(g.metrics, name)
			}
			g.units[name] = rep.Unit
			g.values[name] = append(g.values[name], rep.Value)
		}
	}
	for i := range out {
		sort.Strings(out[i].metrics)
	}
	return out
}

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareSets prints a verdict for every end-to-end metric × workload of
// two sets, A the parent and B the change, and reports whether any is
// worse.
func compareSets(w io.Writer, benchPath, aPath, bPath string) (bool, error) {
	var bf benchmarkFile
	if err := readJSON(benchPath, &bf); err != nil {
		return false, err
	}
	var a, b setFile
	if err := readJSON(aPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(bPath, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s\nB: %s\n", a.Host, b.Host)
	if a.Host.NProc != b.Host.NProc || a.Host.CPU != b.Host.CPU {
		fmt.Fprintln(w, "warning: the sets come from different hosts")
	}
	bGroups := map[string]runGroup{}
	for _, g := range groupRuns(b) {
		bGroups[g.workload] = g
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tspread A\tspread B\tbound\tverdict\t")
	worse := false
	for _, ga := range groupRuns(a) {
		gb, ok := bGroups[ga.workload]
		if !ok {
			return false, fmt.Errorf("%s has no %s runs", bPath, ga.workload)
		}
		for _, m := range bf.EndToEnd {
			va, vb := ga.values[m.Name], gb.values[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s: %s missing from a set", ga.workload, m.Name)
			}
			v, change := verdict(va, vb, m.Better == "lower", m.Bound)
			worse = worse || v == verdictWorse
			sa, sb := summarize(va), summarize(vb)
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%.1f%%\t%.1f%%\t%.1f%%\t%s\t\n",
				ga.workload, m.Name, sa.Median, sb.Median, pct(change), 100*sa.spread(), 100*sb.spread(), 100*m.Bound, v)
		}
	}
	tw.Flush()
	return worse, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

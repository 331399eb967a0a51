package balancesort

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"balancesort/internal/cluster"
)

// chromeTestTrace mirrors the Chrome trace_event envelope for test-side
// schema validation. Pointer fields distinguish "absent" from zero.
type chromeTestTrace struct {
	TraceEvents []chromeTestEvent `json:"traceEvents"`
}

type chromeTestEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	ID   string         `json:"id"`
	Ts   *float64       `json:"ts"`
	Dur  *float64       `json:"dur"`
	Pid  *int           `json:"pid"`
	Tid  *int           `json:"tid"`
	Args map[string]any `json:"args"`
}

func parseChromeTrace(t *testing.T, data []byte) chromeTestTrace {
	t.Helper()
	var tr chromeTestTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	for i, e := range tr.TraceEvents {
		if e.Name == "" || e.Ph == "" || e.Pid == nil {
			t.Fatalf("event %d missing required fields: %+v", i, e)
		}
		switch e.Ph {
		case "X":
			if e.Ts == nil || e.Dur == nil || e.Tid == nil {
				t.Fatalf("complete event %d missing ts/dur/tid: %+v", i, e)
			}
			if *e.Ts < 0 || *e.Dur < 0 {
				t.Fatalf("complete event %d has negative time: %+v", i, e)
			}
		case "C":
			// Counter sample: needs a timestamp and a value argument.
			if e.Ts == nil || e.Args["value"] == nil {
				t.Fatalf("counter event %d missing ts/value: %+v", i, e)
			}
		case "s", "f":
			// Flow edge endpoint: needs a timestamp and a binding id.
			if e.Ts == nil || e.ID == "" {
				t.Fatalf("flow event %d missing ts/id: %+v", i, e)
			}
		case "M":
			// Process metadata; name payload lives in args.
		default:
			t.Fatalf("event %d has unexpected phase %q", i, e.Ph)
		}
	}
	return tr
}

func TestStartObsServerDisabled(t *testing.T) {
	srv, err := StartObsServer("")
	if err != nil {
		t.Fatalf("empty addr: %v", err)
	}
	if srv != nil {
		t.Fatal("empty addr must return a nil server — no listener")
	}
	if got := srv.Addr(); got != "" {
		t.Fatalf("nil server Addr = %q", got)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("nil server Close: %v", err)
	}
}

// TestSortFileObsParity pins the tentpole guarantee: with tracing, span
// resource attribution, utilization sampling, and the metrics endpoint all
// enabled, the model parallel-I/O counts and the sorted output are
// byte-identical to an observability-off run.
func TestSortFileObsParity(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.dat")
	if err := WriteRecordFile(inPath, NewWorkload(Uniform, 60_000, 11)); err != nil {
		t.Fatal(err)
	}
	base := Config{Disks: 4, BlockSize: 64, Memory: 1 << 16}

	offOut := filepath.Join(dir, "off.dat")
	offRes, err := SortFile(inPath, offOut, filepath.Join(dir, "scratch-off"), base)
	if err != nil {
		t.Fatal(err)
	}
	if offRes.Trace != nil {
		t.Fatal("observability off must not record a trace")
	}

	srv, err := StartObsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	on := base
	on.Obs = ObsConfig{Trace: true, Server: srv, Sample: time.Millisecond}
	onOut := filepath.Join(dir, "on.dat")
	onRes, err := SortFile(inPath, onOut, filepath.Join(dir, "scratch-on"), on)
	if err != nil {
		t.Fatal(err)
	}

	if onRes.IOs != offRes.IOs || onRes.Passes != offRes.Passes || onRes.Depth != offRes.Depth {
		t.Fatalf("model costs differ with tracing on: IOs %d/%d passes %d/%d depth %d/%d",
			onRes.IOs, offRes.IOs, onRes.Passes, offRes.Passes, onRes.Depth, offRes.Depth)
	}
	requireSameBytes(t, offOut, onOut)

	if onRes.Trace == nil {
		t.Fatal("tracing on returned no trace")
	}
	phases := make(map[string]bool)
	for _, s := range onRes.Trace.Spans() {
		phases[s.Layer+"/"+s.Name] = true
	}
	for _, want := range []string{"sort/distribute-pass", "sort/run-formation", "sort/base-case"} {
		if !phases[want] {
			t.Fatalf("trace has no %q span; recorded phases: %v", want, phases)
		}
	}
	totals := onRes.Trace.PhaseTotals()
	if totals["sort/distribute-pass"] <= 0 {
		t.Fatalf("PhaseTotals has no positive distribute-pass time: %v", totals)
	}

	// Attribution: at least one phase span must carry resource deltas, the
	// device bytes must reach the trace (as a sort span's io.bytes_read or
	// the disk0.busy_pct track), and the phase spans must form a causality
	// tree (run-formation parented under its distribute-pass).
	var attributed, devBytes, counters, parented bool
	byID := make(map[uint64]string)
	for _, s := range onRes.Trace.Spans() {
		if s.SpanID != 0 {
			byID[s.SpanID] = s.Name
		}
	}
	for _, s := range onRes.Trace.Spans() {
		for _, a := range s.Attrs {
			if a.Key == "io.bytes_read" || a.Key == "recs.moved" {
				attributed = true
			}
			if s.Layer == "sort" && a.Key == "io.bytes_read" && a.Val > 0 {
				devBytes = true
			}
		}
		if s.Layer == "counter" {
			counters = true
			if s.Name == "disk0.busy_pct" {
				devBytes = true
			}
		}
		if s.Name == "run-formation" && byID[s.Parent] == "distribute-pass" {
			parented = true
		}
	}
	if !attributed {
		t.Fatal("no span carries resource-attribution deltas")
	}
	if !devBytes {
		t.Fatal("no sort span carries io.bytes_read and no disk0.busy_pct track was sampled")
	}
	if !counters {
		t.Fatal("sampling enabled but no counter samples recorded")
	}
	if !parented {
		t.Fatal("run-formation span is not parented under distribute-pass")
	}
	// Every sort phase below the per-step roots hangs off a recorded span;
	// in particular repair-rearrange is a child of distribute-tracks.
	for _, s := range onRes.Trace.Spans() {
		if s.Layer != "sort" || s.Name == "base-case" || s.Name == "distribute-pass" {
			continue
		}
		parent, ok := byID[s.Parent]
		if s.Parent == 0 || !ok {
			t.Fatalf("sort/%s span %d has no recorded parent (parent id %d)", s.Name, s.SpanID, s.Parent)
		}
		if s.Name == "repair-rearrange" && parent != "distribute-tracks" {
			t.Fatalf("repair-rearrange parented under %q, want distribute-tracks", parent)
		}
	}

	// The /metrics endpoint must expose the sort's phase histograms.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"balancesort_phase_seconds_bucket",
		`layer="sort",phase="distribute-pass"`,
		`le="+Inf"`,
		"balancesort_phase_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
}

// TestClusterTraceMergedTimeline is the acceptance scenario: a 4-worker
// in-process cluster sort with tracing must produce one Chrome trace-event
// JSON containing coordinator spans (pid 0) and every worker's spans
// (pids 1..4) for every cluster phase — and the traced run's output must be
// byte-identical to the observability-off single-process reference.
func TestClusterTraceMergedTimeline(t *testing.T) {
	dir := t.TempDir()
	const W = 4
	addrs := make([]string, W)
	for i := 0; i < W; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		scratch := filepath.Join(dir, fmt.Sprintf("w%d", i))
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = ServeWorker(ctx, ln, WorkerOptions{ScratchDir: scratch, Sort: clusterShardConfig()})
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
	}

	inPath, refPath := writeClusterInput(t, dir, Uniform, 60_000, 23)
	outPath := filepath.Join(dir, "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := ClusterSortFile(ctx, inPath, outPath, ClusterConfig{
		Workers: addrs,
		Obs:     ObsConfig{Trace: true, Sample: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBytes(t, refPath, outPath)
	if res.Trace == nil {
		t.Fatal("cluster sort with tracing returned no trace")
	}

	var buf bytes.Buffer
	if err := res.Trace.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	tr := parseChromeTrace(t, buf.Bytes())

	// Index the complete events by (pid, name).
	type key struct {
		pid  int
		name string
	}
	have := make(map[key]int)
	pids := make(map[int]bool)
	flowOut := make(map[string]bool) // flow id -> seen "s" on the coordinator
	for _, e := range tr.TraceEvents {
		if e.Ph == "s" && *e.Pid == 0 {
			flowOut[e.ID] = true
		}
	}
	var flowBound, counterSamples int
	for _, e := range tr.TraceEvents {
		switch e.Ph {
		case "f":
			if flowOut[e.ID] && *e.Pid > 0 {
				flowBound++
			}
			continue
		case "C":
			counterSamples++
			continue
		}
		if e.Ph != "X" {
			continue
		}
		pids[*e.Pid] = true
		if e.Cat == "cluster" {
			have[key{*e.Pid, e.Name}]++
		}
	}
	// Causality edges: coordinator "s" points must bind to worker "f"
	// points through identical derived flow ids — for W workers across the
	// pivots/plan/gather/local-sort/drain edges that is at least W edges.
	if flowBound < W {
		t.Fatalf("only %d coordinator→worker flow edges bound (want >= %d)", flowBound, W)
	}
	// Coordinator-side sampling was on: the merged trace must carry
	// utilization counter tracks.
	if counterSamples == 0 {
		t.Fatal("sampling enabled but merged trace has no counter events")
	}
	for pid := 0; pid <= W; pid++ {
		if !pids[pid] {
			t.Fatalf("merged trace has no spans for pid %d (0 = coordinator, 1..%d = workers)", pid, W)
		}
	}
	for _, phase := range cluster.CoordinatorPhases {
		if have[key{0, phase}] == 0 {
			t.Fatalf("coordinator phase %q missing from merged trace", phase)
		}
	}
	for w := 1; w <= W; w++ {
		for _, phase := range cluster.WorkerPhases {
			if have[key{w, phase}] == 0 {
				t.Fatalf("worker %d phase %q missing from merged trace", w-1, phase)
			}
		}
	}
	if res.Trace.Dropped() != 0 {
		t.Fatalf("trace dropped %d spans; ring too small for this test", res.Trace.Dropped())
	}
}

// TestClusterLiveScrape runs a 2-worker cluster sort while hammering every
// observability endpoint from concurrent goroutines — worker /metrics,
// worker pprof, coordinator /metrics — with sampling and attribution on.
// Under -race this pins that live scraping never races the sorting path,
// and that the sort's output is still byte-identical to the reference.
func TestClusterLiveScrape(t *testing.T) {
	dir := t.TempDir()
	const W = 2
	addrs := make([]string, W)
	obsAddrs := make([]string, W)
	for i := 0; i < W; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		oln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		obsAddrs[i] = oln.Addr().String()
		oln.Close() // we only needed a free port for ObsAddr
		addrs[i] = ln.Addr().String()
		scratch := filepath.Join(dir, fmt.Sprintf("w%d", i))
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		opt := WorkerOptions{
			ScratchDir: scratch,
			Sort:       clusterShardConfig(),
			ObsAddr:    obsAddrs[i],
			Sample:     time.Millisecond,
		}
		go func() {
			defer close(done)
			_ = ServeWorker(ctx, ln, opt)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
	}

	srv, err := StartObsServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Scrapers: poll every endpoint until the sort completes.
	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	defer stopScrape()
	var scraped int64
	var wg sync.WaitGroup
	urls := []string{"http://" + srv.Addr() + "/metrics"}
	for _, oa := range obsAddrs {
		urls = append(urls,
			"http://"+oa+"/metrics",
			"http://"+oa+"/debug/pprof/goroutine?debug=1")
	}
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			for scrapeCtx.Err() == nil {
				resp, err := http.Get(u)
				if err != nil {
					// The worker's obs server may not be listening yet.
					time.Sleep(2 * time.Millisecond)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				atomic.AddInt64(&scraped, 1)
				time.Sleep(time.Millisecond)
			}
		}(u)
	}

	inPath, refPath := writeClusterInput(t, dir, Uniform, 60_000, 29)
	outPath := filepath.Join(dir, "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := ClusterSortFile(ctx, inPath, outPath, ClusterConfig{
		Workers: addrs,
		Obs:     ObsConfig{Trace: true, Sample: time.Millisecond, Server: srv},
	})
	if err != nil {
		t.Fatal(err)
	}
	stopScrape()
	wg.Wait()
	requireSameBytes(t, refPath, outPath)
	if res.Trace == nil {
		t.Fatal("no trace from scraped run")
	}
	if atomic.LoadInt64(&scraped) == 0 {
		t.Fatal("no endpoint was ever scraped during the sort")
	}
}

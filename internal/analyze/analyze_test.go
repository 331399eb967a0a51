package analyze

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"balancesort/internal/obs"
)

// fixtureSpans builds a small but fully featured cluster timeline by hand:
// a coordinator (node 0) running scatter then exchange then drain, two
// workers whose exchange spans overlap for half the window, one worker disk
// track, a counter sample, and a flow edge. Times are in milliseconds from
// the epoch so the expected numbers below can be read off directly.
func fixtureSpans() []obs.Span {
	ms := func(n int) int64 { return int64(n) * 1e6 }
	sp := func(node int, layer, name string, id int, startMS, durMS int) obs.Span {
		return obs.Span{
			Node: node, Layer: layer, Name: name, ID: id,
			Start: durationFromNanos(ms(startMS)), Dur: durationFromNanos(ms(durMS)),
		}
	}
	return []obs.Span{
		// Coordinator phases: scatter 0-10, exchange 10-30, drain 30-40.
		sp(0, "cluster", "scatter", 0, 0, 10),
		sp(0, "cluster", "exchange", 0, 10, 20),
		sp(0, "cluster", "drain", 0, 30, 10),
		// Worker 0 (pid 1): scatter-recv 2-8, exchange 10-28.
		sp(1, "cluster", "scatter-recv", 0, 2, 6),
		sp(1, "cluster", "exchange", 0, 10, 18),
		// Worker 1 (pid 2): scatter-recv 4-9, exchange 20-30 — so the
		// exchange window has two workers active only during 20-28, i.e.
		// 8 of 20 ms = 40% overlap; scatter has 2 workers during 4-8,
		// 4 of 10 ms = 40%.
		sp(2, "cluster", "scatter-recv", 0, 4, 5),
		sp(2, "cluster", "exchange", 0, 20, 10),
		// Worker 0 disk 0 busy 12-20.
		sp(1, "disk", "flush", 0, 12, 8),
		// A counter sample and a flow edge: both must be ignored by the
		// busy/overlap math.
		{Node: 0, Layer: obs.LayerCounter, Name: "go.goroutines", ID: 0,
			Start: durationFromNanos(ms(15)), Attrs: []obs.Attr{{Key: "value", Val: 11}}},
		{Node: 0, Layer: "cluster", Name: "flow-plan", ID: 1,
			Start: durationFromNanos(ms(10)), Flow: 0xBEEF, FlowOut: true},
		{Node: 2, Layer: "cluster", Name: "flow-plan", ID: 2,
			Start: durationFromNanos(ms(11)), Flow: 0xBEEF},
	}
}

func durationFromNanos(n int64) time.Duration { return time.Duration(n) }

func loadFixture(t *testing.T, dropped int64) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceDropped(&buf, fixtureSpans(), dropped); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestAnalyzeFixture(t *testing.T) {
	rep := Analyze(loadFixture(t, 0), 0)

	if rep.TotalUS != 40000 {
		t.Fatalf("TotalUS = %v, want 40000", rep.TotalUS)
	}
	if rep.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", rep.Workers)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("got %d phases, want 3: %+v", len(rep.Phases), rep.Phases)
	}
	wantPhases := []struct {
		name     string
		durUS    float64
		overlap  float64
		dominant string
	}{
		{"scatter", 10000, 40, "worker 0: scatter-recv"},
		{"exchange", 20000, 40, "worker 0: exchange"},
		{"drain", 10000, 0, "coordinator: drain"},
	}
	for i, w := range wantPhases {
		p := rep.Phases[i]
		if p.Name != w.name || p.DurUS != w.durUS {
			t.Errorf("phase %d = %s/%v, want %s/%v", i, p.Name, p.DurUS, w.name, w.durUS)
		}
		if p.OverlapPct != w.overlap {
			t.Errorf("phase %s overlap = %v, want %v", p.Name, p.OverlapPct, w.overlap)
		}
		if p.Dominant != w.dominant {
			t.Errorf("phase %s dominant = %q, want %q", p.Name, p.Dominant, w.dominant)
		}
	}

	// Resource rows: worker 0's disk track was busy 8 of 40 ms -> 80% idle.
	var disk *ResourceReport
	for i := range rep.Resources {
		if rep.Resources[i].Name == "worker 0/disk 0" {
			disk = &rep.Resources[i]
		}
	}
	if disk == nil {
		t.Fatalf("no worker 0/disk 0 resource row in %+v", rep.Resources)
	}
	if disk.BusyUS != 8000 || disk.IdlePct != 80 {
		t.Errorf("disk row = busy %v idle %v, want 8000/80", disk.BusyUS, disk.IdlePct)
	}

	// Bottleneck ranking: exchange (20 ms) must rank first.
	if len(rep.Bottlenecks) == 0 || rep.Bottlenecks[0].Phase != "exchange" {
		t.Fatalf("top bottleneck = %+v, want exchange", rep.Bottlenecks)
	}

	if err := OverlapGate(rep); err != nil {
		t.Errorf("OverlapGate on overlapping trace: %v", err)
	}
}

// TestGoldenText locks the exact text rendering, so report formatting
// changes are deliberate.
func TestGoldenText(t *testing.T) {
	rep := Analyze(loadFixture(t, 0), 0)
	var buf bytes.Buffer
	WriteText(&buf, rep)
	const want = `trace: 40.0 ms end to end, 2 workers

critical path (coordinator phases, in order):
  scatter               10.0 ms   25.0% of total  overlap  40.0%  <- worker 0: scatter-recv (6.0 ms)
  exchange              20.0 ms   50.0% of total  overlap  40.0%  <- worker 0: exchange (18.0 ms)
  drain                 10.0 ms   25.0% of total  overlap   0.0%  <- coordinator: drain (0.0 ms)

resource idle time:
  coordinator/cluster      busy      40.0 ms  idle   0.0%
  worker 0/cluster         busy      24.0 ms  idle  40.0%
  worker 0/disk 0          busy       8.0 ms  idle  80.0%
  worker 1/cluster         busy      15.0 ms  idle  62.5%

bottlenecks (worst first):
  #1 exchange — 20.0 ms (50.0% of total): waiting on worker 0: exchange (90% of the window); workers overlapped 40% of the window
  #2 scatter — 10.0 ms (25.0% of total): waiting on worker 0: scatter-recv (60% of the window); workers overlapped 40% of the window
  #3 drain — 10.0 ms (25.0% of total): waiting on coordinator: drain (0% of the window)
`
	if got := buf.String(); got != want {
		t.Errorf("text report mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestDroppedWarning(t *testing.T) {
	rep := Analyze(loadFixture(t, 17), 0)
	if rep.SpansDropped != 17 {
		t.Fatalf("SpansDropped = %d, want 17", rep.SpansDropped)
	}
	var buf bytes.Buffer
	WriteText(&buf, rep)
	if !strings.Contains(buf.String(), "17 spans were dropped") {
		t.Errorf("text report missing drop warning:\n%s", buf.String())
	}
}

func TestOverlapGateSerialized(t *testing.T) {
	// Strip worker 1's overlapping exchange span: shift it after worker
	// 0's, so no window ever has two workers at once.
	spans := fixtureSpans()
	serial := spans[:0:0]
	for _, s := range spans {
		if s.Node == 2 && s.Name == "exchange" {
			s.Start = durationFromNanos(30 * 1e6)
		}
		if s.Node == 2 && s.Name == "scatter-recv" {
			// After worker 0's last span ends at 28; overlapping its own
			// exchange is fine (same pid never counts as overlap).
			s.Start = durationFromNanos(28_500_000)
		}
		serial = append(serial, s)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTraceDropped(&buf, serial, 0); err != nil {
		t.Fatal(err)
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(tr, 0)
	if rep.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", rep.Workers)
	}
	if err := OverlapGate(rep); err == nil {
		t.Fatal("OverlapGate passed on a fully serialized 2-worker trace")
	}
}

func TestEmptyTrace(t *testing.T) {
	tr, err := Load(strings.NewReader(`{"traceEvents":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	rep := Analyze(tr, 0)
	if rep.TotalUS != 0 || len(rep.Phases) != 0 {
		t.Fatalf("empty trace produced %+v", rep)
	}
	if err := OverlapGate(rep); err != nil {
		t.Fatalf("OverlapGate on empty trace: %v", err)
	}
}

// TestHedgeVerdicts: the hedge line names whether the target was armed and
// how the race ended — won, lost, or failed without a verdict, which the
// coordinator's span marks by leaving out the won attribute.
func TestHedgeVerdicts(t *testing.T) {
	for _, tc := range []struct {
		attrs []obs.Attr
		want  string
	}{
		{[]obs.Attr{{Key: "armed", Val: 1}, {Key: "won", Val: 1}}, "(armed, won)"},
		{[]obs.Attr{{Key: "armed", Val: 1}, {Key: "won", Val: 0}}, "(armed, lost)"},
		{[]obs.Attr{{Key: "armed", Val: 1}}, "(armed, failed)"},
		{[]obs.Attr{{Key: "armed", Val: 0}, {Key: "won", Val: 0}}, "(lost before arming)"},
		{[]obs.Attr{{Key: "armed", Val: 0}}, "(failed before arming)"},
	} {
		hedge := obs.Span{Node: 0, Layer: "cluster", Name: "hedge", Start: 12 * time.Millisecond, Dur: 5 * time.Millisecond,
			Attrs: append([]obs.Attr{{Key: "victim", Val: 1}, {Key: "target", Val: 0}}, tc.attrs...)}
		var buf bytes.Buffer
		if err := obs.WriteChromeTraceDropped(&buf, append(fixtureSpans(), hedge), 0); err != nil {
			t.Fatal(err)
		}
		tr, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		rep := Analyze(tr, 0)
		if rep.Stragglers == nil || len(rep.Stragglers.Hedges) != 1 {
			t.Fatalf("%s: report has no hedge: %+v", tc.want, rep.Stragglers)
		}
		buf.Reset()
		WriteText(&buf, rep)
		line := "hedge: worker 0 re-ran worker 1's shard at 12.0 ms for 5.0 ms " + tc.want
		if !strings.Contains(buf.String(), line) {
			t.Errorf("text report lacks %q:\n%s", line, buf.String())
		}
	}
}

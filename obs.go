package balancesort

import (
	"io"
	"time"

	"balancesort/internal/obs"
)

// Observability facade: phase tracing, live progress, and the /metrics +
// pprof endpoint for every sort entry point. All of it is off by default —
// a zero ObsConfig creates no tracer, no goroutine, and no listener — and
// turning it on never changes what the sort computes: model parallel-I/O
// counts and output bytes are identical either way (pinned by the parity
// tests).

// Observer receives live phase events as they happen — the hook behind the
// CLI's -progress renderer. Callbacks run on the sorting goroutines and must
// be fast.
type Observer = obs.Observer

// Span is one completed, recorded phase: its layer ("sort", "disk",
// "cluster"), name, originating node (0 = this process or the cluster
// coordinator, w+1 = cluster worker w), start offset, and duration.
type Span = obs.Span

// SpanAttr is one integer-valued attribute on a Span (records moved, pass
// depth, block counts, ...).
type SpanAttr = obs.Attr

// ObsConfig turns on phase tracing and live progress for a sort.
type ObsConfig struct {
	// Trace records phase spans across all layers the sort touches: the
	// distribute/repair steps of the core sorter, the disk I/O layer's
	// retry and breaker activity, and — in cluster mode — every
	// coordinator and worker phase, merged onto one timeline. The recorded
	// Trace is returned on the Result.
	Trace bool
	// SpanCapacity bounds the span ring buffer (0 = 16384 spans). When the
	// ring overflows, the oldest spans are dropped; histogram totals still
	// count every span.
	SpanCapacity int
	// Observer, when non-nil, receives phase events live. Setting it
	// enables the tracing machinery even when Trace is false.
	Observer Observer
	// Sample, when positive, runs a background utilization sampler at this
	// interval for the duration of the sort: per-disk busy fraction,
	// device byte rates, goroutines, and heap land as Chrome counter
	// tracks in the trace and as balancesort_util gauges on Server's
	// /metrics. Setting it enables the tracing machinery even when Trace
	// is false. Sampling never changes what the sort computes (pinned by
	// the parity tests).
	Sample time.Duration
	// Server, when non-nil, exposes this sort's phase histograms and event
	// counters on the server's /metrics endpoint for the duration of the
	// sort (see StartObsServer).
	Server *ObsServer
	// ServerKey overrides the registry key the sort's tracer is published
	// under on Server ("sort" for disk sorts, "coordinator" for cluster
	// jobs). A server that runs many sorts at once — the job server — gives
	// each one a distinct key so concurrent sorts don't evict each other
	// from /metrics.
	ServerKey string
}

// tracer builds the tracer this configuration calls for — nil (free,
// structural no-op) when tracing is fully off.
func (c ObsConfig) tracer() *obs.Tracer {
	if !c.Trace && c.Observer == nil && c.Sample <= 0 {
		return nil
	}
	return obs.New(c.SpanCapacity, c.Observer)
}

// attach registers tr's histograms and counters on the configured metrics
// server, if both exist. ServerKey, when set, wins over the entry point's
// default key.
func (c ObsConfig) attach(key string, tr *obs.Tracer) {
	if c.ServerKey != "" {
		key = c.ServerKey
	}
	if c.Server != nil && tr != nil {
		c.Server.srv.SetTracer(key, tr)
	}
}

// Trace is the recorded phase timeline of one completed sort.
type Trace struct {
	tr *obs.Tracer
}

func traceFrom(tr *obs.Tracer) *Trace {
	if tr == nil {
		return nil
	}
	return &Trace{tr: tr}
}

// Spans returns the recorded spans, oldest first. In cluster mode the list
// holds coordinator and worker spans rebased onto one timeline; Span.Node
// tells them apart.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.tr.Spans()
}

// Dropped reports how many spans were lost to ring-buffer overflow.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.tr.Dropped()
}

// WriteChrome writes the timeline in Chrome trace_event JSON — load the
// file at ui.perfetto.dev or chrome://tracing. A nil Trace writes a valid
// empty trace. When the span ring overflowed, the trace carries a
// "spans_dropped" metadata event and an otherData footer announcing the
// loss.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "{\"traceEvents\":[]}\n")
		return err
	}
	return obs.WriteChromeTraceDropped(w, t.tr.Spans(), t.tr.Dropped())
}

// PhaseTotals sums the recorded span durations per "layer/name" phase —
// the quick wall-clock breakdown without loading the full trace.
func (t *Trace) PhaseTotals() map[string]time.Duration {
	if t == nil {
		return nil
	}
	out := make(map[string]time.Duration)
	for _, h := range t.tr.Hists() {
		out[h.Layer+"/"+h.Name] = h.Sum
	}
	return out
}

// ObsServer serves Prometheus text /metrics and net/http/pprof on its own
// listener and mux (http.DefaultServeMux is never touched).
type ObsServer struct {
	srv *obs.Server
}

// WrapObsServer adopts an already-built internal metrics server as the
// facade type ObsConfig.Server accepts. It exists for in-module composers
// (the job server mounts /metrics on its own API mux and still needs each
// sort's tracer registered there); external callers use StartObsServer.
func WrapObsServer(s *obs.Server) *ObsServer {
	if s == nil {
		return nil
	}
	return &ObsServer{srv: s}
}

// StartObsServer binds addr and serves /metrics and /debug/pprof/*. An
// empty addr returns (nil, nil) and opens no listener — the nil *ObsServer
// is safe to use everywhere an ObsServer is accepted.
func StartObsServer(addr string) (*ObsServer, error) {
	if addr == "" {
		return nil, nil
	}
	s := obs.NewServer()
	if err := s.Start(addr); err != nil {
		return nil, err
	}
	return &ObsServer{srv: s}, nil
}

// Addr returns the bound listen address, or "" on a nil server.
func (s *ObsServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.srv.Addr()
}

// Close stops the server and releases its listener. Safe on nil.
func (s *ObsServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// Package obs is the zero-dependency tracing and metrics layer shared by
// the sort core, the disk I/O layer, and the cluster runtime. It answers the
// question the end-of-run counters cannot: *where does the time go* inside
// a distribute pass, a matching round, or a cluster phase.
//
// The design goals, in order:
//
//   - Off means off. A nil *Tracer is a valid tracer whose every method is
//     a no-op; instrumentation sites never check for enablement. Model
//     parallel-I/O counts and sorted bytes are identical with tracing on
//     (pinned by the parity tests in the root package).
//   - Allocation-frugal when on. Spans land in a fixed-capacity ring
//     buffer under one mutex; starting a span allocates nothing (Active is
//     a value), and per-phase duration histograms use fixed log2 buckets.
//   - One timeline. Worker tracers in cluster mode ship their spans back
//     over the framed protocol; Merge rebases them onto the coordinator's
//     epoch so a single Chrome trace shows every process.
//
// Exporters live alongside: chrome.go writes Chrome trace_event JSON
// (Perfetto-loadable), prom.go writes Prometheus text exposition, and
// server.go serves /metrics plus net/http/pprof.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one integer-valued span attribute (pass number, depth, record
// count, bucket count, ...). Integer-only keeps encoding and merging
// trivial and allocation cheap.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// LayerCounter marks a Span as one sample of a utilization counter track
// (busy %, bytes/s, goroutines, ...) rather than a phase. Counter spans
// have Dur 0, carry their value as the single attribute "value", never feed
// the duration histograms, and export as Chrome "C" events.
const LayerCounter = "counter"

// Span is one completed phase. Start is an offset from the owning tracer's
// epoch (monotonic), not a wall-clock time, so spans from different
// processes can be rebased onto one timeline with a single shift.
//
// SpanID/Parent give spans within one process a causality tree; Flow marks
// the span as a cross-process flow endpoint (a coordinator→worker message
// edge) instead of a phase. All three are scoped per process: the analyzer
// keys them by (Node, SpanID), so merging worker spans needs no renumbering.
type Span struct {
	Layer   string        `json:"layer"` // "sort", "disk", "cluster", LayerCounter
	Name    string        `json:"name"`  // phase name, e.g. "distribute-pass"
	Node    int           `json:"node"`  // 0 = this process/coordinator, w+1 = cluster worker w
	ID      int           `json:"id"`    // worker/disk id within the layer
	SpanID  uint64        `json:"span_id,omitempty"`
	Parent  uint64        `json:"parent,omitempty"`   // SpanID of the enclosing span, 0 = root
	Flow    uint64        `json:"flow,omitempty"`     // non-zero: flow-event endpoint, not a phase
	FlowOut bool          `json:"flow_out,omitempty"` // true = producing side ("s"), false = consuming ("f")
	Start   time.Duration `json:"start"`              // offset from the tracer epoch
	Dur     time.Duration `json:"dur"`                // span duration
	Attrs   []Attr        `json:"attrs,omitempty"`
}

// Observer receives live phase events as they happen — the hook behind the
// CLI's -progress renderer. Callbacks run on the instrumented goroutine and
// must be fast; they are invoked only for spans and counts produced
// locally, not for spans merged in from remote tracers.
type Observer interface {
	// SpanStart fires when a phase begins.
	SpanStart(layer, name string, id int)
	// SpanEnd fires when a phase completes.
	SpanEnd(s Span)
	// Count fires on every event-counter increment (records moved,
	// retries, breaker trips, ...).
	Count(layer, name string, id int, delta int64)
}

// DefaultCapacity is the span ring size used when New is given cap <= 0.
const DefaultCapacity = 1 << 14

// HistBuckets is the number of log2 duration-histogram buckets: bucket i
// counts spans with duration <= 1µs<<i for i < HistBuckets-1, and the last
// bucket is unbounded (+Inf). 1µs<<20 ≈ 1.05s, so everything from a single
// block transfer to a full pass lands in a meaningful bucket.
const HistBuckets = 22

// HistBound returns the upper bound of histogram bucket i; the last bucket
// has no bound and returns a negative sentinel.
func HistBound(i int) time.Duration {
	if i >= HistBuckets-1 {
		return -1
	}
	return time.Microsecond << i
}

// HistSnapshot is one (layer, phase) duration histogram.
type HistSnapshot struct {
	Layer  string
	Name   string
	Counts [HistBuckets]int64
	Sum    time.Duration
	N      int64
}

// CountSnapshot is one (layer, event) counter value.
type CountSnapshot struct {
	Layer string
	Name  string
	Val   int64
}

type statKey struct {
	layer, name string
}

type hist struct {
	counts [HistBuckets]int64
	sum    time.Duration
	n      int64
}

func (h *hist) observe(d time.Duration) {
	i := 0
	for i < HistBuckets-1 && d > time.Microsecond<<i {
		i++
	}
	h.counts[i]++
	h.sum += d
	h.n++
}

// Tracer records spans and counters. The nil tracer is valid and free:
// every method on a nil receiver is a no-op, which is how "off by default"
// is made structural rather than checked at each call site.
type Tracer struct {
	epoch time.Time
	obs   Observer
	seq   atomic.Uint64 // span-ID allocator, scoped to this process
	res   atomic.Pointer[resSource]

	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	dropped int64
	hists   map[statKey]*hist
	counts  map[statKey]int64
}

// New creates a tracer with the given span-ring capacity (DefaultCapacity
// when cap <= 0) and an optional live observer.
func New(capacity int, o Observer) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{
		epoch:  time.Now(),
		obs:    o,
		buf:    make([]Span, 0, capacity),
		hists:  make(map[statKey]*hist),
		counts: make(map[statKey]int64),
	}
}

// Epoch returns the tracer's time origin. Span.Start offsets are relative
// to it; cluster trace collection ships it so worker spans can be rebased.
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Active is an in-flight span. It is a value, so Begin/End allocates
// nothing until the span is recorded into the ring (resource attribution,
// when enabled, allocates its baseline snapshot).
type Active struct {
	t      *Tracer
	layer  string
	name   string
	id     int
	spanID uint64
	parent uint64
	start  time.Duration
	base   []Attr // resource-source snapshot at Begin; nil when attribution is off
}

// resSource pairs the cumulative snapshot function with the set of span
// layers it attributes; nil layers means every layer.
type resSource struct {
	fn     func() []Attr
	layers map[string]bool
}

func (r *resSource) covers(layer string) bool {
	return r.layers == nil || r.layers[layer]
}

// SetResourceSource installs a cumulative resource snapshot function. When
// set, every Begin snapshots fn() and every End appends the key-wise deltas
// (zero deltas elided) to the span's attributes — so each phase carries the
// bytes, I/Os, frames, and allocations it was responsible for. fn must be
// safe for concurrent use and should return keys in a stable order.
//
// The optional layers restrict attribution to spans of those layers; with
// none given every span is attributed. High-frequency micro-spans (the
// per-flush "disk" layer emits tens of thousands per sort) make two
// snapshots each, so callers attribute the coarse phase layers ("sort",
// "cluster") and leave the micro layers bare.
//
// Nil fn removes the source. No-op on a nil tracer.
func (t *Tracer) SetResourceSource(fn func() []Attr, layers ...string) {
	if t == nil {
		return
	}
	if fn == nil {
		t.res.Store(nil)
		return
	}
	src := &resSource{fn: fn}
	if len(layers) > 0 {
		src.layers = make(map[string]bool, len(layers))
		for _, l := range layers {
			src.layers[l] = true
		}
	}
	t.res.Store(src)
}

// Begin starts a root span. On a nil tracer it returns an inert Active
// whose End is a no-op.
func (t *Tracer) Begin(layer, name string, id int) Active {
	return t.begin(layer, name, id, 0)
}

func (t *Tracer) begin(layer, name string, id int, parent uint64) Active {
	if t == nil {
		return Active{}
	}
	if t.obs != nil {
		t.obs.SpanStart(layer, name, id)
	}
	a := Active{
		t:      t,
		layer:  layer,
		name:   name,
		id:     id,
		spanID: t.seq.Add(1),
		parent: parent,
		start:  time.Since(t.epoch),
	}
	if src := t.res.Load(); src != nil && src.covers(layer) {
		a.base = src.fn()
	}
	return a
}

// Child starts a span parented under a. On an inert Active (nil tracer)
// the child is inert too.
func (a Active) Child(layer, name string, id int) Active {
	if a.t == nil {
		return Active{}
	}
	return a.t.begin(layer, name, id, a.spanID)
}

// SpanID returns the span's process-scoped ID (0 for an inert Active).
func (a Active) SpanID() uint64 { return a.spanID }

// End completes the span, attaching the given attributes plus — when a
// resource source is installed — the resource deltas since Begin.
func (a Active) End(attrs ...Attr) {
	if a.t == nil {
		return
	}
	if a.base != nil {
		if src := a.t.res.Load(); src != nil {
			attrs = appendResourceDeltas(attrs, a.base, src.fn())
		}
	}
	s := Span{
		Layer:  a.layer,
		Name:   a.name,
		ID:     a.id,
		SpanID: a.spanID,
		Parent: a.parent,
		Start:  a.start,
		Dur:    time.Since(a.t.epoch) - a.start,
		Attrs:  attrs,
	}
	a.t.record(s)
	if a.t.obs != nil {
		a.t.obs.SpanEnd(s)
	}
}

// appendResourceDeltas appends cur-base per key, matching positionally when
// the source returns a stable layout (the cheap, common case) and falling
// back to a key lookup when it does not. Zero deltas are elided.
func appendResourceDeltas(attrs, base, cur []Attr) []Attr {
	for i, c := range cur {
		var b int64
		var found bool
		if i < len(base) && base[i].Key == c.Key {
			b, found = base[i].Val, true
		} else {
			for _, ba := range base {
				if ba.Key == c.Key {
					b, found = ba.Val, true
					break
				}
			}
		}
		d := c.Val
		if found {
			d = c.Val - b
		}
		if d != 0 {
			attrs = append(attrs, Attr{Key: c.Key, Val: d})
		}
	}
	return attrs
}

// FlowPoint records one endpoint of a cross-process flow edge: the
// producing side (out=true, a coordinator handing work to a worker) or the
// consuming side (out=false, the worker picking it up). Both sides must
// derive the same flow ID (see FlowID) for the viewer and analyzer to
// connect them. Flow points are instants: Dur 0, no histogram entry.
func (t *Tracer) FlowPoint(layer, name string, id int, flow uint64, out bool) {
	if t == nil || flow == 0 {
		return
	}
	t.record(Span{
		Layer:   layer,
		Name:    name,
		ID:      id,
		SpanID:  t.seq.Add(1),
		Flow:    flow,
		FlowOut: out,
		Start:   time.Since(t.epoch),
	})
}

// FlowID derives a deterministic non-zero flow identifier from the given
// parts (FNV-1a). Coordinator and worker compute it independently from the
// same (phase, epoch, worker) tuple, so no IDs cross the wire.
func FlowID(parts ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime64
		}
		h ^= 0xff // part separator so ("ab","c") != ("a","bc")
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Sample records one utilization counter-track sample (LayerCounter span
// with the value as its single attribute). Samples land in the span ring
// and export as Chrome "C" counter events, but never touch the duration
// histograms or the live Observer.
func (t *Tracer) Sample(name string, val int64) {
	if t == nil {
		return
	}
	t.record(Span{
		Layer:  LayerCounter,
		Name:   name,
		SpanID: t.seq.Add(1),
		Start:  time.Since(t.epoch),
		Attrs:  []Attr{{Key: "value", Val: val}},
	})
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, s)
	} else {
		t.buf[t.next] = s
		t.next = (t.next + 1) % cap(t.buf)
		t.full = true
		t.dropped++
	}
	// Counter samples and flow instants are not phases: keep them out of
	// the duration histograms.
	if s.Layer != LayerCounter && s.Flow == 0 {
		k := statKey{s.Layer, s.Name}
		h := t.hists[k]
		if h == nil {
			h = &hist{}
			t.hists[k] = h
		}
		h.observe(s.Dur)
	}
	t.mu.Unlock()
}

// Count adds delta to the (layer, name) event counter.
func (t *Tracer) Count(layer, name string, id int, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[statKey{layer, name}] += delta
	t.mu.Unlock()
	if t.obs != nil {
		t.obs.Count(layer, name, id, delta)
	}
}

// Spans returns the recorded spans, oldest first. When the ring
// overflowed, the oldest spans are gone (see Dropped).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.buf))
	if t.full {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Dropped reports how many spans were overwritten by ring wraparound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Merge records spans from another tracer (typically a cluster worker),
// rebasing each Start by shift onto this tracer's epoch and stamping Node.
// Merged spans feed the phase histograms but not the live Observer.
func (t *Tracer) Merge(spans []Span, shift time.Duration, node int) {
	if t == nil {
		return
	}
	for _, s := range spans {
		s.Start += shift
		s.Node = node
		t.record(s)
	}
}

// Hists returns the per-(layer, phase) duration histograms, ordered by
// layer then name for deterministic output.
func (t *Tracer) Hists() []HistSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]HistSnapshot, 0, len(t.hists))
	for k, h := range t.hists {
		out = append(out, HistSnapshot{Layer: k.layer, Name: k.name, Counts: h.counts, Sum: h.sum, N: h.n})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Counts returns the event counters, ordered by layer then name.
func (t *Tracer) Counts() []CountSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]CountSnapshot, 0, len(t.counts))
	for k, v := range t.counts {
		out = append(out, CountSnapshot{Layer: k.layer, Name: k.name, Val: v})
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

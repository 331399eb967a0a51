package obs

import (
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"
	"time"
)

// GaugeKind says how a Gauge's raw reading becomes the recorded sample.
type GaugeKind int

const (
	// GaugeInstant records Fn() as-is (goroutines, heap size).
	GaugeInstant GaugeKind = iota
	// GaugeRate treats Fn() as a cumulative total and records the delta
	// per second since the previous tick (bytes → bytes/s).
	GaugeRate
	// GaugeBusyPct treats Fn() as cumulative busy nanoseconds and records
	// the busy percentage of the sampling interval, clamped to [0, 100].
	GaugeBusyPct
)

// Gauge is one sampled utilization signal: a named counter track fed by a
// cheap, concurrency-safe reading function.
type Gauge struct {
	Name string // counter-track name, e.g. "disk0.queue" or "heap.mb"
	Kind GaugeKind
	Fn   func() int64
}

// Sampler periodically reads a set of gauges and records each as a counter
// sample on the tracer — the utilization timeline that makes idle disks and
// barrier stalls visible as flat lines in the Chrome trace. It also caches
// the latest values so Metrics can serve them as Prometheus gauges without
// touching the (possibly already-closed) instrumented component.
type Sampler struct {
	t        *Tracer
	interval time.Duration
	gauges   []Gauge
	prev     []int64

	mu   sync.Mutex
	last []int64

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartSampler begins sampling the gauges every interval, recording onto t.
// Returns nil (on which Stop and Metrics are safe no-ops) when t is nil,
// interval <= 0, or there is nothing to sample.
func StartSampler(t *Tracer, interval time.Duration, gauges []Gauge) *Sampler {
	if t == nil || interval <= 0 || len(gauges) == 0 {
		return nil
	}
	s := &Sampler{
		t:        t,
		interval: interval,
		gauges:   gauges,
		prev:     make([]int64, len(gauges)),
		last:     make([]int64, len(gauges)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, g := range gauges {
		if g.Kind != GaugeInstant {
			s.prev[i] = g.Fn()
		}
	}
	go s.run()
	return s
}

func (s *Sampler) run() {
	defer close(s.done)
	tick := time.NewTicker(s.interval)
	defer tick.Stop()
	lastT := time.Now()
	for {
		select {
		case <-s.stop:
			return
		case now := <-tick.C:
			elapsed := now.Sub(lastT)
			lastT = now
			if elapsed <= 0 {
				continue
			}
			s.sampleOnce(elapsed)
		}
	}
}

func (s *Sampler) sampleOnce(elapsed time.Duration) {
	for i, g := range s.gauges {
		cur := g.Fn()
		var v int64
		switch g.Kind {
		case GaugeRate:
			v = int64(float64(cur-s.prev[i]) / elapsed.Seconds())
		case GaugeBusyPct:
			v = (cur - s.prev[i]) * 100 / elapsed.Nanoseconds()
			if v < 0 {
				v = 0
			} else if v > 100 {
				v = 100
			}
		default:
			v = cur
		}
		s.prev[i] = cur
		s.t.Sample(g.Name, v)
		s.mu.Lock()
		s.last[i] = v
		s.mu.Unlock()
	}
}

// Stop halts the sampling goroutine and waits for it to exit. Safe on nil
// and safe to call more than once.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
}

// Metrics serves the latest sampled values as one Prometheus gauge family,
// balancesort_util{track=...}. It reads the cache, not the gauges, so it is
// safe after Stop. Usable as a Source; safe on nil.
func (s *Sampler) Metrics() []Metric {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	vals := append([]int64(nil), s.last...)
	s.mu.Unlock()
	ms := make([]Metric, 0, len(vals))
	for i, g := range s.gauges {
		ms = append(ms, Metric{
			Name:   "balancesort_util",
			Type:   "gauge",
			Help:   "Sampled utilization by track (busy %, bytes/s, goroutines, ...).",
			Labels: []Label{{"track", g.Name}},
			Value:  float64(vals[i]),
		})
	}
	return ms
}

// heapSample reads the live heap size via runtime/metrics — unlike
// runtime.ReadMemStats this takes no stop-the-world, so it is cheap enough
// for a tight sampling interval.
var heapSample = []runtimemetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// RuntimeGauges returns the process-wide gauges every sampler should carry:
// goroutine count and heap megabytes.
func RuntimeGauges() []Gauge {
	var mu sync.Mutex
	samples := append([]runtimemetrics.Sample(nil), heapSample...)
	return []Gauge{
		{Name: "go.goroutines", Kind: GaugeInstant, Fn: func() int64 {
			return int64(runtime.NumGoroutine())
		}},
		{Name: "go.heap_mb", Kind: GaugeInstant, Fn: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			runtimemetrics.Read(samples)
			return int64(samples[0].Value.Uint64() >> 20)
		}},
	}
}

// AllocAttrs returns cumulative allocation counters as span attributes —
// the allocation half of a resource source. Each call reads into its own
// sample slice (runtimemetrics.Read is not safe on a shared one).
func AllocAttrs() []Attr {
	samples := []runtimemetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	runtimemetrics.Read(samples)
	return []Attr{
		{Key: "alloc.bytes", Val: int64(samples[0].Value.Uint64())},
		{Key: "alloc.objects", Val: int64(samples[1].Value.Uint64())},
	}
}

package cluster

import (
	"strconv"
	"sync/atomic"

	"balancesort/internal/obs"
)

// netMeter counts the frames and wire bytes one process moves over its
// cluster connections (control, peer block, and handshake traffic;
// heartbeats are excluded as constant-rate noise). Byte counts include the
// frame overhead, so they reflect what actually crossed the socket. A nil
// meter is a no-op, so un-instrumented paths cost nothing.
type netMeter struct {
	framesOut, bytesOut atomic.Int64
	framesIn, bytesIn   atomic.Int64
}

func (m *netMeter) out(payloadLen int) {
	if m == nil {
		return
	}
	m.framesOut.Add(1)
	m.bytesOut.Add(int64(payloadLen + frameOverhead))
}

func (m *netMeter) in(payloadLen int) {
	if m == nil {
		return
	}
	m.framesIn.Add(1)
	m.bytesIn.Add(int64(payloadLen + frameOverhead))
}

// attrs snapshots the counters as span attributes; a tracer resource
// source diffs two snapshots to attribute network traffic to one span.
func (m *netMeter) attrs() []obs.Attr {
	if m == nil {
		return nil
	}
	return []obs.Attr{
		{Key: "net.bytes_out", Val: m.bytesOut.Load()},
		{Key: "net.frames_out", Val: m.framesOut.Load()},
		{Key: "net.bytes_in", Val: m.bytesIn.Load()},
		{Key: "net.frames_in", Val: m.framesIn.Load()},
	}
}

// resourceSource is the span-attribution hook for a cluster process:
// network counters plus cumulative allocation totals.
func (m *netMeter) resourceSource() func() []obs.Attr {
	return func() []obs.Attr { return append(m.attrs(), obs.AllocAttrs()...) }
}

// gauges are the meter's utilization-sampler tracks: inbound and outbound
// wire throughput in bytes per second.
func (m *netMeter) gauges() []obs.Gauge {
	return []obs.Gauge{
		{Name: "net.in_bps", Kind: obs.GaugeRate, Fn: m.bytesIn.Load},
		{Name: "net.out_bps", Kind: obs.GaugeRate, Fn: m.bytesOut.Load},
	}
}

// flowID derives the causality id both ends of a coordinator->worker phase
// edge compute independently from (phase, epoch, worker) — no id crosses
// the wire, yet the two flow points bind in the merged trace.
func flowID(phase string, epoch uint32, worker int) uint64 {
	return obs.FlowID(phase, strconv.FormatUint(uint64(epoch), 10), strconv.Itoa(worker))
}

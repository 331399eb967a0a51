package balancesort

import (
	"strconv"

	"balancesort/internal/diskio"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
)

// Resource attribution and utilization sampling for file-backed sorts.
// startSortObs is called once the scratch array exists: it installs the
// tracer's resource source (so every span carries the byte, I/O, and
// allocation deltas it was responsible for) and, when ObsConfig.Sample is
// set, starts the background utilization sampler. The returned stop
// function halts the sampler and detaches the source; callers defer it
// before the array's own Close so the gauges never read closed drives.

func startSortObs(cfg Config, arr *pdm.Array) func() {
	tr := cfg.tracer
	if tr == nil {
		return func() {}
	}
	if arr != nil {
		tr.SetResourceSource(arrayResourceAttrs(arr), "sort")
	}
	smp := obs.StartSampler(tr, cfg.Obs.Sample, arrayGauges(arr))
	if smp != nil && cfg.Obs.Server != nil {
		key := "sort"
		if cfg.Obs.ServerKey != "" {
			key = cfg.Obs.ServerKey
		}
		cfg.Obs.Server.srv.SetSource(key+"/util", smp.Metrics)
	}
	return func() {
		smp.Stop()
		tr.SetResourceSource(nil)
	}
}

// arrayResourceAttrs builds the cumulative-counter snapshot function span
// attribution diffs: aggregate and per-disk device bytes, device transfer
// counts, model parallel I/Os and block counts (records moved is blocks ×
// B), and heap allocation totals. Zero deltas are elided per span, so a
// phase that moved nothing stays as small as before.
func arrayResourceAttrs(arr *pdm.Array) func() []obs.Attr {
	b := int64(arr.Params().B)
	// Key strings are built once: the source runs twice per attributed
	// span, so per-call strconv concatenation would be pure GC churn.
	rdKey := make([]string, arr.Params().D)
	wrKey := make([]string, arr.Params().D)
	for i := range rdKey {
		rdKey[i] = "disk" + strconv.Itoa(i) + ".rd_bytes"
		wrKey[i] = "disk" + strconv.Itoa(i) + ".wr_bytes"
	}
	return func() []obs.Attr {
		attrs := make([]obs.Attr, 0, 12+2*arr.Params().D)
		if snap := arr.IOMetrics(); snap != nil {
			var agg diskio.DiskStats
			for i := range snap.PerDisk {
				agg.Add(snap.PerDisk[i])
			}
			attrs = append(attrs,
				obs.Attr{Key: "io.bytes_read", Val: agg.BytesRead},
				obs.Attr{Key: "io.bytes_written", Val: agg.BytesWritten},
				obs.Attr{Key: "io.dev_reads", Val: agg.Reads},
				obs.Attr{Key: "io.dev_writes", Val: agg.Writes},
			)
			for i := range snap.PerDisk {
				d := &snap.PerDisk[i]
				attrs = append(attrs,
					obs.Attr{Key: rdKey[i], Val: d.BytesRead},
					obs.Attr{Key: wrKey[i], Val: d.BytesWritten},
				)
			}
		}
		ios, br, bw := arr.IOCounts()
		attrs = append(attrs,
			obs.Attr{Key: "model.ios", Val: ios},
			obs.Attr{Key: "model.blocks_read", Val: br},
			obs.Attr{Key: "model.blocks_written", Val: bw},
			obs.Attr{Key: "recs.moved", Val: (br + bw) * b},
		)
		return append(attrs, obs.AllocAttrs()...)
	}
}

// arrayGauges builds the utilization gauge set: per-disk busy fraction,
// aggregate device byte rates, plus the process-wide runtime gauges. With
// no scratch array only the runtime gauges remain.
func arrayGauges(arr *pdm.Array) []obs.Gauge {
	gs := obs.RuntimeGauges()
	if arr == nil || arr.IOMetrics() == nil {
		return gs
	}
	for i := 0; i < arr.Params().D; i++ {
		gs = append(gs, obs.Gauge{Name: "disk" + strconv.Itoa(i) + ".busy_pct", Kind: obs.GaugeBusyPct, Fn: func() int64 {
			return arr.IOMetrics().PerDisk[i].BusyNanos
		}})
	}
	return append(gs,
		obs.Gauge{Name: "io.read_bps", Kind: obs.GaugeRate, Fn: func() int64 {
			return arr.IOMetrics().Aggregate().BytesRead
		}},
		obs.Gauge{Name: "io.write_bps", Kind: obs.GaugeRate, Fn: func() int64 {
			return arr.IOMetrics().Aggregate().BytesWritten
		}},
	)
}

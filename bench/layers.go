package main

import (
	"sort"
	"time"

	"balancesort"
	"balancesort/internal/obs"
	"balancesort/internal/pram"
	"balancesort/internal/record"
)

// spanKey names a phase: its layer and name, and whether it ran on the
// coordinating process (node 0) or on a cluster worker.
type spanKey struct {
	worker bool
	layer  string
	name   string
}

// spanTable is a trace reduced to per-phase self and total times plus the
// resource deltas of the root spans.
type spanTable struct {
	self  map[spanKey]time.Duration
	total map[spanKey]time.Duration
	max   map[spanKey]time.Duration
	// rootAttrs sums each attribute over spans with no parent, per layer:
	// root phases run one after another, so their deltas add up without
	// counting a child's share twice.
	rootAttrs map[string]map[string]int64
}

// tabulate computes self times from the SpanID/Parent tree: a span's self
// time is its duration minus the part of it its children cover. Counter
// samples and flow points are not phases and are skipped.
func tabulate(spans []balancesort.Span) spanTable {
	t := spanTable{
		self:      map[spanKey]time.Duration{},
		total:     map[spanKey]time.Duration{},
		max:       map[spanKey]time.Duration{},
		rootAttrs: map[string]map[string]int64{},
	}
	type id struct {
		node int
		span uint64
	}
	children := map[id][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 && s.Flow == 0 && s.Layer != obs.LayerCounter {
			p := id{s.Node, s.Parent}
			children[p] = append(children[p], [2]time.Duration{s.Start, s.Start + s.Dur})
		}
	}
	for _, s := range spans {
		if s.Flow != 0 || s.Layer == obs.LayerCounter {
			continue
		}
		k := spanKey{worker: s.Node != 0, layer: s.Layer, name: s.Name}
		covered := time.Duration(0)
		if s.SpanID != 0 {
			covered = unionWithin(children[id{s.Node, s.SpanID}], s.Start, s.Start+s.Dur)
		}
		t.self[k] += s.Dur - covered
		t.total[k] += s.Dur
		if s.Dur > t.max[k] {
			t.max[k] = s.Dur
		}
		if s.Parent == 0 {
			m := t.rootAttrs[s.Layer]
			if m == nil {
				m = map[string]int64{}
				t.rootAttrs[s.Layer] = m
			}
			for _, a := range s.Attrs {
				m[a.Key] += a.Val
			}
		}
	}
	return t
}

// unionWithin is the length of [lo, hi] covered by the union of iv.
func unionWithin(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// secs sums self (or total) seconds of the named phases across both roles.
func secs(m map[spanKey]time.Duration, worker bool, layer string, names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += m[spanKey{worker: worker, layer: layer, name: n}]
	}
	return d.Seconds()
}

// sortLayers fills the core, balance, guidesort, pdm and diskio-flush
// metrics from the sort-layer spans of one traced sort of n records. With
// worker set the spans are cluster workers' shard sorts.
func sortLayers(r *result, t spanTable, worker bool, n int) {
	v := r.Values
	v["core.run_formation_s"] = secs(t.self, worker, "sort", "run-formation")
	v["core.partition_elements_s"] = secs(t.self, worker, "sort", "partition-elements")
	v["core.distribute_tracks_s"] = secs(t.self, worker, "sort", "distribute-tracks")
	v["core.distribute_self_s"] = secs(t.self, worker, "sort", "distribute-pass")
	v["core.base_case_s"] = secs(t.self, worker, "sort", "base-case")
	// repair-rearrange is recorded as a root span, not as a child of the
	// distribute-tracks span it runs inside, so its time is also part of
	// core.distribute_tracks_s.
	v["balance.repair_s"] = secs(t.total, worker, "sort", "repair-rearrange")
	v["guidesort.run_formation_s"] = secs(t.self, worker, "sort", "guide-run-formation")
	v["guidesort.merge_s"] = secs(t.self, worker, "sort", "striped-merge", "guided-merge")
	v["guidesort.guide_build_s"] = secs(t.self, worker, "sort", "guide-build")
	v["diskio.flush_s"] = secs(t.total, worker, "disk", "flush")
	if n > 0 {
		a := t.rootAttrs["sort"]
		v["pdm.blocks_moved_per_rec"] = float64(a["model.blocks_read"]+a["model.blocks_written"]) / float64(n)
	}
}

// sortResultLayers fills the metrics a file sort's Result carries.
func sortResultLayers(r *result, res *balancesort.Result, n int) {
	v := r.Values
	if res.Engine == string(balancesort.EngineBalanceSort) {
		v["core.passes"] = float64(res.Passes)
		v["core.max_bucket_read_ratio"] = res.MaxBucketReadRatio
	}
	v["pdm.model_ios"] = float64(res.IOs)
	if res.IOLowerBound > 0 {
		v["pdm.io_ratio"] = float64(res.IOs) / res.IOLowerBound
	}
	if res.IO == nil {
		return
	}
	a := res.IO.Aggregate()
	v["diskio.dev_bytes_per_rec"] = float64(a.BytesRead+a.BytesWritten) / float64(n)
	v["diskio.busy_s"] = float64(a.BusyNanos) / 1e9
	if a.PrefetchIssued > 0 {
		v["diskio.prefetch_hit_ratio"] = float64(a.PrefetchHits) / float64(a.PrefetchIssued)
	}
	if a.Writes > 0 {
		v["diskio.blocks_per_write"] = float64(a.Writes+a.CoalescedBlocks) / float64(a.Writes)
	}
	v["diskio.queue_max"] = float64(a.QueueMax)
	v["diskio.retries"] = float64(a.Retries)
}

// microLayers times the two kernels every workload leans on: the PRAM
// radix sort of one m-record memoryload, repeated for at least a second,
// and the record codec round trip of 1Mi records.
func microLayers(r *result, m int, quick bool) {
	budget, codecN := time.Second, 1<<20
	if quick {
		budget, codecN = 50*time.Millisecond, 1<<14
	}
	load := record.Generate(record.Uniform, m, 7)
	buf := make([]record.Record, m)
	cpu := pram.New(1)
	var sorted int
	var spent time.Duration
	for spent < budget {
		copy(buf, load)
		t0 := time.Now()
		cpu.SortRadix(buf)
		spent += time.Since(t0)
		sorted += m
	}
	r.Values["pram.radix_mrec_s"] = float64(sorted) / 1e6 / spent.Seconds()

	recs := record.Generate(record.Uniform, codecN, 8)
	var rounds []float64
	for start := time.Now(); len(rounds) < 3 || time.Since(start) < budget/2; {
		t0 := time.Now()
		if _, err := record.DecodeSlice(record.EncodeSlice(recs)); err != nil {
			panic(err) // EncodeSlice always yields whole records
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	r.Values["record.codec_mrec_s"] = float64(codecN) / 1e6 / summarize(rounds).Median
}

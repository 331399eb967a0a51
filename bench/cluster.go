package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"balancesort"
	"balancesort/internal/analyze"
)

// clusterSort is the cluster-2w workload: ClusterSortFile over two
// in-process ServeWorkers on loopback TCP. A traced run also sorts the
// same input on a 1-worker cluster, the scaling base.
type clusterSort struct {
	n, quickN int
}

func (c clusterSort) size(quick bool) int {
	if quick {
		return c.quickN
	}
	return c.n
}

// workerSort is each worker's shard-sort configuration: D=8 B=64 M=64Ki
// with the I/O engine on and the engine left to the planner.
func workerSort() balancesort.Config {
	cfg := balancesort.Config{Disks: 8, BlockSize: 64, Memory: 1 << 16}
	cfg.IO.Engine = true
	return cfg
}

// cluster is a set of running in-process workers.
type cluster struct {
	addrs  []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startCluster serves width workers on loopback, each with scratch space
// under dir. observe, when non-nil, gives worker i's shard sorts an
// Observer.
func startCluster(dir string, width int, observe func(i int) balancesort.Observer) (*cluster, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{cancel: cancel}
	for i := 0; i < width; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		scratch := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		if err := os.MkdirAll(scratch, 0o755); err != nil {
			ln.Close()
			c.stop()
			return nil, err
		}
		opt := balancesort.WorkerOptions{ScratchDir: scratch, Sort: workerSort()}
		if observe != nil {
			opt.Sort.Obs.Observer = observe(i)
		}
		c.addrs = append(c.addrs, ln.Addr().String())
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = balancesort.ServeWorker(ctx, ln, opt) // returns ctx's error once stopped
		}()
	}
	return c, nil
}

// stop shuts every worker down and waits for them.
func (c *cluster) stop() {
	c.cancel()
	c.wg.Wait()
}

// sort runs one cluster sort. A worker still tearing down its previous
// job's session refuses the next one as busy; such refusals are retried
// and counted, not failed.
func (c *cluster) sort(in, out string, cc balancesort.ClusterConfig) (res *balancesort.ClusterResult, busy int, err error) {
	cc.Workers = c.addrs
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for {
		res, err = balancesort.ClusterSortFile(ctx, in, out, cc)
		if err == nil || !strings.Contains(err.Error(), "busy") || busy >= 200 {
			return res, busy, err
		}
		busy++
		time.Sleep(5 * time.Millisecond)
	}
}

func (c clusterSort) setup(spec setupSpec) error {
	cl, err := startCluster(spec.Dir, 2, nil)
	if err != nil {
		return err
	}
	defer cl.stop()
	_, _, err = cl.sort(spec.In, spec.Out, balancesort.ClusterConfig{})
	return err
}

func (c clusterSort) run(rc runConfig, r *result) error {
	n := c.size(rc.Quick)
	cr := &clusterRun{rc: rc, r: r, n: n, in: filepath.Join(rc.Work, "in.bin"), out: filepath.Join(rc.Work, "out.bin")}
	var err error
	if cr.want, err = writeInput(cr.in, balancesort.Uniform, n, rc.Seed); err != nil {
		return err
	}
	if err := r.timeSetups(rc, cr.in, cr.want); err != nil {
		return err
	}
	two, err := startCluster(filepath.Join(rc.Work, "two"), 2, nil)
	if err != nil {
		return err
	}
	defer two.stop()
	ref, err := newRefKernel(rc.Quick)
	if err != nil {
		return err
	}
	defer ref.close()

	cr.op(two, balancesort.ClusterConfig{}) // the cold run
	var w window
	heap := startHeapSampler()
	w.measure(rc.Seconds, rc.minReps(), ref, func() {
		if _, cost, ok := cr.op(two, balancesort.ClusterConfig{}); ok {
			w.add(cost)
		}
	})
	peak := heap.Stop()
	if len(w.walls) == 0 {
		return fmt.Errorf("no measured cluster sort succeeded")
	}
	r.opMetrics(n, w, peak)
	if rc.Trace {
		if err := cr.scaling(two); err != nil {
			return err
		}
		if err := cr.traced(ref); err != nil {
			return err
		}
	}
	r.Values["cluster.busy_retries"] = float64(cr.busy)
	return nil
}

// clusterRun is one run of the cluster workload: its input, oracle and
// op accounting.
type clusterRun struct {
	rc      runConfig
	r       *result
	n       int
	in, out string
	want    [32]byte
	busy    int // busy refusals retried, over the whole run
}

// op runs and checks one cluster sort on cl.
func (cr *clusterRun) op(cl *cluster, cc balancesort.ClusterConfig) (res *balancesort.ClusterResult, cost opSample, ok bool) {
	var busy int
	var err error
	cost = timed(func() { res, busy, err = cl.sort(cr.in, cr.out, cc) })
	cr.busy += busy
	return res, cost, cr.r.verifyFile("cluster sort", err, cr.out, cr.want)
}

// scaling alternates sorts on a fresh 1-worker cluster and on two, one
// cold pair and then minReps measured pairs, for the 2-worker cluster's
// speed-up and parallel efficiency. Alternating keeps host drift out of
// the ratios; the measured window runs 2-worker sorts only, so that it
// holds twice as many of them.
func (cr *clusterRun) scaling(two *cluster) error {
	one, err := startCluster(filepath.Join(cr.rc.Work, "one"), 1, nil)
	if err != nil {
		return err
	}
	defer one.stop()
	cr.op(one, balancesort.ClusterConfig{})
	var w1, w2 window
	for i := 0; i < cr.rc.minReps(); i++ {
		_, c1, ok1 := cr.op(one, balancesort.ClusterConfig{})
		_, c2, ok2 := cr.op(two, balancesort.ClusterConfig{})
		if ok1 && ok2 {
			w1.add(c1)
			w2.add(c2)
		}
	}
	if len(w1.walls) == 0 {
		return fmt.Errorf("no cluster pair succeeded")
	}
	cr.r.Values["cluster.speedup_2w"] = summarize(w1.walls).Median / summarize(w2.walls).Median
	cr.r.Values["cluster.parallel_eff"] = summarize(w1.cpus).Median / summarize(w2.cpus).Median
	return nil
}

// traced runs one traced 2-worker sort on a fresh cluster whose workers
// observe their shard sorts, after one untraced warm-up on it.
func (cr *clusterRun) traced(ref *refKernel) error {
	cols := []*collector{{node: 1}, {node: 2}}
	cl, err := startCluster(filepath.Join(cr.rc.Work, "traced"), 2, func(i int) balancesort.Observer { return cols[i] })
	if err != nil {
		return err
	}
	defer cl.stop()
	cr.op(cl, balancesort.ClusterConfig{})
	for _, col := range cols {
		col.take()
	}
	res, traced, ok := cr.op(cl, balancesort.ClusterConfig{Obs: balancesort.ObsConfig{Trace: true, SpanCapacity: 1 << 15}})
	if !ok {
		return fmt.Errorf("traced cluster sort failed")
	}
	cr.r.traceOverhead(traced, ref)
	chrome, err := saveTrace(cr.rc, res.Trace)
	if err != nil {
		return err
	}
	t := tabulate(res.Trace.Spans())
	v := cr.r.Values
	for _, phase := range []string{"scatter", "histogram-merge", "plan", "exchange", "gather", "local-sort", "drain"} {
		v["cluster."+strings.ReplaceAll(phase, "-", "_")+"_s"] = secs(t.self, false, "cluster", phase)
	}
	v["cluster.serial_frac"] = secs(t.total, false, "cluster", "histogram-merge", "plan", "drain") / traced.wall
	v["cluster.shard_sort_max_s"] = t.max[spanKey{worker: true, layer: "cluster", name: "shard-sort"}].Seconds()
	v["cluster.wire_bytes_per_rec"] = float64(t.rootAttrs["cluster"]["net.bytes_out"]) / float64(cr.n)
	most, sum := 0, 0
	for _, g := range res.GatherRecords {
		most, sum = max(most, g), sum+g
	}
	if sum > 0 {
		v["cluster.shard_imbalance"] = float64(most) * float64(len(res.GatherRecords)) / float64(sum)
	}
	tr, err := analyze.Load(bytes.NewReader(chrome))
	if err != nil {
		return err
	}
	for _, p := range analyze.Analyze(tr, 0).Phases {
		if p.Name == "local-sort" {
			v["cluster.local_sort_overlap_pct"] = p.OverlapPct
		}
	}
	var spans []balancesort.Span
	for _, col := range cols {
		spans = append(spans, col.take()...)
	}
	shards := tabulate(spans)
	sortLayers(cr.r, shards, true, cr.n)
	v["pdm.model_ios"] = float64(shards.rootAttrs["sort"]["model.ios"])
	v["obs.spans_dropped"] = float64(res.Trace.Dropped())
	microLayers(cr.r, workerSort().Memory, cr.rc.Quick)
	return nil
}

package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"balancesort"
	"balancesort/internal/record"
)

// runConfig is one invocation's measurement request.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64 // measured window
	Trace    bool    // also take the per-layer numbers from a traced repetition
	Quick    bool    // toy sizes, for the smoke test
	Work     string  // scratch directory of this run, removed afterwards
	OutDir   string  // where traced runs leave their Chrome traces
}

// setups is how many fresh-process set-ups a run times; minReps is the
// fewest measured repetitions of a one-op workload.
func (rc runConfig) setups() int {
	if rc.Quick {
		return 1
	}
	return 3
}

func (rc runConfig) minReps() int {
	if rc.Quick {
		return 2
	}
	return 5
}

// result collects what a workload run measured: the op accounting, every
// reported metric's value, and the samples behind the end-to-end ones.
type result struct {
	Attempted int
	Failed    int
	Values    map[string]float64
	Samples   map[string][]float64
	Summary   string // the raw per-op costs, for people reading the table
}

func newResult() *result {
	return &result{Values: map[string]float64{}, Samples: map[string][]float64{}}
}

// count counts one attempted op, failed when err is non-nil.
func (r *result) count(what string, err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", what, err)
	return false
}

// verify counts one attempted op whose output hashes to got: it failed
// when it returned an error or its output differs from the oracle.
func (r *result) verify(what string, err error, got, want [sha256.Size]byte) bool {
	if err == nil && got != want {
		err = errors.New("output differs from the oracle")
	}
	return r.count(what, err)
}

// verifyFile is verify for an op whose output is a file.
func (r *result) verifyFile(what string, err error, path string, want [sha256.Size]byte) bool {
	var got [sha256.Size]byte
	if err == nil {
		got, err = hashFile(path)
	}
	return r.verify(what, err, got, want)
}

// opSample is what one op cost, measured from outside: wall seconds,
// process CPU seconds, and heap bytes allocated by the whole process.
type opSample struct {
	wall, cpu, alloc float64
}

// timed runs f and returns its cost.
func timed(f func()) opSample {
	a0, c0, t0 := heapAllocs(), cpuSeconds(), time.Now()
	f()
	return opSample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, alloc: heapAllocs() - a0}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// window is a run's measured repetitions: the costs of the ops whose
// medians are the end-to-end metrics, and one reference-kernel time per
// repetition.
type window struct {
	walls, cpus, allocs []float64
	refs                []float64
}

func (w *window) add(o opSample) {
	w.walls, w.cpus, w.allocs = append(w.walls, o.wall), append(w.cpus, o.cpu), append(w.allocs, o.alloc)
}

// measure runs rep at least minReps times and until seconds have passed
// since the first call, timing the reference kernel after each.
func (w *window) measure(seconds float64, minReps int, ref *refKernel, rep func()) {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < seconds; i++ {
		rep()
		w.refs = append(w.refs, ref.run())
	}
}

// opMetrics fills the end-to-end metrics of a workload whose ops each
// sort n records, plus the host and heap numbers of the same window.
func (r *result) opMetrics(n int, w window, heapMiB float64) {
	ref := summarize(w.refs).Median
	r.sampled("wall_xref", w.walls, 1/ref)
	r.sampled("cpu_xref", w.cpus, 1/ref)
	r.sampled("alloc_b_per_rec", w.allocs, 1/float64(n))
	r.Samples["host.ref_s"] = w.refs
	r.Values["host.ref_s"] = ref
	r.Values["runtime.peak_live_heap_mib"] = heapMiB
	wall, cpu := summarize(w.walls).Median, summarize(w.cpus).Median
	r.Summary = fmt.Sprintf("median op: %.4g s wall, %.4g s CPU, %.4g Mrec/s; reference kernel: %.4g s",
		wall, cpu, float64(n)/1e6/wall, ref)
}

// traceOverhead reports how much slower a traced op ran than the window's
// median op, both relative to the reference kernel, so that host drift
// between the window and the traced op cancels. Call it right after the
// traced op.
func (r *result) traceOverhead(traced opSample, ref *refKernel) {
	r.Values["obs.trace_overhead"] = traced.wall/ref.run()/r.Values["wall_xref"] - 1
}

// sampled reports the median of xs, each times scale, as the named
// metric and keeps the scaled samples.
func (r *result) sampled(name string, xs []float64, scale float64) {
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = x * scale
	}
	r.Samples[name] = s
	r.Values[name] = summarize(s).Median
}

// refKernel is the yardstick the op timings are divided by: the standard
// library's slices.Sort of a fixed array of pseudo-random uint64s, timed
// after every measured repetition. On a shared host the speed of
// memory-bound code drifts by tens of percent over minutes, as other
// tenants contend for memory bandwidth; a sort of the same kind drifts
// with it, so the ratio keeps what the code under test costs. The arrays
// are mapped outside the Go heap, so the kernel does not change the GC
// pacing of the code under test, and it calls no code of this
// repository, so no change to the repository can move it.
type refKernel struct {
	mem       []byte
	src, work []uint64
}

// newRefKernel maps the kernel's arrays: 1Mi words (8 MiB) each, or 16Ki
// at -quick.
func newRefKernel(quick bool) (*refKernel, error) {
	n := 1 << 20
	if quick {
		n = 1 << 14
	}
	mem, err := syscall.Mmap(-1, 0, 2*n*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the reference kernel: %w", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(mem))), 2*n)
	k := &refKernel{mem: mem, src: words[:n], work: words[n:]}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range k.src {
		k.src[i] = rng.Uint64()
	}
	return k, nil
}

// run sorts a fresh copy of the array and returns the sort's wall seconds.
func (k *refKernel) run() float64 {
	copy(k.work, k.src)
	t0 := time.Now()
	slices.Sort(k.work)
	return time.Since(t0).Seconds()
}

func (k *refKernel) close() {
	_ = syscall.Munmap(k.mem) // mapped by newRefKernel, unmapped once
}

// heapSampler reads the live heap every 10 ms and keeps the peak of each
// second. The live heap is what the last GC marked reachable; unlike the
// heap's total size it does not depend on when the collector ran. How many
// I/O buffers are in flight at an instant still depends on timing, so the
// reported figure is the median of the per-second peaks, not the single
// highest reading.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // bytes, one per completed second
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		second := time.Now()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if time.Since(second) >= time.Second {
				h.peaks = append(h.peaks, float64(peak))
				peak, second = 0, time.Now()
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak))
				}
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median per-second peak in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return summarize(h.peaks).Median / (1 << 20)
}

// hashFile is the SHA-256 of a file's bytes.
func hashFile(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// oracle is the SHA-256 of the wire form of recs sorted by the standard
// library's sort, the in-memory reference no engine under test shares.
func oracle(recs []balancesort.Record) [sha256.Size]byte {
	h := sha256.New()
	w := bufio.NewWriterSize(h, 1<<16)
	_ = record.WriteAll(w, balancesort.ReferenceSort(recs)) // a hash never fails a write
	_ = w.Flush()
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// writeInput generates n records of the given shape from seed into path
// and returns the oracle hash of their sorted form.
func writeInput(path string, w balancesort.Workload, n int, seed uint64) ([sha256.Size]byte, error) {
	recs := balancesort.NewWorkload(w, n, seed)
	if err := balancesort.WriteRecordFile(path, recs); err != nil {
		return [sha256.Size]byte{}, err
	}
	return oracle(recs), nil
}

// saveTrace writes a traced run's Chrome trace under rc.OutDir and
// returns its bytes.
func saveTrace(rc runConfig, tr *balancesort.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.OutDir, 0o755); err != nil {
		return nil, err
	}
	name := fmt.Sprintf("%s-seed%d.trace.json", rc.Workload, rc.Seed)
	return buf.Bytes(), os.WriteFile(filepath.Join(rc.OutDir, name), buf.Bytes(), 0o644)
}

// setupEnv carries a setupSpec to a set-up child process.
const setupEnv = "BENCH_SETUP_SPEC"

// setupSpec tells a child process which component to start and which
// first operation to run: sort In into Out, with scratch space under Dir.
type setupSpec struct {
	Workload string `json:"workload"`
	Dir      string `json:"dir"`
	In       string `json:"in"`
	Out      string `json:"out"`
}

// runSetupChild is the body of a set-up child process.
func runSetupChild(raw string) int {
	var spec setupSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad %s: %v\n", setupEnv, err)
		return 2
	}
	wl, ok := findWorkload(spec.Workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", spec.Workload)
		return 2
	}
	if err := wl.setup(spec); err != nil {
		fmt.Fprintf(os.Stderr, "bench: set-up of %s: %v\n", spec.Workload, err)
		return 1
	}
	return 0
}

// timeSetups runs the workload's set-up rc.setups() times, each in a
// fresh child process, and records the wall time of each child (process
// start, component start, first op, component stop) as setup_s. Each
// child's output is checked against want like any other op. Generating
// the input and computing the oracle are harness time: in is written
// before the first child starts.
func (r *result) timeSetups(rc runConfig, in string, want [sha256.Size]byte) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var durs []float64
	for i := 0; i < rc.setups(); i++ {
		dir, err := os.MkdirTemp(rc.Work, "setup-")
		if err != nil {
			return err
		}
		spec := setupSpec{Workload: rc.Workload, Dir: dir, In: in, Out: filepath.Join(dir, "out.bin")}
		raw, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+string(raw))
		var stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stderr, &stderr
		start := time.Now()
		err = cmd.Run()
		d := time.Since(start).Seconds()
		if err != nil {
			err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		if r.verifyFile("set-up", err, spec.Out, want) {
			durs = append(durs, d)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	if len(durs) == 0 {
		return fmt.Errorf("no set-up succeeded")
	}
	r.Samples["setup_s"] = durs
	r.Values["setup_s"] = summarize(durs).Median
	return nil
}

// collector is a balancesort.Observer that keeps every completed span,
// stamped with a node number — the way to see inside sorts whose Result
// the caller never gets (the shard sorts of cluster workers).
type collector struct {
	node  int
	mu    sync.Mutex
	spans []balancesort.Span
}

func (c *collector) SpanStart(layer, name string, id int) {}

func (c *collector) SpanEnd(s balancesort.Span) {
	s.Node = c.node
	c.mu.Lock()
	c.spans = append(c.spans, s)
	c.mu.Unlock()
}

func (c *collector) Count(layer, name string, id int, delta int64) {}

// take returns the spans collected so far and forgets them.
func (c *collector) take() []balancesort.Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.spans
	c.spans = nil
	return s
}

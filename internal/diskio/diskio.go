// Package diskio is the concurrent block-I/O engine behind the file-backed
// disk arrays. The parallel disk model's whole premise is that D disks
// operate independently per parallel I/O; this package supplies the
// machinery that makes that true in wall-clock terms for real storage:
//
//   - one worker goroutine per disk with a bounded request queue, so a
//     parallel I/O round, handed over as one batch (Do), runs all D block
//     transfers concurrently and its caller waits once;
//   - pooled requests, so a steady-state transfer allocates nothing, and a
//     sync.Pool of block buffers for the read-ahead cache;
//   - a read-ahead prefetcher that speculatively fetches the next block on
//     each disk's current stripe whenever the disk is otherwise idle;
//   - a write-behind coalescer that batches adjacent block writes into a
//     single larger WriteAt;
//   - a fault-injection layer (per-disk error rate, latency jitter, torn
//     writes) with retry, exponential backoff, and a per-disk circuit
//     breaker, so transient I/O errors are absorbed instead of aborting a
//     sort;
//   - a metrics registry (reads, writes, retries, prefetch hits, queue
//     depth, bytes moved) per disk and in aggregate.
//
// The engine moves raw bytes and knows nothing about records or the cost
// model: parallel-I/O counting stays in internal/pdm, one layer up, so
// mounting the engine cannot perturb a measured experiment.
package diskio

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"balancesort/internal/obs"
)

// Device is the raw storage one disk worker drives. *os.File satisfies it;
// MemDevice is the in-memory equivalent for tests and benchmarks.
type Device interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// Config fixes one engine's behavior. The zero value of every optional
// field selects a sensible default (see withDefaults); Prefetch and
// WriteBehind default to off and must be asked for.
type Config struct {
	// BlockBytes is the transfer unit in bytes. Required.
	BlockBytes int
	// QueueDepth bounds each disk's demand-request queue. Default 8.
	QueueDepth int
	// Prefetch is the read-ahead window in blocks: after a demand read of
	// block k the worker speculatively fetches up to this many successor
	// blocks while idle. 0 disables prefetching.
	Prefetch int
	// WriteBehind is the maximum run of adjacent blocks the coalescer
	// merges into one WriteAt. 0 disables write-behind (every write goes
	// to the device before it is acknowledged).
	WriteBehind int
	// MaxRetries is how many times a failed device op is retried with
	// exponential backoff before the error is returned. Default 4.
	MaxRetries int
	// RetryBase is the first retry's backoff. Default 100µs.
	RetryBase time.Duration
	// BreakerThreshold is the consecutive-failure count that trips a
	// disk's circuit breaker. Default 8.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped disk rests before the breaker
	// half-opens and ops are attempted again. Default 2ms.
	BreakerCooldown time.Duration
	// FailThreshold is the number of consecutive circuit-breaker trips
	// (with no intervening success) after which a disk is declared
	// permanently failed: every subsequent op on it fails fast with a
	// typed *DiskFailedError instead of burning retries block by block.
	// Default 4; negative disables the fail-fast path.
	FailThreshold int
	// Context, when non-nil, cancels engine operations: a blocked queue
	// submit, a retry backoff, or a breaker cooldown returns ctx.Err()
	// instead of waiting out the sleep. In-flight device transfers are
	// drained (a submitted request always gets its reply), so a canceled
	// engine still closes cleanly.
	Context context.Context
	// Trace, when non-nil, records write-behind flush and breaker-cooldown
	// spans plus retry/fault/breaker-trip/queue-full event counts under the
	// "disk" layer, keyed by disk id. The nil default costs nothing: every
	// tracer method on nil is a no-op, and the engine never counts model
	// I/Os, so tracing cannot perturb a measured experiment.
	Trace *obs.Tracer
	// Fault configures the injection layer. Zero value injects nothing.
	Fault FaultConfig
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Microsecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 8
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Millisecond
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 4
	}
	if c.Context == nil {
		c.Context = context.Background()
	}
	return c
}

// DiskFailedError reports a disk whose circuit breaker is permanently
// open: FailThreshold consecutive breaker trips passed without a single
// successful device op. Every subsequent op on the disk returns the same
// error immediately, so a dead device costs one diagnosis, not one
// retry storm per block.
type DiskFailedError struct {
	Disk  int
	Trips int64 // breaker trips observed when the disk was declared failed
	Err   error // the last device error
}

func (e *DiskFailedError) Error() string {
	return fmt.Sprintf("diskio: disk %d failed permanently after %d breaker trips: %v", e.Disk, e.Trips, e.Err)
}

func (e *DiskFailedError) Unwrap() error { return e.Err }

// Engine serves block reads and writes for a set of devices, one worker
// goroutine per device. Do, Read, Write, and Flush may be called from any
// goroutine; Close must not race with them.
type Engine struct {
	cfg     Config
	pool    *bufPool
	calls   chan *call // idle calls, so a warmed Do allocates nothing
	workers []*worker
	closed  bool
}

// New starts an engine over the given devices. The engine owns the devices
// from here on: Close closes them.
func New(cfg Config, devs []Device) (*Engine, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("diskio: BlockBytes = %d, want > 0", cfg.BlockBytes)
	}
	if len(devs) == 0 {
		return nil, errors.New("diskio: no devices")
	}
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		pool:    newBufPool(cfg.BlockBytes),
		workers: make([]*worker, len(devs)),
	}
	// One idle call per disk covers a concurrent caller per disk; a
	// burst beyond that allocates, and the surplus is dropped on return.
	e.calls = make(chan *call, len(devs))
	for i, dev := range devs {
		w := newWorker(i, &e.cfg, dev, e.pool)
		e.workers[i] = w
		go w.run()
	}
	return e, nil
}

// Disks returns the number of devices the engine serves.
func (e *Engine) Disks() int { return len(e.workers) }

// Transfer is one block transfer of a batch handed to Do.
type Transfer struct {
	Disk  int
	Block int64
	Write bool
	// Buf is the source of a write or the destination of a read, exactly
	// BlockBytes long. The engine is done with it when Do returns.
	Buf []byte
	// Err is the transfer's outcome, set by Do.
	Err error
}

// Do runs a batch of block transfers: it submits every transfer to its
// disk's worker before it waits, so the batch's disks work concurrently
// and the caller waits once. Transfers on the same disk run in batch
// order. Each transfer's outcome lands in its Err; Do returns the first
// error in batch order. A batch that names a bad disk or buffer is
// rejected whole, before anything is submitted: every Err is that error.
func (e *Engine) Do(batch []Transfer) error {
	for _, t := range batch {
		err := e.checkDisk(t.Disk)
		if err == nil && len(t.Buf) != e.cfg.BlockBytes {
			err = fmt.Errorf("diskio: buffer is %d bytes, block is %d", len(t.Buf), e.cfg.BlockBytes)
		}
		if err != nil {
			for i := range batch {
				batch[i].Err = err
			}
			return err
		}
	}
	c := e.getCall(len(batch))
	for i, t := range batch {
		op := opRead
		if t.Write {
			op = opWrite
		}
		c.reqs[i] = request{op: op, disk: t.Disk, block: t.Block, buf: t.Buf}
	}
	err := e.run(c)
	for i := range batch {
		batch[i].Err = c.reqs[i].err
	}
	e.putCall(c)
	return err
}

// Read fills dst (len BlockBytes) with block blk of the given disk. It
// blocks until the transfer completes and is safe to call concurrently
// with operations on other disks — that concurrency is the point.
func (e *Engine) Read(disk int, blk int64, dst []byte) error {
	t := [1]Transfer{{Disk: disk, Block: blk, Buf: dst}}
	return e.Do(t[:])
}

// Write stores src (len BlockBytes) as block blk of the given disk. The
// data is copied before Write returns; with write-behind enabled the
// device transfer may happen later, and a deferred flush error surfaces on
// a subsequent Write, Flush, or Close of the same disk.
func (e *Engine) Write(disk int, blk int64, src []byte) error {
	t := [1]Transfer{{Disk: disk, Block: blk, Write: true, Buf: src}}
	return e.Do(t[:])
}

// Flush forces the disk's write-behind run to the device and returns any
// deferred write error.
func (e *Engine) Flush(disk int) error {
	if err := e.checkDisk(disk); err != nil {
		return err
	}
	return e.flush(disk, disk+1)
}

// FlushAll flushes every disk concurrently and returns the first error in
// disk order.
func (e *Engine) FlushAll() error { return e.flush(0, len(e.workers)) }

// flush flushes disks [lo, hi) as one call.
func (e *Engine) flush(lo, hi int) error {
	c := e.getCall(hi - lo)
	for i := range c.reqs {
		c.reqs[i] = request{op: opFlush, disk: lo + i}
	}
	err := e.run(c)
	e.putCall(c)
	return err
}

// Close flushes every disk, stops the workers, and closes the devices.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	firstErr := e.FlushAll()
	for _, w := range e.workers {
		close(w.demand)
		<-w.done
	}
	for _, w := range e.workers {
		if err := w.dev.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func (e *Engine) checkDisk(disk int) error {
	if disk < 0 || disk >= len(e.workers) {
		return fmt.Errorf("diskio: disk %d of %d", disk, len(e.workers))
	}
	return nil
}

// run submits every request of c, in order, then waits for each submitted
// one to complete, and returns the first request error. A submit that
// fails (the context was canceled while the queue was full) fails its
// request and every one after it, unsubmitted.
func (e *Engine) run(c *call) error {
	sent := 0
	for i := range c.reqs {
		r := &c.reqs[i]
		r.done = c.done
		if err := e.workers[r.disk].submit(r); err != nil {
			for j := i; j < len(c.reqs); j++ {
				c.reqs[j].err = err
			}
			break
		}
		sent++
	}
	for ; sent > 0; sent-- {
		<-c.done
	}
	for i := range c.reqs {
		if err := c.reqs[i].err; err != nil {
			return err
		}
	}
	return nil
}

// call is one Do, Read, Write, Flush, or FlushAll in flight: a request per
// transfer and the completion channel they all reply on. The channel holds
// a slot for every request, so a worker never blocks on a reply.
type call struct {
	reqs []request
	done chan struct{}
}

func (e *Engine) getCall(n int) *call {
	var c *call
	select {
	case c = <-e.calls:
	default:
		c = new(call)
	}
	if cap(c.reqs) < n {
		c.reqs = make([]request, n)
	}
	c.reqs = c.reqs[:n]
	if cap(c.done) < n {
		c.done = make(chan struct{}, n)
	}
	return c
}

func (e *Engine) putCall(c *call) {
	clear(c.reqs) // drop the callers' buffers
	select {
	case e.calls <- c:
	default: // more calls in flight than the free list keeps
	}
}

// request ops.
const (
	opRead = iota
	opWrite
	opFlush
)

type request struct {
	op    int
	disk  int
	block int64
	// buf is the caller's destination for opRead and its source for
	// opWrite; the caller waits for the reply, so the worker may use it
	// until then.
	buf  []byte
	err  error
	done chan<- struct{} // the call's completion channel
}

// worker owns one device. All device access, the write-behind run, and the
// prefetch cache live on its goroutine; the only cross-goroutine state is
// the two request channels and the atomic counters.
type worker struct {
	id     int
	cfg    *Config
	dev    Device
	pool   *bufPool
	demand chan *request
	specul chan int64
	done   chan struct{}
	m      counters

	// Goroutine-owned state below.
	inj *injector
	// Write-behind run: wb holds len(wb)/BlockBytes adjacent blocks
	// starting at block wbStart; wb == nil means no pending run.
	wb      []byte
	wbStart int64
	// deferred is a write-behind flush error not yet reported to a caller.
	deferred error
	// cache maps prefetched block numbers to pooled buffers; order is the
	// FIFO eviction queue (entries may be stale after invalidation).
	cache map[int64][]byte
	order []int64
	// consecFails feeds the circuit breaker; consecTrips counts breaker
	// trips with no intervening success and feeds the fail-fast path.
	consecFails int
	consecTrips int64
	// failed, once set, short-circuits every further op on this disk.
	failed *DiskFailedError
}

func newWorker(id int, cfg *Config, dev Device, pool *bufPool) *worker {
	w := &worker{
		id:     id,
		cfg:    cfg,
		dev:    dev,
		pool:   pool,
		demand: make(chan *request, cfg.QueueDepth),
		specul: make(chan int64, cfg.QueueDepth),
		done:   make(chan struct{}),
		cache:  make(map[int64][]byte),
	}
	if cfg.Fault.enabled() {
		w.inj = newInjector(cfg.Fault, id)
	}
	return w
}

func (w *worker) submit(r *request) error {
	// Gauge the queue at its deepest observed point; len() on a channel is
	// approximate under concurrency, which is fine for a high-water mark.
	depth := int64(len(w.demand)) + 1
	for {
		cur := w.m.queueMax.Load()
		if depth <= cur || w.m.queueMax.CompareAndSwap(cur, depth) {
			break
		}
	}
	select {
	case w.demand <- r:
		return nil
	default:
	}
	// Queue full: wait, but give up if the engine's context is canceled so
	// a stalled disk cannot wedge a cancelled sort.
	w.cfg.Trace.Count("disk", "queue-full", w.id, 1)
	select {
	case w.demand <- r:
		return nil
	case <-w.cfg.Context.Done():
		return w.cfg.Context.Err()
	}
}

// flushSentinel on the speculation queue asks the worker to push the
// write-behind run to the device during idle time, so a full run's device
// latency is usually off the caller's critical path.
const flushSentinel = int64(-1)

// run is the worker loop: demand requests strictly before speculative
// work (prefetches and idle flushes), so the speculation only uses idle
// disk time.
func (w *worker) run() {
	defer close(w.done)
	for {
		select {
		case r, ok := <-w.demand:
			if !ok {
				return
			}
			w.handle(r)
		default:
			select {
			case r, ok := <-w.demand:
				if !ok {
					return
				}
				w.handle(r)
			case blk := <-w.specul:
				if blk == flushSentinel {
					if err := w.flushWB(); err != nil && w.deferred == nil {
						w.deferred = err
					}
				} else {
					w.prefetch(blk)
				}
			}
		}
	}
}

func (w *worker) handle(r *request) {
	switch r.op {
	case opRead:
		r.err = w.read(r.block, r.buf)
	case opWrite:
		r.err = w.write(r.block, r.buf)
	case opFlush:
		r.err = w.flushWB()
		if r.err == nil {
			r.err = w.takeDeferred()
		}
	}
	r.done <- struct{}{}
}

// read serves a demand read: write-behind run first (read-your-writes),
// then the prefetch cache, then the device.
func (w *worker) read(blk int64, dst []byte) error {
	bb := int64(w.cfg.BlockBytes)
	if len(w.wb) > 0 {
		if i := blk - w.wbStart; i >= 0 && i < int64(len(w.wb))/bb {
			copy(dst, w.wb[i*bb:(i+1)*bb])
			w.m.writeHits.Add(1)
			return nil
		}
	}
	if buf, ok := w.cache[blk]; ok {
		copy(dst, buf)
		delete(w.cache, blk)
		w.pool.put(buf)
		w.m.prefetchHits.Add(1)
		w.schedulePrefetch(blk + 1)
		return nil
	}
	if err := w.withRetry(func() error { return w.deviceRead(dst, blk*bb) }); err != nil {
		return err
	}
	w.schedulePrefetch(blk + 1)
	return nil
}

// write buffers blk into the write-behind run (or writes through when
// write-behind is off) and reports any deferred flush error.
func (w *worker) write(blk int64, buf []byte) error {
	defer w.syncWB()
	w.invalidate(blk)
	bb := int64(w.cfg.BlockBytes)
	if w.cfg.WriteBehind <= 0 {
		return w.withRetry(func() error { return w.deviceWrite(buf, blk*bb) })
	}
	if len(w.wb) > 0 {
		run := int64(len(w.wb)) / bb
		switch {
		case blk >= w.wbStart && blk < w.wbStart+run:
			// Overwrite of a block already in the run.
			copy(w.wb[(blk-w.wbStart)*bb:], buf)
			return w.takeDeferred()
		case blk == w.wbStart+run && run < int64(w.cfg.WriteBehind):
			w.wb = append(w.wb, buf...)
			w.m.coalesced.Add(1)
			if run+1 == int64(w.cfg.WriteBehind) {
				w.scheduleIdleFlush()
			}
			return w.takeDeferred()
		default:
			if err := w.flushWB(); err != nil {
				w.deferred = err
			}
		}
	}
	if w.wb == nil {
		w.wb = make([]byte, 0, w.cfg.WriteBehind*w.cfg.BlockBytes)
	}
	w.wbStart = blk
	w.wb = append(w.wb[:0], buf...)
	if w.cfg.WriteBehind == 1 {
		w.scheduleIdleFlush()
	}
	return w.takeDeferred()
}

func (w *worker) scheduleIdleFlush() {
	select {
	case w.specul <- flushSentinel:
	default:
	}
}

// syncWB mirrors the write-behind run length (in blocks) into the atomic
// the sampler reads.
func (w *worker) syncWB() {
	w.m.wbBacklog.Store(int64(len(w.wb)) / int64(w.cfg.BlockBytes))
}

// flushWB pushes the pending run to the device as one WriteAt.
func (w *worker) flushWB() error {
	if len(w.wb) == 0 {
		return nil
	}
	run := w.wb
	off := w.wbStart * int64(w.cfg.BlockBytes)
	w.wb = w.wb[:0]
	w.syncWB()
	sp := w.cfg.Trace.Begin("disk", "flush", w.id)
	err := w.withRetry(func() error { return w.deviceWrite(run, off) })
	sp.End(obs.Attr{Key: "blocks", Val: int64(len(run) / w.cfg.BlockBytes)})
	if err == nil {
		w.m.flushes.Add(1)
	}
	return err
}

func (w *worker) takeDeferred() error {
	err := w.deferred
	w.deferred = nil
	return err
}

// schedulePrefetch queues speculative reads for blocks blk..blk+window-1;
// a full speculation queue drops the hint rather than blocking the disk.
func (w *worker) schedulePrefetch(blk int64) {
	for i := 0; i < w.cfg.Prefetch; i++ {
		select {
		case w.specul <- blk + int64(i):
		default:
			return
		}
	}
}

// prefetch speculatively reads blk into the cache. Failures are dropped —
// a speculative miss (unwritten block, end of file, injected fault) must
// never surface as an error, and it is not retried.
func (w *worker) prefetch(blk int64) {
	if _, ok := w.cache[blk]; ok {
		return
	}
	bb := int64(w.cfg.BlockBytes)
	if len(w.wb) > 0 {
		if i := blk - w.wbStart; i >= 0 && i < int64(len(w.wb))/bb {
			return // pending write already holds fresher bytes
		}
	}
	w.m.prefetchIssued.Add(1)
	buf := w.pool.get()
	if err := w.deviceRead(buf, blk*bb); err != nil {
		w.pool.put(buf)
		return
	}
	for len(w.cache) >= w.cfg.Prefetch && len(w.order) > 0 {
		old := w.order[0]
		w.order = w.order[1:]
		if b, ok := w.cache[old]; ok {
			delete(w.cache, old)
			w.pool.put(b)
		}
	}
	w.cache[blk] = buf
	w.order = append(w.order, blk)
}

func (w *worker) invalidate(blk int64) {
	if buf, ok := w.cache[blk]; ok {
		delete(w.cache, blk)
		w.pool.put(buf)
	}
}

// withRetry runs a device op with exponential backoff on failure and
// trips the circuit breaker after BreakerThreshold consecutive failures:
// the disk rests for BreakerCooldown, then the breaker half-opens and the
// op is attempted again. FailThreshold consecutive trips without a single
// success declare the disk permanently failed; from then on every op
// short-circuits with the same *DiskFailedError. All sleeps abort early
// when the engine's context is canceled.
func (w *worker) withRetry(op func() error) error {
	if w.failed != nil {
		return w.failed
	}
	backoff := w.cfg.RetryBase
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil {
			w.consecFails = 0
			w.consecTrips = 0
			return nil
		}
		w.consecFails++
		if w.consecFails >= w.cfg.BreakerThreshold {
			w.m.breakerTrips.Add(1)
			w.cfg.Trace.Count("disk", "breaker-trip", w.id, 1)
			w.consecFails = 0
			w.consecTrips++
			if w.cfg.FailThreshold > 0 && w.consecTrips >= int64(w.cfg.FailThreshold) {
				w.failed = &DiskFailedError{Disk: w.id, Trips: w.m.breakerTrips.Load(), Err: err}
				w.cfg.Trace.Count("disk", "disk-failed", w.id, 1)
				return w.failed
			}
			sp := w.cfg.Trace.Begin("disk", "breaker-cooldown", w.id)
			serr := w.sleep(w.cfg.BreakerCooldown)
			sp.End()
			if serr != nil {
				return serr
			}
		}
		if attempt >= w.cfg.MaxRetries {
			return err
		}
		w.m.retries.Add(1)
		w.cfg.Trace.Count("disk", "retry", w.id, 1)
		if serr := w.sleep(backoff); serr != nil {
			return serr
		}
		backoff *= 2
	}
}

// sleep waits for d or until the engine's context is canceled, whichever
// comes first.
func (w *worker) sleep(d time.Duration) error {
	done := w.cfg.Context.Done()
	if done == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return w.cfg.Context.Err()
	}
}

// deviceRead and deviceWrite are the only two functions that touch the
// Device; the fault injector sits here so every other layer sees faults
// exactly as it would see real ones.
func (w *worker) deviceRead(dst []byte, off int64) error {
	start := time.Now()
	defer func() { w.m.busyNanos.Add(time.Since(start).Nanoseconds()) }()
	if w.inj != nil {
		w.inj.jitter()
		if w.inj.failRead() {
			w.m.faults.Add(1)
			w.cfg.Trace.Count("disk", "fault", w.id, 1)
			return ErrInjected
		}
	}
	if _, err := w.dev.ReadAt(dst, off); err != nil {
		return err
	}
	w.m.reads.Add(1)
	w.m.bytesRead.Add(int64(len(dst)))
	w.m.readNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

func (w *worker) deviceWrite(src []byte, off int64) error {
	start := time.Now()
	defer func() { w.m.busyNanos.Add(time.Since(start).Nanoseconds()) }()
	if w.inj != nil {
		w.inj.jitter()
		if fail, torn := w.inj.failWrite(); fail {
			w.m.faults.Add(1)
			w.cfg.Trace.Count("disk", "fault", w.id, 1)
			if torn && len(src) >= 2 {
				// A torn write: half the payload reaches the platter
				// before the fault. The retry must overwrite it fully.
				w.dev.WriteAt(src[:len(src)/2], off)
			}
			return ErrInjected
		}
	}
	if _, err := w.dev.WriteAt(src, off); err != nil {
		return err
	}
	w.m.writes.Add(1)
	w.m.bytesWritten.Add(int64(len(src)))
	w.m.writeNanos.Add(time.Since(start).Nanoseconds())
	return nil
}

// counters are the per-disk atomic tallies behind DiskStats.
type counters struct {
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	retries, faults         atomic.Int64
	breakerTrips            atomic.Int64
	prefetchIssued          atomic.Int64
	prefetchHits, writeHits atomic.Int64
	coalesced, flushes      atomic.Int64
	queueMax                atomic.Int64
	// Device-time accounting: readNanos/writeNanos sum the duration of
	// successful device transfers (the basis for measured throughput),
	// busyNanos sums all device-op time including failed attempts (the
	// basis for the busy-fraction utilization track). wbBacklog mirrors the
	// goroutine-owned write-behind run length in blocks so the sampler can
	// read it without racing the worker.
	readNanos, writeNanos atomic.Int64
	busyNanos             atomic.Int64
	wbBacklog             atomic.Int64
}

// Package diskio is the one I/O path of the file-backed disk arrays. Every
// block transfer runs on the calling goroutine through a guarded device per
// drive, which adds what protects a sort from a misbehaving device:
//
//   - a fault-injection layer (per-disk error rate, latency jitter, torn
//     writes), so the recovery paths can be exercised on demand;
//   - retry with exponential backoff and a per-disk circuit breaker, so
//     transient I/O errors are absorbed instead of aborting a sort, and a
//     typed fail-fast *DiskFailedError once a disk stops recovering;
//   - context-aware sleeps, so a canceled sort never waits out a backoff
//     or a breaker cooldown;
//   - per-disk counters (device ops, bytes, retries, faults, device time).
//
// A transfer is any whole number of consecutive blocks and is one device
// op, and every guard above acts per op. The layer starts no goroutine and
// holds no byte past the call that moves it: on page-cached scratch files,
// overlapping device I/O with the sort costs more time than it hides.
//
// The layer moves raw bytes and knows nothing about records or the cost
// model: parallel-I/O counting stays in internal/pdm, one layer up, so the
// layer cannot perturb a measured experiment.
package diskio

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"balancesort/internal/obs"
)

// Device is the raw storage behind one drive. *os.File satisfies it.
type Device interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Close() error
}

// Config fixes the layer's behavior. The zero value of every optional field
// selects a sensible default (see withDefaults).
type Config struct {
	// BlockBytes is the block size in bytes; every transfer is a whole
	// number of blocks. Required.
	BlockBytes int
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
	// typed *DiskFailedError instead of burning retries op by op.
	// Default 4; negative disables the fail-fast path.
	FailThreshold int
	// Context, when non-nil, cancels the layer's sleeps: a retry backoff
	// or a breaker cooldown returns ctx.Err() instead of waiting it out.
	Context context.Context
	// Trace, when non-nil, records breaker-cooldown spans plus
	// retry/fault/breaker-trip/disk-failed event counts under the "disk"
	// layer, keyed by disk id. The nil default costs nothing: every tracer
	// method on nil is a no-op.
	Trace *obs.Tracer
	// Fault configures the injection layer. Zero value injects nothing.
	Fault FaultConfig
}

func (c Config) withDefaults() Config {
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
// retry storm per op.
type DiskFailedError struct {
	Disk  int
	Trips int64 // breaker trips observed when the disk was declared failed
	Err   error // the last device error
}

func (e *DiskFailedError) Error() string {
	return fmt.Sprintf("diskio: disk %d failed permanently after %d breaker trips: %v", e.Disk, e.Trips, e.Err)
}

func (e *DiskFailedError) Unwrap() error { return e.Err }

// Drives owns one guarded device per drive of an array, plus their
// counters. Metrics may be called from any goroutine at any time; Close
// must not race with transfers.
type Drives struct {
	cfg    Config
	drives []Drive
	closed bool
}

// New guards the given devices. Drives owns them from here on: Close
// closes them.
func New(cfg Config, devs []Device) (*Drives, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("diskio: BlockBytes = %d, want > 0", cfg.BlockBytes)
	}
	if len(devs) == 0 {
		return nil, errors.New("diskio: no devices")
	}
	s := &Drives{cfg: cfg.withDefaults(), drives: make([]Drive, len(devs))}
	for i, dev := range devs {
		d := &s.drives[i]
		d.id, d.cfg, d.dev = i, &s.cfg, dev
		if s.cfg.Fault.enabled() {
			d.inj = newInjector(s.cfg.Fault, i)
		}
	}
	return s, nil
}

// Drive returns the guarded device of drive i.
func (s *Drives) Drive(i int) *Drive { return &s.drives[i] }

// Close closes every device and returns the first error.
func (s *Drives) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var firstErr error
	for i := range s.drives {
		if err := s.drives[i].dev.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Drive is one guarded device. Read and Write run on the calling goroutine
// and must not be called concurrently on the same drive; distinct drives
// are independent.
type Drive struct {
	id  int
	cfg *Config
	dev Device
	inj *injector
	m   counters
	// consecFails feeds the circuit breaker; consecTrips counts breaker
	// trips with no intervening success and feeds the fail-fast path.
	consecFails int
	consecTrips int64
	// failed, once set, short-circuits every further op on this drive.
	failed *DiskFailedError
}

// Read fills dst, a positive whole number of blocks, with the consecutive
// blocks starting at blk, in one device op.
func (d *Drive) Read(blk int64, dst []byte) error { return d.transfer(blk, dst, false) }

// Write stores src, a positive whole number of blocks, as the consecutive
// blocks starting at blk, in one device op. The device holds every byte
// when Write returns.
func (d *Drive) Write(blk int64, src []byte) error { return d.transfer(blk, src, true) }

// transfer runs one device op with exponential backoff on failure and
// trips the circuit breaker after BreakerThreshold consecutive failures:
// the disk rests for BreakerCooldown, then the breaker half-opens and the
// op is attempted again. FailThreshold consecutive trips without a single
// success declare the disk permanently failed; from then on every op
// short-circuits with the same *DiskFailedError. All sleeps abort early
// when the context is canceled.
func (d *Drive) transfer(blk int64, buf []byte, write bool) error {
	if len(buf) == 0 || len(buf)%d.cfg.BlockBytes != 0 {
		return fmt.Errorf("diskio: buffer is %d bytes, not a positive whole number of %d-byte blocks", len(buf), d.cfg.BlockBytes)
	}
	if d.failed != nil {
		return d.failed
	}
	off := blk * int64(d.cfg.BlockBytes)
	backoff := d.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		var err error
		if write {
			err = d.deviceWrite(buf, off)
		} else {
			err = d.deviceRead(buf, off)
		}
		if err == nil {
			d.consecFails = 0
			d.consecTrips = 0
			return nil
		}
		d.consecFails++
		if d.consecFails >= d.cfg.BreakerThreshold {
			d.m.breakerTrips.Add(1)
			d.cfg.Trace.Count("disk", "breaker-trip", d.id, 1)
			d.consecFails = 0
			d.consecTrips++
			if d.cfg.FailThreshold > 0 && d.consecTrips >= int64(d.cfg.FailThreshold) {
				d.failed = &DiskFailedError{Disk: d.id, Trips: d.m.breakerTrips.Load(), Err: err}
				d.cfg.Trace.Count("disk", "disk-failed", d.id, 1)
				return d.failed
			}
			sp := d.cfg.Trace.Begin("disk", "breaker-cooldown", d.id)
			serr := d.sleep(d.cfg.BreakerCooldown)
			sp.End()
			if serr != nil {
				return serr
			}
		}
		if attempt >= d.cfg.MaxRetries {
			return err
		}
		d.m.retries.Add(1)
		d.cfg.Trace.Count("disk", "retry", d.id, 1)
		if serr := d.sleep(backoff); serr != nil {
			return serr
		}
		backoff *= 2
	}
}

// sleep waits for dur or until the context is canceled, whichever comes
// first.
func (d *Drive) sleep(dur time.Duration) error {
	done := d.cfg.Context.Done()
	if done == nil {
		time.Sleep(dur)
		return nil
	}
	t := time.NewTimer(dur)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-done:
		return d.cfg.Context.Err()
	}
}

// deviceRead and deviceWrite are the only two functions that touch the
// Device; the fault injector sits here so every other layer sees faults
// exactly as it would see real ones.
func (d *Drive) deviceRead(dst []byte, off int64) error {
	start := time.Now()
	if d.inj != nil {
		d.inj.jitter()
		if d.inj.failRead() {
			d.fault(start)
			return ErrInjected
		}
	}
	_, err := d.dev.ReadAt(dst, off)
	took := time.Since(start).Nanoseconds()
	d.m.busyNanos.Add(took)
	if err != nil {
		return err
	}
	d.m.reads.Add(1)
	d.m.bytesRead.Add(int64(len(dst)))
	d.m.readNanos.Add(took)
	return nil
}

func (d *Drive) deviceWrite(src []byte, off int64) error {
	start := time.Now()
	if d.inj != nil {
		d.inj.jitter()
		if fail, torn := d.inj.failWrite(); fail {
			if torn && len(src) >= 2 {
				// A torn write: half the transfer reaches the platter
				// before the fault. The retry must overwrite all of it.
				d.dev.WriteAt(src[:len(src)/2], off)
			}
			d.fault(start)
			return ErrInjected
		}
	}
	_, err := d.dev.WriteAt(src, off)
	took := time.Since(start).Nanoseconds()
	d.m.busyNanos.Add(took)
	if err != nil {
		return err
	}
	d.m.writes.Add(1)
	d.m.bytesWritten.Add(int64(len(src)))
	d.m.writeNanos.Add(took)
	return nil
}

// fault counts an injected failure of an attempt that began at start.
func (d *Drive) fault(start time.Time) {
	d.m.busyNanos.Add(time.Since(start).Nanoseconds())
	d.m.faults.Add(1)
	d.cfg.Trace.Count("disk", "fault", d.id, 1)
}

// counters are the per-disk atomic tallies behind DiskStats. reads and
// writes count successful device ops, whatever their block count. readNanos
// and writeNanos sum the duration of successful device ops (the basis for
// measured throughput); busyNanos sums all device-op time including failed
// attempts (the basis for the busy-fraction utilization track).
type counters struct {
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	retries, faults         atomic.Int64
	breakerTrips            atomic.Int64
	readNanos, writeNanos   atomic.Int64
	busyNanos               atomic.Int64
}

// Package diskio is the one I/O path of the file-backed disk arrays. An
// array's D disks share one device, which holds their blocks in stripe
// order: block o of disk d is array block o·D + d, so a striped transfer
// is a run of consecutive array blocks. Every transfer runs on the calling
// goroutine through the device's guard, which adds what protects a sort
// from a misbehaving device:
//
//   - a fault-injection layer (error rate, latency jitter, torn writes),
//     so the recovery paths can be exercised on demand;
//   - retry with exponential backoff and a circuit breaker, so transient
//     I/O errors are absorbed instead of aborting a sort, and a typed
//     fail-fast *DiskFailedError once the device stops recovering;
//   - context-aware sleeps, so a canceled sort never waits out a backoff
//     or a breaker cooldown;
//   - per-disk counters (device ops, bytes, retries, faults, device time).
//
// A transfer is any run of consecutive array blocks and is one device op:
// one device call, or two when its last block comes from a buffer of its
// own. Every guard above acts once per op. The disks share the guard, so
// they fail together. The layer starts no goroutine and holds no byte past
// the call that moves it: on page-cached scratch files, overlapping device
// I/O with the sort costs more time than it hides.
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

// Device is the raw storage behind an array's disks. *os.File satisfies
// it.
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
	// BreakerThreshold is the consecutive-failure count that trips the
	// device's circuit breaker. Default 8.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped device rests before the
	// breaker half-opens and ops are attempted again. Default 2ms.
	BreakerCooldown time.Duration
	// FailThreshold is the number of consecutive circuit-breaker trips
	// (with no intervening success) after which the device is declared
	// permanently failed: every subsequent op on it fails fast with a
	// typed *DiskFailedError instead of burning retries op by op.
	// Default 4; negative disables the fail-fast path.
	FailThreshold int
	// Context, when non-nil, cancels the layer's sleeps: a retry backoff
	// or a breaker cooldown returns ctx.Err() instead of waiting it out.
	Context context.Context
	// Trace, when non-nil, records breaker-cooldown spans plus
	// retry/fault/breaker-trip/disk-failed event counts under the "disk"
	// layer, keyed by the disk of the op's first block. The nil default
	// costs nothing: every tracer method on nil is a no-op.
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

// DiskFailedError reports a device whose circuit breaker is permanently
// open: FailThreshold consecutive breaker trips passed without a single
// successful device op. Every subsequent op returns it immediately, so a
// dead device costs one diagnosis, not one retry storm per op. The disks
// of an array share their device, so they fail together; Disk names the
// disk of the failing op's first block.
type DiskFailedError struct {
	Disk  int
	Trips int64 // breaker trips observed when the device was declared failed
	Err   error // the last device error
}

func (e *DiskFailedError) Error() string {
	return fmt.Sprintf("diskio: disk %d failed permanently after %d breaker trips: %v", e.Disk, e.Trips, e.Err)
}

func (e *DiskFailedError) Unwrap() error { return e.Err }

// Drives guards the one device that holds the blocks of an array's disks,
// in stripe order, and keeps each disk's counters. Read and Write run on
// the calling goroutine and must not be called concurrently; Metrics may
// be called from any goroutine at any time; Close must not race with
// transfers.
type Drives struct {
	cfg   Config
	disks int
	dev   Device
	inj   *injector
	m     []counters // per disk
	// consecFails feeds the circuit breaker; consecTrips counts breaker
	// trips with no intervening success and feeds the fail-fast path;
	// trips counts them all.
	consecFails int
	consecTrips int64
	trips       int64
	// failed, once set, short-circuits every further op.
	failed *DiskFailedError
	closed bool
}

// New guards dev, which holds the blocks of the given number of disks in
// stripe order: array block o·disks + d is block o of disk d. Drives owns
// dev from here on: Close closes it.
func New(cfg Config, disks int, dev Device) (*Drives, error) {
	if cfg.BlockBytes <= 0 {
		return nil, fmt.Errorf("diskio: BlockBytes = %d, want > 0", cfg.BlockBytes)
	}
	if disks < 1 || dev == nil {
		return nil, errors.New("diskio: no disks")
	}
	s := &Drives{cfg: cfg.withDefaults(), disks: disks, dev: dev, m: make([]counters, disks)}
	if s.cfg.Fault.enabled() {
		s.inj = newInjector(s.cfg.Fault)
	}
	return s, nil
}

// Close closes the device.
func (s *Drives) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	return s.dev.Close()
}

// Read fills the consecutive array blocks starting at blk, in one device
// op: body, a whole number of blocks, then, when tail is not nil, the one
// block tail, which a second device call moves. Either may be empty, not
// both.
func (s *Drives) Read(blk int64, body, tail []byte) error { return s.transfer(blk, body, tail, false) }

// Write stores body and then tail (see Read) as the consecutive array
// blocks starting at blk, in one device op. The device holds every byte
// when Write returns.
func (s *Drives) Write(blk int64, body, tail []byte) error { return s.transfer(blk, body, tail, true) }

// transfer runs one device op with exponential backoff on failure and
// trips the circuit breaker after BreakerThreshold consecutive failures:
// the device rests for BreakerCooldown, then the breaker half-opens and
// the op is attempted again. FailThreshold consecutive trips without a
// single success declare the device permanently failed; from then on every
// op short-circuits with a *DiskFailedError. All sleeps abort early when
// the context is canceled. Retries, faults and trips count on the disk of
// the op's first block.
func (s *Drives) transfer(blk int64, body, tail []byte, write bool) error {
	bb := s.cfg.BlockBytes
	if len(body)%bb != 0 || (tail != nil && len(tail) != bb) || len(body)+len(tail) == 0 || blk < 0 {
		return fmt.Errorf("diskio: %d+%d bytes at block %d, not a positive whole number of %d-byte blocks then at most one more",
			len(body), len(tail), blk, bb)
	}
	disk := int(blk % int64(s.disks))
	if f := s.failed; f != nil {
		if f.Disk != disk {
			f = &DiskFailedError{Disk: disk, Trips: f.Trips, Err: f.Err}
		}
		return f
	}
	m := &s.m[disk]
	backoff := s.cfg.RetryBase
	for attempt := 0; ; attempt++ {
		err := s.attempt(blk, body, tail, write)
		if err == nil {
			s.consecFails = 0
			s.consecTrips = 0
			return nil
		}
		s.consecFails++
		if s.consecFails >= s.cfg.BreakerThreshold {
			m.breakerTrips.Add(1)
			s.cfg.Trace.Count("disk", "breaker-trip", disk, 1)
			s.consecFails = 0
			s.consecTrips++
			s.trips++
			if s.cfg.FailThreshold > 0 && s.consecTrips >= int64(s.cfg.FailThreshold) {
				s.failed = &DiskFailedError{Disk: disk, Trips: s.trips, Err: err}
				s.cfg.Trace.Count("disk", "disk-failed", disk, 1)
				return s.failed
			}
			sp := s.cfg.Trace.Begin("disk", "breaker-cooldown", disk)
			serr := s.sleep(s.cfg.BreakerCooldown)
			sp.End()
			if serr != nil {
				return serr
			}
		}
		if attempt >= s.cfg.MaxRetries {
			return err
		}
		m.retries.Add(1)
		s.cfg.Trace.Count("disk", "retry", disk, 1)
		if serr := s.sleep(backoff); serr != nil {
			return serr
		}
		backoff *= 2
	}
}

// sleep waits for dur or until the context is canceled, whichever comes
// first.
func (s *Drives) sleep(dur time.Duration) error {
	done := s.cfg.Context.Done()
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
		return s.cfg.Context.Err()
	}
}

// attempt makes one try at an op: the device calls, and the fault
// injector in front of them, so every other layer sees faults exactly as
// it would see real ones. It is the only function that touches the
// Device.
func (s *Drives) attempt(blk int64, body, tail []byte, write bool) error {
	start := time.Now()
	off := blk * int64(s.cfg.BlockBytes)
	if s.inj != nil {
		s.inj.jitter()
	}
	var err error
	switch {
	case s.inj != nil && s.inj.fail():
		if write && s.inj.torn() {
			// A torn write: half the first call reaches the platter
			// before the fault. The retry must overwrite all of it.
			first := body
			if len(first) == 0 {
				first = tail
			}
			s.dev.WriteAt(first[:len(first)/2], off)
		}
		s.m[blk%int64(s.disks)].faults.Add(1)
		s.cfg.Trace.Count("disk", "fault", int(blk%int64(s.disks)), 1)
		err = ErrInjected
	case write:
		if len(body) > 0 {
			_, err = s.dev.WriteAt(body, off)
		}
		if err == nil && tail != nil {
			_, err = s.dev.WriteAt(tail, off+int64(len(body)))
		}
	default:
		if len(body) > 0 {
			_, err = s.dev.ReadAt(body, off)
		}
		if err == nil && tail != nil {
			_, err = s.dev.ReadAt(tail, off+int64(len(body)))
		}
	}
	s.spend(blk, (len(body)+len(tail))/s.cfg.BlockBytes, time.Since(start).Nanoseconds(), err == nil, write)
	return err
}

// spend charges an attempt at an op of n blocks from array block blk that
// took the given device time to every disk the op touches: disk
// (blk+i) mod D holds ⌈(n−i)/D⌉ of the blocks, and its share of the time
// is weighted by them, so the shares add up to the time. A successful
// attempt also charges each disk one op and its own blocks' bytes.
func (s *Drives) spend(blk int64, n int, took int64, ok, write bool) {
	d := s.disks
	first, bb := int(blk%int64(d)), int64(s.cfg.BlockBytes)
	done := 0
	for i := 0; i < min(n, d); i++ {
		k := (n - i + d - 1) / d
		share := took*int64(done+k)/int64(n) - took*int64(done)/int64(n)
		done += k
		m := &s.m[(first+i)%d]
		m.busyNanos.Add(share)
		switch {
		case !ok:
		case write:
			m.writes.Add(1)
			m.bytesWritten.Add(int64(k) * bb)
			m.writeNanos.Add(share)
		default:
			m.reads.Add(1)
			m.bytesRead.Add(int64(k) * bb)
			m.readNanos.Add(share)
		}
	}
}

// counters are the per-disk atomic tallies behind DiskStats. reads and
// writes count successful device ops that touched the disk, whatever
// their block count. readNanos and writeNanos sum the disk's shares of the
// device time of successful ops (the basis for measured throughput);
// busyNanos sums its shares of all device-op time including failed
// attempts (the basis for the busy-fraction utilization track).
type counters struct {
	reads, writes           atomic.Int64
	bytesRead, bytesWritten atomic.Int64
	retries, faults         atomic.Int64
	breakerTrips            atomic.Int64
	readNanos, writeNanos   atomic.Int64
	busyNanos               atomic.Int64
}

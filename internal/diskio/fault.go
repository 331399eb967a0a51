package diskio

import (
	"errors"
	"math/rand/v2"
	"time"
)

// ErrInjected is the transient error produced by the fault-injection
// layer. Callers retrying on it exercise exactly the code path a real
// transient medium error would take.
var ErrInjected = errors.New("diskio: injected transient fault")

// FaultConfig parameterizes the injection layer. Injection is
// deterministic given Seed: each disk derives its own PRNG stream, so a
// failing run replays exactly.
type FaultConfig struct {
	// ErrorRate is the probability in [0, 1] that a device op fails with
	// ErrInjected: one draw per op, however many blocks it moves.
	ErrorRate float64
	// TornWriteRate is the probability, given a failing write, that half
	// the transfer reaches the device before the fault — the classic torn
	// write a retry must repair by rewriting the whole transfer.
	TornWriteRate float64
	// LatencyJitter adds a uniform random delay in [0, LatencyJitter) to
	// every device op, however many blocks it moves, modeling
	// rotational/seek variance.
	LatencyJitter time.Duration
	// Seed feeds the per-disk PRNG streams.
	Seed uint64
}

func (f FaultConfig) enabled() bool {
	return f.ErrorRate > 0 || f.LatencyJitter > 0
}

// injector is one disk's fault source. Only its drive's transfers use it,
// and they never run concurrently.
type injector struct {
	cfg FaultConfig
	rng *rand.Rand
}

func newInjector(cfg FaultConfig, disk int) *injector {
	return &injector{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, uint64(disk)*0x9e3779b97f4a7c15+1)),
	}
}

func (in *injector) jitter() {
	if in.cfg.LatencyJitter > 0 {
		time.Sleep(time.Duration(in.rng.Int64N(int64(in.cfg.LatencyJitter))))
	}
}

func (in *injector) failRead() bool {
	return in.cfg.ErrorRate > 0 && in.rng.Float64() < in.cfg.ErrorRate
}

func (in *injector) failWrite() (fail, torn bool) {
	if in.cfg.ErrorRate > 0 && in.rng.Float64() < in.cfg.ErrorRate {
		return true, in.rng.Float64() < in.cfg.TornWriteRate
	}
	return false, false
}

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
// deterministic given Seed, so a failing run replays exactly.
type FaultConfig struct {
	// ErrorRate is the probability in [0, 1] that a device op fails with
	// ErrInjected: one draw per op, however many blocks and disks it
	// spans.
	ErrorRate float64
	// TornWriteRate is the probability, given a failing write, that half
	// the op's first device call reaches the device before the fault — the
	// classic torn write a retry must repair by rewriting the whole op.
	TornWriteRate float64
	// LatencyJitter adds a uniform random delay in [0, LatencyJitter) to
	// every device op, however many blocks it moves, modeling
	// rotational/seek variance.
	LatencyJitter time.Duration
	// Seed feeds the PRNG stream.
	Seed uint64
}

func (f FaultConfig) enabled() bool {
	return f.ErrorRate > 0 || f.LatencyJitter > 0
}

// injector is the device's fault source. Only its device's ops use it,
// and they never run concurrently.
type injector struct {
	cfg FaultConfig
	rng *rand.Rand
}

func newInjector(cfg FaultConfig) *injector {
	return &injector{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 1))}
}

func (in *injector) jitter() {
	if in.cfg.LatencyJitter > 0 {
		time.Sleep(time.Duration(in.rng.Int64N(int64(in.cfg.LatencyJitter))))
	}
}

// fail draws whether an op fails.
func (in *injector) fail() bool {
	return in.cfg.ErrorRate > 0 && in.rng.Float64() < in.cfg.ErrorRate
}

// torn draws whether a failing write is torn.
func (in *injector) torn() bool {
	return in.rng.Float64() < in.cfg.TornWriteRate
}

package cluster

import (
	"context"
	"math/rand/v2"
	"net"
	"time"
)

// DialConfig tunes how cluster links are established and how patient block
// delivery is, mirroring the retry/backoff/fail-fast discipline of the
// diskio layer: transient failures are retried with exponential backoff,
// and a peer that exhausts the whole budget is declared lost with a typed
// *WorkerLostError rather than hung on.
type DialConfig struct {
	// Attempts is how many times a dial is tried before the peer is
	// declared lost. Default 6.
	Attempts int
	// Backoff is the first retry's delay; it doubles per attempt. Default
	// 25ms.
	Backoff time.Duration
	// MaxBackoff caps the per-attempt delay. Default 1s.
	MaxBackoff time.Duration
	// IOTimeout bounds one block's write-plus-ack round trip (and control
	// handshakes); a peer silent for longer counts as a connection failure
	// and triggers the redial path. Default 30s.
	IOTimeout time.Duration
}

func (d DialConfig) withDefaults() DialConfig {
	if d.Attempts <= 0 {
		d.Attempts = 6
	}
	if d.Backoff <= 0 {
		d.Backoff = 25 * time.Millisecond
	}
	if d.MaxBackoff <= 0 {
		d.MaxBackoff = time.Second
	}
	if d.IOTimeout <= 0 {
		d.IOTimeout = 30 * time.Second
	}
	return d
}

// dial connects to addr with the configured retry/backoff budget. On
// exhaustion it returns a *WorkerLostError naming the peer.
//
// The per-attempt delay is exponential but capped at MaxBackoff and
// jittered to 50-100% of the nominal value: when a restarted coordinator
// comes back and every parked worker redials at once, full synchronized
// backoff would have the whole fleet sleeping through the resume window in
// lockstep. Cancellation is honored before the first attempt too, so a
// caller that is already dead never dials at all.
func (d DialConfig) dial(ctx context.Context, worker int, addr string) (net.Conn, error) {
	d = d.withDefaults()
	backoff := d.Backoff
	var lastErr error
	for attempt := 0; attempt < d.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			if err := sleepCtx(ctx, jitter(backoff)); err != nil {
				return nil, err
			}
			backoff *= 2
			if backoff > d.MaxBackoff {
				backoff = d.MaxBackoff
			}
		}
		var nd net.Dialer
		nd.Timeout = d.IOTimeout
		conn, err := nd.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, &WorkerLostError{Worker: worker, Addr: addr, Err: lastErr}
}

// jitter maps t to a uniform value in [t/2, t], desynchronizing retry
// storms without ever shrinking the delay below half its nominal budget.
func jitter(t time.Duration) time.Duration {
	if t <= 1 {
		return t
	}
	return t/2 + time.Duration(rand.Int64N(int64(t/2)+1))
}

// sleepCtx waits for t or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, t time.Duration) error {
	timer := time.NewTimer(t)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deadlineConn applies cfg.IOTimeout as a fresh read+write deadline; a zero
// timeout clears deadlines.
func setOpDeadline(conn net.Conn, cfg DialConfig) {
	cfg = cfg.withDefaults()
	_ = conn.SetDeadline(time.Now().Add(cfg.IOTimeout))
}

// setWriteDeadline bounds only the write side. Send paths on connections
// whose reads belong to a dedicated reader goroutine must use this: a full
// SetDeadline would arm a read deadline under a reader that is already
// blocked (it clears deadlines only before each read), turning a quiet
// 30-second stretch into a spurious connection loss.
func setWriteDeadline(conn net.Conn, cfg DialConfig) {
	cfg = cfg.withDefaults()
	_ = conn.SetWriteDeadline(time.Now().Add(cfg.IOTimeout))
}

// clearDeadline removes any pending deadline (used between phases, where a
// worker may legitimately sit idle while its peers catch up).
func clearDeadline(conn net.Conn) {
	_ = conn.SetDeadline(time.Time{})
}

package cluster

import (
	"errors"
	"fmt"
	"time"
)

// WorkerLostError reports a worker that the cluster could not reach after
// the dialer's full retry/backoff budget — the distributed analogue of
// diskio's DiskFailedError. It surfaces on whichever side observed the
// loss: a coordinator that cannot reach a worker, or a worker whose peer
// vanished mid-exchange (the worker reports it to the coordinator, which
// reconstructs the typed error for its caller).
type WorkerLostError struct {
	Worker int    // the lost worker's ID in the job (-1 if unknown)
	Addr   string // the address that stopped answering
	Err    error  // the last transport error
}

func (e *WorkerLostError) Error() string {
	return fmt.Sprintf("cluster: worker %d (%s) lost: %v", e.Worker, e.Addr, e.Err)
}

func (e *WorkerLostError) Unwrap() error { return e.Err }

// ClusterDegradedError reports a job abandoned because too many workers
// died: failover needs a majority of the original cluster (⌊W/2⌋+1
// survivors) to keep the re-scattered shards and the placement matrix
// meaningful. It wraps the *WorkerLostError of the loss that broke quorum,
// so errors.As reaches both types. It is built on the coordinator and
// never crosses the wire.
type ClusterDegradedError struct {
	Lost    []int // every worker lost so far, in detection order
	Workers int   // original cluster width W
	Quorum  int   // minimum survivors required
	Err     error // the quorum-breaking loss (a *WorkerLostError)
}

func (e *ClusterDegradedError) Error() string {
	return fmt.Sprintf("cluster: degraded below quorum: %d of %d workers lost (need %d alive): %v",
		len(e.Lost), e.Workers, e.Quorum, e.Err)
}

func (e *ClusterDegradedError) Unwrap() error { return e.Err }

// StragglerError reports a worker that stayed alive — it kept sending
// heartbeats — but fell past its phase deadline budget without making
// progress, and was demoted to the failover path. It is the latency dual
// of WorkerLostError: the worker is reachable, just uselessly slow. A job
// that survives the demotion never surfaces it (the failover rebuild
// absorbs it, reported via RecoveryStats); it reaches the caller only when
// the demotion breaks quorum, wrapped in a ClusterDegradedError. Like
// ClusterDegradedError it is built on the coordinator and never crosses
// the wire. jobs.Classify maps it to a retryable status.
type StragglerError struct {
	Worker int           // the straggling worker's ID in the job
	Addr   string        // its address (still reachable, unlike a lost worker)
	Phase  string        // the coordinator phase that blew its budget
	Budget time.Duration // the deadline budget the worker fell past
	Err    error         // detail: what the detector last observed
}

func (e *StragglerError) Error() string {
	return fmt.Sprintf("cluster: worker %d (%s) straggling in %s past budget %v: %v",
		e.Worker, e.Addr, e.Phase, e.Budget, e.Err)
}

func (e *StragglerError) Unwrap() error { return e.Err }

// errorToWire flattens err into a msgError, preserving WorkerLostError's
// identity across the process boundary.
func errorToWire(self int, err error) *msgError {
	var lost *WorkerLostError
	if errors.As(err, &lost) {
		return &msgError{Code: ecWorkerLost, Worker: uint32(lost.Worker), Addr: lost.Addr, Text: lost.Err.Error()}
	}
	return &msgError{Code: ecGeneric, Worker: uint32(self), Text: err.Error()}
}

// wireToError is the inverse: it rebuilds the typed error a msgError
// describes, so errors.As keeps working for callers on the far side. A
// generic error comes back as the worker's own text: every caller wraps
// it in an error that names the worker, and the text mostly names it too.
func wireToError(m *msgError) error {
	switch m.Code {
	case ecWorkerLost:
		return &WorkerLostError{Worker: int(m.Worker), Addr: m.Addr, Err: errors.New(m.Text)}
	default:
		return errors.New(m.Text)
	}
}

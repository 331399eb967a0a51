package core

import (
	"errors"
	"fmt"
)

// Checkpointing support for the disk sorter: the recursion of Algorithm 1
// is driven as an explicit depth-first work-list (see Resume in disk.go),
// so that between any two steps the sorter's complete state is a plain
// serializable value — the sorted segments emitted so far plus the
// descriptors of the work still pending. A crash-consistent caller
// persists that value at every commit and hands it back to Resume to
// continue from the last committed pass.

// SourceKind names the two input layouts a recursion level can have.
type SourceKind string

const (
	// KindStriped is a block-aligned region striped over all D physical
	// disks (the original input and every phase-1 sorted run).
	KindStriped SourceKind = "striped"
	// KindChains is the per-virtual-disk block chains a distribution pass
	// leaves behind for one bucket.
	KindChains SourceKind = "chains"
)

// ChainEntry is one virtual block written during distribution: its offset
// on its virtual disk and how many of its records are real (the final
// flushed block of a bucket may be partial; the rest is sentinel padding).
type ChainEntry struct {
	Off   int `json:"off"`
	Count int `json:"count"`
}

// SourceDesc serializably describes one pending recursion level.
type SourceDesc struct {
	Kind  SourceKind `json:"kind"`
	Depth int        `json:"depth"`
	// Striped fields.
	Off int `json:"off,omitempty"`
	N   int `json:"n,omitempty"`
	// Chains field: Chains[h] lists the bucket's blocks on virtual disk h
	// in write order.
	Chains [][]ChainEntry `json:"chains,omitempty"`
}

// StripedDesc describes a striped region at the given depth.
func StripedDesc(off, n, depth int) SourceDesc {
	return SourceDesc{Kind: KindStriped, Off: off, N: n, Depth: depth}
}

// Total returns how many records the descriptor covers.
func (d SourceDesc) Total() int {
	if d.Kind == KindStriped {
		return d.N
	}
	total := 0
	for _, ch := range d.Chains {
		for _, e := range ch {
			total += e.Count
		}
	}
	return total
}

// CheckDescs validates a deserialized work-list against the sorter's
// geometry (v virtual disks of vb-record virtual blocks). Journals come
// off disk, so a resume must not trust them blindly.
func CheckDescs(descs []SourceDesc, v, vb int) error {
	for i, d := range descs {
		switch d.Kind {
		case KindStriped:
			if d.Off < 0 || d.N < 0 || d.Chains != nil {
				return fmt.Errorf("core: work item %d: bad striped descriptor off=%d n=%d", i, d.Off, d.N)
			}
		case KindChains:
			if len(d.Chains) != v {
				return fmt.Errorf("core: work item %d: %d chains for %d virtual disks", i, len(d.Chains), v)
			}
			for h, ch := range d.Chains {
				for _, e := range ch {
					if e.Off < 0 || e.Count < 0 || e.Count > vb {
						return fmt.Errorf("core: work item %d: bad chain entry %+v on vdisk %d", i, e, h)
					}
				}
			}
		default:
			return fmt.Errorf("core: work item %d: unknown source kind %q", i, d.Kind)
		}
		if d.Depth < 0 || d.Depth > maxDepth {
			return fmt.Errorf("core: work item %d: depth %d out of range", i, d.Depth)
		}
	}
	return nil
}

// CheckpointState is the sorter's complete resumable state, handed to the
// Checkpoint hook after every committed step. Done and Work alias the
// sorter's internal slices and must be serialized, not retained.
type CheckpointState struct {
	// Done lists the sorted segments emitted so far, in output order.
	Done []Region
	// Work lists the pending recursion levels; the front is next.
	Work []SourceDesc
	// Metrics is the cumulative metrics snapshot, including any prior
	// (pre-resume) counters.
	Metrics Metrics
}

// ErrInjectedCrash is the error carried by the test-only crash hook
// (DiskConfig.CrashAfterCommits).
var ErrInjectedCrash = errors.New("core: injected crash")

// Abort carries an operational abort — a cancelled context, a failed
// checkpoint, an injected crash — out of the sorter through its
// panic-based error channel. The public façade recovers it and returns
// the wrapped error; programming bugs keep panicking.
type Abort struct{ Err error }

func (a Abort) Error() string { return "core: sort aborted: " + a.Err.Error() }

func (a Abort) Unwrap() error { return a.Err }

// StallError reports a distribution that stopped making progress: a
// pass left one bucket holding its whole subproblem, or the recursion
// passed maxDepth levels. Tiny memories can still cause it (D=1 B=1 M=8 on
// few-distinct input does). The sorter panics with it, like Abort, and the
// public façade returns it as an error.
type StallError struct {
	Depth int // recursion depth of the stalled subproblem
	N     int // its records
}

func (e *StallError) Error() string {
	return fmt.Sprintf("core: distribution is not making progress (depth %d, %d records)", e.Depth, e.N)
}

// checkCtx panics an Abort if the configured context is done. It is
// called only between I/Os, never during one, so no block transfer is in
// flight when the panic unwinds.
func (ds *DiskSorter) checkCtx() {
	if ds.cfg.Context == nil {
		return
	}
	if err := ds.cfg.Context.Err(); err != nil {
		panic(Abort{Err: err})
	}
}

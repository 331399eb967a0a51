package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// journalState is everything Resume reconstructs from a coordinator
// journal: the job identity, the membership as grown by joins, the last
// committed chunk-ownership map, the committed pivot set, and how far the
// job provably got.
type journalState struct {
	jobID     uint64
	addrs     []string
	s         int
	blockRecs int
	records   int
	assign    []int32 // nil: the crash predates scatter-done
	maxEpoch  uint32
	lastPhase string
	pivots    []uint64
	digest    uint64
	done      bool
}

// ErrNoJournaledStart means the journal exists but never recorded a job
// start — the coordinator died before committing anything worth resuming.
// Callers fall back to a fresh Sort; the input is still the source of truth.
var ErrNoJournaledStart = errors.New("journal records no job start")

func parseJournalState(entries []pdm.JournalEntry) (*journalState, error) {
	st := &journalState{}
	for _, e := range entries {
		var ev journalEvent
		if err := json.Unmarshal(e.Payload, &ev); err != nil {
			return nil, fmt.Errorf("cluster: journal entry %d: %w", e.Seq, err)
		}
		if ev.Epoch > st.maxEpoch {
			st.maxEpoch = ev.Epoch
		}
		switch ev.Event {
		case "start":
			st.jobID = ev.JobID
			st.addrs = ev.Addrs
			st.s = ev.S
			st.blockRecs = ev.BlockRecs
			st.records = ev.Records
		case "phase":
			st.lastPhase = ev.Phase
		case "pivots":
			st.pivots = ev.Pivots
			st.digest = ev.Digest
		case "join":
			st.addrs = append(st.addrs, ev.Addr)
		case "done":
			st.done = true
		}
		if len(ev.Assign) > 0 {
			st.assign = ev.Assign
		}
	}
	return st, nil
}

// Resume restarts a crashed coordinator's job from its journal: it replays
// the phase-commit log to recover the job identity, membership, chunk
// ownership, and committed pivots, re-dials the workers with the mResume
// handshake (each reports which epoch-tagged shard it still holds),
// re-scatters only what was lost, and re-enters the pipeline at the epoch
// cut. Output is byte-identical to an uninterrupted Sort — the
// committed pivots are cross-checked against the recomputed ones as a
// determinism assertion. Workers that cannot be re-reached count as
// losses; quorum decides whether the resumed job proceeds.
func Resume(ctx context.Context, inPath, outPath string, spec SortSpec) (*SortStats, error) {
	if spec.JournalPath == "" {
		return nil, fmt.Errorf("cluster: resume needs a journal path")
	}
	jr, entries, err := pdm.OpenJournalAppend(spec.JournalPath)
	if err != nil {
		return nil, fmt.Errorf("cluster: resume journal: %w", err)
	}
	st, err := parseJournalState(entries)
	if err != nil {
		jr.Close()
		return nil, err
	}
	if st.jobID == 0 || len(st.addrs) == 0 {
		jr.Close()
		return nil, fmt.Errorf("cluster: journal %s: %w", spec.JournalPath, ErrNoJournaledStart)
	}
	spec.Workers = st.addrs
	spec.Buckets = st.s
	spec.BlockRecs = st.blockRecs
	spec, err = spec.withDefaults()
	if err != nil {
		jr.Close()
		return nil, err
	}

	if st.done {
		// The journal committed completion. If the output is still intact
		// there is nothing to redo; otherwise fall through and rebuild it.
		if ost, serr := os.Stat(outPath); serr == nil && ost.Size() == int64(st.records)*int64(record.EncodedSize) {
			jr.Close()
			return &SortStats{
				Records: st.records, Workers: len(st.addrs), Buckets: st.s,
				Recovery: &RecoveryStats{Resumed: true, ResumePhase: "done"},
			}, nil
		}
	}

	in, err := os.Open(inPath)
	if err != nil {
		jr.Close()
		return nil, err
	}
	defer in.Close()
	ist, err := in.Stat()
	if err != nil {
		jr.Close()
		return nil, err
	}
	if ist.Size() != int64(st.records)*int64(record.EncodedSize) {
		jr.Close()
		return nil, fmt.Errorf("cluster: %s holds %d bytes, journal expects %d records of %d bytes",
			inPath, ist.Size(), st.records, record.EncodedSize)
	}

	c, teardown := newCoordinator(spec, in, inPath, outPath, st.records, st.jobID)
	defer teardown()
	c.jr = jr
	c.epoch = st.maxEpoch
	c.phase = "resume"
	c.wantPivots, c.wantDigest = st.pivots, st.digest
	if len(st.assign) == (c.n+scatterChunk-1)/scatterChunk {
		// Otherwise the crash predates the scatter's end or the map is
		// corrupt, and the resumed epoch deals every chunk afresh.
		c.assign = st.assign
	}
	return c.resume(ctx, st)
}

// resume makes the job live and re-attaches every worker it can reach —
// one it cannot is lost under the phase name "resume" — and, if quorum
// holds, opens the resumed job's first epoch.
func (c *coordinator) resume(ctx context.Context, st *journalState) (*SortStats, error) {
	sp := c.tr.Begin("cluster", "resume", 0)
	stop := c.goLive(ctx)
	defer stop()
	fresh := make(map[int]bool)
	expected := c.extents()
	for i := range c.spec.Workers {
		if err := c.attachResume(ctx, i, expected, fresh); err != nil {
			if ctx.Err() != nil {
				sp.End()
				return nil, ctx.Err()
			}
			_ = c.lost(i, err) // the quorum check below decides whether the job goes on
		}
	}
	if err := c.checkQuorum(); err != nil {
		sp.End()
		return nil, err
	}

	c.mu.Lock()
	c.rec.Resumed = true
	c.rec.ResumePhase = st.lastPhase
	c.mu.Unlock()
	// Journaled at the epoch openEpoch is about to open.
	c.journal(journalEvent{Event: "resume", Epoch: c.epoch + 1, Phase: st.lastPhase})
	_, recs, err := c.openEpoch(journalEvent{Event: "reseed"}, fresh)
	sp.End(
		obs.Attr{Key: "epoch", Val: int64(c.epoch)},
		obs.Attr{Key: "phase", Val: int64(len(st.lastPhase))},
		obs.Attr{Key: "rescattered-records", Val: int64(recs)},
	)
	return c.finish(ctx, err)
}

// attachResume re-opens worker i's control link with the mResume
// handshake. The worker waits up to sessionHandoff for the session the
// crash severed to finish; a handshake that still fails is retried a few
// times before the worker counts as lost. The link joins the job only once
// its handshake is through.
func (c *coordinator) attachResume(ctx context.Context, i int, expected []uint64, fresh map[int]bool) error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if err := sleepCtx(ctx, 25*time.Millisecond); err != nil {
				return err
			}
		}
		conn, err := c.spec.Dial.dial(ctx, i, c.spec.Workers[i])
		if err != nil {
			lastErr = err
			continue
		}
		l := c.newLink(i, conn)
		var rs msgResumeState
		err = l.send(mResume, c.hello(i, c.spec.Workers).encode())
		if err == nil {
			var payload []byte
			if payload, err = c.expectHandshakeOn(l, mResumeState); err == nil {
				err = rs.decode(payload)
			}
		}
		if err == nil {
			err = versionMismatch(rs.Version)
		}
		if err != nil {
			conn.Close()
			close(l.done)
			lastErr = err
			continue
		}
		c.mu.Lock()
		c.links[i] = l
		c.mu.Unlock()
		if rs.HaveShard != 1 || rs.ShardRecs != expected[i] {
			fresh[i] = true
		}
		return nil
	}
	return lastErr
}

// histDigest is an FNV-1a fold of the merged histogram, journaled with the
// pivots so a resumed (or re-planned) epoch can prove it reproduced the
// same global key distribution.
func histDigest(bins []uint64) uint64 {
	h := uint64(1469598103934665603)
	for _, v := range bins {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

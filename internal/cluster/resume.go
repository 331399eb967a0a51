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
	c.wantPivots, c.wantDigest = st.pivots, st.digest
	if len(st.assign) > 0 {
		c.chunks = (c.n + scatterChunk - 1) / scatterChunk
		if len(st.assign) == c.chunks {
			c.assign = append([]int32(nil), st.assign...)
		} else {
			c.chunks = 0 // corrupt ownership map: reseed re-deals everything
		}
	}
	return c.resume(ctx, st)
}

func (c *coordinator) resume(ctx context.Context, st *journalState) (*SortStats, error) {
	sp := c.tr.Begin("cluster", "resume", 0)
	c.links = make([]*link, c.W)
	fresh := make(map[int]bool)
	expected := c.expectedPerWorker()
	for i := range c.spec.Workers {
		if err := c.attachResume(ctx, i, expected, fresh); err != nil {
			if ctx.Err() != nil {
				sp.End()
				return nil, ctx.Err()
			}
			c.markDeadEarly(i, err)
		}
	}

	c.mu.Lock()
	dead := make([]int, 0, len(c.deadErr))
	for i := 0; i < c.W; i++ {
		if _, d := c.deadErr[i]; d {
			dead = append(dead, i)
		}
	}
	lastLost := c.lastLost
	c.mu.Unlock()
	quorum := c.W/2 + 1
	if c.W-len(dead) < quorum {
		sp.End()
		return nil, &ClusterDegradedError{Lost: dead, Workers: c.W, Quorum: quorum, Err: lastLost}
	}

	stop := c.watchCancel(ctx)
	defer stop()
	c.startMonitors(ctx)

	activeList := c.active()
	c.mu.Lock()
	c.epoch++
	epoch := c.epoch
	c.rec.Resumed = true
	c.rec.ResumePhase = st.lastPhase
	c.rec.ActiveWorkers = append([]int(nil), activeList...)
	c.mu.Unlock()
	c.journal(journalEvent{Event: "resume", Epoch: epoch, Phase: st.lastPhase})

	pending, recs, err := c.reseed(fresh)
	if err == nil {
		c.journal(journalEvent{
			Event: "reseed", Epoch: epoch, Blocks: pending,
			Extents: append([]uint64(nil), c.perWorker...),
			Assign:  append([]int32(nil), c.assign...),
		})
	}
	sp.End(
		obs.Attr{Key: "epoch", Val: int64(epoch)},
		obs.Attr{Key: "phase", Val: int64(len(st.lastPhase))},
		obs.Attr{Key: "rescattered-records", Val: int64(recs)},
	)
	return c.finish(ctx, err)
}

// expectedPerWorker derives each worker's shard size from the journaled
// chunk-ownership map; a worker whose parked shard does not match exactly
// is treated as fresh and re-fed.
func (c *coordinator) expectedPerWorker() []uint64 {
	out := make([]uint64, c.W)
	for t, w := range c.assign {
		if w < 0 {
			continue
		}
		m := scatterChunk
		if (t+1)*scatterChunk > c.n {
			m = c.n - t*scatterChunk
		}
		out[w] += uint64(m)
	}
	return out
}

// attachResume re-opens worker i's control link with the mResume
// handshake. A worker may still be tearing its old session down moments
// after the coordinator's crash severed the links, so a busy/handshake
// failure is retried a few times before the worker counts as lost.
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
		l := newLink(i, conn, c.spec.Dial, c.net)
		c.links[i] = l
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
			c.links[i] = nil
			lastErr = err
			continue
		}
		if rs.HaveShard != 1 || rs.ShardRecs != expected[i] {
			fresh[i] = true
		}
		return nil
	}
	return lastErr
}

// markDeadEarly records worker i as lost during resume's reconnect, before
// links or monitors exist for it. Unlike lost() it does not fire the loss
// signal — there are no phase waiters yet; quorum alone decides whether
// the resumed job proceeds.
func (c *coordinator) markDeadEarly(i int, err error) {
	c.mu.Lock()
	if _, dup := c.deadErr[i]; !dup {
		wl := c.asLost(i, err)
		c.deadErr[i] = wl
		c.lastLost = wl
		c.rec.LostWorkers = append(c.rec.LostWorkers, i)
		c.rec.LostPhases = append(c.rec.LostPhases, "resume")
	}
	l := c.links[i]
	c.mu.Unlock()
	if l != nil {
		l.conn.Close()
	}
	c.journal(journalEvent{Event: "lost", Epoch: c.epoch, Phase: "resume", Worker: i})
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

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"balancesort/internal/analyze"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

func TestStragglerErrorIdentity(t *testing.T) {
	inner := errors.New("no barrier completion after 300ms")
	err := fmt.Errorf("local-sort: %w", &StragglerError{
		Worker: 2, Addr: "10.0.0.2:7000", Phase: "local-sort",
		Budget: 300 * time.Millisecond, Err: inner,
	})

	var slow *StragglerError
	if !errors.As(err, &slow) {
		t.Fatal("errors.As failed through a wrap layer")
	}
	if slow.Worker != 2 || slow.Addr != "10.0.0.2:7000" || slow.Phase != "local-sort" {
		t.Fatalf("recovered %+v", slow)
	}
	if slow.Budget != 300*time.Millisecond {
		t.Fatalf("budget %v survived as %v", 300*time.Millisecond, slow.Budget)
	}
	if !errors.Is(err, inner) {
		t.Fatal("errors.Is failed to reach the detector's observation through Unwrap")
	}
	// A straggler is emphatically not a lost worker: the two types must
	// stay distinguishable under errors.As.
	var lost *WorkerLostError
	if errors.As(err, &lost) {
		t.Fatal("StragglerError also matched *WorkerLostError")
	}
}

// TestHedgeBlockDedup drives the phase-3 hedge stream through storeBlock
// directly: a retransmitted hedge block must be a stored-nothing no-op
// (hedged output would otherwise gain duplicate records), and a hedge
// stream arriving with no armed hedge — a zombie sender from an abandoned
// hedge — must be dropped as stale.
func TestHedgeBlockDedup(t *testing.T) {
	w := NewWorker(WorkerConfig{ScratchDir: t.TempDir()})
	s, err := newSession(w, &msgHello{JobID: 1, Worker: 0, Workers: 4, S: 8, BlockRecs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	data := make([]byte, 4*record.EncodedSize)

	// No hedge armed: the stream is debris from an epoch this worker never
	// agreed to cover, and must be rejected like a stale-epoch block.
	stale, err := s.storeBlock(&msgBlock{Phase: 3, Src: 2, Bucket: 0, Seq: 0, Data: data}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !stale {
		t.Fatal("phase-3 block accepted with no armed hedge")
	}

	f, err := os.Create(filepath.Join(t.TempDir(), "hedge-in.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s.mu.Lock()
	s.hedge = &hedgeState{victim: 2, want: 8, file: f}
	s.mu.Unlock()

	store := func(seq uint32) bool {
		t.Helper()
		stale, err := s.storeBlock(&msgBlock{Phase: 3, Src: 2, Bucket: 0, Seq: seq, Data: data}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stale
	}
	if store(0) {
		t.Fatal("armed hedge rejected its first block")
	}
	// Retransmission after a lost ack: same (phase, src, bucket, seq).
	if store(0) {
		t.Fatal("retransmission misreported as stale")
	}
	if store(1) {
		t.Fatal("armed hedge rejected its second block")
	}
	s.mu.Lock()
	recs, size := s.hedge.recs, s.hedge.size
	s.mu.Unlock()
	if recs != 8 {
		t.Fatalf("hedge holds %d records after a retransmit, want 8 (dedup failed)", recs)
	}
	if size != int64(2*len(data)) {
		t.Fatalf("hedge file grew to %d bytes, want %d", size, 2*len(data))
	}
}

// TestScaleShardBudget: a derived local-sort deadline must stretch with
// the worker's planned shard volume relative to the median finisher's —
// under bucket skew the biggest shard legitimately sorts slower, and
// demoting it would only re-spread the skew. When every finisher's shard
// was empty (extreme duplicate skew), the derived budget has no baseline
// and must issue no verdict for a worker that actually holds data.
func TestScaleShardBudget(t *testing.T) {
	c := &coordinator{expectGather: []uint64{100, 100, 1000, 0}}
	hard := 200 * time.Millisecond
	finished := []uint64{100, 100}

	if got := c.scaleShardBudget("local-sort", 0, finished, hard); got != hard {
		t.Fatalf("median-sized shard scaled: %v", got)
	}
	if got := c.scaleShardBudget("local-sort", 2, finished, hard); got != 10*hard {
		t.Fatalf("10x shard budget = %v, want %v", got, 10*hard)
	}
	if got := c.scaleShardBudget("drain", 2, finished, hard); got != 10*hard {
		t.Fatalf("drain must scale like local-sort, got %v", got)
	}
	if got := c.scaleShardBudget("exchange", 2, finished, hard); got != hard {
		t.Fatalf("exchange scaled by shard size: %v", got)
	}
	// Every finisher's shard empty: no verdict for a loaded worker, but an
	// equally-empty worker keeps the plain deadline.
	empty := []uint64{0, 0}
	if got := c.scaleShardBudget("local-sort", 2, empty, hard); got != 0 {
		t.Fatalf("no-baseline budget = %v, want 0 (no verdict)", got)
	}
	if got := c.scaleShardBudget("local-sort", 3, empty, hard); got != hard {
		t.Fatalf("empty-shard worker budget = %v, want %v", got, hard)
	}
	if got := c.scaleShardBudget("local-sort", 2, nil, hard); got != hard {
		t.Fatalf("no finishers must leave the budget alone, got %v", got)
	}
}

// TestStallChaosMatrix slows one of four workers 20000x at the start of
// every coordinator phase. The worker stays alive and keeps beating — only
// the progress-rate detector can see it. Each run must demote the
// straggler past its hard budget, fail over, record the demotion, and
// still produce byte-identical sorted output. The factor is huge because
// the stall is multiplicative on real work time: drain moves a worker's
// shard in a handful of ~100µs chunks, and the stall must still dwarf
// the budget on a fast machine — and the budget itself is a full second
// so a loaded CI machine cannot push a healthy worker past it in the
// post-failover epoch.
func TestStallChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("stall chaos matrix is slow under -short")
	}
	traceDir := os.Getenv("CHAOS_TRACE")
	for i, phase := range CoordinatorPhases {
		victim := i % 4
		t.Run(phase, func(t *testing.T) {
			var tr *obs.Tracer
			if traceDir != "" {
				tr = obs.New(0, nil)
				// Deferred so the trace survives a t.Fatal inside the run:
				// CI uploads these as the post-mortem for a failed matrix.
				defer func() {
					f, err := os.Create(filepath.Join(traceDir, "chaos-stall-"+phase+".json"))
					if err != nil {
						t.Errorf("chaos trace: %v", err)
						return
					}
					defer f.Close()
					if err := obs.WriteChromeTrace(f, tr.Spans()); err != nil {
						t.Errorf("chaos trace: %v", err)
					}
				}()
			}
			addrs := startWorkers(t, 4, fastWorker)
			stats := runClusterSort(t, addrs, 20000, int64(200+i), false, SortSpec{
				BlockRecs: 128,
				Dial:      fastDial,
				Heartbeat: fastHeartbeat(),
				Stall:     &StallSpec{Phase: phase, Worker: victim, Factor: 20001},
				Straggler: StragglerConfig{Enabled: true, HardBudget: time.Second},
				Trace:     tr,
			})
			checkRecovery(t, stats, 4, victim)
			checkBalanceBound(t, stats.X)
			found := false
			for _, w := range stats.Recovery.Stragglers {
				if w == victim {
					found = true
				}
			}
			if !found {
				t.Fatalf("victim %d missing from Stragglers %v (demotion not attributed to the detector)",
					victim, stats.Recovery.Stragglers)
			}
		})
	}
}

// TestStallHedgeWins stalls a worker's local sort 5000x with hedging on.
// The soft budget fires a speculative re-run of the victim's shard on the
// fastest idle peer, the hedge finishes first, the victim's sort is
// cancelled, and the job completes with no failover at all — and still
// byte-identical output. Victims 0 and 3 put the covered shard before and
// after the target's own in the drain order.
func TestStallHedgeWins(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge race is slow under -short")
	}
	for _, victim := range []int{1, 0, 3} {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			addrs := startWorkers(t, 4, fastWorker)
			jpath := filepath.Join(t.TempDir(), "cluster.journal")
			tr := obs.New(0, nil)
			stats := runClusterSort(t, addrs, 20000, 83, false, SortSpec{
				BlockRecs: 128,
				Dial:      fastDial,
				Heartbeat: fastHeartbeat(),
				Stall:     &StallSpec{Phase: "local-sort", Worker: victim, Factor: 5000},
				Straggler: StragglerConfig{
					Enabled:    true,
					Hedge:      true,
					SoftBudget: 150 * time.Millisecond,
					// A hard budget the race can never reach: a hedge win must
					// rescue the job on its own, not lean on demotion.
					HardBudget: time.Minute,
				},
				JournalPath: jpath,
				Trace:       tr,
			})
			rec := stats.Recovery
			if rec == nil {
				t.Fatal("hedge win left no recovery record")
			}
			if rec.HedgeWins != 1 {
				t.Fatalf("HedgeWins = %d, want 1 (%+v)", rec.HedgeWins, rec)
			}
			if len(rec.LostWorkers) != 0 || rec.Failovers != 0 {
				t.Fatalf("hedge win escalated to failover: %+v", rec)
			}

			entries, err := pdm.LoadJournal(jpath)
			if err != nil {
				t.Fatalf("load journal: %v", err)
			}
			sawHedge := false
			for _, e := range entries {
				var ev journalEvent
				if err := json.Unmarshal(e.Payload, &ev); err != nil {
					t.Fatalf("journal entry %d: %v", e.Seq, err)
				}
				if ev.Event == "hedge" && ev.Worker == victim {
					sawHedge = true
				}
			}
			if !sawHedge {
				t.Fatal("journal never recorded the hedge win")
			}

			if attrs := hedgeSpanAttrs(t, tr); attrs["victim"] != int64(victim) || attrs["armed"] != 1 || attrs["won"] != 1 {
				t.Fatalf("hedge span attrs %v, want victim %d, armed 1 and won 1", attrs, victim)
			}
		})
	}
}

// hedgeSpanAttrs returns the attributes of the coordinator's one hedge
// span in tr.
func hedgeSpanAttrs(t *testing.T, tr *obs.Tracer) map[string]int64 {
	t.Helper()
	var hedges []obs.Span
	for _, sp := range tr.Spans() {
		if sp.Node == 0 && sp.Layer == "cluster" && sp.Name == "hedge" {
			hedges = append(hedges, sp)
		}
	}
	if len(hedges) != 1 {
		t.Fatalf("coordinator recorded %d hedge spans, want 1", len(hedges))
	}
	attrs := map[string]int64{}
	for _, a := range hedges[0].Attrs {
		attrs[a.Key] = a.Val
	}
	return attrs
}

// hedgeWorkers starts n in-memory workers whose shard sorter intercepts
// one call: the first, anywhere in the cluster, that is some worker's
// second sort. A worker's first sort is its own shard, and these tests
// hedge before any failover, so that call is always the hedge's sort on
// its target. intercept runs in its place with the sort's context, the
// calling worker's ID, and a func that cancels that worker's Serve.
func hedgeWorkers(t *testing.T, n int, intercept func(ctx context.Context, worker int, stopServe func()) error) []string {
	t.Helper()
	var once sync.Once
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var sorts atomic.Int32
		cfg := WorkerConfig{ScratchDir: t.TempDir(), Dial: fastDial}
		cfg.SortShard = func(sctx context.Context, in, out, scratch string) error {
			hit := false
			if sorts.Add(1) == 2 {
				once.Do(func() { hit = true })
			}
			if hit {
				return intercept(sctx, i, cancel)
			}
			return memorySortShard(sctx, in, out, scratch)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = NewWorker(cfg).Serve(ctx, ln)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// hedgedSpec stalls worker 1's local sort by factor under an early soft
// budget and a hard budget no run reaches, so the hedge fires and the
// victim is never demoted.
func hedgedSpec(factor int) SortSpec {
	return SortSpec{
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: fastHeartbeat(),
		Stall:     &StallSpec{Phase: "local-sort", Worker: 1, Factor: factor},
		Straggler: StragglerConfig{
			Enabled:    true,
			Hedge:      true,
			SoftBudget: 30 * time.Millisecond,
			HardBudget: time.Minute,
		},
	}
}

// TestStallHedgeLoses: the hedge's sort never finishes, so the stalled
// victim finishes first. The race must go to the victim — one loss, no
// win — with the target's sort cancelled and no failover. The target was
// armed, and the trace, and the analyzer reading it, say so.
func TestStallHedgeLoses(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge race is slow under -short")
	}
	addrs := hedgeWorkers(t, 4, func(ctx context.Context, _ int, _ func()) error {
		<-ctx.Done()
		return ctx.Err()
	})
	spec := hedgedSpec(200)
	spec.Trace = obs.New(0, nil)
	stats := runClusterSort(t, addrs, 20000, 97, false, spec)
	rec := stats.Recovery
	if rec == nil || rec.HedgeLosses != 1 || rec.HedgeWins != 0 {
		t.Fatalf("want one hedge loss and no win, got %+v", rec)
	}
	if len(rec.LostWorkers) != 0 || rec.Failovers != 0 {
		t.Fatalf("a lost hedge escalated to failover: %+v", rec)
	}
	if attrs := hedgeSpanAttrs(t, spec.Trace); attrs["armed"] != 1 || attrs["won"] != 0 {
		t.Fatalf("hedge span attrs %v, want armed 1 and won 0", attrs)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, spec.Trace.Spans()); err != nil {
		t.Fatal(err)
	}
	at, err := analyze.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	analyze.WriteText(&buf, analyze.Analyze(at, 0))
	if !strings.Contains(buf.String(), "(armed, lost)") {
		t.Fatalf("analyzer report does not call the hedge armed and lost:\n%s", buf.String())
	}
}

// TestStallHedgeSortFails: a hedge whose sort fails on the target is
// abandoned without a verdict. The barrier keeps waiting for the victim,
// and the job ends as if no hedge had run.
func TestStallHedgeSortFails(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge race is slow under -short")
	}
	addrs := hedgeWorkers(t, 4, func(context.Context, int, func()) error {
		return errors.New("injected hedge sort failure")
	})
	stats := runClusterSort(t, addrs, 20000, 101, false, hedgedSpec(200))
	if stats.Recovery != nil {
		t.Fatalf("a failed hedge left a recovery record: %+v", stats.Recovery)
	}
}

// TestStallHedgeTargetLost: the hedge target dies mid-hedge. Losing its
// control link is a worker loss like any other: one failover, the target
// recorded lost, and no hedge win.
func TestStallHedgeTargetLost(t *testing.T) {
	if testing.Short() {
		t.Skip("hedge race is slow under -short")
	}
	var target atomic.Int32
	target.Store(-1)
	addrs := hedgeWorkers(t, 4, func(ctx context.Context, worker int, stopServe func()) error {
		target.Store(int32(worker))
		stopServe()
		<-ctx.Done()
		return ctx.Err()
	})
	stats := runClusterSort(t, addrs, 20000, 103, false, hedgedSpec(100))
	rec := stats.Recovery
	tg := int(target.Load())
	if rec == nil || rec.Failovers != 1 || len(rec.LostWorkers) != 1 || rec.LostWorkers[0] != tg {
		t.Fatalf("want one failover that lost the target %d, got %+v", tg, rec)
	}
	if rec.HedgeWins != 0 {
		t.Fatalf("a lost target won its hedge: %+v", rec)
	}
}

// TestStallHedgeFallbackDemote: hedging only covers the local sort. A
// stall in any other phase under a hedge-enabled config must fall back to
// the demotion path — the hedge machinery must not suppress it.
func TestStallHedgeFallbackDemote(t *testing.T) {
	if testing.Short() {
		t.Skip("stall demotion is slow under -short")
	}
	const victim = 3
	addrs := startWorkers(t, 4, fastWorker)
	stats := runClusterSort(t, addrs, 20000, 89, false, SortSpec{
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: fastHeartbeat(),
		Stall:     &StallSpec{Phase: "exchange", Worker: victim, Factor: 2001},
		Straggler: StragglerConfig{
			Enabled:    true,
			Hedge:      true,
			SoftBudget: 150 * time.Millisecond,
			HardBudget: time.Second,
		},
	})
	checkRecovery(t, stats, 4, victim)
	if stats.Recovery.HedgeWins != 0 {
		t.Fatalf("a hedge claimed a win outside local-sort: %+v", stats.Recovery)
	}
	found := false
	for _, w := range stats.Recovery.Stragglers {
		if w == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("victim %d missing from Stragglers %v", victim, stats.Recovery.Stragglers)
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// killResume runs one coordinator-crash-and-resume cycle: Sort is killed by
// the coordinator chaos hook at the named phase, then Resume replays the
// journal against the same (still running, shard-parking) workers. The
// resumed output must be byte-identical to the reference order.
func killResume(t *testing.T, phase string, seed int64, n int) *SortStats {
	t.Helper()
	addrs := startWorkers(t, 4, fastWorker)
	inPath, want := makeInput(t, n, seed, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	jpath := filepath.Join(t.TempDir(), "cluster.journal")
	spec := SortSpec{
		Workers:     addrs,
		BlockRecs:   128,
		Dial:        fastDial,
		Heartbeat:   fastHeartbeat(),
		Chaos:       &ChaosSpec{Phase: phase, Coordinator: true},
		JournalPath: jpath,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := Sort(ctx, inPath, outPath, spec)
	if !errors.Is(err, ErrCoordinatorChaosKill) {
		t.Fatalf("coordinator chaos at %q returned %v, want ErrCoordinatorChaosKill", phase, err)
	}

	spec.Chaos = nil
	stats, err := Resume(ctx, inPath, outPath, spec)
	if err != nil {
		t.Fatalf("resume after kill at %q: %v", phase, err)
	}
	checkOutput(t, outPath, want)
	if stats.Recovery == nil || !stats.Recovery.Resumed {
		t.Fatalf("resumed run did not report Recovery.Resumed: %+v", stats.Recovery)
	}
	return stats
}

// TestChaosCoordinatorResumeMatrix kills the coordinator at the start of
// every phase and resumes from the journal. Each resumed run must produce
// byte-identical output, report itself as resumed, and keep Invariant 2 on
// the re-planned exchange matrix. After the scatter, every worker holds its
// whole shard when the coordinator dies, so every resumed worker must adopt
// its parked shard and the resume must re-stream nothing; a kill at the
// exchange aborts the workers mid-barrier, where the job goroutine sees
// only the abort's consequence, not the dead link.
func TestChaosCoordinatorResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinator resume matrix is slow under -short")
	}
	for i, phase := range CoordinatorPhases {
		t.Run(phase, func(t *testing.T) {
			stats := killResume(t, phase, int64(200+i), 20000)
			checkBalanceBound(t, stats.X)
			if rec := stats.Recovery; phase != "scatter" && rec.RescatteredRecords != 0 {
				t.Errorf("resume after a kill at %q re-streamed %d records; every worker should have adopted its parked shard",
					phase, rec.RescatteredRecords)
			}
		})
	}
}

// TestChaosJoinMatrix admits a fifth worker at the start of every phase of
// a four-worker job. Every run must treat the joiner as an added virtual
// disk: the epoch bumps, placement re-plans over W+1 disks (Invariant 2
// re-checked on the resulting matrix), and the output bytes do not move.
func TestChaosJoinMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("join matrix is slow under -short")
	}
	for i, phase := range CoordinatorPhases {
		t.Run(phase, func(t *testing.T) {
			addrs := startWorkers(t, 5, fastWorker)
			stats := runClusterSort(t, addrs[:4], 20000, int64(300+i), false, SortSpec{
				BlockRecs: 128,
				Dial:      fastDial,
				Heartbeat: fastHeartbeat(),
				Join:      &JoinSpec{Phase: phase, Addr: addrs[4]},
			})
			rec := stats.Recovery
			if rec == nil || rec.Joins != 1 {
				t.Fatalf("join at %q not recorded: %+v", phase, rec)
			}
			if len(rec.JoinedWorkers) != 1 || rec.JoinedWorkers[0] != 4 {
				t.Fatalf("JoinedWorkers %v, want [4]", rec.JoinedWorkers)
			}
			if len(rec.ActiveWorkers) != 5 {
				t.Fatalf("ActiveWorkers %v after join, want all 5", rec.ActiveWorkers)
			}
			checkBalanceBound(t, stats.X)
			if len(stats.X) > 0 && len(stats.X[0]) != 5 {
				t.Fatalf("X has %d columns, want 5 (joiner is a placement disk)", len(stats.X[0]))
			}
		})
	}
}

// churnWorkers starts W workers where each index in killAt severs all of
// its own connections when asked to sort its shard — the deterministic way
// to land a loss after a join has already grown the membership.
func churnWorkers(t *testing.T, w int, killAt map[int]bool) []string {
	t.Helper()
	kills := make([]context.CancelFunc, w)
	addrs := make([]string, w)
	for i := 0; i < w; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := WorkerConfig{ScratchDir: t.TempDir(), Dial: fastDial}
		if killAt[i] {
			i := i
			cfg.SortShard = func(ctx context.Context, _, _, _ string) error {
				kills[i]()
				<-ctx.Done()
				return ctx.Err()
			}
		}
		wk := NewWorker(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		kills[i] = cancel
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = wk.Serve(ctx, ln)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestJoinThenLossAtQuorum pins the quorum arithmetic under churn: a join
// grows the cluster from 4 to 5 (quorum 3), then two workers die at local
// sort. Three survivors are exactly quorum, so the job must complete with
// byte-identical output.
func TestJoinThenLossAtQuorum(t *testing.T) {
	addrs := churnWorkers(t, 5, map[int]bool{2: true, 3: true})
	inPath, want := makeInput(t, 20000, 37, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := Sort(ctx, inPath, outPath, SortSpec{
		Workers:   addrs[:4],
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: fastHeartbeat(),
		Join:      &JoinSpec{Phase: "plan", Addr: addrs[4]},
	})
	if err != nil {
		t.Fatalf("join then two losses at quorum: %v", err)
	}
	checkOutput(t, outPath, want)
	rec := stats.Recovery
	if rec == nil || rec.Joins != 1 {
		t.Fatalf("join not recorded: %+v", rec)
	}
	if len(rec.LostWorkers) != 2 {
		t.Fatalf("LostWorkers %v, want exactly the two sort-phase victims", rec.LostWorkers)
	}
	if len(rec.ActiveWorkers) != 3 {
		t.Fatalf("ActiveWorkers %v, want 3 (exactly quorum of the grown cluster)", rec.ActiveWorkers)
	}
}

// TestJoinThenLossBelowQuorum is the other side of the boundary: after the
// same 4→5 join, three deaths leave two survivors — one below quorum — and
// the job must converge to a typed *ClusterDegradedError that reflects the
// grown membership.
func TestJoinThenLossBelowQuorum(t *testing.T) {
	addrs := churnWorkers(t, 5, map[int]bool{1: true, 2: true, 3: true})
	inPath, _ := makeInput(t, 20000, 43, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := Sort(ctx, inPath, outPath, SortSpec{
		Workers:   addrs[:4],
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: fastHeartbeat(),
		Join:      &JoinSpec{Phase: "plan", Addr: addrs[4]},
	})
	var deg *ClusterDegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("three losses after a join returned %v, want *ClusterDegradedError", err)
	}
	if deg.Workers != 5 || deg.Quorum != 3 {
		t.Fatalf("degraded error %+v, want quorum 3 of the grown 5-worker cluster", deg)
	}
}

// TestHeartbeatFlapDuringJoin makes every beat of the incumbents and of
// the joiner go late while the joiner is admitted mid-job. The join's
// epoch bump and re-plan must not let the late beats escalate into a
// spurious failover; the control run, with a silence budget below the
// flap's silences, must fail over.
func TestHeartbeatFlapDuringJoin(t *testing.T) {
	addrs := startWorkers(t, 5, flapWorker)
	stats := runClusterSort(t, addrs[:4], 10000, 61, false, SortSpec{
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: flapHeartbeat(5),
		Join:      &JoinSpec{Phase: "histogram-merge", Addr: addrs[4]},
	})
	rec := stats.Recovery
	if rec == nil || rec.Joins != 1 {
		t.Fatalf("join not recorded: %+v", rec)
	}
	if rec.Failovers != 0 || len(rec.LostWorkers) != 0 {
		t.Fatalf("heartbeat flap during join escalated to failover: %+v", rec)
	}
	flapControl(t, 5, 61, SortSpec{BlockRecs: 128, Dial: fastDial, Join: &JoinSpec{Phase: "histogram-merge"}})
}

// TestResumeJournalReplay replays the phase-commit log a kill-and-resume
// cycle writes: it must carry the job identity, the committed pivots and
// histogram digest, per-worker phase completions, the resume cut with its
// reseeded ownership map, and the final done record.
func TestResumeJournalReplay(t *testing.T) {
	addrs := startWorkers(t, 4, fastWorker)
	inPath, want := makeInput(t, 20000, 47, true)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	jpath := filepath.Join(t.TempDir(), "cluster.journal")
	spec := SortSpec{
		Workers:     addrs,
		BlockRecs:   128,
		Dial:        fastDial,
		Heartbeat:   fastHeartbeat(),
		Chaos:       &ChaosSpec{Phase: "local-sort", Coordinator: true},
		JournalPath: jpath,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := Sort(ctx, inPath, outPath, spec); !errors.Is(err, ErrCoordinatorChaosKill) {
		t.Fatalf("Sort returned %v, want ErrCoordinatorChaosKill", err)
	}
	spec.Chaos = nil
	if _, err := Resume(ctx, inPath, outPath, spec); err != nil {
		t.Fatalf("resume: %v", err)
	}
	checkOutput(t, outPath, want)

	entries, err := pdm.LoadJournal(jpath)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	var start, pivots, wdone, resume, reseed, done bool
	for _, e := range entries {
		var ev journalEvent
		if err := json.Unmarshal(e.Payload, &ev); err != nil {
			t.Fatalf("journal entry %d: %v", e.Seq, err)
		}
		switch ev.Event {
		case "start":
			start = ev.JobID != 0 && len(ev.Addrs) == 4 && ev.Records == 20000
		case "pivots":
			pivots = len(ev.Pivots) > 0 && ev.Digest != 0
		case "wdone":
			wdone = true
		case "resume":
			resume = true
		case "reseed":
			reseed = len(ev.Assign) > 0
		case "done":
			done = true
		}
	}
	if !start || !pivots || !wdone || !resume || !reseed || !done {
		t.Fatalf("journal incomplete: start=%v pivots=%v wdone=%v resume=%v reseed=%v done=%v",
			start, pivots, wdone, resume, reseed, done)
	}

	// A second resume against the completed journal is a cheap no-op: the
	// done record plus the intact output short-circuits the whole pipeline.
	stats, err := Resume(ctx, inPath, outPath, spec)
	if err != nil {
		t.Fatalf("idempotent resume: %v", err)
	}
	if stats.Recovery == nil || stats.Recovery.ResumePhase != "done" {
		t.Fatalf("second resume re-ran the job: %+v", stats.Recovery)
	}
}

// TestResumeEmptyJournal: a journal that never recorded a start (the
// coordinator died before committing anything) must fail with the typed
// ErrNoJournaledStart so callers fall back to a fresh sort.
func TestResumeEmptyJournal(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "cluster.journal")
	if _, err := pdm.CreateJournal(jpath); err != nil {
		t.Fatal(err)
	}
	inPath, _ := makeInput(t, 100, 3, false)
	_, err := Resume(context.Background(), inPath, filepath.Join(t.TempDir(), "out.dat"),
		SortSpec{JournalPath: jpath})
	if !errors.Is(err, ErrNoJournaledStart) {
		t.Fatalf("resume of a startless journal returned %v, want ErrNoJournaledStart", err)
	}
}

// TestDedupEpochBounded: a rescatter announcement must eagerly drop every
// dedup entry belonging to a superseded epoch — under membership churn the
// per-stream map would otherwise only ever grow.
func TestDedupEpochBounded(t *testing.T) {
	w := NewWorker(WorkerConfig{ScratchDir: t.TempDir()})
	s, err := newSession(w, &msgHello{JobID: 1, Worker: 0, Workers: 4, S: 8, BlockRecs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	s.ctx = context.Background()

	data := make([]byte, 4*record.EncodedSize)
	for src := uint32(0); src < 3; src++ {
		if _, err := s.storeBlock(&msgBlock{Phase: 1, Src: src, Bucket: 0, Seq: 0, Data: data}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.last) != 3 {
		t.Fatalf("dedup holds %d entries, want 3", len(s.last))
	}
	if err := s.resetEpoch(&msgRescatter{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if len(s.last) != 0 {
		t.Fatalf("dedup still holds %d stale-epoch entries after the epoch bump", len(s.last))
	}
	// Entries stored under the new epoch survive the *same* epoch's replayed
	// announcement (idempotent rescatter) but not a later one.
	if _, err := s.storeBlock(&msgBlock{Phase: 1, Src: 0, Bucket: 0, Seq: 0, Data: data}, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.resetEpoch(&msgRescatter{Epoch: 2}); err != nil {
		t.Fatal(err)
	}
	if len(s.last) != 1 {
		t.Fatalf("same-epoch entry dropped: dedup holds %d entries, want 1", len(s.last))
	}
	if err := s.resetEpoch(&msgRescatter{Epoch: 3}); err != nil {
		t.Fatal(err)
	}
	if len(s.last) != 0 {
		t.Fatalf("epoch-2 entry survived the epoch-3 bump: %d entries", len(s.last))
	}
}

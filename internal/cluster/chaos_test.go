package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

// fastDial keeps chaos tests snappy: failover spends most of its wall time
// in redial backoff and heartbeat intervals, all of which can shrink by two
// orders of magnitude on loopback.
var fastDial = DialConfig{Attempts: 2, Backoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}

func fastWorker(_ int, cfg *WorkerConfig) { cfg.Dial = fastDial }

func fastHeartbeat() Heartbeat {
	return Heartbeat{Interval: 25 * time.Millisecond, MissBudget: 3}
}

// checkRecovery asserts that stats records exactly the expected worker
// losses and that the surviving column set is consistent with them.
func checkRecovery(t *testing.T, stats *SortStats, workers int, victims ...int) {
	t.Helper()
	rec := stats.Recovery
	if rec == nil {
		t.Fatal("job recovered from worker loss but SortStats.Recovery is nil")
	}
	if rec.Failovers < 1 {
		t.Fatalf("recovery recorded %d failovers, want >= 1", rec.Failovers)
	}
	lost := make(map[int]bool)
	for _, w := range rec.LostWorkers {
		lost[w] = true
	}
	for _, v := range victims {
		if !lost[v] {
			t.Fatalf("victim %d missing from LostWorkers %v", v, rec.LostWorkers)
		}
	}
	if len(rec.LostPhases) != len(rec.LostWorkers) {
		t.Fatalf("%d lost phases for %d lost workers", len(rec.LostPhases), len(rec.LostWorkers))
	}
	if len(rec.ActiveWorkers) != workers-len(rec.LostWorkers) {
		t.Fatalf("ActiveWorkers %v after losing %v of %d", rec.ActiveWorkers, rec.LostWorkers, workers)
	}
	for _, a := range rec.ActiveWorkers {
		if lost[a] {
			t.Fatalf("worker %d is both lost and active", a)
		}
	}
	if len(stats.X) > 0 && len(stats.X[0]) != len(rec.ActiveWorkers) {
		t.Fatalf("X has %d columns, want one per survivor (%d)", len(stats.X[0]), len(rec.ActiveWorkers))
	}
}

// TestChaosMatrix kills one of four workers at the start of every
// coordinator phase. Each run must still produce byte-identical sorted
// output (runClusterSort compares against the reference order), record the
// loss, and re-plan over the shrunk disk set without breaking the balance
// bound on the post-failover matrix.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is slow under -short")
	}
	for i, phase := range CoordinatorPhases {
		victim := i % 4
		t.Run(phase, func(t *testing.T) {
			addrs := startWorkers(t, 4, fastWorker)
			stats := runClusterSort(t, addrs, 20000, int64(100+i), false, SortSpec{
				BlockRecs: 128,
				Dial:      fastDial,
				Heartbeat: fastHeartbeat(),
				Chaos:     &ChaosSpec{Phase: phase, Worker: victim},
			})
			checkRecovery(t, stats, 4, victim)
			checkBalanceBound(t, stats.X)
		})
	}
}

// TestStalePeerLossReportDropped pins the race behind a rare
// TestChaosMatrix failure: after a failover, a survivor that has entered
// the new epoch refuses a slower survivor's old-epoch connections, and the
// slower one, its retries spent before its own re-scatter arrives, reports
// the live peer lost. The coordinator must drop a report from a replaced
// epoch and still act on one from the current epoch.
func TestStalePeerLossReportDropped(t *testing.T) {
	c := &coordinator{W: 4, epoch: 2, deadErr: make(map[int]error)}
	report := func(epoch uint32) frameMsg {
		pl := msgPeerLost{Epoch: epoch, Worker: 2, Addr: "w2", Text: "EOF"}
		return frameMsg{typ: mPeerLost, payload: pl.encode()}
	}
	if _, _, skip, err := c.triage(0, report(1)); !skip || err != nil {
		t.Fatalf("report from epoch 1 at epoch 2: skip=%v err=%v, want it dropped", skip, err)
	}
	if _, _, skip, err := c.triage(0, report(2)); skip || !errors.Is(err, errFailover) {
		t.Fatalf("report from the current epoch: skip=%v err=%v, want a failover", skip, err)
	}
}

// TestChaosKillDuringDrain pins down the hardest edge of the matrix: the
// victim dies while the coordinator is already streaming sorted shards into
// the output file. The partial output must be thrown away and rebuilt, and
// the loss must be attributed to the drain phase.
func TestChaosKillDuringDrain(t *testing.T) {
	addrs := startWorkers(t, 4, fastWorker)
	stats := runClusterSort(t, addrs, 20000, 71, true, SortSpec{
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: fastHeartbeat(),
		Chaos:     &ChaosSpec{Phase: "drain", Worker: 0},
	})
	checkRecovery(t, stats, 4, 0)
	found := false
	for _, p := range stats.Recovery.LostPhases {
		if p == "drain" {
			found = true
		}
	}
	if !found {
		t.Fatalf("loss phases %v do not include the drain phase", stats.Recovery.LostPhases)
	}
}

// TestChaosHangDetectedByHeartbeat makes one of four workers go silent
// instead of dying, at the start of every coordinator phase, victim i mod 4
// as in TestChaosMatrix: its connections stay open but it stops beating
// and stops making progress. Only the heartbeat detector can notice that,
// whichever worker the coordinator is waiting on, so a passing run proves
// the link readers' silence budget works end to end.
func TestChaosHangDetectedByHeartbeat(t *testing.T) {
	for i, phase := range CoordinatorPhases {
		victim := i % 4
		t.Run(phase, func(t *testing.T) {
			addrs := startWorkers(t, 4, fastWorker)
			stats := runClusterSort(t, addrs, 20000, int64(53+i), false, SortSpec{
				BlockRecs: 128,
				Dial:      fastDial,
				Heartbeat: Heartbeat{Interval: 25 * time.Millisecond, MissBudget: 2},
				Chaos:     &ChaosSpec{Phase: phase, Worker: victim, Hang: true},
			})
			checkRecovery(t, stats, 4, victim)
		})
	}
}

// TestChaosSilentWorkerLost: worker 1, a fake, answers its hello and then
// falls silent, while the coordinator waits on worker 0, a fake that holds
// back its answer until the coordinator has hung up on worker 1 and then
// sends nothing but beats. The phase goroutine never reads worker 1's link
// meanwhile, so only that link's reader can declare worker 1 lost: once
// the link has been silent for Interval·(MissBudget+1), give or take
// scheduling slack, and the journal files the loss under "connect".
// Worker 0 is not lost, and with one of two workers gone the job falls
// below quorum.
func TestChaosSilentWorkerLost(t *testing.T) {
	hb := Heartbeat{Interval: 20 * time.Millisecond, MissBudget: 2}
	const slack = time.Second
	var (
		fakes       sync.WaitGroup
		silentSince time.Time                 // worker 1's answer is out
		hungUp      = make(chan time.Time, 1) // the coordinator closed worker 1's link
		released    = make(chan struct{})     // worker 0 may answer
		quit        = make(chan struct{})     // the test is over
	)
	defer fakes.Wait()
	defer close(quit)
	serve := func(ln net.Listener, worker int) {
		defer fakes.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		if typ, _, err := readFrame(br, nil); err != nil || typ != mHello {
			return
		}
		if worker == 0 {
			select {
			case <-released:
			case <-quit:
				return
			}
		}
		if writeFrame(conn, mHelloAck, (&msgVersion{Version: protocolVersion}).encode()) != nil {
			return
		}
		if worker == 1 {
			silentSince = time.Now()
			for {
				if _, _, err := readFrame(br, nil); err != nil {
					hungUp <- time.Now()
					close(released)
					return
				}
			}
		}
		// Worker 0 reads and drops what the coordinator sends, and beats
		// four times per interval until its link closes.
		fakes.Add(1)
		go func() {
			defer fakes.Done()
			for {
				if _, _, err := readFrame(br, nil); err != nil {
					conn.Close()
					return
				}
			}
		}()
		beat := (&msgProgress{}).encode()
		for writeFrame(conn, mProgress, beat) == nil {
			time.Sleep(hb.Interval / 4)
		}
	}
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		fakes.Add(1)
		go serve(ln, i)
	}

	inPath, _ := makeInput(t, 1000, 71, false)
	dial := fastDial
	dial.IOTimeout = 5 * time.Second // bounds worker 0's answer when worker 1's loss never comes
	jpath := filepath.Join(t.TempDir(), "cluster.journal")
	_, err := Sort(context.Background(), inPath, filepath.Join(t.TempDir(), "out.dat"), SortSpec{
		Workers: addrs, BlockRecs: 128, Dial: dial, Heartbeat: hb, JournalPath: jpath,
	})
	var deg *ClusterDegradedError
	var lost *WorkerLostError
	if !errors.As(err, &deg) || !errors.As(err, &lost) {
		t.Fatalf("sort with a silent worker returned %v, want a ClusterDegradedError", err)
	}
	if len(deg.Lost) != 1 || deg.Lost[0] != 1 || lost.Worker != 1 || !strings.Contains(lost.Error(), "silent") {
		t.Fatalf("lost %v with cause %v, want worker 1 alone, lost to its silence", deg.Lost, lost)
	}
	budget := hb.Interval * time.Duration(hb.MissBudget+1)
	if silent := (<-hungUp).Sub(silentSince); silent < budget || silent > budget+slack {
		t.Fatalf("worker 1 declared lost after %v of silence, want %v plus at most %v", silent, budget, slack)
	}
	entries, err := pdm.LoadJournal(jpath)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	var losses []journalEvent
	for _, e := range entries {
		var ev journalEvent
		if err := json.Unmarshal(e.Payload, &ev); err != nil {
			t.Fatalf("journal entry %d: %v", e.Seq, err)
		}
		if ev.Event == "lost" {
			losses = append(losses, ev)
		}
	}
	if len(losses) != 1 || losses[0].Worker != 1 || losses[0].Phase != "connect" {
		t.Fatalf("journal files losses %+v, want worker 1's alone, under \"connect\"", losses)
	}
}

// flapWorker makes every beat of a worker's sessions go 40ms late, so at
// the 20ms interval of flapHeartbeat its link falls silent for 60ms at a
// time, and holds its shard sort for 300ms: through the local sort a
// worker sends nothing but beats, so the job runs through several such
// silences with no other frame to restart the budget.
func flapWorker(_ int, cfg *WorkerConfig) {
	cfg.Dial = fastDial
	cfg.BeatDelay = 40 * time.Millisecond
	cfg.BeatDelayCount = 1000
	cfg.SortShard = func(ctx context.Context, in, out, scratch string) error {
		if err := sleepCtx(ctx, 300*time.Millisecond); err != nil {
			return err
		}
		return memorySortShard(ctx, in, out, scratch)
	}
}

// flapHeartbeat beats every 20ms and declares a worker lost after
// missBudget+1 intervals of silence: 5 gives a 120ms budget, above
// flapWorker's 60ms silences, and 1 a 40ms one, below them.
func flapHeartbeat(missBudget int) Heartbeat {
	return Heartbeat{Interval: 20 * time.Millisecond, MissBudget: missBudget}
}

// flapControl reruns a flap test's job on fresh flapping workers with a
// silence budget below the flap's silences, which must fail it over:
// without that the flap test's clean run would prove nothing. The job
// either finishes on the survivors, byte-identically, or fails over until
// it drops below quorum.
func flapControl(t *testing.T, workers int, seed int64, spec SortSpec) {
	t.Helper()
	addrs := startWorkers(t, workers, flapWorker)
	spec.Workers, spec.Heartbeat = addrs, flapHeartbeat(1)
	if spec.Join != nil {
		spec.Workers, spec.Join.Addr = addrs[:workers-1], addrs[workers-1]
	}
	inPath, want := makeInput(t, 10000, seed, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	stats, err := Sort(ctx, inPath, outPath, spec)
	var deg *ClusterDegradedError
	switch {
	case errors.As(err, &deg):
	case err != nil:
		t.Fatalf("control run returned %v, want a failover", err)
	case stats.Recovery == nil || stats.Recovery.Failovers == 0:
		t.Fatalf("control run with a %v budget did not fail over: %+v", 2*spec.Heartbeat.Interval, stats.Recovery)
	default:
		checkOutput(t, outPath, want)
	}
}

// TestHeartbeatFlapNoFailover: every beat of every worker goes late, each
// leaving its link silent for well over the beat interval but inside the
// silence budget, through a local sort where beats are the only frames.
// The run must finish with no failover at all: a late beat restarts the
// budget however late it is. The control run, with a budget below the
// silences, must fail over.
func TestHeartbeatFlapNoFailover(t *testing.T) {
	addrs := startWorkers(t, 4, flapWorker)
	stats := runClusterSort(t, addrs, 10000, 59, false, SortSpec{
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: flapHeartbeat(5),
	})
	if stats.Recovery != nil {
		t.Fatalf("heartbeat flap escalated to failover: %+v", stats.Recovery)
	}
	flapControl(t, 4, 59, SortSpec{BlockRecs: 128, Dial: fastDial})
}

// TestClusterDegradedBelowQuorum kills two of four workers at local sort,
// dropping the cluster below ⌊W/2⌋+1 survivors. However the two deaths
// interleave with failover (one at a time, or both inside one recovery
// window), the job must converge to a typed ClusterDegradedError that still
// exposes the underlying WorkerLostError.
func TestClusterDegradedBelowQuorum(t *testing.T) {
	const W = 4
	kills := make([]context.CancelFunc, W)
	addrs := make([]string, W)
	for i := 0; i < W; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		cfg := WorkerConfig{ScratchDir: t.TempDir(), Dial: fastDial}
		if i >= 2 {
			i := i
			cfg.SortShard = func(ctx context.Context, _, _, _ string) error {
				kills[i]() // sever this worker's every connection
				<-ctx.Done()
				return ctx.Err()
			}
		}
		w := NewWorker(cfg)
		ctx, cancel := context.WithCancel(context.Background())
		kills[i] = cancel
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Serve(ctx, ln)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}

	inPath, _ := makeInput(t, 20000, 31, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	_, err := Sort(ctx, inPath, outPath, SortSpec{
		Workers:   addrs,
		BlockRecs: 128,
		Dial:      fastDial,
		Heartbeat: fastHeartbeat(),
	})
	var deg *ClusterDegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("two losses below quorum returned %v, want *ClusterDegradedError", err)
	}
	if len(deg.Lost) < 2 || deg.Workers != W || deg.Quorum != W/2+1 {
		t.Fatalf("degraded error %+v, want >= 2 lost of %d, quorum %d", deg, W, W/2+1)
	}
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatal("degraded error does not expose the quorum-breaking WorkerLostError")
	}
}

// TestFailoverJournal runs a chaos kill with journaling on and replays the
// journal: it must narrate the job as phases, the loss, and the failover,
// with the scatter extents needed to audit a re-scatter decision. The
// scatter is the job's first epoch: one scatter-done entry, at epoch 0,
// dealing chunk t to worker t mod 4, and none of it counted as recovery —
// the failover re-deals exactly the victim's extent.
func TestFailoverJournal(t *testing.T) {
	addrs := startWorkers(t, 4, fastWorker)
	jpath := filepath.Join(t.TempDir(), "cluster.journal")
	const n = 20000
	stats := runClusterSort(t, addrs, n, 41, false, SortSpec{
		BlockRecs:   128,
		Dial:        fastDial,
		Heartbeat:   fastHeartbeat(),
		Chaos:       &ChaosSpec{Phase: "gather", Worker: 2},
		JournalPath: jpath,
	})
	entries, err := pdm.LoadJournal(jpath)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	var sawLost, sawFailover bool
	var scatters []journalEvent
	phases := make(map[string]bool)
	for _, e := range entries {
		var ev journalEvent
		if err := json.Unmarshal(e.Payload, &ev); err != nil {
			t.Fatalf("journal entry %d: %v", e.Seq, err)
		}
		switch ev.Event {
		case "phase":
			phases[ev.Phase] = true
		case "lost":
			if ev.Worker == 2 {
				sawLost = true
			}
		case "failover":
			if ev.Epoch >= 1 && ev.Blocks > 0 {
				sawFailover = true
			}
		case "scatter-done":
			scatters = append(scatters, ev)
		}
	}
	for _, p := range CoordinatorPhases {
		if !phases[p] {
			t.Fatalf("journal never entered phase %q (saw %v)", p, phases)
		}
	}
	if !sawLost || !sawFailover {
		t.Fatalf("journal incomplete: lost=%v failover=%v", sawLost, sawFailover)
	}
	if len(scatters) != 1 {
		t.Fatalf("journal holds %d scatter-done entries, want 1", len(scatters))
	}
	sc := scatters[0]
	if sc.Epoch != 0 || len(sc.Extents) != 4 || len(sc.Assign) != (n+scatterChunk-1)/scatterChunk {
		t.Fatalf("scatter-done at epoch %d with %d extents and %d chunks, want epoch 0, 4 and %d",
			sc.Epoch, len(sc.Extents), len(sc.Assign), (n+scatterChunk-1)/scatterChunk)
	}
	for c, w := range sc.Assign {
		if int(w) != c%4 {
			t.Fatalf("scatter dealt chunk %d to worker %d, want %d", c, w, c%4)
		}
	}
	if rec := stats.Recovery; rec == nil || rec.RescatteredRecords != int(sc.Extents[2]) {
		t.Fatalf("recovery %+v, want the victim's %d scattered records re-dealt and nothing else",
			stats.Recovery, sc.Extents[2])
	}
}

// TestFailoverJournalNoLossOnCancel: a job canceled during its local sort
// tears its links down itself, so neither the phase goroutine nor a link
// reader may count the failures that follow as a worker's loss: Sort
// returns the context's error and the journal records no loss.
func TestFailoverJournalNoLossOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrs := startWorkers(t, 3, func(_ int, cfg *WorkerConfig) {
		cfg.Dial = fastDial
		cfg.SortShard = func(sctx context.Context, _, _, _ string) error {
			cancel()
			<-sctx.Done() // the coordinator's cancel closes the worker's link
			return sctx.Err()
		}
	})
	inPath, _ := makeInput(t, 20000, 67, false)
	jpath := filepath.Join(t.TempDir(), "cluster.journal")
	_, err := Sort(ctx, inPath, filepath.Join(t.TempDir(), "out.dat"), SortSpec{
		Workers: addrs, BlockRecs: 128, Dial: fastDial, Heartbeat: fastHeartbeat(), JournalPath: jpath,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sort canceled during local sort returned %v, want context.Canceled", err)
	}
	entries, err := pdm.LoadJournal(jpath)
	if err != nil {
		t.Fatalf("load journal: %v", err)
	}
	sorting := false
	for _, e := range entries {
		var ev journalEvent
		if err := json.Unmarshal(e.Payload, &ev); err != nil {
			t.Fatalf("journal entry %d: %v", e.Seq, err)
		}
		sorting = sorting || ev.Event == "phase" && ev.Phase == "local-sort"
		if ev.Event == "lost" {
			t.Errorf("canceled job journaled a loss: %s", e.Payload)
		}
	}
	if !sorting {
		t.Fatal("journal never entered local-sort")
	}
}

// TestWorkerErrorIsTheLossCause: a worker whose part in the job fails says
// why before it hangs up, and the coordinator fails it over with that
// error as the cause. Heartbeats are off, so the control link is the only
// detector. The last worker's shard sort fails: at W=2 its loss breaks
// quorum and the job's error carries the worker's own; at W=3 the job
// completes on the survivors and the journal's lost entry names the cause.
func TestWorkerErrorIsTheLossCause(t *testing.T) {
	const injected = "injected shard-sort failure"
	for _, w := range []int{2, 3} {
		t.Run(fmt.Sprintf("w%d", w), func(t *testing.T) {
			addrs := startWorkers(t, w, func(i int, cfg *WorkerConfig) {
				cfg.Dial = fastDial
				if i == w-1 {
					cfg.SortShard = func(context.Context, string, string, string) error {
						return errors.New(injected)
					}
				}
			})
			inPath, want := makeInput(t, 6000, 29, false)
			outPath := filepath.Join(t.TempDir(), "out.dat")
			jpath := filepath.Join(t.TempDir(), "cluster.journal")
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			_, err := Sort(ctx, inPath, outPath, SortSpec{
				Workers: addrs, BlockRecs: 128, Dial: fastDial,
				Heartbeat: Heartbeat{Disable: true}, JournalPath: jpath,
			})
			if w == 2 {
				var deg *ClusterDegradedError
				var lost *WorkerLostError
				if !errors.As(err, &deg) || !errors.As(err, &lost) || lost.Worker != 1 {
					t.Fatalf("sort returned %v, want a ClusterDegradedError naming worker 1", err)
				}
				// The loss names the worker, and its cause is the worker's own
				// text, which names it once more; the wire adds nothing.
				want := fmt.Sprintf("cluster: degraded below quorum: 1 of 2 workers lost (need 2 alive): "+
					"cluster: worker 1 (%s) lost: cluster: worker 1 local sort: %s", addrs[1], injected)
				if err.Error() != want {
					t.Fatalf("sort returned\n\t%v\nwant\n\t%v", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("sort with one of three workers failing: %v", err)
			}
			checkOutput(t, outPath, want)
			entries, err := pdm.LoadJournal(jpath)
			if err != nil {
				t.Fatalf("load journal: %v", err)
			}
			var causes []string
			for _, e := range entries {
				var ev journalEvent
				if err := json.Unmarshal(e.Payload, &ev); err != nil {
					t.Fatalf("journal entry %d: %v", e.Seq, err)
				}
				if ev.Event == "lost" && ev.Worker == 2 {
					causes = append(causes, ev.Error)
				}
			}
			if len(causes) != 1 || !strings.Contains(causes[0], injected) {
				t.Fatalf("journal's losses of worker 2 carry %q, want one naming %q", causes, injected)
			}
		})
	}
}

// TestDedupSetBounded: the receiver's retransmit-dedup state must be
// O(streams), not O(blocks received). Each (phase, source) stream has at
// most one unacked block in flight, so remembering only the newest key per
// stream is both sufficient and bounded.
func TestDedupSetBounded(t *testing.T) {
	w := NewWorker(WorkerConfig{ScratchDir: t.TempDir()})
	s, err := newSession(w, &msgHello{JobID: 1, Worker: 0, Workers: 4, S: 8, BlockRecs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	data := make([]byte, 4*record.EncodedSize)
	const blocks = 50
	for src := uint32(0); src < 3; src++ {
		for seq := uint32(0); seq < blocks; seq++ {
			stale, err := s.storeBlock(&msgBlock{
				Phase: 1, Src: src, Bucket: seq % 8, Seq: seq, Data: data,
			}, 0)
			if stale || err != nil {
				t.Fatalf("src %d seq %d: stale=%v err=%v", src, seq, stale, err)
			}
		}
	}
	if s.recvBlocks != 3*blocks {
		t.Fatalf("stored %d blocks, want %d", s.recvBlocks, 3*blocks)
	}
	if len(s.last) != 3 {
		t.Fatalf("dedup state holds %d entries after %d blocks, want one per stream (3)",
			len(s.last), 3*blocks)
	}
	// A retransmission of each stream's newest block — the only block that
	// can legally be retransmitted — must be a stored-nothing no-op.
	for src := uint32(0); src < 3; src++ {
		stale, err := s.storeBlock(&msgBlock{
			Phase: 1, Src: src, Bucket: uint32((blocks - 1) % 8), Seq: blocks - 1, Data: data,
		}, 0)
		if stale || err != nil {
			t.Fatalf("replay src %d: stale=%v err=%v", src, stale, err)
		}
	}
	if s.recvBlocks != 3*blocks {
		t.Fatalf("retransmissions were double-stored: recvBlocks = %d", s.recvBlocks)
	}
}

// TestSupersededPeerConnDropped: the receiving goroutine of a severed peer
// connection can fall behind the sender's replacement connection, which
// meanwhile stores the in-flight block's retransmission and the block
// after it. When the stale goroutine finally stores its copy, the
// newest-key dedup no longer matches; the connection generation must drop
// it instead of gathering the block twice.
func TestSupersededPeerConnDropped(t *testing.T) {
	w := NewWorker(WorkerConfig{ScratchDir: t.TempDir()})
	s, err := newSession(w, &msgHello{JobID: 1, Worker: 0, Workers: 4, S: 8, BlockRecs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	hello := &msgPeerHello{JobID: 1, Src: 2, Epoch: 0}
	severed, ok := s.acceptPeer(hello)
	if !ok {
		t.Fatal("first peer connection refused")
	}
	replacement, ok := s.acceptPeer(hello)
	if !ok {
		t.Fatal("replacement peer connection refused")
	}
	data := make([]byte, 4*record.EncodedSize)
	store := func(gen uint64, seq uint32) bool {
		t.Helper()
		stale, err := s.storeFrom(&msgBlock{Phase: 2, Src: 2, Bucket: 0, Seq: seq, Data: data}, 0, gen)
		if err != nil {
			t.Fatal(err)
		}
		return stale
	}
	if store(replacement, 5) || store(replacement, 6) {
		t.Fatal("the live connection's blocks were rejected")
	}
	if !store(severed, 5) {
		t.Fatal("a superseded connection's block was accepted")
	}
	if s.recvGatherRecs != 8 {
		t.Fatalf("gathered %d records, want 8 (two blocks, none twice)", s.recvGatherRecs)
	}
	if _, ok := s.acceptPeer(&msgPeerHello{JobID: 1, Src: 2, Epoch: 1}); ok {
		t.Fatal("a stale-epoch hello was accepted")
	}
}

// TestDialCancelDuringBackoff: canceling the context while dial sleeps
// between attempts must return promptly with context.Canceled, not ride out
// the remaining backoff schedule.
func TestDialCancelDuringBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here anymore: every attempt fails fast
	d := DialConfig{Attempts: 50, Backoff: 5 * time.Second, MaxBackoff: 5 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = d.dial(ctx, 1, addr)
	if err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("dial returned %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancel took %v to interrupt the backoff sleep", waited)
	}
}

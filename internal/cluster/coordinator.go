package cluster

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"balancesort/internal/balance"
	"balancesort/internal/obs"
	"balancesort/internal/pdm"
	"balancesort/internal/plan"
	"balancesort/internal/record"
)

// SortSpec parameterizes one coordinator-driven cluster sort.
type SortSpec struct {
	// Workers are the worker addresses to dial, in worker-ID order.
	Workers []string
	// Buckets is S, the number of key-range buckets the exchange
	// distributes into. Default 4·W (at least the paper's H', with slack
	// so the owner assignment can balance shard sizes).
	Buckets int
	// BlockRecs is the exchange block size in records. Default 2048.
	BlockRecs int
	// Dial tunes connection retry/backoff and per-op timeouts.
	Dial DialConfig
	// Heartbeat tunes the failure detector.
	Heartbeat Heartbeat
	// Chaos, when non-nil, injects one fault: the named worker is killed
	// (or hung) the moment the coordinator enters the named phase.
	Chaos *ChaosSpec
	// Join, when non-nil, admits one extra worker mid-job: the moment the
	// coordinator enters the named phase it dials Addr, attaches it as
	// worker W with an mHello — an *added* virtual disk, the dual of
	// failover's removed one — and opens a new epoch over the grown set.
	Join *JoinSpec
	// Straggler configures the progress-rate failure detector, the phase
	// deadline budgets, and the hedged shard-sort re-execution. The zero
	// value disables all three; see StragglerConfig.
	Straggler StragglerConfig
	// Stall, when non-nil, injects one slowdown: the named worker keeps
	// beating but does every unit of work Factor times slower
	// from the moment the coordinator enters the named phase — the latency
	// dual of Chaos's kill/hang.
	Stall *StallSpec
	// JournalPath, when nonempty, appends the coordinator's recovery
	// state — per-worker partition extents after the scatter, each phase
	// entered, each loss, each completed failover — to a checksummed
	// journal (the pdm journal format), so an operator can reconstruct
	// what a degraded job did.
	JournalPath string
	// Trace, when non-nil, records a span per coordinator phase (see
	// CoordinatorPhases) and asks every worker — via the Hello trace flag —
	// to record its own phase spans and ship them back after the drain.
	// Worker spans are rebased onto this tracer's epoch and merged, so
	// Trace ends up holding the whole job's timeline: node 0 is the
	// coordinator, node w+1 is worker w.
	Trace *obs.Tracer
	// Sample, when positive, runs a background utilization sampler on the
	// coordinator at this interval: goroutines, heap, and inbound/outbound
	// network throughput land as counter tracks on Trace. Requires Trace.
	Sample time.Duration
}

// Heartbeat configures the coordinator's failure detector. Every worker
// sends a heartbeat, a small progress frame, on its control link once per
// Interval, and a worker whose link brings no byte for
// Interval·(MissBudget+1) is declared lost. Any frame — however late —
// restarts that budget, so a flapping link does not trigger failover.
type Heartbeat struct {
	// Interval is the beat period the hello asks of every worker; a
	// worker refuses one under 1ms. Default 500ms.
	Interval time.Duration
	// MissBudget is how many beats in a row may go missing before the
	// worker is declared lost. Default 3.
	MissBudget int
	// Disable turns the beats and the silence budget off. Failover still
	// triggers on connection errors and worker peer-loss reports.
	Disable bool
}

func (h Heartbeat) withDefaults() Heartbeat {
	if h.Interval <= 0 {
		h.Interval = 500 * time.Millisecond
	}
	if h.MissBudget <= 0 {
		h.MissBudget = 3
	}
	return h
}

// StragglerConfig tunes the straggler mitigation: a progress-rate
// failure detector that runs alongside the liveness heartbeat. The
// heartbeat can only see a dead or hung worker; this detector sees a live
// worker that sends every beat yet makes no useful progress — a
// throttled disk, a paging host, a half-broken NIC — and bounds how long
// such a worker may hold a phase barrier hostage.
//
// Every barrier phase gets a deadline budget. An explicit HardBudget wins;
// otherwise the budget is derived once at least half the active workers
// have finished the phase, as budgetFactor times the median finisher's
// phase time, floored by minBudget and capped by budgetFactor times the
// internal/plan cost model's predicted single-node wall-clock for the
// shard — so one fast outlier cannot condemn honest peers, and one slow
// cohort cannot stretch the budget without bound. A worker past its
// deadline earns a single grace extension if its progress counters (carried
// on every beat) advanced recently; past that it is demoted to the
// failover path with a typed *StragglerError, exactly as if it had died.
//
// During the local-sort phase a gentler remedy runs first when Hedge is
// set: the straggler's shard sort is speculatively re-executed on the
// earliest finished peer (see SortSpec.Stall and msgHedgeSend), the first
// finisher wins, and the loser is cancelled — the job pays one redundant
// shard sort instead of a full failover epoch.
type StragglerConfig struct {
	// Enabled turns the detector (and budgets, and demotion) on.
	Enabled bool
	// Hedge allows speculative re-execution of a straggling local sort on
	// the fastest idle worker.
	Hedge bool
	// SoftBudget is the local-sort deadline past which the hedge fires.
	// Zero derives it like the hard budget.
	SoftBudget time.Duration
	// HardBudget is the per-phase deadline past which a straggler is
	// demoted. Zero derives it from the median finisher and the plan
	// model.
	HardBudget time.Duration
}

const (
	// minBudget floors every derived budget so short phases on small
	// inputs cannot demote a healthy worker over scheduling jitter.
	minBudget = 2 * time.Second
	// budgetFactor scales the median finisher's phase time (and the plan
	// model's ceiling) into a budget.
	budgetFactor = 4
)

// StallSpec is one injected slowdown for the chaos harness: the latency
// dual of ChaosSpec's kill and hang. The victim stays connected and keeps
// beating — only the progress detector can see it.
type StallSpec struct {
	// Phase is the coordinator phase (a CoordinatorPhases name) at whose
	// start the stall fires.
	Phase string
	// Worker is the victim's ID.
	Worker int
	// Factor is the slowdown multiplier: every unit of work takes Factor
	// times as long. Values below 2 default to 10.
	Factor int
}

// ChaosSpec is one injected fault for the chaos harness.
type ChaosSpec struct {
	// Phase is the coordinator phase (a CoordinatorPhases name) at whose
	// start the fault fires.
	Phase string
	// Worker is the victim's ID.
	Worker int
	// Hang makes the victim go silent (stop beating, stop progressing)
	// instead of dying; only the heartbeat detector can see it.
	Hang bool
	// Coordinator makes the coordinator itself the victim: entering the
	// phase returns ErrCoordinatorChaosKill without a word on any link, so
	// every connection dies abruptly (workers park their shards) and
	// the job is left for Resume. Worker and Hang are ignored.
	Coordinator bool
}

// JoinSpec schedules one mid-job elastic join: when the coordinator enters
// Phase, the worker listening at Addr is added to the cluster.
type JoinSpec struct {
	Phase string
	Addr  string
}

// CoordinatorPhases are the span names the coordinator records under the
// "cluster" layer, in phase order.
var CoordinatorPhases = []string{
	"scatter", "histogram-merge", "plan", "exchange", "gather", "local-sort", "drain",
}

// WorkerPhases are the span names each worker records under the "cluster"
// layer, in phase order.
var WorkerPhases = []string{
	"scatter-recv", "histogram", "exchange", "gather", "shard-sort", "drain",
}

// scatterChunk is the record count of one scatter/drain frame.
const scatterChunk = 4096

func (s SortSpec) withDefaults() (SortSpec, error) {
	w := len(s.Workers)
	if w < 1 {
		return s, fmt.Errorf("cluster: no workers")
	}
	if w > maxWorkers {
		return s, fmt.Errorf("cluster: %d workers exceeds the %d limit", w, maxWorkers)
	}
	if s.Buckets == 0 {
		s.Buckets = 4 * w
	}
	if s.Buckets < 1 {
		return s, fmt.Errorf("cluster: Buckets = %d", s.Buckets)
	}
	if s.BlockRecs == 0 {
		s.BlockRecs = 2048
	}
	if s.BlockRecs < 1 {
		return s, fmt.Errorf("cluster: BlockRecs = %d", s.BlockRecs)
	}
	if s.BlockRecs*record.EncodedSize+64 > MaxFramePayload {
		return s, fmt.Errorf("cluster: BlockRecs = %d does not fit a frame", s.BlockRecs)
	}
	s.Dial = s.Dial.withDefaults()
	s.Heartbeat = s.Heartbeat.withDefaults()
	if c := s.Chaos; c != nil {
		if !c.Coordinator && (c.Worker < 0 || c.Worker >= w) {
			return s, fmt.Errorf("cluster: chaos targets worker %d of %d", c.Worker, w)
		}
		if !isCoordinatorPhase(c.Phase) {
			return s, fmt.Errorf("cluster: chaos phase %q is not a coordinator phase", c.Phase)
		}
	}
	if j := s.Join; j != nil {
		if !isCoordinatorPhase(j.Phase) {
			return s, fmt.Errorf("cluster: join phase %q is not a coordinator phase", j.Phase)
		}
		if j.Addr == "" {
			return s, fmt.Errorf("cluster: join has no address")
		}
	}
	if st := s.Stall; st != nil {
		if st.Worker < 0 || st.Worker >= w {
			return s, fmt.Errorf("cluster: stall targets worker %d of %d", st.Worker, w)
		}
		if !isCoordinatorPhase(st.Phase) {
			return s, fmt.Errorf("cluster: stall phase %q is not a coordinator phase", st.Phase)
		}
		cp := *st
		if cp.Factor < 2 {
			cp.Factor = 10
		}
		s.Stall = &cp
	}
	return s, nil
}

func isCoordinatorPhase(name string) bool {
	for _, p := range CoordinatorPhases {
		if p == name {
			return true
		}
	}
	return false
}

// SortStats reports what a completed cluster sort moved and how evenly the
// balancer spread it.
type SortStats struct {
	Records int `json:"records"` // records sorted
	Workers int `json:"workers"` // cluster width W
	Buckets int `json:"buckets"` // S

	// ExchangeBlocks is the total block count of the placement exchange;
	// RecvBlocks[h] is how many of them worker h received (the column sums
	// of X). X[b][h] is the full histogram matrix — blocks of bucket b
	// placed on the h-th active worker — on which Invariants 1 and 2 hold.
	// After a failover X has one column per surviving worker (H' columns);
	// Recovery.ActiveWorkers maps columns back to worker IDs.
	ExchangeBlocks int     `json:"exchange_blocks"`
	RecvBlocks     []int   `json:"recv_blocks"`
	X              [][]int `json:"x,omitempty"`

	// GatherRecords[h] is the shard size worker h locally sorted.
	GatherRecords []int `json:"gather_records"`

	// Recovery is non-nil when at least one worker was lost and the job
	// completed anyway.
	Recovery *RecoveryStats `json:"recovery,omitempty"`
}

// RecoveryStats describes how a sort survived worker loss.
type RecoveryStats struct {
	// LostWorkers are the dead workers' IDs, in detection order;
	// LostPhases[i] is the coordinator phase during which loss i was
	// detected, or "connect" or "resume" while the workers attach.
	LostWorkers []int    `json:"lost_workers"`
	LostPhases  []string `json:"lost_phases"`
	// Failovers counts recovery epochs (a single failover can absorb
	// several simultaneous losses).
	Failovers int `json:"failovers"`
	// RescatteredBlocks / RescatteredRecords measure the shard data
	// re-streamed to survivors.
	RescatteredBlocks  int `json:"rescattered_blocks"`
	RescatteredRecords int `json:"rescattered_records"`
	// FailoverWallNanos is the total wall time spent inside recovery
	// (detection to last survivor's ack), excluding the re-run phases.
	FailoverWallNanos int64 `json:"failover_wall_nanos"`
	// ActiveWorkers are the IDs that finished the job, ascending. They
	// are the columns of SortStats.X.
	ActiveWorkers []int `json:"active_workers"`
	// Joins counts mid-job elastic admissions; JoinedWorkers are the IDs
	// the joiners were assigned.
	Joins         int   `json:"joins,omitempty"`
	JoinedWorkers []int `json:"joined_workers,omitempty"`
	// Stragglers are workers demoted by the progress-rate detector for
	// falling past a phase deadline budget — a subset of LostWorkers.
	// HedgeWins counts speculative shard sorts that finished before the
	// straggler they covered; HedgeLosses, hedges the straggler outran.
	Stragglers  []int `json:"stragglers,omitempty"`
	HedgeWins   int   `json:"hedge_wins,omitempty"`
	HedgeLosses int   `json:"hedge_losses,omitempty"`
	// Resumed marks a job completed by a restarted coordinator replaying
	// its journal; ResumePhase is the last phase the journal had entered
	// before the crash.
	Resumed     bool   `json:"resumed,omitempty"`
	ResumePhase string `json:"resume_phase,omitempty"`
}

// errFailover is the internal sentinel that unwinds the current epoch's
// phase machinery back to the recovery loop. It never escapes Sort.
var errFailover = errors.New("cluster: worker lost, failover required")

// errRejoin unwinds the phase machinery to admit the configured mid-job
// joiner; like errFailover it never escapes Sort.
var errRejoin = errors.New("cluster: join admission required")

// ErrCoordinatorChaosKill is what Sort returns when ChaosSpec.Coordinator
// fired: the coordinator "crashed" at the phase boundary, its connections
// died without a goodbye, and the job is left for Resume to finish.
var ErrCoordinatorChaosKill = errors.New("cluster: chaos: coordinator killed")

// frameMsg is one frame (or terminal read error) from a link's reader.
type frameMsg struct {
	typ     byte
	payload []byte
	err     error
}

// link is one framed coordinator->worker control connection. A dedicated
// reader goroutine, readLink, pushes inbound frames to ch so the
// coordinator can wait on a frame and a loss signal simultaneously; writes
// go straight out, all from the phase goroutine. The reader reads payloads
// into buffers from free, which the drain hands back once it has written a
// shard chunk out; free holds as many buffers as can be out at once: ch's
// capacity, the frame blocked on ch and the one being read.
type link struct {
	id    int
	conn  net.Conn
	cfg   DialConfig
	meter *netMeter // nil-safe; counts the link's frames and wire bytes
	ch    chan frameMsg
	free  freeList
	done  chan struct{} // closed when the job ends; unblocks a stuck reader
}

// newLink makes conn worker id's link and starts its reader, whose silence
// budget is Interval·(MissBudget+1), or forever under Disable.
func (c *coordinator) newLink(id int, conn net.Conn) *link {
	l := &link{id: id, conn: conn, cfg: c.spec.Dial, meter: c.net, ch: make(chan frameMsg, 4),
		free: make(freeList, 4+2), done: make(chan struct{})}
	var budget time.Duration
	if hb := c.spec.Heartbeat; !hb.Disable {
		budget = hb.Interval * time.Duration(hb.MissBudget+1)
	}
	c.readers.Add(1)
	go c.readLink(l, budget)
	return l
}

// readLink is l's reader and its worker's failure detector. Every read of
// the connection must bring a byte within a limit, the handshake's answer
// within the dial IOTimeout and every later byte within the heartbeat
// budget, so any byte, even one of a frame still arriving, restarts the
// budget. Beats update the progress table and go neither to ch nor to the
// meter. While the job is live and l is its worker's link, a read error,
// an expired budget or the worker's own error is that worker's loss,
// whichever worker the phase goroutine is waiting on.
func (c *coordinator) readLink(l *link, budget time.Duration) {
	defer c.readers.Done()
	sr := &silenceReader{conn: l.conn, limit: l.cfg.IOTimeout}
	br := bufio.NewReaderSize(sr, 1<<16)
	for {
		typ, payload, err := readFrame(br, l.free.get())
		if errors.Is(err, os.ErrDeadlineExceeded) {
			err = fmt.Errorf("cluster: worker silent for %v", sr.limit)
		}
		sr.limit = budget
		if err == nil && typ == mProgress {
			var pg msgProgress
			if pg.decode(payload) == nil {
				c.noteProgress(l.id, pg)
			}
			l.free.put(payload)
			continue
		}
		if err == nil {
			l.meter.in(len(payload))
		}
		fr := frameMsg{typ: typ, payload: payload, err: err}
		if (err != nil || typ == mError) && c.member(l) {
			c.lostAsync(l.id, c.failure(l.id, fr))
		}
		select {
		case l.ch <- fr:
		case <-l.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// silenceReader sets a read deadline limit ahead, or none for a zero
// limit, before every read of conn.
type silenceReader struct {
	conn  net.Conn
	limit time.Duration
}

func (r *silenceReader) Read(p []byte) (int, error) {
	var deadline time.Time
	if r.limit > 0 {
		deadline = time.Now().Add(r.limit)
	}
	_ = r.conn.SetReadDeadline(deadline)
	return r.conn.Read(p)
}

func (l *link) send(typ byte, payload []byte) error {
	setWriteDeadline(l.conn, l.cfg)
	if err := writeFrame(l.conn, typ, payload); err != nil {
		return err
	}
	l.meter.out(len(payload))
	return nil
}

// coordinator is the per-job state of one cluster Sort call.
type coordinator struct {
	spec    SortSpec
	W, S    int
	n       int // total records
	in      *os.File
	inPath  string
	outPath string
	tr      *obs.Tracer
	net     *netMeter
	jobID   uint64

	links   []*link        // written under mu; dead entries keep a closed conn
	readers sync.WaitGroup // the links' readers
	joined  bool           // the configured Join already fired

	mu       sync.Mutex
	deadErr  map[int]error // worker -> first loss, as a *WorkerLostError
	handled  int           // losses the current epoch's dealing absorbed
	lastLost error
	lostSig  chan struct{} // cap 1: wakes phase waits when a loss lands
	phase    string
	// live: the membership is attached and the job has not hung up (cancel,
	// goodbye, teardown); only then is a failure a loss.
	live bool

	jmu sync.Mutex
	jr  *pdm.Journal

	// Chunk ownership: chunk t holds records [t·scatterChunk, …); assign
	// maps it to the worker whose shard holds it, and perWorker folds assign
	// into shard sizes (extents).
	assign    []int32 // chunk -> worker, -1 while unassigned
	perWorker []uint64

	epoch      uint32
	chaosFired bool
	stallFired bool
	rec        RecoveryStats

	// Straggler-detector state. The pmu domain is touched by the phase
	// driver, the link readers (progress beats), and the per-phase
	// watcher goroutine (which nominates the hedge); it is never held
	// together with mu.
	pmu       sync.Mutex
	prog      map[int]progTrack // per-worker progress, fed by the link readers
	phaseT0   time.Time         // when the current phase was entered
	doneAt    map[int]time.Time // worker -> barrier completion, this phase
	focus     int               // sequential-phase fetch target, -1 outside drain
	focusT0   time.Time         // when the current fetch began
	watchStop chan struct{}     // retires the current phase watcher
	watchWG   sync.WaitGroup    // phase watchers
	predicted time.Duration     // plan-model ceiling for one phase budget
	hedge     *hedgeRun         // the job's one hedge, from its nomination on

	owners []uint32 // bucket -> owning worker ID, current epoch's plan

	// First computed (or journal-replayed) pivot set and histogram digest.
	// Pivots are a pure function of the merged histogram, and the merged
	// histogram is a pure function of the whole input — the shards always
	// partition it — so every later epoch, whatever its membership, must
	// reproduce them exactly. Checked in histogramPhase as a determinism
	// assertion.
	wantPivots []uint64
	wantDigest uint64

	// Plan state of the (last) epoch, for the final stats.
	pivots       []uint64
	streamLen    int
	bl           *balance.Balancer
	expectRecv   []uint64
	expectGather []uint64
}

// progTrack is one worker's latest progress report, decoded from its
// beat. at is when the (phase, units) pair last changed — the
// detector's notion of "recent progress".
type progTrack struct {
	phase uint8
	units uint64
	at    time.Time
}

// hedgeRun is the job's one speculative shard-sort re-execution: the
// watcher nominates a lone straggling victim and the earliest finisher as
// target, and the local-sort barrier runs the race over their control
// links. Past the nomination only the phase goroutine writes it, stage
// under pmu for the watcher.
type hedgeRun struct {
	victim, target int
	stage          raceStage
	epoch          uint32 // the epoch it was armed in
	armed          bool   // the target answered mHedgeArmed
	send           []byte // the encoded mHedgeSend
	span           obs.Active
}

// raceStage is where a hedge stands in its race.
type raceStage uint8

const (
	raceNominated raceStage = iota // picked by the watcher, not yet armed
	raceOpen                       // armed: the target races the victim
	raceWon                        // the target's copy came first and covers the victim
	raceLost                       // the victim finished first; the target is cancelled
	raceFailed                     // the target could not make its copy, or the epoch ended
)

// covers reports that h won epoch's race for worker i's shard, so the
// target's copy stands in for i's own.
func (h *hedgeRun) covers(i int, epoch uint32) bool {
	return h != nil && h.stage == raceWon && h.victim == i && h.epoch == epoch
}

// Sort externally sorts inPath into outPath across the cluster: it scatters
// the input over the workers, runs the histogram/pivot, balanced-exchange,
// gather, and local-sort phases, and drains the sorted shards in key order.
// The output is byte-identical to a single-process SortFile of the same
// input because both produce the unique nondecreasing arrangement of the
// record multiset under the strict (Key, Loc) order — which is also why a
// failover mid-job, which re-plans the placement from scratch over the
// survivors, cannot change a single output byte.
func Sort(ctx context.Context, inPath, outPath string, spec SortSpec) (*SortStats, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	in, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	st, err := in.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size()%record.EncodedSize != 0 {
		return nil, fmt.Errorf("cluster: %s is %d bytes, not a whole number of %d-byte records",
			inPath, st.Size(), record.EncodedSize)
	}
	c, teardown := newCoordinator(spec, in, inPath, outPath,
		int(st.Size()/record.EncodedSize), uint64(time.Now().UnixNano()))
	defer teardown()
	return c.run(ctx)
}

// newCoordinator builds the per-job coordinator state Sort and Resume
// share, and attaches the resource source and sampler to the trace. The
// returned teardown hangs up, stops every watcher, closes every link,
// waits for the link readers, closes the journal, and detaches the trace.
func newCoordinator(spec SortSpec, in *os.File, inPath, outPath string, n int, jobID uint64) (*coordinator, func()) {
	c := &coordinator{
		spec:    spec,
		W:       len(spec.Workers),
		S:       spec.Buckets,
		n:       n,
		in:      in,
		inPath:  inPath,
		outPath: outPath,
		tr:      spec.Trace,
		net:     &netMeter{},
		jobID:   jobID,
		links:   make([]*link, len(spec.Workers)),
		deadErr: make(map[int]error),
		lostSig: make(chan struct{}, 1),
		phase:   "connect", // Resume attaches under "resume"
		prog:    make(map[int]progTrack),
		doneAt:  make(map[int]time.Time),
	}
	if spec.Straggler.Enabled {
		// The plan model's predicted single-node wall-clock for the whole
		// input is a generous per-phase ceiling for any one worker's 1/W
		// shard of it, whatever the phase.
		c.predicted = time.Duration(plan.PhaseBudgetSeconds(c.n, record.EncodedSize) * float64(time.Second))
	}
	// Every coordinator span closes with its network and allocation deltas;
	// the optional sampler adds utilization counter tracks.
	c.tr.SetResourceSource(c.net.resourceSource(), "cluster")
	smp := obs.StartSampler(c.tr, spec.Sample, append(obs.RuntimeGauges(), c.net.gauges()...))
	return c, func() {
		c.hangUp()
		c.stopPhaseWatch()
		c.watchWG.Wait()
		for _, l := range c.links {
			if l != nil {
				l.conn.Close()
				close(l.done)
			}
		}
		c.readers.Wait()
		if c.jr != nil {
			c.jr.Close()
		}
		smp.Stop()
		c.tr.SetResourceSource(nil)
	}
}

func (c *coordinator) run(ctx context.Context) (*SortStats, error) {
	if c.spec.JournalPath != "" {
		jr, err := pdm.CreateJournal(c.spec.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("cluster: recovery journal: %w", err)
		}
		c.jr = jr
	}
	c.journal(journalEvent{
		Event: "start", JobID: c.jobID, Addrs: c.spec.Workers,
		S: c.S, BlockRecs: c.spec.BlockRecs, Records: c.n,
	})
	stop := c.goLive(ctx)
	defer stop()
	if err := c.connect(ctx); err != nil {
		return nil, err
	}
	return c.finish(ctx, c.scatter())
}

// goLive makes the job live: from here on a member's failure is its loss.
// When ctx is canceled it hangs up and tears the connections down, so no
// phase can block past it and none of the failures it causes is a loss;
// the returned func retires that watcher.
func (c *coordinator) goLive(ctx context.Context) func() {
	c.mu.Lock()
	c.live = true
	c.mu.Unlock()
	watchDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.hangUp()
			c.mu.Lock()
			links := append([]*link(nil), c.links...)
			c.mu.Unlock()
			for _, l := range links {
				if l != nil {
					l.conn.Close()
				}
			}
		case <-watchDone:
		}
	}()
	return func() { close(watchDone) }
}

// hangUp ends the job's liveness before the coordinator closes its links
// itself: no failure after it is a loss.
func (c *coordinator) hangUp() {
	c.mu.Lock()
	c.live = false
	c.mu.Unlock()
}

// finish drives the pipeline/recovery/join loop to completion and builds
// the final stats. run and resume both land here with the verdict of their
// first epoch: the scatter for a fresh job, the journal-replay reseed for a
// resumed one.
func (c *coordinator) finish(ctx context.Context, err error) (*SortStats, error) {
	for {
		if err == nil {
			err = c.pipeline(ctx)
		}
		if err == nil {
			break
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		switch {
		case errors.Is(err, errRejoin):
			c.stopPhaseWatch()
			err = c.admitJoin(ctx)
		case errors.Is(err, errFailover):
			c.stopPhaseWatch()
			err = c.recoverLost()
		default:
			return nil, err
		}
	}
	c.stopPhaseWatch()
	c.journal(journalEvent{Event: "done", Epoch: c.epoch})

	// Collect worker traces and merge them into the job timeline before
	// saying goodbye: node 0 is the coordinator, node w+1 is worker w. The
	// output is already complete, so a worker dying here only costs its
	// spans, not the job.
	if c.tr != nil {
		for _, i := range c.active() {
			_ = c.collectTrace(i)
		}
	}

	c.hangUp()
	for _, i := range c.active() {
		_ = c.links[i].send(mBye, nil) // best effort: workers also reset on conn close
	}

	stats := &SortStats{
		Records:        c.n,
		Workers:        c.W,
		Buckets:        c.S,
		ExchangeBlocks: c.streamLen,
		X:              c.bl.Histogram(),
		GatherRecords:  make([]int, c.W),
		RecvBlocks:     make([]int, c.W),
	}
	for w := 0; w < c.W; w++ {
		stats.RecvBlocks[w] = int(c.expectRecv[w])
		stats.GatherRecords[w] = int(c.expectGather[w])
	}
	c.mu.Lock()
	if len(c.deadErr) > 0 || c.rec.Joins > 0 || c.rec.Resumed || c.rec.HedgeWins+c.rec.HedgeLosses > 0 {
		rec := c.rec
		rec.ActiveWorkers = append([]int(nil), c.rec.ActiveWorkers...)
		rec.JoinedWorkers = append([]int(nil), c.rec.JoinedWorkers...)
		stats.Recovery = &rec
	}
	c.mu.Unlock()
	return stats, nil
}

// connect dials every worker, starts its reader, and runs the version
// handshake. A worker unreachable here fails the job fast with a typed
// *WorkerLostError — failover only covers workers that joined the job.
func (c *coordinator) connect(ctx context.Context) error {
	for i, addr := range c.spec.Workers {
		conn, derr := c.spec.Dial.dial(ctx, i, addr)
		if derr != nil {
			return fmt.Errorf("cluster: dialing worker %d: %w", i, derr)
		}
		l := c.newLink(i, conn)
		c.mu.Lock()
		c.links[i] = l
		c.mu.Unlock()
	}
	for i, l := range c.links {
		if err := l.send(mHello, c.hello(i, c.spec.Workers).encode()); err != nil {
			return fmt.Errorf("cluster: hello to worker %d: %w", i, err)
		}
	}
	for i, l := range c.links {
		if err := c.expectHelloAck(l); err != nil {
			return fmt.Errorf("cluster: worker %d handshake: %w", i, err)
		}
	}
	return nil
}

// hello builds the job announcement for worker id of a membership whose
// address table is peers: the mHello of a new job or of a joiner, or the
// mResume of a restarted coordinator.
func (c *coordinator) hello(id int, peers []string) *msgHello {
	h := &msgHello{
		Version: protocolVersion, JobID: c.jobID,
		Worker: uint32(id), Workers: uint32(len(peers)),
		S: uint32(c.S), BlockRecs: uint32(c.spec.BlockRecs),
		Peers: peers,
	}
	if c.tr != nil {
		h.Flags |= helloFlagTrace
	}
	if !c.spec.Heartbeat.Disable {
		h.Beat = c.spec.Heartbeat.Interval
	}
	return h
}

// expectHelloAck reads a worker's mHelloAck and refuses a worker that
// speaks a different protocol version.
func (c *coordinator) expectHelloAck(l *link) error {
	payload, err := c.expectHandshakeOn(l, mHelloAck)
	if err != nil {
		return err
	}
	var v msgVersion
	if err := v.decode(payload); err != nil {
		return err
	}
	return versionMismatch(v.Version)
}

// expectHandshakeOn reads one frame from l, which its reader bounds by
// the dial IOTimeout.
func (c *coordinator) expectHandshakeOn(l *link, want byte) ([]byte, error) {
	fr := <-l.ch
	if fr.err != nil {
		return nil, fr.err
	}
	if fr.typ == mError {
		var e msgError
		if derr := e.decode(fr.payload); derr != nil {
			return nil, derr
		}
		return nil, wireToError(&e)
	}
	if fr.typ != want {
		return nil, fmt.Errorf("cluster: expected message %d, got %d", want, fr.typ)
	}
	return fr.payload, nil
}

// lost marks worker i dead (idempotently), closes its control connection,
// and returns errFailover, which unwinds the caller to the recovery loop.
// Once the job has hung up it marks nothing: the coordinator closed the
// connections itself.
func (c *coordinator) lost(i int, err error) error {
	c.mu.Lock()
	if _, dup := c.deadErr[i]; !dup && c.live {
		wl := c.asLost(i, err)
		c.deadErr[i] = wl
		c.lastLost = wl
		c.rec.LostWorkers = append(c.rec.LostWorkers, i)
		c.rec.LostPhases = append(c.rec.LostPhases, c.phase)
		phase, epoch := c.phase, c.epoch
		l := c.links[i]
		select {
		case c.lostSig <- struct{}{}:
		default:
		}
		c.mu.Unlock()
		if l != nil {
			l.conn.Close()
		}
		c.tr.Count("cluster", "workers-lost", 0, 1)
		c.journal(journalEvent{Event: "lost", Epoch: epoch, Phase: phase, Worker: i, Error: wl.Error()})
	} else {
		c.mu.Unlock()
	}
	return errFailover
}

// lostAsync is lost() for the link readers and the phase watcher, which
// have no phase error to return into.
func (c *coordinator) lostAsync(i int, err error) { _ = c.lost(i, err) }

// member reports whether l is its worker's link in the live job.
func (c *coordinator) member(l *link) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live && l.id < len(c.links) && c.links[l.id] == l
}

// failure returns the loss a frame from worker i reports, or nil: its
// link's read error, or the job error the worker sent before hanging up.
func (c *coordinator) failure(i int, fr frameMsg) error {
	if fr.err != nil || fr.typ != mError {
		return fr.err
	}
	var e msgError
	if err := e.decode(fr.payload); err != nil {
		return err
	}
	return &WorkerLostError{Worker: i, Addr: c.addr(i), Err: wireToError(&e)}
}

// asLost wraps err as a *WorkerLostError naming worker i, unless it
// already carries a typed identity — a lost worker's, or a demoted
// straggler's (the demotion IS a loss to the failover machinery, but the
// caller-visible type must say "slow", not "dead").
func (c *coordinator) asLost(i int, err error) error {
	var wl *WorkerLostError
	var st *StragglerError
	if errors.As(err, &wl) || errors.As(err, &st) {
		return err
	}
	return &WorkerLostError{Worker: i, Addr: c.spec.Workers[i], Err: err}
}

func (c *coordinator) isDead(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, dead := c.deadErr[i]
	return dead
}

// addr returns worker i's address under the lock: a join grows the peer
// table mid-job, so the link readers cannot read it bare.
func (c *coordinator) addr(i int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spec.Workers[i]
}

// active returns the surviving worker IDs, ascending.
func (c *coordinator) active() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, 0, c.W)
	for i := 0; i < c.W; i++ {
		if _, dead := c.deadErr[i]; !dead {
			out = append(out, i)
		}
	}
	return out
}

// pendingLoss reports a loss not yet absorbed by a completed failover.
func (c *coordinator) pendingLoss() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deadErr) > c.handled
}

// sendTo writes one frame to worker i, converting a write failure into a
// loss.
func (c *coordinator) sendTo(i int, typ byte, payload []byte) error {
	if c.isDead(i) {
		return errFailover
	}
	if err := c.links[i].send(typ, payload); err != nil {
		return c.lost(i, err)
	}
	return nil
}

// triage handles the frames every wait on worker i must absorb: transport
// losses, peer-loss reports, worker errors, and debris left over from an
// epoch a failover aborted or from a decided hedge race. A worker's error
// is its loss, with the error as the cause: the job fails over while
// quorum holds. skip=true means the frame was consumed internally and the
// caller should keep reading.
func (c *coordinator) triage(i int, fr frameMsg) (typ byte, payload []byte, skip bool, err error) {
	if err := c.failure(i, fr); err != nil {
		return 0, nil, false, c.lost(i, err)
	}
	switch fr.typ {
	case mPeerLost:
		var pl msgPeerLost
		if err := pl.decode(fr.payload); err != nil {
			return 0, nil, false, err
		}
		t := int(pl.Worker)
		if t < 0 || t >= c.W {
			return 0, nil, false, fmt.Errorf("cluster: worker %d reported peer %d lost", i, t)
		}
		if pl.Epoch != c.epoch {
			// Sent before the reporter heard of the current epoch: the peer
			// refused its stale connections, it did not die.
			return 0, nil, true, nil
		}
		if c.isDead(t) {
			return 0, nil, true, nil // duplicate report of a loss already being handled
		}
		return 0, nil, false, c.lost(t, &WorkerLostError{Worker: t, Addr: pl.Addr, Err: errors.New(pl.Text)})
	case mRescatterAck:
		var a msgRescatterAck
		if err := a.decode(fr.payload); err != nil {
			return 0, nil, false, err
		}
		if a.Epoch != c.epoch {
			return 0, nil, true, nil // ack of a superseded recovery exchange
		}
		return fr.typ, fr.payload, false, nil
	case mSortDone, mHedgeArmed, mHedgeDone, mHedgeFailed:
		// Debris of a decided hedge race: the covered victim's late finish,
		// or a report from a target whose race is over.
		h := c.currentHedge()
		if fr.typ == mSortDone && h.covers(i, c.epoch) || fr.typ != mSortDone && h != nil && h.stage > raceOpen && i == h.target {
			return 0, nil, true, nil
		}
	}
	return fr.typ, fr.payload, false, nil
}

// recvFrom returns the next frame from worker i, handling losses, peer-loss
// reports, worker errors, and frames left over from an epoch a failover
// aborted. It blocks until a frame or any loss signal arrives.
func (c *coordinator) recvFrom(i int) (byte, []byte, error) {
	if c.isDead(i) {
		return 0, nil, errFailover
	}
	l := c.links[i]
	for {
		select {
		case fr := <-l.ch:
			typ, payload, skip, err := c.triage(i, fr)
			if err != nil {
				return 0, nil, err
			}
			if skip {
				continue
			}
			return typ, payload, nil
		case <-c.lostSig:
			return 0, nil, errFailover
		}
	}
}

// recvPoll is recvFrom without the blocking: ok=false reports that worker
// i has no frame ready. The barrier loops use it to take finishes in
// completion order rather than worker order, so a straggler early in the
// iteration cannot hide its peers' progress from the phase watcher.
func (c *coordinator) recvPoll(i int) (typ byte, payload []byte, ok bool, err error) {
	if c.isDead(i) {
		return 0, nil, false, errFailover
	}
	l := c.links[i]
	for {
		select {
		case fr := <-l.ch:
			typ, payload, skip, err := c.triage(i, fr)
			if err != nil {
				return 0, nil, false, err
			}
			if skip {
				continue
			}
			return typ, payload, true, nil
		default:
			return 0, nil, false, nil
		}
	}
}

// enterPhase records the phase for loss attribution and the journal, bails
// to the recovery loop if a loss is pending, and fires chaos or the
// scheduled join if this is their phase.
func (c *coordinator) enterPhase(name string) error {
	c.mu.Lock()
	c.phase = name
	c.mu.Unlock()
	c.journal(journalEvent{Event: "phase", Epoch: c.epoch, Phase: name})
	if c.pendingLoss() {
		return errFailover
	}
	if ch := c.spec.Chaos; ch != nil && ch.Coordinator && !c.chaosFired && ch.Phase == name && c.epoch == 0 {
		// Simulated coordinator crash: die without a word on any link. The
		// deferred cleanup closes every connection abruptly; workers park
		// their shards and wait for a Resume.
		c.chaosFired = true
		return ErrCoordinatorChaosKill
	}
	c.maybeChaos(name)
	c.maybeStall(name)
	c.beginPhaseWatch(name)
	if j := c.spec.Join; j != nil && !c.joined && j.Phase == name {
		c.joined = true
		return errRejoin
	}
	return nil
}

// maybeChaos fires the configured fault if this is its phase. It fires at
// most once per job, in epoch 0 only — the harness proves one induced
// death is survivable, not that the job outlives arbitrary repetition.
func (c *coordinator) maybeChaos(phase string) {
	ch := c.spec.Chaos
	if ch == nil || c.chaosFired || ch.Phase != phase || c.epoch != 0 {
		return
	}
	c.chaosFired = true
	mode := crashKill
	if ch.Hang {
		mode = crashHang
	}
	if !c.isDead(ch.Worker) {
		_ = c.links[ch.Worker].send(mCrash, (&msgCrash{Mode: mode}).encode())
	}
}

// maybeStall fires the configured slowdown if this is its phase — the
// latency analogue of maybeChaos, under the same fire-once, epoch-0 rules.
func (c *coordinator) maybeStall(phase string) {
	st := c.spec.Stall
	if st == nil || c.stallFired || st.Phase != phase || c.epoch != 0 {
		return
	}
	c.stallFired = true
	if !c.isDead(st.Worker) {
		_ = c.links[st.Worker].send(mCrash, (&msgCrash{Mode: crashStall, Factor: uint32(st.Factor)}).encode())
	}
}

// beginPhaseWatch resets the per-phase completion table and (for barrier
// phases, with the detector enabled) arms a watcher goroutine that
// enforces the phase's deadline budget. Plan is exempt: it is
// coordinator-only with no per-worker barrier, so a stall there surfaces
// at the next barrier (or as a transport write timeout). The scatter is a
// barrier: its epoch waits for every worker to write its shard.
func (c *coordinator) beginPhaseWatch(name string) {
	c.pmu.Lock()
	if c.watchStop != nil {
		close(c.watchStop)
		c.watchStop = nil
	}
	c.phaseT0 = time.Now()
	c.doneAt = make(map[int]time.Time)
	c.focus = -1
	if c.hedge != nil && c.hedge.stage == raceNominated {
		c.hedge = nil // its barrier ended before arming it
	}
	arm := c.spec.Straggler.Enabled && name != "plan"
	var stop chan struct{}
	if arm {
		stop = make(chan struct{})
		c.watchStop = stop
	}
	c.pmu.Unlock()
	if arm {
		c.watchWG.Add(1)
		go c.watchPhase(name, stop)
	}
}

// stopPhaseWatch retires the current phase watcher, if any. Called when
// the pipeline unwinds to recovery (the phase it watched is being
// abandoned) and at job end.
func (c *coordinator) stopPhaseWatch() {
	c.pmu.Lock()
	if c.watchStop != nil {
		close(c.watchStop)
		c.watchStop = nil
	}
	c.pmu.Unlock()
}

// setWatchFocus marks worker i as the one the coordinator is currently
// blocked on in a sequential phase like drain, where peers not yet
// fetched are idle through no fault of their own: the watcher then blames
// only the focused worker for elapsed budget.
func (c *coordinator) setWatchFocus(i int) {
	c.pmu.Lock()
	c.focus = i
	c.focusT0 = time.Now()
	c.pmu.Unlock()
}

// notePhaseDone records worker i's barrier completion in the current
// phase, for the watcher's dynamic budgets and the hedge's target choice.
func (c *coordinator) notePhaseDone(i int) {
	c.pmu.Lock()
	if _, ok := c.doneAt[i]; !ok {
		c.doneAt[i] = time.Now()
	}
	c.pmu.Unlock()
}

// noteProgress folds one beat's progress counters into the table,
// timestamping only actual advancement so the watcher's grace check reads
// "made progress recently", not "sent a beat recently".
func (c *coordinator) noteProgress(i int, pg msgProgress) {
	c.pmu.Lock()
	t, ok := c.prog[i]
	if !ok || t.phase != pg.Phase || t.units != pg.Units {
		t.at = time.Now()
	}
	t.phase, t.units = pg.Phase, pg.Units
	c.prog[i] = t
	c.pmu.Unlock()
}

// progressWithin reports whether worker i's progress counters advanced in
// the last grace window. Without a beat there is no progress evidence, so
// no grace.
func (c *coordinator) progressWithin(i int, now time.Time, grace time.Duration) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	t, ok := c.prog[i]
	return ok && now.Sub(t.at) <= grace
}

// watchPhase is the progress-rate failure detector for one barrier phase.
// Each tick it derives the phase's deadline budget, nominates a straggling
// local sort past the soft budget for a hedge, and demotes a worker past
// the hard budget — after one grace extension if its progress counters
// advanced recently — to the failover path via a typed *StragglerError.
func (c *coordinator) watchPhase(phase string, stop chan struct{}) {
	defer c.watchWG.Done()
	st := c.spec.Straggler
	tick := c.spec.Heartbeat.Interval / 2
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	tk := time.NewTicker(tick)
	defer tk.Stop()
	extended := make(map[int]time.Duration) // worker -> extended deadline
	for {
		select {
		case <-stop:
			return
		case <-tk.C:
		}
		now := time.Now()
		c.pmu.Lock()
		t0 := c.phaseT0
		focus, focusT0 := c.focus, c.focusT0
		durs := make([]time.Duration, 0, len(c.doneAt))
		done := make(map[int]bool, len(c.doneAt))
		var doneShards []uint64
		for i, at := range c.doneAt {
			durs = append(durs, at.Sub(t0))
			done[i] = true
			if (phase == "local-sort" || phase == "drain") && i < len(c.expectGather) {
				doneShards = append(doneShards, c.expectGather[i])
			}
		}
		c.pmu.Unlock()
		activeList := c.active()
		if phase == "drain" {
			// Drain fetches shards one worker at a time: only the worker the
			// coordinator is currently blocked on can be at fault, and until
			// the first fetch begins there is nobody to blame.
			if focus < 0 {
				continue
			}
			activeList = []int{focus}
			t0 = focusT0 // the budget covers this fetch, not the whole drain
		}
		hard := c.phaseBudget(st, durs, len(activeList))
		soft := st.SoftBudget
		if soft <= 0 {
			soft = hard
		}
		elapsed := now.Sub(t0)
		var unfinished []int
		for _, i := range activeList {
			if !done[i] {
				unfinished = append(unfinished, i)
			}
		}
		// Hedge only a lone outlier: every peer has sorted and exactly one
		// worker is still running past the soft budget. Counters cannot
		// reliably rank two still-sorting workers (a sort is one coarse work
		// unit), so spending the job's single hedge while several workers are
		// legitimately busy risks wasting it on a healthy one.
		if phase == "local-sort" && st.Hedge && soft > 0 && elapsed > soft &&
			len(unfinished) == 1 {
			c.nominateHedge(unfinished[0], stop)
		}
		var cands []int
		limits := make(map[int]time.Duration)
		for _, i := range activeList {
			if done[i] {
				continue
			}
			if c.hedgeInFlightFor(i) {
				continue // give the hedge its chance before demoting
			}
			limit := hard
			if st.HardBudget <= 0 {
				limit = c.scaleShardBudget(phase, i, doneShards, hard)
			}
			if e, ok := extended[i]; ok {
				limit = e
			}
			if limit <= 0 || elapsed <= limit {
				continue
			}
			grace := 2 * c.spec.Heartbeat.Interval
			if hard/4 > grace {
				grace = hard / 4
			}
			if _, ok := extended[i]; !ok && c.progressWithin(i, now, grace) {
				extended[i] = elapsed + grace
				continue
			}
			cands = append(cands, i)
			limits[i] = limit
		}
		if len(cands) == 0 {
			continue
		}
		// In an all-to-all phase every healthy worker is eventually blocked
		// at the barrier behind the one straggler, so several workers blow
		// the budget together. Demote only the furthest-behind unfinished
		// worker — and if that worker is still inside its grace extension
		// (a throttled worker inches forward, earning grace, while the
		// healthy peers it blocks sit flat), hold this sweep rather than
		// shoot a bystander. The failover that follows reruns the phase,
		// and if a second straggler remains the fresh watcher will find it.
		v := c.straggliest(unfinished)
		if _, ok := limits[v]; !ok {
			continue
		}
		c.demote(v, phase, limits[v])
		return
	}
}

// straggliest picks the most-behind worker among cands by the progress
// counters: lowest worker phase first, then fewest work units, then lowest
// ID for determinism. Workers that never reported progress sort first.
func (c *coordinator) straggliest(cands []int) int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	v := cands[0]
	vt, vok := c.prog[v]
	for _, i := range cands[1:] {
		t, ok := c.prog[i]
		behind := false
		switch {
		case ok != vok:
			behind = !ok
		case t.phase != vt.phase:
			behind = t.phase < vt.phase
		case t.units != vt.units:
			behind = t.units < vt.units
		}
		if behind {
			v, vt, vok = i, t, ok
		}
	}
	return v
}

// phaseBudget derives the phase's hard deadline: the explicit HardBudget
// when set; otherwise, once at least half the active workers have
// finished, budgetFactor times the median finisher's phase time, floored
// by minBudget and capped by budgetFactor times the plan model's
// prediction. Zero means "no verdict yet".
func (c *coordinator) phaseBudget(st StragglerConfig, durs []time.Duration, active int) time.Duration {
	if st.HardBudget > 0 {
		return st.HardBudget
	}
	if len(durs) == 0 || len(durs)*2 < active {
		return 0
	}
	b := budgetFactor * median(durs)
	if b < minBudget {
		b = minBudget
	}
	if c.predicted > 0 {
		if ceil := budgetFactor * c.predicted; ceil > minBudget && b > ceil {
			b = ceil
		}
	}
	return b
}

// scaleShardBudget stretches a derived local-sort or drain deadline for a
// worker whose planned shard outweighs the median finisher's: the budget
// is derived from the median finisher's time, and under bucket skew the
// biggest shard legitimately sorts (and drains) proportionally slower —
// that is load imbalance, not a straggle, and demoting the big worker
// only re-spreads its shard and amplifies the skew. Explicit budgets are
// the operator's absolute verdict and are never scaled (the caller gates
// on HardBudget). expectGather is safe to read here: it is written during
// the plan, which happens before the local-sort and drain watchers are
// armed, and watchers are retired before any re-plan.
func (c *coordinator) scaleShardBudget(phase string, i int, doneShards []uint64, hard time.Duration) time.Duration {
	if hard <= 0 || (phase != "local-sort" && phase != "drain") ||
		i >= len(c.expectGather) || len(doneShards) == 0 {
		return hard
	}
	m := median(doneShards)
	if m == 0 {
		// The median finisher's shard was empty (extreme duplicate skew can
		// put every record in one worker's buckets): its time says nothing
		// about how long real work takes, so a derived deadline has no
		// baseline — issue no verdict for a worker that actually holds data.
		if c.expectGather[i] > 0 {
			return 0
		}
		return hard
	}
	if s := float64(c.expectGather[i]) / float64(m); s > 1 {
		return time.Duration(float64(hard) * s)
	}
	return hard
}

// median returns the middle value of v, the upper one of an even count.
func median[T cmp.Ordered](v []T) T {
	s := slices.Clone(v)
	slices.Sort(s)
	return s[len(s)/2]
}

// demote expels a live-but-stalled worker to the failover path: the same
// machinery that absorbs a death absorbs a demotion, it just carries a
// *StragglerError so the caller (and jobs.Classify) can tell "slow" from
// "dead".
func (c *coordinator) demote(i int, phase string, budget time.Duration) {
	c.pmu.Lock()
	t, haveProg := c.prog[i]
	c.pmu.Unlock()
	detail := "no progress reports"
	if haveProg {
		detail = fmt.Sprintf("last progress %v ago (%s, %d units)",
			time.Since(t.at).Round(time.Millisecond), WorkerPhases[int(t.phase)%len(WorkerPhases)], t.units)
	}
	c.mu.Lock()
	c.rec.Stragglers = append(c.rec.Stragglers, i)
	epoch := c.epoch
	c.mu.Unlock()
	c.tr.Count("cluster", "stragglers-detected", 0, 1)
	// A zero-length marker span: analyze keys its straggler section on it.
	c.tr.Begin("cluster", "straggler", 0).End(
		obs.Attr{Key: "worker", Val: int64(i)},
		obs.Attr{Key: "budget-ms", Val: budget.Milliseconds()},
	)
	c.journal(journalEvent{Event: "straggler", Epoch: epoch, Phase: phase, Worker: i})
	c.lostAsync(i, &StragglerError{
		Worker: i, Addr: c.addr(i), Phase: phase, Budget: budget,
		Err: fmt.Errorf("no barrier completion after %v; %s", budget, detail),
	})
}

// nominateHedge names victim and its earliest-finishing peer as the job's
// one hedge, for the local-sort barrier to arm. It nominates nothing once
// a hedge exists, nor from a watcher whose phase has already moved on.
func (c *coordinator) nominateHedge(victim int, stop chan struct{}) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.hedge != nil || c.watchStop != stop {
		return
	}
	target := -1
	for i, at := range c.doneAt {
		if i != victim && (target < 0 || at.Before(c.doneAt[target])) {
			target = i
		}
	}
	if target >= 0 {
		c.hedge = &hedgeRun{victim: victim, target: target}
	}
}

// hedgeInFlightFor reports an undecided hedge covering worker i — the
// watcher suspends demotion while one runs.
func (c *coordinator) hedgeInFlightFor(i int) bool {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.hedge != nil && c.hedge.victim == i && c.hedge.stage <= raceOpen
}

// currentHedge returns the job's hedge, if one was nominated.
func (c *coordinator) currentHedge() *hedgeRun {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return c.hedge
}

func (c *coordinator) setRace(h *hedgeRun, stage raceStage) {
	c.pmu.Lock()
	h.stage = stage
	c.pmu.Unlock()
}

// raceHedge advances the hedge h, if any, by one local-sort barrier sweep
// and reports whether it moved. A nomination whose victim is still pending
// is armed: the target gets its mHedgeSend first, and every other worker's
// copy waits for the target's ack, so no phase-3 block reaches an unarmed
// target. Then the target's mHedgeDone or mHedgeFailed decides the race.
func (c *coordinator) raceHedge(h *hedgeRun, pending []int) (bool, error) {
	if h == nil {
		return false, nil
	}
	if h.stage == raceNominated && slices.Contains(pending, h.victim) {
		var buckets []uint32
		for b, o := range c.owners {
			if int(o) == h.victim {
				buckets = append(buckets, uint32(b))
			}
		}
		h.epoch = c.epoch
		h.send = (&msgHedgeSend{
			Epoch: c.epoch, Victim: uint32(h.victim), Target: uint32(h.target),
			Recs: c.expectGather[h.victim], Buckets: buckets,
		}).encode()
		h.span = c.tr.Begin("cluster", "hedge", 0)
		c.setRace(h, raceOpen)
		return true, c.sendTo(h.target, mHedgeSend, h.send)
	}
	if h.stage != raceOpen {
		return false, nil
	}
	typ, payload, ok, err := c.recvPoll(h.target)
	if err != nil || !ok {
		return false, err
	}
	var m msgCount
	switch {
	case typ == mHedgeArmed:
		h.armed = true
		for _, i := range c.active() {
			if i != h.target {
				_ = c.links[i].send(mHedgeSend, h.send) // best effort: a missing sender just starves the hedge
			}
		}
	case typ == mHedgeDone && m.decode(payload) == nil && m.Count == c.expectGather[h.victim]:
		c.settleHedge(h, raceWon)
	case typ == mHedgeDone || typ == mHedgeFailed:
		c.settleHedge(h, raceFailed)
	default:
		return false, fmt.Errorf("expected a hedge report, got message %d", typ)
	}
	return true, nil
}

// settleHedge decides the race, once: the winner's result stands and the
// loser's sort is cancelled (best effort: an undelivered cancel only
// leaves a shard nobody drains). A failed hedge just ends. The hedge span
// says whether the target was armed and, for a decided race, whether it
// won; a failed race carries no won attribute.
func (c *coordinator) settleHedge(h *hedgeRun, stage raceStage) {
	c.setRace(h, stage)
	attrs := []obs.Attr{
		{Key: "victim", Val: int64(h.victim)},
		{Key: "target", Val: int64(h.target)},
		{Key: "armed", Val: boolAttr(h.armed)},
	}
	if stage != raceFailed {
		attrs = append(attrs, obs.Attr{Key: "won", Val: boolAttr(stage == raceWon)})
	}
	h.span.End(attrs...)
	switch stage {
	case raceWon:
		_ = c.links[h.victim].send(mSortCancel, nil)
		c.tr.Count("cluster", "hedge-wins", 0, 1)
		c.mu.Lock()
		c.rec.HedgeWins++
		c.mu.Unlock()
		c.journal(journalEvent{Event: "hedge", Epoch: h.epoch, Phase: "local-sort", Worker: h.victim, Addr: c.addr(h.target)})
		c.notePhaseDone(h.victim)
	case raceLost:
		_ = c.links[h.target].send(mSortCancel, nil)
		c.tr.Count("cluster", "hedge-losses", 0, 1)
		c.mu.Lock()
		c.rec.HedgeLosses++
		c.mu.Unlock()
	}
}

// scatter opens the job's first epoch, epoch 0: every worker's shard
// starts empty, and since no chunk has an owner yet, openEpoch deals chunk
// t to worker t mod W.
func (c *coordinator) scatter() error {
	if err := c.enterPhase("scatter"); err != nil {
		return err
	}
	sp := c.tr.Begin("cluster", "scatter", 0)
	fresh := make(map[int]bool, c.W)
	for i := 0; i < c.W; i++ {
		fresh[i] = true
	}
	if _, _, err := c.openEpoch(journalEvent{Event: "scatter-done"}, fresh); err != nil {
		return err
	}
	sp.End(obs.Attr{Key: "records", Val: int64(c.n)}, obs.Attr{Key: "workers", Val: int64(c.W)})
	return nil
}

// collectBarrier gathers one want-typed frame from every active worker,
// in completion order rather than worker order, so one straggler cannot
// hide its peers' finishes from the phase watcher (whose dynamic budgets
// and hedge-target choice feed off notePhaseDone). onFrame validates and
// folds worker i's payload; folding must be order-independent, which
// every barrier here is (sums, per-worker slots, count checks). With
// hedge set (the local-sort barrier), the barrier also runs the hedge's
// race: a won hedge satisfies the victim's slot, and the victim finishing
// first loses it for the target. An epoch's ack barrier (want
// mRescatterAck) drops a worker's other frames: before its ack they are
// what an aborted epoch left in flight, and TCP ordering makes the ack a
// clean cut.
func (c *coordinator) collectBarrier(want byte, what string, hedge bool, onFrame func(i int, payload []byte) error) error {
	if hedge {
		defer func() {
			// A race still open here unwinds to recovery, and the epoch turn
			// cancels the target's copy.
			if h := c.currentHedge(); h != nil && h.stage == raceOpen {
				c.settleHedge(h, raceFailed)
			}
		}()
	}
	pending := c.active()
	for len(pending) > 0 {
		if c.pendingLoss() {
			return errFailover
		}
		var h *hedgeRun
		if hedge {
			h = c.currentHedge()
		}
		progressed, err := c.raceHedge(h, pending)
		if err != nil {
			return phaseErr("hedge on worker", h.target, err)
		}
		var next []int
		for _, i := range pending {
			if h.covers(i, c.epoch) {
				continue
			}
			typ, payload, ok, err := c.recvPoll(i)
			if err != nil {
				return phaseErr(what, i, err)
			}
			if !ok || typ != want && want == mRescatterAck {
				next = append(next, i)
				progressed = progressed || ok
				continue
			}
			if typ != want {
				return fmt.Errorf("cluster: expected message %d from worker %d, got %d", want, i, typ)
			}
			if err := onFrame(i, payload); err != nil {
				return err
			}
			c.notePhaseDone(i)
			if h != nil && h.victim == i && h.stage == raceOpen {
				c.settleHedge(h, raceLost)
			}
			progressed = true
		}
		pending = next
		if len(pending) == 0 || progressed {
			continue
		}
		// Nothing ready: sleep a beat. A loss signal ends the lull early;
		// frames and hedge reports are picked up on the next sweep.
		t := time.NewTimer(time.Millisecond)
		select {
		case <-c.lostSig:
			t.Stop()
			return errFailover
		case <-t.C:
		}
	}
	return nil
}

// pipeline runs the post-scatter phases for the current epoch. Any return
// of errFailover unwinds to the recovery loop in run.
func (c *coordinator) pipeline(ctx context.Context) error {
	bins, err := c.histogramPhase()
	if err != nil {
		return err
	}
	if err := c.planPhase(bins); err != nil {
		return err
	}
	if err := c.exchangePhase(); err != nil {
		return err
	}
	if err := c.gatherPhase(); err != nil {
		return err
	}
	if err := c.sortPhase(); err != nil {
		return err
	}
	return c.drainPhase()
}

// histogramPhase merges the active workers' histograms, picks the pivots
// and sends them, and returns each worker's bins (indexed by worker ID),
// from which the plan folds the per-bucket counts.
func (c *coordinator) histogramPhase() ([][]uint64, error) {
	if err := c.enterPhase("histogram-merge"); err != nil {
		return nil, err
	}
	sp := c.tr.Begin("cluster", "histogram-merge", 0)
	merged := make([]uint64, histBins)
	bins := make([][]uint64, c.W)
	err := c.collectBarrier(mHistogram, "histogram from worker", false, func(i int, payload []byte) error {
		var h msgHistogram
		if err := h.decode(payload); err != nil {
			return err
		}
		var total uint64
		for b, v := range h.Bins {
			merged[b] += v
			total += v
		}
		if total != c.perWorker[i] {
			return fmt.Errorf("cluster: worker %d binned %d of %d records", i, total, c.perWorker[i])
		}
		bins[i] = h.Bins
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.pivots = pickPivots(merged, uint64(c.n), c.S)
	digest := histDigest(merged)
	if c.wantPivots == nil {
		c.wantPivots = append([]uint64(nil), c.pivots...)
		c.wantDigest = digest
		c.journal(journalEvent{Event: "pivots", Epoch: c.epoch, Pivots: c.pivots, Digest: digest})
	} else if digest != c.wantDigest || !slices.Equal(c.pivots, c.wantPivots) {
		// The merged histogram is membership-independent — the shards
		// always partition the whole input — so any divergence across
		// epochs (or across a crash, via the journal) means the shards no
		// longer hold the input and the output could not be trusted.
		return nil, fmt.Errorf("cluster: epoch %d merged histogram diverged (digest %#x, committed %#x)",
			c.epoch, digest, c.wantDigest)
	}
	pv := (&msgPivots{Pivots: c.pivots}).encode()
	for _, i := range c.active() {
		if err := c.sendTo(i, mPivots, pv); err != nil {
			return nil, err
		}
		c.flowOut("pivots", i)
	}
	sp.End(obs.Attr{Key: "pivots", Val: int64(len(c.pivots))})
	return bins, nil
}

// planPhase places every block and sends each worker its plan. It waits on
// no worker: every worker's per-bucket counts are folded from the bins it
// sent for the histogram, through the same bucket table the worker folds
// and classifies with.
func (c *coordinator) planPhase(bins [][]uint64) error {
	if err := c.enterPhase("plan"); err != nil {
		return err
	}
	sp := c.tr.Begin("cluster", "plan", 0)
	activeList := c.active()
	H := len(activeList)

	table := bucketTable(c.pivots)
	counts := make([][]uint64, c.W)
	for _, w := range activeList {
		counts[w] = foldCounts(bins[w], table, c.S)
	}

	// Balance-Sort placement: enumerate every block each worker will form
	// (bucket-major per worker), interleave across workers so each
	// placement track holds at most one block per worker — the cluster
	// analogue of "one block formed per processor per step" — and let the
	// histogram/auxiliary-matrix machinery pick destinations. The balancer
	// runs over H' = |survivors| virtual disks: losing a worker shrinks
	// the disk set exactly as the paper's model allows, and the invariant
	// check below asserts the placement guarantees on the shrunk matrix.
	type blockRef struct {
		worker int // worker ID (not active index)
		bucket int
		seq    int
	}
	blocksOf := make(map[int][]blockRef, H)
	for _, w := range activeList {
		for b := 0; b < c.S; b++ {
			nb := int((counts[w][b] + uint64(c.spec.BlockRecs) - 1) / uint64(c.spec.BlockRecs))
			for seq := 0; seq < nb; seq++ {
				blocksOf[w] = append(blocksOf[w], blockRef{worker: w, bucket: b, seq: seq})
			}
		}
	}
	var stream []blockRef
	for t := 0; ; t++ {
		any := false
		for _, w := range activeList {
			if t < len(blocksOf[w]) {
				stream = append(stream, blocksOf[w][t])
				any = true
			}
		}
		if !any {
			break
		}
	}
	labels := make([]int, len(stream))
	for i, ref := range stream {
		labels[i] = ref.bucket
	}
	bl := balance.New(balance.Config{S: c.S, H: H})
	dests := bl.PlaceStream(labels) // dest is an index into activeList
	if err := bl.CheckInvariants(); err != nil {
		return fmt.Errorf("cluster: placement over %d disks broke the balance invariants: %w", H, err)
	}

	planDests := make(map[int][][]uint32, H) // worker ID -> [bucket][seq]
	for _, w := range activeList {
		rows := make([][]uint32, c.S)
		for b := 0; b < c.S; b++ {
			nb := int((counts[w][b] + uint64(c.spec.BlockRecs) - 1) / uint64(c.spec.BlockRecs))
			rows[b] = make([]uint32, nb)
		}
		planDests[w] = rows
	}
	expectRecv := make([]uint64, c.W)
	for i, ref := range stream {
		dest := activeList[dests[i]]
		planDests[ref.worker][ref.bucket][ref.seq] = uint32(dest)
		expectRecv[dest]++
	}

	// Bucket ownership: contiguous runs of buckets per surviving worker,
	// balanced by record volume, so each worker's final shard is one key
	// range and the drain in ascending survivor order is the global key
	// order.
	bucketTotal := make([]uint64, c.S)
	for _, w := range activeList {
		for b := 0; b < c.S; b++ {
			bucketTotal[b] += counts[w][b]
		}
	}
	ownerPos := assignOwners(bucketTotal, H)
	owners := make([]uint32, c.S)
	for b, p := range ownerPos {
		owners[b] = uint32(activeList[p])
	}
	expectGather := make([]uint64, c.W)
	for b, o := range owners {
		expectGather[o] += bucketTotal[b]
	}

	for _, i := range activeList {
		p := msgPlan{
			Dests:            planDests[i],
			ExpectRecvBlocks: expectRecv[i],
			Owners:           owners,
			ExpectGatherRecs: expectGather[i],
		}
		if err := c.sendTo(i, mPlan, p.encode()); err != nil {
			return err
		}
		c.flowOut("plan", i)
	}
	c.bl = bl
	c.streamLen = len(stream)
	c.expectRecv = expectRecv
	c.expectGather = expectGather
	c.owners = owners
	sp.End(obs.Attr{Key: "blocks", Val: int64(len(stream))}, obs.Attr{Key: "buckets", Val: int64(c.S)},
		obs.Attr{Key: "disks", Val: int64(H)})
	return nil
}

func (c *coordinator) exchangePhase() error {
	if err := c.enterPhase("exchange"); err != nil {
		return err
	}
	sp := c.tr.Begin("cluster", "exchange", 0)
	err := c.collectBarrier(mPhaseDone, "exchange on worker", false, func(i int, payload []byte) error {
		var d msgPhaseDone
		if err := d.decode(payload); err != nil {
			return err
		}
		if d.Phase != 1 || d.BlocksRecv != c.expectRecv[i] {
			return fmt.Errorf("cluster: worker %d finished exchange with %d of %d blocks",
				i, d.BlocksRecv, c.expectRecv[i])
		}
		c.journalWDone("exchange", i)
		return nil
	})
	if err != nil {
		return err
	}
	sp.End(obs.Attr{Key: "blocks", Val: int64(c.streamLen)})
	return nil
}

func (c *coordinator) gatherPhase() error {
	if err := c.enterPhase("gather"); err != nil {
		return err
	}
	sp := c.tr.Begin("cluster", "gather", 0)
	for _, i := range c.active() {
		if err := c.sendTo(i, mStartGather, nil); err != nil {
			return err
		}
		c.flowOut("gather", i)
	}
	err := c.collectBarrier(mPhaseDone, "gather on worker", false, func(i int, payload []byte) error {
		var d msgPhaseDone
		if err := d.decode(payload); err != nil {
			return err
		}
		if d.Phase != 2 || d.RecsRecv != c.expectGather[i] {
			return fmt.Errorf("cluster: worker %d gathered %d of %d records",
				i, d.RecsRecv, c.expectGather[i])
		}
		c.journalWDone("gather", i)
		return nil
	})
	if err != nil {
		return err
	}
	sp.End()
	return nil
}

func (c *coordinator) sortPhase() error {
	if err := c.enterPhase("local-sort"); err != nil {
		return err
	}
	sp := c.tr.Begin("cluster", "local-sort", 0)
	for _, i := range c.active() {
		if err := c.sendTo(i, mSortReq, nil); err != nil {
			return err
		}
		c.flowOut("local-sort", i)
	}
	err := c.collectBarrier(mSortDone, "local sort on worker", true, func(i int, payload []byte) error {
		var m msgCount
		if err := m.decode(payload); err != nil {
			return err
		}
		if m.Count != c.expectGather[i] {
			return fmt.Errorf("cluster: worker %d sorted %d of %d records", i, m.Count, c.expectGather[i])
		}
		c.journalWDone("local-sort", i)
		return nil
	})
	if err != nil {
		return err
	}
	sp.End()
	return nil
}

func (c *coordinator) drainPhase() error {
	if err := c.enterPhase("drain"); err != nil {
		return err
	}
	sp := c.tr.Begin("cluster", "drain", 0)
	if err := c.drainShards(); err != nil {
		return err
	}
	sp.End(obs.Attr{Key: "records", Val: int64(c.n)})
	return nil
}

// drainShards pulls every surviving worker's sorted shard in ascending ID
// order into outPath, verifying global sortedness and record conservation
// while streaming, and leaving no partial output behind on failure (a
// failover here re-creates the file from scratch).
func (c *coordinator) drainShards() (err error) {
	out, err := os.Create(c.outPath)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			out.Close()
			os.Remove(c.outPath)
		}
	}()
	w := bufio.NewWriterSize(out, 1<<16)
	var prev record.Record
	first := true
	written := uint64(0)
	active := c.active()
	if c.pendingLoss() {
		return errFailover // a shard of the plan is gone: the snapshot would miss it
	}
	for _, i := range active {
		// A won hedge's target serves the victim's shard — byte-identical,
		// being the same record multiset under the same total order — at
		// the victim's position in the drain order.
		src := i
		if h := c.currentHedge(); h.covers(i, c.epoch) {
			src = h.target
		}
		c.setWatchFocus(src)
		if err := c.sendTo(src, mFetch, (&msgCount{Count: uint64(i)}).encode()); err != nil {
			return err
		}
		c.flowOut("drain", i)
		var got uint64
		for {
			typ, payload, rerr := c.recvFrom(src)
			if rerr != nil {
				return phaseErr("draining worker", src, rerr)
			}
			if typ == mFetchDone {
				var m msgCount
				if derr := m.decode(payload); derr != nil {
					return derr
				}
				if m.Count != got || got != c.expectGather[i] {
					return fmt.Errorf("cluster: worker %d drained %d records, reported %d, expected %d",
						i, got, m.Count, c.expectGather[i])
				}
				break
			}
			if typ != mRecords {
				return fmt.Errorf("cluster: unexpected message %d while draining worker %d", typ, i)
			}
			if len(payload)%record.EncodedSize != 0 {
				return fmt.Errorf("cluster: worker %d drained a chunk of %d bytes", i, len(payload))
			}
			for off := 0; off < len(payload); off += record.EncodedSize {
				rec := record.Decode(payload[off:])
				if !first && rec.Less(prev) {
					return fmt.Errorf("cluster: output not sorted at worker %d shard", i)
				}
				prev, first = rec, false
			}
			if _, werr := w.Write(payload); werr != nil {
				return werr
			}
			got += uint64(len(payload) / record.EncodedSize)
			c.links[src].free.put(payload)
		}
		written += got
		c.journalWDone("drain", i)
		c.notePhaseDone(i)
	}
	if written != uint64(c.n) {
		return fmt.Errorf("cluster: drained %d of %d records", written, c.n)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return out.Close()
}

// recoverLost is the failover path: check quorum, then open a new epoch
// over the survivors, which re-deals the dead workers' chunks. The
// pipeline then reruns from the histogram phase — the shards are the only
// durable state a worker carries, so rewinding to the epoch cut is a
// complete recovery from loss at any phase.
func (c *coordinator) recoverLost() error {
	t0 := time.Now()
	sp := c.tr.Begin("cluster", "failover", 0)
	defer func() {
		c.mu.Lock()
		c.rec.FailoverWallNanos += time.Since(t0).Nanoseconds()
		c.mu.Unlock()
	}()
	if err := c.checkQuorum(); err != nil {
		sp.End()
		return err
	}
	c.mu.Lock()
	c.rec.Failovers++
	c.mu.Unlock()
	blocks, recs, err := c.openEpoch(journalEvent{Event: "failover"}, nil)
	sp.End(
		obs.Attr{Key: "epoch", Val: int64(c.epoch)},
		obs.Attr{Key: "rescattered-blocks", Val: int64(blocks)},
		obs.Attr{Key: "rescattered-records", Val: int64(recs)},
	)
	return err
}

// checkQuorum absorbs the pending loss signal and fails the job with a
// *ClusterDegradedError once fewer than ⌊W/2⌋+1 workers survive.
func (c *coordinator) checkQuorum() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.lostSig:
	default:
	}
	dead := make([]int, 0, len(c.deadErr))
	for i := 0; i < c.W; i++ {
		if _, d := c.deadErr[i]; d {
			dead = append(dead, i)
		}
	}
	if quorum := c.W/2 + 1; c.W-len(dead) < quorum {
		return &ClusterDegradedError{Lost: dead, Workers: c.W, Quorum: quorum, Err: c.lastLost}
	}
	return nil
}

// openEpoch is the one way the disk set changes: the scatter, a failover,
// a join and a resume all open their epoch here. It announces the epoch to
// every live worker with the full peer table, so a worker's membership
// changes atomically with its epoch; deals every chunk that no live,
// shard-intact worker holds; tells each worker its shard size and waits
// for every ack; and journals ev, filled in with the epoch, the chunks
// dealt, the extents and the ownership map. fresh[i] marks a worker whose
// shard starts empty — every worker of the scatter, a joiner, or a resumed
// worker whose parked shard did not survive: its announcement carries the
// Fresh flag and every chunk it owns is dealt to it again. A chunk with no
// live owner goes round-robin across the live workers, so the scatter,
// where no chunk has an owner yet, deals chunk t to worker t mod W. The
// scatter opens epoch 0 and counts nothing as recovery; every later epoch
// is bumped before it is announced and counts what it dealt.
func (c *coordinator) openEpoch(ev journalEvent, fresh map[int]bool) (dealt int, dealtRecs uint64, err error) {
	first := ev.Event == "scatter-done"
	activeList := c.active()
	c.mu.Lock()
	// The losses this epoch's dealing accounts for; one landing later stays
	// pending and fails the epoch over.
	c.handled = len(c.deadErr)
	if !first {
		c.epoch++
		c.rec.ActiveWorkers = append([]int(nil), activeList...)
	}
	c.mu.Unlock()
	if c.assign == nil {
		c.assign = make([]int32, (c.n+scatterChunk-1)/scatterChunk)
		for t := range c.assign {
			c.assign[t] = -1
		}
	}

	// The worker's control reader acts on the announcement at once —
	// canceling its in-flight phase — even deep inside exchange or sort.
	peers := append([]string(nil), c.spec.Workers...)
	for _, i := range activeList {
		ann := (&msgRescatter{Epoch: c.epoch, Active: toU32(activeList), Fresh: fresh[i], Peers: peers}).encode()
		if err := c.sendTo(i, mRescatter, ann); err != nil {
			return 0, 0, err
		}
	}
	buf := make([]byte, scatterChunk*record.EncodedSize)
	rr := 0
	for t, owner := range c.assign {
		w := int(owner)
		if w < 0 || c.isDead(w) {
			w = activeList[rr%len(activeList)]
			rr++
		} else if !fresh[w] {
			continue // its live owner's shard holds it
		}
		m := c.chunkRecs(t)
		chunk := buf[:m*record.EncodedSize]
		if _, err := c.in.ReadAt(chunk, int64(t)*scatterChunk*record.EncodedSize); err != nil {
			return 0, 0, fmt.Errorf("cluster: reading %s chunk %d: %w", c.inPath, t, err)
		}
		if err := c.sendTo(w, mRecords, chunk); err != nil {
			return 0, 0, err
		}
		c.assign[t] = int32(w)
		dealt++
		dealtRecs += uint64(m)
	}
	c.perWorker = c.extents()
	for _, i := range activeList {
		done := (&msgRescatterDone{Epoch: c.epoch, Total: c.perWorker[i]}).encode()
		if err := c.sendTo(i, mRescatterDone, done); err != nil {
			return 0, 0, err
		}
	}

	err = c.collectBarrier(mRescatterAck, "epoch ack from worker", false, func(i int, payload []byte) error {
		var a msgRescatterAck
		if err := a.decode(payload); err != nil {
			return err
		}
		if a.ShardRecs != c.perWorker[i] {
			return fmt.Errorf("cluster: worker %d holds %d records in epoch %d, coordinator expects %d",
				i, a.ShardRecs, c.epoch, c.perWorker[i])
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}

	if !first {
		c.mu.Lock()
		c.rec.RescatteredBlocks += dealt
		c.rec.RescatteredRecords += int(dealtRecs)
		c.mu.Unlock()
		c.tr.Count("cluster", "blocks-rescattered", 0, int64(dealt))
	}
	ev.Epoch, ev.Blocks = c.epoch, dealt
	ev.Extents = append([]uint64(nil), c.perWorker...)
	ev.Assign = append([]int32(nil), c.assign...)
	c.journal(ev)
	return dealt, dealtRecs, nil
}

// extents folds the chunk-ownership map into per-worker shard sizes; an
// unowned chunk counts for nobody.
func (c *coordinator) extents() []uint64 {
	out := make([]uint64, c.W)
	for t, w := range c.assign {
		if w >= 0 {
			out[w] += uint64(c.chunkRecs(t))
		}
	}
	return out
}

// chunkRecs is the record count of chunk t: scatterChunk, or the input's
// remainder for the last chunk.
func (c *coordinator) chunkRecs(t int) int {
	return min(scatterChunk, c.n-t*scatterChunk)
}

// admitJoin dials the scheduled joiner and runs its hello; only once the
// joiner is known good does it commit the membership growth. Worker W
// then exists from the epoch that follows, its shard dealt to it fresh
// while every incumbent rewinds to the same epoch cut. A joiner that
// cannot be reached or refuses the handshake is abandoned: the epoch opens
// over the incumbents as they are, so the interrupted pipeline restarts
// coherently.
func (c *coordinator) admitJoin(ctx context.Context) error {
	j := c.spec.Join
	sp := c.tr.Begin("cluster", "join", 0)
	id := c.W
	newPeers := append(append([]string(nil), c.spec.Workers...), j.Addr)
	l, aerr := c.attachJoiner(ctx, id, j.Addr, newPeers)
	ev := journalEvent{Event: "join-failed", Addr: j.Addr}
	var fresh map[int]bool
	if aerr == nil {
		// Commit: from here the joiner is a full member and its loss is a
		// failover like any other's.
		c.mu.Lock()
		c.links = append(c.links, l)
		c.spec.Workers = newPeers
		c.W = id + 1
		c.rec.Joins++
		c.rec.JoinedWorkers = append(c.rec.JoinedWorkers, id)
		c.mu.Unlock()
		ev = journalEvent{Event: "join", Worker: id, Addr: j.Addr}
		fresh = map[int]bool{id: true}
	}
	_, recs, err := c.openEpoch(ev, fresh)
	if err == nil && aerr == nil {
		c.tr.Count("cluster", "workers-joined", 0, 1)
	}
	sp.End(
		obs.Attr{Key: "epoch", Val: int64(c.epoch)},
		obs.Attr{Key: "worker", Val: int64(id)},
		obs.Attr{Key: "rescattered-records", Val: int64(recs)},
		obs.Attr{Key: "admitted", Val: boolAttr(aerr == nil)},
	)
	return err
}

// attachJoiner dials the joiner and runs its hello without touching any
// membership state; the caller commits on success.
func (c *coordinator) attachJoiner(ctx context.Context, id int, addr string, newPeers []string) (*link, error) {
	conn, err := c.spec.Dial.dial(ctx, id, addr)
	if err != nil {
		return nil, err
	}
	l := c.newLink(id, conn)
	err = l.send(mHello, c.hello(id, newPeers).encode())
	if err == nil {
		err = c.expectHelloAck(l)
	}
	if err != nil {
		conn.Close()
		close(l.done)
		return nil, err
	}
	return l, nil
}

// flowOut drops the outbound half of a coordinator->worker causality edge
// right after the phase-triggering message leaves; the worker drops the
// matching inbound half when it acts on it. Both ends derive the same flow
// id from (phase, epoch, worker), so the edge binds in the merged trace
// without shipping ids.
func (c *coordinator) flowOut(phase string, worker int) {
	c.tr.FlowPoint("cluster", "flow-"+phase, worker, flowID(phase, c.epoch, worker), true)
}

func boolAttr(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// collectTrace requests worker i's recorded spans and merges them into the
// job tracer, rebasing the worker tracer's epoch (shipped as wall-clock
// UnixNano) onto the coordinator's. Wall clocks are only used for the epoch
// shift — span offsets themselves are monotonic — so cross-machine skew
// displaces a worker's track but never distorts durations.
func (c *coordinator) collectTrace(i int) error {
	if err := c.sendTo(i, mTraceReq, nil); err != nil {
		return err
	}
	coordEpoch := c.tr.Epoch().UnixNano()
	for {
		typ, payload, err := c.recvFrom(i)
		if err != nil {
			return err
		}
		switch typ {
		case mTrace:
			var m msgTrace
			if err := m.decode(payload); err != nil {
				return err
			}
			shift := time.Duration(int64(m.EpochNanos) - coordEpoch)
			c.tr.Merge(m.Spans, shift, i+1)
		case mTraceDone:
			return nil
		default:
			return fmt.Errorf("cluster: unexpected message %d during trace collection", typ)
		}
	}
}

// journalEvent is one checksummed line of the coordinator's recovery
// journal. Beyond the failover bookkeeping (phase progress, per-worker
// partition extents, losses and their causes), it carries everything a
// restarted coordinator needs to resume the job: the job identity
// ("start"), the per-chunk ownership map (Assign, on every epoch's
// opening: "scatter-done", "failover", "join", "join-failed" and
// "reseed"), the committed pivot set and histogram digest ("pivots"),
// per-worker phase completions ("wdone"), membership growth ("join"), and
// the terminal "done".
type journalEvent struct {
	Event   string   `json:"event"` // "start" | "phase" | "scatter-done" | "pivots" | "wdone" | "lost" | "straggler" | "hedge" | "failover" | "join" | "join-failed" | "resume" | "reseed" | "done"
	Epoch   uint32   `json:"epoch"`
	Phase   string   `json:"phase,omitempty"`
	Worker  int      `json:"worker,omitempty"`
	Extents []uint64 `json:"extents,omitempty"` // per-worker shard records
	Blocks  int      `json:"blocks,omitempty"`  // chunks the epoch dealt
	Error   string   `json:"error,omitempty"`   // a loss's cause

	JobID     uint64   `json:"job_id,omitempty"`
	Addrs     []string `json:"addrs,omitempty"` // membership at "start"
	Addr      string   `json:"addr,omitempty"`  // the joiner's address
	S         int      `json:"s,omitempty"`
	BlockRecs int      `json:"block_recs,omitempty"`
	Records   int      `json:"records,omitempty"`
	Assign    []int32  `json:"assign,omitempty"` // chunk -> owning worker
	Pivots    []uint64 `json:"pivots,omitempty"`
	Digest    uint64   `json:"digest,omitempty"` // merged-histogram digest
}

// journalWDone marks worker i's completion of a pipeline phase, so a
// resumed coordinator can report how far the job had provably gotten.
func (c *coordinator) journalWDone(phase string, i int) {
	c.journal(journalEvent{Event: "wdone", Epoch: c.epoch, Phase: phase, Worker: i})
}

func (c *coordinator) journal(ev journalEvent) {
	if c.jr == nil {
		return
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return
	}
	c.jmu.Lock()
	_, _ = c.jr.Append(b)
	c.jmu.Unlock()
}

// phaseErr wraps a phase-scoped error, passing the failover sentinel (and
// context errors) through untouched so the recovery loop can see them.
func phaseErr(what string, worker int, err error) error {
	if errors.Is(err, errFailover) {
		return err
	}
	return fmt.Errorf("cluster: %s %d: %w", what, worker, err)
}

func toU32(xs []int) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = uint32(x)
	}
	return out
}

// pickPivots chooses the S-1 bucket pivots from the merged histogram: the
// b-th pivot is the start key of the first bin at which the cumulative
// count reaches a b/S share of the input. The choice is a pure function of
// the histogram — deterministic, no sampling.
func pickPivots(bins []uint64, n uint64, s int) []uint64 {
	piv := make([]uint64, 0, s-1)
	var cum uint64
	b := 1
	for i := 0; i < len(bins) && b < s; i++ {
		cum += bins[i]
		for b < s && cum*uint64(s) >= uint64(b)*n {
			piv = append(piv, binStart(i+1))
			b++
		}
	}
	for len(piv) < s-1 {
		piv = append(piv, ^uint64(0))
	}
	return piv
}

// assignOwners maps buckets to workers in contiguous ascending runs whose
// record volumes are as even as the bucket granularity allows.
func assignOwners(totals []uint64, workers int) []uint32 {
	owners := make([]uint32, len(totals))
	var grand uint64
	for _, t := range totals {
		grand += t
	}
	w := 0
	var acc uint64
	for b := range totals {
		owners[b] = uint32(w)
		acc += totals[b]
		if w < workers-1 && acc*uint64(workers) >= grand*uint64(w+1) {
			w++
		}
	}
	return owners
}

package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"balancesort/internal/obs"
	"balancesort/internal/record"
)

// WorkerConfig parameterizes one worker process.
type WorkerConfig struct {
	// ScratchDir is where the worker keeps its per-job shard, exchange
	// spill, gather spill, sorted shard, and local-sort scratch. Each job
	// gets its own subdirectory, removed when the job ends.
	ScratchDir string
	// SortShard sorts the raw record file inPath into outPath, using
	// scratchDir for spill space. The repository wires the file-backed
	// SortFile path here; nil selects an in-memory sorter (tests, small
	// shards).
	SortShard func(ctx context.Context, inPath, outPath, scratchDir string) error
	// Dial tunes peer connection retry/backoff and per-op timeouts.
	Dial DialConfig
	// DropAfterBlocks is a fault-injection knob: after this many blocks
	// have been sent to peers, the worker force-closes that connection
	// once, exercising the redial/retransmit/dedup path. 0 disables.
	DropAfterBlocks int
	// PongDelay and PongDelayCount inject heartbeat flap: the first
	// PongDelayCount pongs are answered PongDelay late. The coordinator's
	// miss counter must absorb the flap without declaring the worker lost.
	PongDelay      time.Duration
	PongDelayCount int
	// Obs, when non-nil, receives each job's tracer under the key "job",
	// so the worker's /metrics endpoint exposes live phase histograms and
	// event counts. Independent of the Hello trace flag: a worker can
	// serve metrics even when the coordinator is not collecting traces,
	// and ship traces without serving metrics.
	Obs *obs.Server
	// Sample, when positive and a session trace is active, runs a
	// background utilization sampler at this interval: goroutine count,
	// heap, and wire throughput land as counter samples in the session
	// trace and ship to the coordinator with the phase spans.
	Sample time.Duration
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	c.Dial = c.Dial.withDefaults()
	if c.SortShard == nil {
		c.SortShard = memorySortShard
	}
	return c
}

const (
	// phaseTimeout bounds how long a worker waits at an exchange, gather
	// or hedge barrier for blocks that never arrive (its peers' failure
	// reports normally arrive much sooner).
	phaseTimeout = 2 * time.Minute
	// resumeWindow is how long a worker keeps a parked shard after its
	// coordinator connection dies on a transport error, waiting for a
	// restarted coordinator's mResume. Past the window the shard is
	// deleted and a resume starts the worker from scratch (the coordinator
	// re-streams its extents).
	resumeWindow = 2 * time.Minute
)

// memorySortShard is the fallback local sorter: whole shard in memory,
// ordered by the strict (Key, Loc) record order.
func memorySortShard(_ context.Context, inPath, outPath, _ string) error {
	recs, err := readRecordFile(inPath)
	if err != nil {
		return err
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Less(recs[j]) })
	return writeRecordFile(outPath, recs)
}

func readRecordFile(path string) ([]record.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return record.ReadAll(f)
}

func writeRecordFile(path string, recs []record.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if err := record.WriteAll(w, recs); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Worker is one cluster member: it serves coordinator jobs sequentially and
// peer block streams concurrently.
type Worker struct {
	cfg WorkerConfig

	mu     sync.Mutex
	sess   *session
	idle   chan struct{} // closed when sess is cleared
	parked *parkedShard
}

// sessionHandoff bounds how long a new job waits for the worker's previous
// session to finish. A coordinator returns as soon as it has said Bye, so
// its next job's hello can overtake the old session's last steps; a
// session still running after this long belongs to a concurrent job, and
// the new one is refused as busy.
const sessionHandoff = time.Second

// claim makes s the worker's session, waiting up to handoff for a
// finishing predecessor to clear. It reports false when the worker stays
// busy.
func (w *Worker) claim(s *session, handoff time.Duration) bool {
	timer := time.NewTimer(handoff)
	defer timer.Stop()
	w.mu.Lock()
	for w.sess != nil {
		if handoff <= 0 {
			w.mu.Unlock()
			return false
		}
		idle := w.idle
		w.mu.Unlock()
		select {
		case <-idle:
		case <-timer.C:
			return false
		}
		w.mu.Lock()
	}
	w.sess, w.idle = s, make(chan struct{})
	w.mu.Unlock()
	return true
}

// parkedShard is the state a worker keeps after its coordinator vanished on
// a transport error: just the scratch directory (whose in.shard is the only
// durable state an epoch reset preserves anyway) and enough metadata to
// answer a restarted coordinator's mResume. The timer deletes it when the
// resume window closes.
type parkedShard struct {
	jobID     uint64
	worker    int
	dir       string
	epoch     uint32
	shardRecs uint64
	timer     *time.Timer
}

// maybePark decides whether a failed session is worth keeping for a
// coordinator resume: the failure must look like the coordinator dying (a
// transport error — not a chaos kill, not a local cancellation or disk
// error, not a lost peer the coordinator would have handled), and the
// shard file must be exactly the records the session accounted for.
func (w *Worker) maybePark(s *session, err error) bool {
	if s.isHung() {
		return false
	}
	var lost *WorkerLostError
	if errors.As(err, &lost) {
		return false
	}
	if !isTransportErr(err) {
		return false
	}
	st, serr := os.Stat(s.shardPath())
	if serr != nil || st.Size() != int64(s.shardRecs)*int64(record.EncodedSize) {
		return false
	}
	s.mu.Lock()
	s.keepDir = true
	epoch := s.epoch
	s.mu.Unlock()
	p := &parkedShard{
		jobID: s.jobID, worker: s.self, dir: s.dir,
		epoch: epoch, shardRecs: s.shardRecs,
	}
	p.timer = time.AfterFunc(resumeWindow, func() {
		w.mu.Lock()
		expired := w.parked == p
		if expired {
			w.parked = nil
		}
		w.mu.Unlock()
		if expired {
			os.RemoveAll(p.dir)
		}
	})
	w.mu.Lock()
	old := w.parked
	w.parked = p
	w.mu.Unlock()
	if old != nil {
		old.timer.Stop()
		os.RemoveAll(old.dir)
	}
	return true
}

// takeParked claims the parked shard for (jobID, worker), if one exists,
// stopping its expiry timer. The caller owns the directory afterwards.
func (w *Worker) takeParked(jobID uint64, worker int) *parkedShard {
	w.mu.Lock()
	p := w.parked
	if p != nil && p.jobID == jobID && p.worker == worker {
		w.parked = nil
	} else {
		p = nil
	}
	w.mu.Unlock()
	if p != nil {
		p.timer.Stop()
	}
	return p
}

// isTransportErr classifies connection-death errors: the kind a coordinator
// crash produces on the worker's end of the wire. It matches *net.OpError
// rather than the net.Error interface, which every syscall.Errno satisfies:
// an ENOENT or EIO from the worker's own scratch disk is not the
// coordinator dying.
func isTransportErr(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// NewWorker builds a worker from cfg.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg.withDefaults()}
}

// Serve accepts connections on ln until ctx is canceled or the listener
// fails. Coordinator connections run jobs; peer and monitor connections
// attach to the active job. Before it returns, Serve closes every accepted
// connection and waits for its handler, so once Serve returns no session
// of this call touches ScratchDir any more and the caller may delete it.
func (w *Worker) Serve(ctx context.Context, ln net.Listener) error {
	var (
		connMu   sync.Mutex
		conns    = make(map[net.Conn]struct{})
		handlers sync.WaitGroup
	)
	defer func() {
		connMu.Lock()
		for c := range conns {
			c.Close()
		}
		connMu.Unlock()
		handlers.Wait()
	}()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			ln.Close()
			w.mu.Lock()
			if w.sess != nil {
				w.sess.abort(ctx.Err())
			}
			w.mu.Unlock()
		case <-watchDone:
		}
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		connMu.Lock()
		conns[conn] = struct{}{}
		connMu.Unlock()
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			w.handleConn(ctx, conn)
			connMu.Lock()
			delete(conns, conn)
			connMu.Unlock()
		}()
	}
}

// current returns the active session, if any.
func (w *Worker) current() *session {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sess
}

// clearSession detaches s if it is still the active session (compare-and-
// clear: a chaos kill may have already detached it and a new job begun).
func (w *Worker) clearSession(s *session) {
	w.mu.Lock()
	if w.sess == s {
		w.sess = nil
		close(w.idle)
	}
	w.mu.Unlock()
}

// handleConn classifies an inbound connection by its first frame.
func (w *Worker) handleConn(ctx context.Context, conn net.Conn) {
	setOpDeadline(conn, w.cfg.Dial)
	br := bufio.NewReaderSize(conn, 1<<16)
	typ, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return
	}
	switch typ {
	case mHello, mJoin, mResume:
		var h msgHello
		if err := h.decode(payload); err != nil {
			conn.Close()
			return
		}
		w.runJob(ctx, conn, br, typ, &h)
	case mPeerHello:
		var ph msgPeerHello
		if err := ph.decode(payload); err != nil {
			conn.Close()
			return
		}
		s := w.current()
		var gen uint64
		ok := false
		if s != nil {
			gen, ok = s.acceptPeer(&ph)
		}
		if !ok {
			// Unknown job or a stale epoch: refuse silently. The dialing
			// peer retries with backoff; a stale-epoch sender is about to
			// be canceled by its own re-scatter anyway.
			conn.Close()
			return
		}
		if err := writeFrame(conn, mPeerHelloAck, nil); err != nil {
			conn.Close()
			return
		}
		s.servePeer(conn, br, ph.Epoch, gen)
	case mMonHello:
		var mh msgMonHello
		if err := mh.decode(payload); err != nil {
			conn.Close()
			return
		}
		s := w.current()
		if s == nil || s.jobID != mh.JobID {
			conn.Close()
			return
		}
		s.serveMonitor(conn, br)
	default:
		conn.Close()
	}
}

// runJob executes one coordinator session on the calling goroutine. typ is
// the opening handshake: mHello starts a job with a scatter; mJoin (a new
// virtual disk) and mResume (a restarted coordinator) attach mid-job.
func (w *Worker) runJob(ctx context.Context, conn net.Conn, br *bufio.Reader, typ byte, h *msgHello) {
	defer conn.Close()
	sendErr := func(self int, err error) {
		setOpDeadline(conn, w.cfg.Dial)
		_ = writeFrame(conn, mError, errorToWire(self, err).encode())
	}
	if err := h.check(); err != nil {
		sendErr(int(h.Worker), err)
		return
	}
	var parked *parkedShard
	if typ == mResume {
		// A matching parked shard lives in the exact directory newSession
		// derives from (jobID, worker), so adoption is just not deleting it.
		parked = w.takeParked(h.JobID, int(h.Worker))
	}
	s, err := newSession(w, h)
	if err != nil {
		sendErr(int(h.Worker), err)
		return
	}
	if parked != nil {
		s.setShardRecs(parked.shardRecs)
		s.epoch = parked.epoch
	}
	// An attach does not wait for a finishing session the way a new job
	// does: the parked shard was taken above, before the old session could
	// park it, and a resuming coordinator retries a refusal itself.
	handoff := sessionHandoff
	if typ != mHello {
		handoff = 0
	}
	if !w.claim(s, handoff) {
		s.teardown()
		sendErr(int(h.Worker), errors.New("worker busy with another job"))
		return
	}
	defer func() {
		w.clearSession(s)
		s.teardown()
	}()

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s.ctx = jobCtx
	s.cancel = cancel
	s.mu.Lock()
	s.ctlConn = conn
	s.mu.Unlock()

	if err := s.run(&wlink{conn: conn, br: br, cfg: w.cfg.Dial, s: s}, typ, parked != nil); err != nil {
		if w.maybePark(s, err) {
			return // shard kept for a coordinator resume; defers abort + close
		}
		s.abort(err)
		sendErr(s.self, err)
	}
}

// wlink is the worker's framed control connection to the coordinator. Only
// the control reader goroutine reads from it; sends stay on the job
// goroutine. A hung session (chaos) blocks every send until the session
// dies, simulating a live TCP peer that has stopped participating.
type wlink struct {
	conn net.Conn
	br   *bufio.Reader
	cfg  DialConfig
	s    *session
}

func (l *wlink) send(typ byte, payload []byte) error {
	if l.s.isHung() {
		<-l.s.done
		return errors.New("cluster: worker hung")
	}
	setWriteDeadline(l.conn, l.cfg)
	if err := writeFrame(l.conn, typ, payload); err != nil {
		return err
	}
	l.s.net.out(len(payload))
	return nil
}

// errInterrupted unwinds the worker's phase machinery when a re-scatter
// announcement opens a new epoch. It never crosses the wire.
var errInterrupted = errors.New("cluster: epoch interrupted by re-scatter")

// blockKey identifies one block forever; retransmissions deduplicate on it.
type blockKey struct {
	phase  uint8
	src    uint32
	bucket uint32
	seq    uint32
}

// streamKey names one sender's block stream into this worker. Each stream
// delivers blocks strictly in order with at most the newest block ever
// retransmitted (the sender redials and replays only its in-flight block),
// so remembering the last stored key per stream is a complete dedup — and
// it keeps the dedup state at O(streams), not O(blocks).
type streamKey struct {
	phase uint8
	src   uint32
}

// dedupEntry is one stream's dedup state, tagged with the epoch it belongs
// to. Entries from superseded epochs are dead weight — their streams will
// restart from seq 0 under the new epoch — so resetEpoch drops them
// eagerly, keeping the map bounded by the live streams of the current
// epoch no matter how much membership churn the job absorbs.
type dedupEntry struct {
	epoch uint32
	key   blockKey
}

// blockLoc locates one stored exchange block in the spill file.
type blockLoc struct {
	off   int64
	bytes int32
}

// session is the per-job state of a worker.
type session struct {
	w         *Worker
	jobID     uint64
	self      int
	workers   int
	s         int // bucket count S
	blockRecs int
	peers     []string
	dir       string
	dial      DialConfig
	ctx       context.Context
	cancel    context.CancelFunc
	trace     *obs.Tracer  // non-nil when the Hello trace flag or cfg.Obs asked for it
	net       *netMeter    // wire frames/bytes moved by this session
	sampler   *obs.Sampler // utilization sampler; stopped by teardown

	// Control-plane state, touched only by the job goroutine.
	shardRecs uint64
	pivots    []uint64
	plan      *msgPlan
	reFrame   *frameMsg // single-slot pushback for recvCtlRaw
	ctlCh     chan frameMsg

	// Shared receive state: peer-serving goroutines store blocks, the job
	// goroutine waits on the barriers. done is closed exactly once, by
	// abort, and unblocks everything that cannot watch the cond.
	mu             sync.Mutex
	cond           *sync.Cond
	done           chan struct{}
	aborted        bool
	abortErr       error
	hung           bool
	epoch          uint32
	epochCtx       context.Context
	epochCancel    context.CancelFunc
	pending        *msgRescatter // announced but not yet recovered epoch
	keepDir        bool          // parked: teardown must not delete the dir
	recvErr        error
	last           map[streamKey]dedupEntry
	peerGen        map[uint32]uint64 // src → generation of its newest block connection
	exFile         *os.File
	exSize         int64
	exIndex        map[int][]blockLoc
	recvBlocks     uint64
	gaFile         *os.File
	gaSize         int64
	recvGatherRecs uint64
	ctlConn        net.Conn
	conns          map[net.Conn]struct{} // peer data conns: closed on abort and on epoch reset
	monConns       map[net.Conn]struct{} // monitor conns: closed on abort only
	hedge          *hedgeState           // this epoch's hedge, as its target; nil when none
	sortCancel     context.CancelFunc    // cancels the in-flight shard or hedge sort
	sortCanceled   bool                  // coordinator sent mSortCancel: this worker lost its race

	sentNet     atomic.Int64 // blocks pushed over the network, feeds DropAfterBlocks
	dropOnce    sync.Once
	pongsServed atomic.Int64 // feeds PongDelayCount

	// Progress state the monitor goroutine reads for each pong.
	// workUnits is a monotone count of work items finished (records
	// scanned, blocks moved, chunks streamed); phaseIdx indexes
	// WorkerPhases; stallFactor is the crashStall slowdown multiplier.
	workUnits   atomic.Uint64
	phaseIdx    atomic.Int32
	shardRecsA  atomic.Uint64 // mirrors shardRecs for the monitor goroutine
	stallFactor atomic.Int64
}

// hedgeState is the hedge target's side of one hedged shard sort: it
// re-collects a straggling peer's gather blocks as phase-3 streams and
// sorts them into a speculative copy of that peer's shard. It lives under
// the session mutex; an epoch reset disarms it.
type hedgeState struct {
	victim int
	want   uint64 // exact records the hedged shard must contain
	file   *os.File
	size   int64
	recs   uint64
	sorted bool // the copy is sorted and the coordinator may fetch it
}

func newSession(w *Worker, h *msgHello) (*session, error) {
	scratch := w.cfg.ScratchDir
	if scratch == "" {
		scratch = os.TempDir()
	}
	dir := filepath.Join(scratch, fmt.Sprintf("cluster-job-%016x-w%d", h.JobID, h.Worker))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &session{
		w:         w,
		jobID:     h.JobID,
		self:      int(h.Worker),
		workers:   int(h.Workers),
		s:         int(h.S),
		blockRecs: int(h.BlockRecs),
		peers:     append([]string(nil), h.Peers...),
		dir:       dir,
		dial:      w.cfg.Dial,
		ctlCh:     make(chan frameMsg, 16),
		done:      make(chan struct{}),
		last:      make(map[streamKey]dedupEntry),
		peerGen:   make(map[uint32]uint64),
		exIndex:   make(map[int][]blockLoc),
		conns:     make(map[net.Conn]struct{}),
		monConns:  make(map[net.Conn]struct{}),
	}
	s.net = &netMeter{}
	if h.Flags&helloFlagTrace != 0 || w.cfg.Obs != nil {
		s.trace = obs.New(0, nil)
		// Every phase span closes with the network and allocation deltas
		// it caused, so the coordinator's merged timeline can attribute
		// wire traffic per worker per phase.
		s.trace.SetResourceSource(s.net.resourceSource(), "cluster")
		s.sampler = obs.StartSampler(s.trace, w.cfg.Sample,
			append(obs.RuntimeGauges(), s.net.gauges()...))
		if w.cfg.Obs != nil {
			w.cfg.Obs.SetTracer("job", s.trace)
		}
	}
	s.cond = sync.NewCond(&s.mu)
	var err error
	if s.exFile, err = os.Create(filepath.Join(dir, "exchange.dat")); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if s.gaFile, err = os.Create(filepath.Join(dir, "gather.dat")); err != nil {
		s.exFile.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

// setShardRecs records the shard size for the job goroutine and mirrors it
// for the monitor goroutine's progress reports.
func (s *session) setShardRecs(n uint64) {
	s.shardRecs = n
	s.shardRecsA.Store(n)
}

func (s *session) shardPath() string       { return filepath.Join(s.dir, "in.shard") }
func (s *session) gatherPath() string      { return filepath.Join(s.dir, "gather.dat") }
func (s *session) sortedPath() string      { return filepath.Join(s.dir, "sorted.dat") }
func (s *session) hedgePath() string       { return filepath.Join(s.dir, "hedge.dat") }
func (s *session) hedgeSortedPath() string { return filepath.Join(s.dir, "hedge-sorted.dat") }

func (s *session) curEpoch() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// acceptPeer validates an inbound peer handshake against the session's
// current membership and epoch, under the lock: a join grows s.workers
// mid-job, so the width check can no longer read an immutable field. An
// accepted connection becomes src's newest one, and acceptPeer returns
// its generation. It runs before the hello is acked, and a sender dials a
// replacement only after its connection failed, so the newest generation
// is always the sender's live connection.
func (s *session) acceptPeer(ph *msgPeerHello) (gen uint64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jobID != ph.JobID || int(ph.Src) < 0 || int(ph.Src) >= s.workers || ph.Epoch != s.epoch {
		return 0, false
	}
	s.peerGen[ph.Src]++
	return s.peerGen[ph.Src], true
}

// ectx is the context phase work should run under: canceled the moment a
// re-scatter opens a new epoch (or the job dies), so in-flight sends and
// local sorts stop promptly instead of finishing doomed work.
func (s *session) ectx() context.Context {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epochCtx != nil {
		return s.epochCtx
	}
	return s.ctx
}

func (s *session) isHung() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hung
}

func (s *session) setHung() {
	s.mu.Lock()
	s.hung = true
	s.mu.Unlock()
}

// interrupted reports an announced epoch this goroutine has not yet
// recovered into.
func (s *session) interrupted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending != nil
}

func (s *session) registerConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		c.Close()
		return
	}
	s.conns[c] = struct{}{}
}

func (s *session) unregisterConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

func (s *session) registerMonConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		c.Close()
		return
	}
	s.monConns[c] = struct{}{}
}

func (s *session) unregisterMonConn(c net.Conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.monConns, c)
}

// abort marks the session dead, closes every connection so no goroutine can
// block on I/O, cancels the job context, and wakes everything.
func (s *session) abort(err error) {
	s.mu.Lock()
	if s.aborted {
		s.mu.Unlock()
		return
	}
	s.aborted = true
	s.abortErr = err
	close(s.done)
	if s.ctlConn != nil {
		s.ctlConn.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	for c := range s.monConns {
		c.Close()
	}
	cancel := s.cancel
	s.cond.Broadcast()
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (s *session) abortReason() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.abortErr != nil {
		return s.abortErr
	}
	return errors.New("cluster: job aborted")
}

func (s *session) teardown() {
	s.sampler.Stop()
	s.abort(errors.New("cluster: job torn down"))
	s.mu.Lock()
	if s.exFile != nil {
		s.exFile.Close()
	}
	if s.gaFile != nil {
		s.gaFile.Close()
	}
	if s.hedge != nil {
		s.hedge.file.Close()
	}
	keep := s.keepDir
	s.mu.Unlock()
	if !keep {
		os.RemoveAll(s.dir)
	}
}

// fail records the first receive-side error and wakes the barrier waiters.
func (s *session) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.recvErr == nil {
		s.recvErr = err
	}
	s.cond.Broadcast()
}

// initEpoch arms the first epoch's context.
func (s *session) initEpoch() {
	s.mu.Lock()
	s.epochCtx, s.epochCancel = context.WithCancel(s.ctx)
	s.mu.Unlock()
}

// noteRescatter is the control reader's half of a failover: record the
// announced epoch, cancel the current one so senders and sorts stop, and
// wake the barrier waiters. The job goroutine completes the switch in
// doRecover.
func (s *session) noteRescatter(m *msgRescatter) {
	s.mu.Lock()
	if s.pending == nil || s.pending.Epoch < m.Epoch {
		s.pending = m
	}
	if s.epochCancel != nil {
		s.epochCancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// resetEpoch rewinds the session to its post-scatter state for epoch m:
// received blocks, plan, pivots, and peer connections all belong to the
// dead epoch and are discarded; the shard file is the one durable input.
// The announcement's peer table replaces the session's (a join may have
// grown the cluster), so the new width takes effect atomically with the
// epoch.
func (s *session) resetEpoch(m *msgRescatter) error {
	s.mu.Lock()
	s.epoch = m.Epoch
	if s.epochCancel != nil {
		s.epochCancel()
	}
	s.epochCtx, s.epochCancel = context.WithCancel(s.ctx)
	s.peers = append([]string(nil), m.Peers...)
	s.workers = len(m.Peers)
	// Drop dedup entries of superseded epochs eagerly: every stream
	// restarts from seq 0 under the new epoch, so stale entries can only
	// accumulate across churn, never match again.
	for sk, e := range s.last {
		if e.epoch < m.Epoch {
			delete(s.last, sk)
		}
	}
	s.exIndex = make(map[int][]blockLoc)
	s.exSize, s.gaSize = 0, 0
	s.recvBlocks, s.recvGatherRecs = 0, 0
	s.recvErr = nil
	if s.hedge != nil {
		s.hedge.file.Close() // the hedge belonged to the dead epoch
		s.hedge = nil
	}
	s.sortCanceled = false
	if s.sortCancel != nil {
		s.sortCancel()
	}
	if s.pending != nil && s.pending.Epoch <= m.Epoch {
		s.pending = nil
	}
	for c := range s.conns {
		c.Close()
	}
	s.conns = make(map[net.Conn]struct{})
	exFile, gaFile := s.exFile, s.gaFile
	s.cond.Broadcast()
	s.mu.Unlock()

	s.pivots, s.plan = nil, nil
	s.sentNet.Store(0)
	if err := exFile.Truncate(0); err != nil {
		return err
	}
	if err := gaFile.Truncate(0); err != nil {
		return err
	}
	os.RemoveAll(filepath.Join(s.dir, "sortscratch"))
	os.Remove(s.sortedPath())
	return nil
}

// readCtl is the control reader: it owns every read from the
// coordinator connection, acts on chaos and re-scatter frames immediately
// (even while the job goroutine is deep inside a phase), and forwards the
// rest — including the re-scatter frame itself, which doubles as the
// recovery sync point — to the job goroutine.
func (s *session) readCtl(ctl *wlink) {
	for {
		clearDeadline(ctl.conn)
		typ, payload, err := readFrame(ctl.br)
		if err == nil {
			s.net.in(len(payload))
		}
		if err != nil {
			// A dead control link means the coordinator is gone. Abort so
			// phase barriers wake promptly; the job goroutine surfaces the
			// transport error and may park the shard for a resume.
			s.abort(err)
			s.pushCtl(frameMsg{err: err})
			return
		}
		if s.isHung() {
			continue // a hung worker consumes silently and answers nothing
		}
		switch typ {
		case mCrash:
			var mc msgCrash
			if err := mc.decode(payload); err != nil {
				s.pushCtl(frameMsg{err: err})
				return
			}
			if mc.Mode == crashHang {
				s.setHung()
				continue
			}
			if mc.Mode == crashStall {
				// Stall: keep ponging, keep participating, but make every
				// unit of work Factor times slower from here on.
				s.stallFactor.Store(int64(mc.Factor))
				continue
			}
			// Kill: simulate sudden process death — detach from the worker
			// and close every connection without a word on any of them.
			s.w.clearSession(s)
			s.abort(errors.New("cluster: chaos kill"))
			return
		case mSortCancel:
			// This worker lost a hedge race — as the victim or as the
			// target: stop the in-flight sort, or the hedge's collection,
			// now. A cancel for a race already over here changes nothing.
			s.mu.Lock()
			s.sortCanceled = true
			if s.sortCancel != nil {
				s.sortCancel()
			}
			s.cond.Broadcast()
			s.mu.Unlock()
		case mHedgeSend:
			var hs msgHedgeSend
			if err := hs.decode(payload); err != nil {
				s.pushCtl(frameMsg{err: err})
				return
			}
			if int(hs.Target) == s.self {
				s.pushCtl(frameMsg{typ: typ, payload: payload}) // armed and run by the idle job goroutine
				continue
			}
			// Re-send off the control reader: the victim's job goroutine is
			// busy sorting, and a hedge's deliveries must never block or
			// fail the job.
			go s.resendHedge(&hs)
		case mRescatter:
			var m msgRescatter
			if err := m.decode(payload); err != nil {
				s.pushCtl(frameMsg{err: err})
				return
			}
			s.noteRescatter(&m)
			s.pushCtl(frameMsg{typ: typ, payload: payload})
		default:
			s.pushCtl(frameMsg{typ: typ, payload: payload})
		}
	}
}

func (s *session) pushCtl(f frameMsg) {
	select {
	case s.ctlCh <- f:
	case <-s.done:
	}
}

// recvCtlRaw returns the next control frame: the pushed-back one first,
// then the control reader's channel.
func (s *session) recvCtlRaw() (frameMsg, error) {
	if f := s.reFrame; f != nil {
		s.reFrame = nil
		return *f, f.err
	}
	select {
	case f := <-s.ctlCh:
		return f, f.err
	case <-s.done:
		return frameMsg{}, s.abortReason()
	}
}

// recvCtl is recvCtlRaw with the epoch turn: a re-scatter frame is pushed
// back (so doRecover can re-read it) and surfaced as errInterrupted.
func (s *session) recvCtl() (byte, []byte, error) {
	f, err := s.recvCtlRaw()
	if err != nil {
		return 0, nil, err
	}
	if f.typ == mRescatter {
		cp := f
		s.reFrame = &cp
		return 0, nil, errInterrupted
	}
	return f.typ, f.payload, nil
}

// expectCtl reads the next control frame and requires it to be of type
// want, converting a coordinator-reported mError into its typed Go error.
func (s *session) expectCtl(want byte) ([]byte, error) {
	typ, payload, err := s.recvCtl()
	if err != nil {
		return nil, err
	}
	if typ == mError {
		var e msgError
		if derr := e.decode(payload); derr != nil {
			return nil, derr
		}
		return nil, wireToError(&e)
	}
	if typ != want {
		return nil, fmt.Errorf("cluster: expected message %d, got %d", want, typ)
	}
	return payload, nil
}

// servePeer handles one inbound block stream for one epoch; gen is the
// connection's generation from acceptPeer. A connection error here is not
// fatal to the job: the sending side redials and retransmits, and the
// per-stream dedup keeps replays idempotent.
func (s *session) servePeer(conn net.Conn, br *bufio.Reader, epoch uint32, gen uint64) {
	s.registerConn(conn)
	defer func() {
		s.unregisterConn(conn)
		conn.Close()
	}()
	for {
		clearDeadline(conn) // peers sit idle across phases legitimately
		typ, payload, err := readFrame(br)
		if err != nil {
			return
		}
		s.net.in(len(payload))
		if typ != mBlock {
			return
		}
		var b msgBlock
		if err := b.decode(payload); err != nil {
			return
		}
		stale, err := s.storeFrom(&b, epoch, gen)
		if err != nil {
			s.fail(err)
			return
		}
		if stale {
			return // epoch or connection superseded mid-stream: drop the conn, no ack
		}
		ack := (&msgBlockAck{Phase: b.Phase, Bucket: b.Bucket, Seq: b.Seq}).encode()
		setOpDeadline(conn, s.dial)
		if err := writeFrame(conn, mBlockAck, ack); err != nil {
			return
		}
		s.net.out(len(ack))
	}
}

// serveMonitor answers the coordinator's heartbeat pings. A hung session
// goes silent — the whole point of the monitor is to notice that.
func (s *session) serveMonitor(conn net.Conn, br *bufio.Reader) {
	s.registerMonConn(conn)
	defer func() {
		s.unregisterMonConn(conn)
		conn.Close()
	}()
	for {
		clearDeadline(conn)
		typ, payload, err := readFrame(br)
		if err != nil || typ != mPing {
			return
		}
		if s.isHung() {
			<-s.done
			return
		}
		if d := s.w.cfg.PongDelay; d > 0 && s.pongsServed.Add(1) <= int64(s.w.cfg.PongDelayCount) {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-s.done:
				t.Stop()
				return
			}
		}
		// The pong carries the progress counters the coordinator's
		// straggler detector rates. A stalled worker keeps ponging — that
		// is the point: it is alive, just not advancing.
		var ping msgPing
		if err := ping.decode(payload); err != nil {
			return
		}
		s.mu.Lock()
		recvBlocks, gatherRecs := s.recvBlocks, s.recvGatherRecs
		s.mu.Unlock()
		payload = (&msgProgress{
			Seq:        ping.Seq,
			Phase:      uint8(s.phaseIdx.Load()),
			Units:      s.workUnits.Load(),
			ShardRecs:  s.shardRecsA.Load(),
			RecvBlocks: recvBlocks,
			GatherRecs: gatherRecs,
		}).encode()
		setOpDeadline(conn, s.dial)
		if err := writeFrame(conn, mPong, payload); err != nil {
			return
		}
	}
}

// sortHedge is the hedge target's side of the race: it arms phase-3
// collection of the victim's buckets and acknowledges it (the coordinator
// orders the other workers' resends only then), stores this worker's own
// blocks of those buckets, waits for the rest, and sorts them with the
// first run's sortShard into a copy of the victim's shard — unless the
// coordinator cancels the race first (sortShard refuses to start once it
// has).
func (s *session) sortHedge(ctl *wlink, hs *msgHedgeSend) error {
	file, err := os.Create(s.hedgePath())
	if err != nil {
		return err
	}
	st := &hedgeState{victim: int(hs.Victim), want: hs.Recs, file: file}
	s.mu.Lock()
	if s.epoch != hs.Epoch || s.hedge != nil {
		s.mu.Unlock()
		file.Close()
		return fmt.Errorf("cluster: hedge of epoch %d refused", hs.Epoch)
	}
	s.hedge = st
	s.mu.Unlock()
	if err := ctl.send(mHedgeArmed, nil); err != nil {
		return err
	}
	if err := s.resendHedge(hs); err != nil {
		return err
	}
	if err := s.waitRecv("hedge", func() bool { return st.recs >= st.want || s.sortCanceled }); err != nil {
		return err
	}
	if err := st.file.Sync(); err != nil {
		return err
	}
	n, err := s.sortShard(s.hedgePath(), s.hedgeSortedPath())
	if err != nil {
		return err
	}
	if n != st.want {
		return fmt.Errorf("cluster: hedge sorted %d of %d records", n, st.want)
	}
	s.mu.Lock()
	st.sorted = true
	s.mu.Unlock()
	return nil
}

// resendHedge feeds the hedge target this worker's stored exchange blocks
// of the victim's buckets, as phase-3 streams through the gather path's
// producer and senders; the target stores its own locally. It is
// deliberately not subject to the crashStall throttle: the stall models a
// slow data path (scan, sort, stream), while the resend is a positional
// re-read of already-spilled blocks.
func (s *session) resendHedge(hs *msgHedgeSend) error {
	route := make([]uint32, s.s)
	for b := range route {
		route[b] = noDest
	}
	for _, b := range hs.Buckets {
		if int(b) >= s.s {
			return fmt.Errorf("cluster: hedge of bucket %d of %d", b, s.s)
		}
		route[b] = hs.Target
	}
	if s.curEpoch() != hs.Epoch {
		return errInterrupted
	}
	_, err := s.runSenders(3, func(emit func(int, outBlock) error) error {
		return s.produceGather(route, emit)
	})
	return err
}

// storeBlock persists one self-delivered block, exactly once. It reports
// stale=true when the block belongs to a superseded epoch.
func (s *session) storeBlock(b *msgBlock, epoch uint32) (stale bool, err error) {
	return s.storeFrom(b, epoch, 0)
}

// storeFrom is storeBlock for a block that arrived on the peer connection
// of generation gen (0: not from a connection). A block from a connection
// the sender has since replaced is stale too: the receiving goroutine of
// a severed connection can fall behind its replacement, and by the time
// it stores the in-flight block the replacement may have stored that
// block's retransmission and the next one, which the newest-key dedup no
// longer catches.
func (s *session) storeFrom(b *msgBlock, epoch uint32, gen uint64) (stale bool, err error) {
	key := blockKey{phase: b.Phase, src: b.Src, bucket: b.Bucket, seq: b.Seq}
	sk := streamKey{phase: b.Phase, src: b.Src}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.aborted {
		return false, errors.New("cluster: job aborted")
	}
	if epoch != s.epoch || (gen != 0 && gen != s.peerGen[b.Src]) {
		return true, nil
	}
	if int(b.Bucket) >= s.s {
		return false, fmt.Errorf("cluster: block for bucket %d of %d", b.Bucket, s.s)
	}
	if e, ok := s.last[sk]; ok && e.epoch == epoch && e.key == key {
		return false, nil // retransmission after a lost ack: already stored
	}
	switch b.Phase {
	case 1:
		if _, err := s.exFile.WriteAt(b.Data, s.exSize); err != nil {
			return false, err
		}
		s.exIndex[int(b.Bucket)] = append(s.exIndex[int(b.Bucket)],
			blockLoc{off: s.exSize, bytes: int32(len(b.Data))})
		s.exSize += int64(len(b.Data))
		s.recvBlocks++
	case 2:
		if _, err := s.gaFile.WriteAt(b.Data, s.gaSize); err != nil {
			return false, err
		}
		s.gaSize += int64(len(b.Data))
		s.recvGatherRecs += uint64(len(b.Data) / record.EncodedSize)
	case 3:
		// Hedge stream: a straggler's gather blocks re-sent to this worker.
		// Without an armed hedge (resetEpoch disarms it) the sender is a
		// zombie from an abandoned hedge; drop the connection like a stale
		// epoch.
		st := s.hedge
		if st == nil {
			return true, nil
		}
		if _, err := st.file.WriteAt(b.Data, st.size); err != nil {
			return false, err
		}
		st.size += int64(len(b.Data))
		st.recs += uint64(len(b.Data) / record.EncodedSize)
	default:
		return false, fmt.Errorf("cluster: block phase %d", b.Phase)
	}
	s.last[sk] = dedupEntry{epoch: epoch, key: key}
	s.workUnits.Add(1)
	s.cond.Broadcast()
	switch b.Phase {
	case 1:
		s.trace.Count("cluster", "blocks-received", s.self, 1)
	case 2:
		s.trace.Count("cluster", "records-gathered", s.self, int64(len(b.Data)/record.EncodedSize))
	case 3:
		s.trace.Count("cluster", "hedge-blocks-received", s.self, 1)
	}
	return false, nil
}

// waitRecv blocks until done() holds (under the session lock), a receive
// error lands, a re-scatter interrupts the epoch, the session aborts, or
// the phase times out.
func (s *session) waitRecv(phase string, done func() bool) error {
	timer := time.AfterFunc(phaseTimeout, func() {
		s.fail(fmt.Errorf("cluster: %s barrier timed out after %v", phase, phaseTimeout))
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for !done() && s.recvErr == nil && !s.aborted && s.pending == nil {
		s.cond.Wait()
	}
	if s.pending != nil {
		return errInterrupted
	}
	if s.recvErr != nil {
		return s.recvErr
	}
	if s.aborted {
		if s.abortErr != nil {
			return s.abortErr
		}
		return errors.New("cluster: job aborted")
	}
	return nil
}

// outBlock is one block queued to a peer sender.
type outBlock struct {
	bucket uint32
	seq    uint32
	data   []byte
}

// runSenders spins up one sender goroutine per remote peer, runs produce to
// emit blocks (self-destined blocks store locally, no network), and returns
// the first error once every queue has drained. It returns the number of
// blocks emitted. It reads the membership once, under the lock, because a
// hedge resend runs it beside the job goroutine, which a re-scatter may be
// resetting.
func (s *session) runSenders(phase uint8, produce func(emit func(dest int, blk outBlock) error) error) (uint64, error) {
	ctx := s.ectx()
	s.mu.Lock()
	epoch, peers := s.epoch, s.peers
	s.mu.Unlock()
	chans := make([]chan outBlock, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for d := range peers {
		if d == s.self {
			continue
		}
		ch := make(chan outBlock, 2)
		chans[d] = ch
		wg.Add(1)
		go func(d int, ch chan outBlock) {
			defer wg.Done()
			errs[d] = s.sendLoop(ctx, epoch, phase, d, peers[d], ch)
		}(d, ch)
	}
	var emitted uint64
	perr := produce(func(dest int, blk outBlock) error {
		emitted++
		if dest < 0 || dest >= len(peers) {
			return fmt.Errorf("cluster: plan routes a block to worker %d of %d", dest, len(peers))
		}
		if dest == s.self {
			stale, err := s.storeBlock(&msgBlock{
				Phase: phase, Src: uint32(s.self),
				Bucket: blk.bucket, Seq: blk.seq, Data: blk.data,
			}, epoch)
			if err == nil && stale {
				return errInterrupted
			}
			return err
		}
		select {
		case chans[dest] <- blk:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	for _, ch := range chans {
		if ch != nil {
			close(ch)
		}
	}
	wg.Wait()
	if perr != nil {
		return emitted, perr
	}
	for _, e := range errs {
		if e != nil {
			return emitted, e
		}
	}
	return emitted, nil
}

// maxDeliverRetries bounds consecutive failed deliveries of one block; each
// failed delivery already burned a full dial retry/backoff budget, so
// exceeding this is the cluster analogue of a tripped circuit breaker and
// the peer is declared lost.
const maxDeliverRetries = 3

// sendLoop delivers one peer's queue: dial (with retry/backoff), stream a
// block, await its ack; on any connection failure, redial and retransmit —
// the receiver deduplicates. A peer that stays unreachable surfaces as a
// typed *WorkerLostError. On failure the loop keeps draining its queue so
// the producer never blocks.
func (s *session) sendLoop(ctx context.Context, epoch uint32, phase uint8, dest int, addr string, ch chan outBlock) error {
	var conn net.Conn
	var br *bufio.Reader
	closeConn := func() {
		if conn != nil {
			s.unregisterConn(conn)
			conn.Close()
			conn, br = nil, nil
		}
	}
	defer closeConn()
	var firstErr error
	for blk := range ch {
		if firstErr != nil {
			continue // drain
		}
		consec := 0
		for {
			if ctx.Err() != nil {
				firstErr = ctx.Err()
				break
			}
			if conn == nil {
				c, b, err := s.dialPeer(ctx, epoch, dest, addr)
				if err != nil {
					var lost *WorkerLostError
					if errors.As(err, &lost) || ctx.Err() != nil {
						firstErr = err
					} else if consec++; consec > maxDeliverRetries {
						firstErr = &WorkerLostError{Worker: dest, Addr: addr, Err: err}
					} else {
						continue
					}
					break
				}
				conn, br = c, b
			}
			err := s.deliver(conn, br, phase, &blk)
			if err == nil {
				break
			}
			closeConn()
			if consec++; consec > maxDeliverRetries {
				firstErr = &WorkerLostError{Worker: dest, Addr: addr, Err: err}
				break
			}
		}
	}
	return firstErr
}

// dialPeer opens and handshakes a block connection to dest, at addr, for
// one epoch.
func (s *session) dialPeer(ctx context.Context, epoch uint32, dest int, addr string) (net.Conn, *bufio.Reader, error) {
	conn, err := s.dial.dial(ctx, dest, addr)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	hello := (&msgPeerHello{JobID: s.jobID, Src: uint32(s.self), Epoch: epoch}).encode()
	setOpDeadline(conn, s.dial)
	if err := writeFrame(conn, mPeerHello, hello); err != nil {
		conn.Close()
		return nil, nil, err
	}
	s.net.out(len(hello))
	typ, ackPayload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	s.net.in(len(ackPayload))
	if typ != mPeerHelloAck {
		conn.Close()
		return nil, nil, fmt.Errorf("cluster: peer %d answered handshake with message %d", dest, typ)
	}
	s.registerConn(conn)
	return conn, br, nil
}

// deliver pushes one block and waits for its ack.
func (s *session) deliver(conn net.Conn, br *bufio.Reader, phase uint8, blk *outBlock) error {
	m := msgBlock{Phase: phase, Src: uint32(s.self), Bucket: blk.bucket, Seq: blk.seq, Data: blk.data}
	payload := m.encode()
	setOpDeadline(conn, s.dial)
	if err := writeFrame(conn, mBlock, payload); err != nil {
		return err
	}
	s.net.out(len(payload))
	// Fault injection: sever the connection once, after the configured
	// number of network sends, before the ack is read — the retransmit
	// path must recover without duplicating the block.
	if n := s.sentNet.Add(1); s.w.cfg.DropAfterBlocks > 0 && n >= int64(s.w.cfg.DropAfterBlocks) {
		s.dropOnce.Do(func() { conn.Close() })
	}
	typ, payload, err := readFrame(br)
	if err != nil {
		return err
	}
	s.net.in(len(payload))
	if typ != mBlockAck {
		return fmt.Errorf("cluster: peer answered block with message %d", typ)
	}
	var a msgBlockAck
	if err := a.decode(payload); err != nil {
		return err
	}
	if a.Phase != phase || a.Bucket != blk.bucket || a.Seq != blk.seq {
		return fmt.Errorf("cluster: ack for block %d/%d, sent %d/%d", a.Bucket, a.Seq, blk.bucket, blk.seq)
	}
	s.workUnits.Add(1)
	return nil
}

// run is the worker side of the job protocol: answer the handshake, then
// run epochs of the phase pipeline, re-entered through doRecover whenever
// the coordinator announces a re-scatter. A new job (mHello) acks and
// receives the scatter first. A joiner (mJoin) acks and starts from an
// empty shard; a resumed worker (mResume) answers with mResumeState,
// reporting the epoch-tagged shard it still holds, if any (adopted). Either
// attach waits for the mRescatter that opens the attach epoch, and enters
// the pipeline through doRecover exactly like a failover survivor.
func (s *session) run(ctl *wlink, typ byte, adopted bool) error {
	var err error
	if typ == mResume {
		st := msgResumeState{Version: protocolVersion, Epoch: s.epoch, ShardRecs: s.shardRecs}
		if adopted {
			st.HaveShard = 1
		}
		err = ctl.send(mResumeState, st.encode())
	} else {
		err = ctl.send(mHelloAck, (&msgVersion{Version: protocolVersion}).encode())
	}
	if err != nil {
		return err
	}
	if typ == mJoin {
		// A joiner's durable input starts empty: the attach epoch's
		// re-scatter streams its whole shard with Fresh set.
		if err := os.WriteFile(s.shardPath(), nil, 0o644); err != nil {
			return err
		}
	}
	s.initEpoch()
	go s.readCtl(ctl)

	err = errInterrupted // an attach has no scatter: its epoch opens with mRescatter
	if typ == mHello {
		sp := s.trace.Begin("cluster", "scatter-recv", s.self)
		err = s.recvScatter()
		sp.End(obs.Attr{Key: "records", Val: int64(s.shardRecs)})
	}
	for {
		if err == nil {
			err = s.pipeline(ctl)
		}
		if err == nil {
			return nil
		}
		if !errors.Is(err, errInterrupted) {
			return err
		}
		err = s.doRecover(ctl)
	}
}

// pipeline runs one epoch's phases after the shard is in place.
func (s *session) pipeline(ctl *wlink) error {
	if s.interrupted() {
		return errInterrupted
	}

	// Histogram over the shard.
	s.phaseIdx.Store(1) // histogram
	spHist := s.trace.Begin("cluster", "histogram", s.self)
	bins, err := s.scanHistogram()
	if err != nil {
		return err
	}
	if err := ctl.send(mHistogram, (&msgHistogram{Bins: bins}).encode()); err != nil {
		return err
	}
	spHist.End()

	// Pivots, then per-bucket counts.
	payload, err := s.expectCtl(mPivots)
	if err != nil {
		return err
	}
	s.flowIn("pivots")
	var pv msgPivots
	if err := pv.decode(payload); err != nil {
		return err
	}
	if len(pv.Pivots) != s.s-1 {
		return fmt.Errorf("cluster: %d pivots for S=%d", len(pv.Pivots), s.s)
	}
	s.pivots = pv.Pivots
	s.phaseIdx.Store(2) // partition-counts
	spCounts := s.trace.Begin("cluster", "partition-counts", s.self)
	cnts, err := s.scanCounts()
	if err != nil {
		return err
	}
	if err := ctl.send(mCounts, (&msgCounts{PerBucket: cnts}).encode()); err != nil {
		return err
	}
	spCounts.End(obs.Attr{Key: "buckets", Val: int64(s.s)})

	// Plan.
	payload, err = s.expectCtl(mPlan)
	if err != nil {
		return err
	}
	s.flowIn("plan")
	var plan msgPlan
	if err := plan.decode(payload); err != nil {
		return err
	}
	if err := s.checkPlan(&plan, cnts); err != nil {
		return err
	}
	s.plan = &plan

	// Exchange: partition the shard into balancer-placed blocks while
	// receiving everyone else's.
	s.phaseIdx.Store(3) // exchange
	spEx := s.trace.Begin("cluster", "exchange", s.self)
	sent, err := s.runSenders(1, s.produceExchange)
	if err != nil {
		return s.phaseFail(ctl, err)
	}
	if err := s.waitRecv("exchange", func() bool { return s.recvBlocks >= plan.ExpectRecvBlocks }); err != nil {
		return s.phaseFail(ctl, err)
	}
	s.mu.Lock()
	recvBlocks := s.recvBlocks
	s.mu.Unlock()
	done := msgPhaseDone{Phase: 1, BlocksSent: sent, BlocksRecv: recvBlocks}
	if err := ctl.send(mPhaseDone, done.encode()); err != nil {
		return err
	}
	spEx.End(
		obs.Attr{Key: "blocks-sent", Val: int64(sent)},
		obs.Attr{Key: "blocks-recv", Val: int64(recvBlocks)},
	)

	// Gather: push every stored block to its bucket's owner.
	if _, err := s.expectCtl(mStartGather); err != nil {
		return err
	}
	s.flowIn("gather")
	s.phaseIdx.Store(4) // gather
	spGather := s.trace.Begin("cluster", "gather", s.self)
	sent, err = s.runSenders(2, func(emit func(int, outBlock) error) error {
		start := time.Now()
		if err := s.produceGather(plan.Owners, emit); err != nil {
			return err
		}
		return s.throttleWork(s.ectx(), time.Since(start))
	})
	if err != nil {
		return s.phaseFail(ctl, err)
	}
	if err := s.waitRecv("gather", func() bool { return s.recvGatherRecs >= plan.ExpectGatherRecs }); err != nil {
		return s.phaseFail(ctl, err)
	}
	s.mu.Lock()
	gatherRecs := s.recvGatherRecs
	s.mu.Unlock()
	done = msgPhaseDone{Phase: 2, BlocksSent: sent, RecsRecv: gatherRecs}
	if err := ctl.send(mPhaseDone, done.encode()); err != nil {
		return err
	}
	spGather.End(obs.Attr{Key: "records", Val: int64(gatherRecs)})

	// Local sort of the final shard.
	if _, err := s.expectCtl(mSortReq); err != nil {
		return err
	}
	s.flowIn("local-sort")
	s.phaseIdx.Store(5) // shard-sort
	spSort := s.trace.Begin("cluster", "shard-sort", s.self)
	var count uint64
	if err = s.gaFile.Sync(); err == nil {
		count, err = s.sortShard(s.gatherPath(), s.sortedPath())
	}
	if s.sortWasCanceled() {
		// The coordinator's hedge won: this shard will never be asked for,
		// and a report would only be debris. Stay in the job for the
		// endgame (trace, bye).
		spSort.End(obs.Attr{Key: "canceled", Val: 1})
		return s.awaitEnd(ctl, 0)
	}
	if err != nil {
		if s.interrupted() {
			return errInterrupted
		}
		return fmt.Errorf("cluster: worker %d local sort: %w", s.self, err)
	}
	spSort.End(obs.Attr{Key: "records", Val: int64(count)})
	if count != plan.ExpectGatherRecs {
		return fmt.Errorf("cluster: worker %d sorted %d of %d records", s.self, count, plan.ExpectGatherRecs)
	}
	if err := ctl.send(mSortDone, (&msgCount{Count: count}).encode()); err != nil {
		return err
	}
	return s.awaitEnd(ctl, count)
}

// awaitEnd is the pipeline's endgame once the shard sort is reported or
// cancelled: serve each mFetch (of the count-record sorted shard, or of a
// won hedge's copy), run the hedge an mHedgeSend makes this worker the
// target of, and ship the trace, until Bye or the connection's close.
// Until the own shard is fetched, a dead control link is an error, so the
// shard can be parked for a resume. A re-scatter can still land here:
// another worker died mid-drain.
func (s *session) awaitEnd(ctl *wlink, count uint64) error {
	owed := true
	for {
		typ, payload, err := s.recvCtl()
		if errors.Is(err, errInterrupted) || (err != nil && owed) {
			return err
		}
		if err != nil || typ == mBye {
			return nil
		}
		switch typ {
		case mFetch:
			var m msgCount
			if err := m.decode(payload); err != nil {
				return err
			}
			shard, path, n := int(m.Count), s.sortedPath(), count
			if shard != s.self {
				s.mu.Lock()
				st := s.hedge
				s.mu.Unlock()
				if st == nil || st.victim != shard || !st.sorted {
					return fmt.Errorf("cluster: fetch of worker %d's shard, which worker %d does not hold", shard, s.self)
				}
				path, n = s.hedgeSortedPath(), st.want
			}
			// The flow edge is keyed by the shard, so it binds to the
			// coordinator's fetch of that shard whichever worker serves it.
			s.trace.FlowPoint("cluster", "flow-drain", s.self, flowID("drain", s.curEpoch(), shard), false)
			s.phaseIdx.Store(6) // drain
			sp := s.trace.Begin("cluster", "drain", s.self)
			if err := s.sendSorted(ctl, path, n); err != nil {
				return err
			}
			sp.End(obs.Attr{Key: "records", Val: int64(n)})
			owed = owed && shard != s.self
		case mHedgeSend:
			// This worker is the hedge target. A hedge that cannot finish —
			// a lost race, a sort error, a wrong record count — is reported
			// as failed and the job goes on; only an epoch turn or a dead
			// control link ends the loop.
			var hs msgHedgeSend
			if err := hs.decode(payload); err != nil {
				return err
			}
			sp := s.trace.Begin("cluster", "hedge-sort", s.self)
			herr := s.sortHedge(ctl, &hs)
			sp.End(obs.Attr{Key: "victim", Val: int64(hs.Victim)}, obs.Attr{Key: "records", Val: int64(hs.Recs)})
			if s.interrupted() {
				return errInterrupted
			}
			report, msg := mHedgeDone, (&msgCount{Count: hs.Recs}).encode()
			if herr != nil {
				report, msg = mHedgeFailed, nil
			}
			if err := ctl.send(report, msg); err != nil {
				return err
			}
		case mTraceReq:
			if err := s.sendTrace(ctl); err != nil {
				return err
			}
		default:
			return fmt.Errorf("cluster: unexpected message %d after the shard sort", typ)
		}
	}
}

// sortWasCanceled reports whether the coordinator sent mSortCancel because
// its hedged re-execution of this worker's shard finished first.
func (s *session) sortWasCanceled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sortCanceled
}

// phaseFail triages a phase error. Interruption wins: the epoch is being
// replaced and the error is just its debris. A peer loss is reported to
// the coordinator — which answers with a re-scatter (we join the new
// epoch) or gives up (we fail with the original error).
func (s *session) phaseFail(ctl *wlink, err error) error {
	if s.interrupted() || errors.Is(err, errInterrupted) {
		return errInterrupted
	}
	var lost *WorkerLostError
	if errors.As(err, &lost) {
		pl := msgPeerLost{Worker: uint32(lost.Worker), Addr: lost.Addr, Text: lost.Err.Error()}
		if serr := ctl.send(mPeerLost, pl.encode()); serr != nil {
			return err
		}
		for {
			f, rerr := s.recvCtlRaw()
			if rerr != nil {
				return err
			}
			if f.typ == mRescatter {
				cp := f
				s.reFrame = &cp
				return errInterrupted
			}
			if f.typ == mBye {
				return err
			}
			// Anything else is pre-failover debris; discard and keep
			// waiting for the coordinator's verdict.
		}
	}
	return err
}

// doRecover joins the epoch a re-scatter announced: sync to the re-scatter
// frame (discarding the dead epoch's stragglers), rewind the session to its
// post-scatter state, append the re-streamed chunks to the shard, and ack.
// A newer re-scatter arriving mid-recovery preempts the current one.
func (s *session) doRecover(ctl *wlink) error {
	s.phaseIdx.Store(0) // back to scatter-recv: the new epoch re-feeds the shard
	var m msgRescatter
	for {
		f, err := s.recvCtlRaw()
		if err != nil {
			return err
		}
		if f.typ == mRescatter {
			if err := m.decode(f.payload); err != nil {
				return err
			}
			break
		}
		// A frame the dead epoch left in the channel; drop it.
	}

restart:
	if err := s.resetEpoch(&m); err != nil {
		return err
	}
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	got := s.shardRecs
	if m.Fresh {
		// The coordinator is re-streaming this worker's whole shard (it is
		// a joiner, or its shard did not survive the crash): drop whatever
		// is on disk and count from zero.
		flags = os.O_CREATE | os.O_WRONLY | os.O_TRUNC
		got = 0
	}
	shard, err := os.OpenFile(s.shardPath(), flags, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(shard, 1<<16)
	finish := func() error {
		if err := bw.Flush(); err != nil {
			shard.Close()
			return err
		}
		return shard.Close()
	}
	for {
		f, err := s.recvCtlRaw()
		if err != nil {
			shard.Close()
			return err
		}
		switch f.typ {
		case mRecords:
			if len(f.payload)%record.EncodedSize != 0 {
				shard.Close()
				return fmt.Errorf("cluster: re-scatter chunk of %d bytes", len(f.payload))
			}
			if _, err := bw.Write(f.payload); err != nil {
				shard.Close()
				return err
			}
			got += uint64(len(f.payload) / record.EncodedSize)
		case mRescatterDone:
			var d msgRescatterDone
			if err := d.decode(f.payload); err != nil {
				shard.Close()
				return err
			}
			if d.Epoch != m.Epoch {
				shard.Close()
				return fmt.Errorf("cluster: re-scatter done for epoch %d inside epoch %d", d.Epoch, m.Epoch)
			}
			if d.Total != got {
				shard.Close()
				return fmt.Errorf("cluster: re-scatter left %d records, coordinator says %d", got, d.Total)
			}
			if err := finish(); err != nil {
				return err
			}
			s.setShardRecs(got)
			a := msgRescatterAck{Epoch: m.Epoch, ShardRecs: got}
			return ctl.send(mRescatterAck, a.encode())
		case mRescatter:
			// A newer failover preempts this recovery.
			if err := finish(); err != nil {
				return err
			}
			s.setShardRecs(got)
			if err := m.decode(f.payload); err != nil {
				return err
			}
			goto restart
		default:
			shard.Close()
			return fmt.Errorf("cluster: unexpected message %d during re-scatter", f.typ)
		}
	}
}

// sendTrace ships every locally recorded span to the coordinator in bounded
// chunks, tagged with this worker's epoch so the coordinator can rebase the
// offsets onto its own timeline, and finishes with mTraceDone.
func (s *session) sendTrace(ctl *wlink) error {
	spans := s.trace.Spans()
	epoch := uint64(s.trace.Epoch().UnixNano())
	for len(spans) > 0 {
		n := traceChunkSpans
		if n > len(spans) {
			n = len(spans)
		}
		m := msgTrace{EpochNanos: epoch, Spans: spans[:n]}
		if err := ctl.send(mTrace, m.encode()); err != nil {
			return err
		}
		spans = spans[n:]
	}
	return ctl.send(mTraceDone, nil)
}

// flowIn drops the inbound half of a coordinator->worker causality edge the
// moment the phase-triggering control message is acted on; see the
// coordinator's flowOut for the outbound half and the id derivation.
func (s *session) flowIn(phase string) {
	s.trace.FlowPoint("cluster", "flow-"+phase, s.self, flowID(phase, s.curEpoch(), s.self), false)
}

// recvScatter streams the coordinator's record chunks into the shard file.
// A re-scatter landing mid-stream (the coordinator lost some other worker
// while scattering) flushes what arrived — those records are ours to keep —
// and hands control to doRecover.
func (s *session) recvScatter() error {
	s.phaseIdx.Store(0) // scatter-recv
	shard, err := os.Create(s.shardPath())
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(shard, 1<<16)
	var got uint64
	for {
		typ, payload, err := s.recvCtl()
		if err != nil {
			ferr := bw.Flush()
			cerr := shard.Close()
			if errors.Is(err, errInterrupted) && ferr == nil && cerr == nil {
				s.setShardRecs(got)
			}
			return err
		}
		switch typ {
		case mRecords:
			if len(payload)%record.EncodedSize != 0 {
				shard.Close()
				return fmt.Errorf("cluster: scatter chunk of %d bytes", len(payload))
			}
			chunkStart := time.Now()
			if _, err := bw.Write(payload); err != nil {
				shard.Close()
				return err
			}
			got += uint64(len(payload) / record.EncodedSize)
			s.workUnits.Add(1)
			if err := s.throttleWork(s.ectx(), time.Since(chunkStart)); err != nil {
				shard.Close()
				return err
			}
		case mScatterDone:
			var c msgCount
			if err := c.decode(payload); err != nil {
				shard.Close()
				return err
			}
			if c.Count != got {
				shard.Close()
				return fmt.Errorf("cluster: scatter delivered %d records, coordinator sent %d", got, c.Count)
			}
			if err := bw.Flush(); err != nil {
				shard.Close()
				return err
			}
			if err := shard.Close(); err != nil {
				return err
			}
			s.setShardRecs(got)
			return nil
		default:
			shard.Close()
			return fmt.Errorf("cluster: unexpected message %d during scatter", typ)
		}
	}
}

// scanShard streams the shard file, invoking fn with each record's key.
// The whole pass counts as work units for the progress detector, and a
// crashStall-injected session pays the slowdown here — the scan is the
// compute backbone of the histogram, partition, and exchange phases.
func (s *session) scanShard(fn func(key uint64, raw []byte) error) error {
	start := time.Now()
	f, err := os.Open(s.shardPath())
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	buf := make([]byte, record.EncodedSize)
	for i := uint64(0); i < s.shardRecs; i++ {
		if _, err := readFull(br, buf); err != nil {
			return fmt.Errorf("cluster: shard truncated at record %d: %w", i, err)
		}
		if err := fn(binary.LittleEndian.Uint64(buf[0:8]), buf); err != nil {
			return err
		}
		s.workUnits.Add(1)
	}
	return s.throttleWork(s.ectx(), time.Since(start))
}

// throttleWork is the crashStall chaos mode's engine: after a unit of work
// that took elapsed, sleep (factor-1)×elapsed, so the session behaves like
// a machine running factor times slower without ever going silent. The
// sleep wakes promptly on epoch cancellation (demotion, hedge loss) or
// session abort.
func (s *session) throttleWork(ctx context.Context, elapsed time.Duration) error {
	f := s.stallFactor.Load()
	if f <= 1 || elapsed <= 0 {
		return nil
	}
	t := time.NewTimer(time.Duration(f-1) * elapsed)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-s.done:
		return s.abortReason()
	}
}

func (s *session) scanHistogram() ([]uint64, error) {
	bins := make([]uint64, histBins)
	err := s.scanShard(func(key uint64, _ []byte) error {
		bins[keyBin(key)]++
		return nil
	})
	return bins, err
}

func (s *session) scanCounts() ([]uint64, error) {
	cnts := make([]uint64, s.s)
	err := s.scanShard(func(key uint64, _ []byte) error {
		cnts[bucketOf(key, s.pivots)]++
		return nil
	})
	return cnts, err
}

// checkPlan validates the coordinator's plan against local reality before a
// single block moves.
func (s *session) checkPlan(p *msgPlan, cnts []uint64) error {
	if len(p.Dests) != s.s || len(p.Owners) != s.s {
		return fmt.Errorf("cluster: plan covers %d dest buckets and %d owners, want %d", len(p.Dests), len(p.Owners), s.s)
	}
	for b, row := range p.Dests {
		want := int((cnts[b] + uint64(s.blockRecs) - 1) / uint64(s.blockRecs))
		if len(row) != want {
			return fmt.Errorf("cluster: plan has %d blocks for bucket %d, worker will form %d", len(row), b, want)
		}
		for _, d := range row {
			if int(d) >= s.workers {
				return fmt.Errorf("cluster: plan routes bucket %d to worker %d of %d", b, d, s.workers)
			}
		}
	}
	for b, o := range p.Owners {
		if int(o) >= s.workers {
			return fmt.Errorf("cluster: bucket %d owned by worker %d of %d", b, o, s.workers)
		}
	}
	return nil
}

// produceExchange partitions the shard into per-bucket blocks and emits
// each to its balancer-assigned destination.
func (s *session) produceExchange(emit func(dest int, blk outBlock) error) error {
	blockBytes := s.blockRecs * record.EncodedSize
	bufs := make([][]byte, s.s)
	seqs := make([]uint32, s.s)
	flush := func(b int) error {
		data := make([]byte, len(bufs[b]))
		copy(data, bufs[b])
		dest := int(s.plan.Dests[b][seqs[b]])
		blk := outBlock{bucket: uint32(b), seq: seqs[b], data: data}
		seqs[b]++
		bufs[b] = bufs[b][:0]
		return emit(dest, blk)
	}
	err := s.scanShard(func(key uint64, raw []byte) error {
		b := bucketOf(key, s.pivots)
		if bufs[b] == nil {
			bufs[b] = make([]byte, 0, blockBytes)
		}
		bufs[b] = append(bufs[b], raw...)
		if len(bufs[b]) == blockBytes {
			return flush(b)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for b := range bufs {
		if len(bufs[b]) > 0 {
			if err := flush(b); err != nil {
				return err
			}
		}
	}
	for b, row := range s.plan.Dests {
		if int(seqs[b]) != len(row) {
			return fmt.Errorf("cluster: formed %d blocks for bucket %d, plan says %d", seqs[b], b, len(row))
		}
	}
	return nil
}

// noDest routes a bucket nowhere in produceGather.
const noDest = ^uint32(0)

// produceGather pushes every stored exchange block of bucket b to worker
// route[b], in ascending bucket order, skipping buckets routed to noDest:
// the gather phase routes every bucket to its owner, a hedge resend routes
// only the victim's buckets, to the target.
func (s *session) produceGather(route []uint32, emit func(dest int, blk outBlock) error) error {
	s.mu.Lock()
	index := make([][]blockLoc, len(route))
	for b, d := range route {
		if d != noDest {
			index[b] = append([]blockLoc(nil), s.exIndex[b]...)
		}
	}
	exFile := s.exFile
	s.mu.Unlock()
	for b, d := range route {
		for i, loc := range index[b] {
			data := make([]byte, loc.bytes)
			if _, err := exFile.ReadAt(data, loc.off); err != nil {
				return err
			}
			if err := emit(int(d), outBlock{bucket: uint32(b), seq: uint32(i), data: data}); err != nil {
				return err
			}
		}
	}
	return nil
}

// sortShard sorts the record file in into out with the configured local
// sorter — a gathered shard, or a hedge's copy of a straggler's — under
// the epoch context so a failover cancels it promptly, and under a
// per-sort cancel so the coordinator's mSortCancel stops the loser of a
// hedge race without killing the session.
func (s *session) sortShard(in, out string) (uint64, error) {
	st, err := os.Stat(in)
	if err != nil {
		return 0, err
	}
	if st.Size() == 0 {
		// Nothing to sort: the sorted shard is the empty file.
		f, err := os.Create(out)
		if err != nil {
			return 0, err
		}
		return 0, f.Close()
	}
	sortScratch := filepath.Join(s.dir, "sortscratch")
	if err := os.MkdirAll(sortScratch, 0o755); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithCancel(s.ectx())
	defer cancel()
	s.mu.Lock()
	if s.sortCanceled {
		s.mu.Unlock()
		return 0, context.Canceled
	}
	s.sortCancel = cancel
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.sortCancel = nil
		s.mu.Unlock()
	}()
	start := time.Now()
	if err := s.w.cfg.SortShard(ctx, in, out, sortScratch); err != nil {
		return 0, err
	}
	s.workUnits.Add(1)
	if err := s.throttleWork(ctx, time.Since(start)); err != nil {
		return 0, err
	}
	if st, err = os.Stat(out); err != nil {
		return 0, err
	}
	if st.Size()%record.EncodedSize != 0 {
		return 0, fmt.Errorf("cluster: sorted shard is %d bytes", st.Size())
	}
	return uint64(st.Size() / record.EncodedSize), nil
}

// sendSorted streams the count-record sorted shard at path to the
// coordinator in chunks, checking for epoch interruption between chunks.
func (s *session) sendSorted(ctl *wlink, path string, count uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	buf := make([]byte, scatterChunk*record.EncodedSize)
	left := count
	for left > 0 {
		if s.interrupted() {
			return errInterrupted
		}
		chunkStart := time.Now()
		m := uint64(scatterChunk)
		if m > left {
			m = left
		}
		chunk := buf[:m*record.EncodedSize]
		if _, err := readFull(br, chunk); err != nil {
			return err
		}
		if err := ctl.send(mRecords, chunk); err != nil {
			return err
		}
		left -= m
		s.workUnits.Add(1)
		if err := s.throttleWork(s.ectx(), time.Since(chunkStart)); err != nil {
			return err
		}
	}
	return ctl.send(mFetchDone, (&msgCount{Count: count}).encode())
}

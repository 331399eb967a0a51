package cluster

import (
	"encoding/binary"
	"fmt"
	"time"

	"balancesort/internal/obs"
	"balancesort/internal/record"
)

// protocolVersion is bumped on any wire change. Coordinator and worker ship
// in one binary, so there is exactly one dialect: every handshake (mHello,
// mJoin and mResume, and their acks) must carry this version exactly, and
// either side refuses a peer that speaks any other one before data moves.
// Every message has one fixed layout. Since version 8 the straggler hedge
// runs over the control links and mFetch names the shard to serve.
const protocolVersion = 8

// versionMismatch is the handshake check both sides run on a peer's
// announced protocol version.
func versionMismatch(v uint32) error {
	if v != protocolVersion {
		return fmt.Errorf("cluster: peer speaks protocol %d, this binary speaks %d", v, protocolVersion)
	}
	return nil
}

// Message types. Coordinator<->worker control messages and worker<->worker
// block messages share one frame namespace so a single decoder serves both.
const (
	mHello byte = iota + 1
	mHelloAck
	mRecords
	mScatterDone
	mHistogram
	mPivots
	mCounts
	mPlan
	mStartGather
	mPhaseDone
	mSortReq
	mSortDone
	mFetch // coordinator -> worker: serve the named worker's sorted shard
	mFetchDone
	mBye
	mPeerHello
	mPeerHelloAck
	mBlock
	mBlockAck
	mError
	mTraceReq
	mTrace
	mTraceDone
	mMonHello      // coordinator opens a heartbeat connection to a worker
	mPing          // coordinator liveness probe on the monitor connection
	mPong          // worker liveness reply
	mPeerLost      // worker -> coordinator: a peer stopped answering; keep me alive
	mCrash         // coordinator -> worker chaos injection: die, hang, or stall now
	mRescatter     // coordinator -> survivor: new epoch begins, extra shard records follow
	mRescatterDone // coordinator -> survivor: re-scatter stream complete, total shard size
	mRescatterAck  // survivor -> coordinator: reset done, ready for the new epoch
	mJoin          // coordinator -> new worker: attach mid-job as an added virtual disk
	mResume        // restarted coordinator -> worker: re-open the job's control link
	mResumeState   // worker -> coordinator: the epoch-tagged shard state it still holds
	mHedgeSend     // coordinator -> target (arm), then every other worker: resend a victim's gather blocks
	mHedgeArmed    // hedge target -> coordinator: ready for the resends
	mHedgeDone     // hedge target -> coordinator: hedged shard sorted, record count follows
	mHedgeFailed   // hedge target -> coordinator: hedge abandoned, the victim's own sort decides
	mSortCancel    // coordinator -> race loser: abandon the shard sort (the victim's or the hedge's)
)

// Hello flag bits.
const (
	// helloFlagTrace asks the worker to record phase spans for the job and
	// ship them back when the coordinator sends mTraceReq after the drain.
	helloFlagTrace uint32 = 1 << 0
)

// histBins is the resolution of the per-worker key histograms the
// coordinator merges to pick bucket pivots: keys are binned by their top
// histBits bits. 4096 bins resolve pivots finely enough for the S <= 4·W
// buckets a cluster sort uses while keeping the message at 32 KiB.
const (
	histBits = 12
	histBins = 1 << histBits
)

// keyBin maps a key to its histogram bin.
func keyBin(key uint64) int { return int(key >> (64 - histBits)) }

// binStart is the smallest key of bin i (i may equal histBins, yielding the
// exclusive upper end of the key space, which saturates to MaxUint64).
func binStart(i int) uint64 {
	if i >= histBins {
		return ^uint64(0)
	}
	return uint64(i) << (64 - histBits)
}

// writer/reader cursors. The reader never panics: any short read marks the
// cursor bad and every subsequent accessor returns zero, so message decoders
// are a linear read followed by a single err check.

type wcur struct{ b []byte }

func (w *wcur) u8(v byte)    { w.b = append(w.b, v) }
func (w *wcur) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wcur) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wcur) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *wcur) str(s string) { w.bytes([]byte(s)) }

type rcur struct {
	b   []byte
	off int
	bad bool
}

func (r *rcur) take(n int) []byte {
	if r.bad || n < 0 || r.off+n > len(r.b) {
		r.bad = true
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *rcur) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *rcur) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *rcur) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *rcur) bytes() []byte {
	n := int(r.u32())
	if n > len(r.b)-r.off { // bound before take so a hostile length cannot wrap
		r.bad = true
		return nil
	}
	return r.take(n)
}

func (r *rcur) str() string { return string(r.bytes()) }

// done reports a fully and exactly consumed payload.
func (r *rcur) done() error {
	if r.bad {
		return fmt.Errorf("cluster: truncated or malformed message payload")
	}
	if r.off != len(r.b) {
		return fmt.Errorf("cluster: %d trailing bytes in message payload", len(r.b)-r.off)
	}
	return nil
}

// msgHello is the coordinator's job announcement to one worker. It is the
// payload of mHello, and of mJoin (the recipient is a brand-new worker
// added as an extra virtual disk mid-job) and mResume (the recipient may
// still hold a parked session from before the coordinator crashed). An
// attached worker learns its epoch from the mRescatter that follows.
type msgHello struct {
	Version   uint32
	JobID     uint64
	Worker    uint32 // the recipient's ID in this job
	Workers   uint32 // cluster width W
	S         uint32 // bucket count
	BlockRecs uint32 // records per exchange block
	Flags     uint32 // helloFlag* bits
	Peers     []string
}

func (m *msgHello) encode() []byte {
	var w wcur
	w.u32(m.Version)
	w.u64(m.JobID)
	w.u32(m.Worker)
	w.u32(m.Workers)
	w.u32(m.S)
	w.u32(m.BlockRecs)
	w.u32(m.Flags)
	w.u32(uint32(len(m.Peers)))
	for _, p := range m.Peers {
		w.str(p)
	}
	return w.b
}

func (m *msgHello) decode(p []byte) error {
	r := rcur{b: p}
	m.Version = r.u32()
	m.JobID = r.u64()
	m.Worker = r.u32()
	m.Workers = r.u32()
	m.S = r.u32()
	m.BlockRecs = r.u32()
	m.Flags = r.u32()
	n := int(r.u32())
	if n > maxWorkers {
		return fmt.Errorf("cluster: hello lists %d peers", n)
	}
	m.Peers = make([]string, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		m.Peers = append(m.Peers, r.str())
	}
	return r.done()
}

// check validates a decoded hello before a worker builds a session from
// it: the exact protocol version first, then the job's shape.
func (m *msgHello) check() error {
	if err := versionMismatch(m.Version); err != nil {
		return err
	}
	if m.Workers < 1 || m.Worker >= m.Workers || int(m.Workers) != len(m.Peers) ||
		m.S < 1 || m.BlockRecs < 1 || int(m.BlockRecs)*record.EncodedSize+64 > MaxFramePayload {
		return fmt.Errorf("cluster: malformed hello: W=%d self=%d peers=%d S=%d blockRecs=%d",
			m.Workers, m.Worker, len(m.Peers), m.S, m.BlockRecs)
	}
	return nil
}

// maxWorkers bounds cluster width; it exists to keep hostile peer lists and
// per-worker allocations finite, not as a scaling target.
const maxWorkers = 1 << 10

// encodeRecords / decodeRecords carry raw record payloads (scatter chunks,
// shard drains, exchange blocks all share the format).
func encodeRecords(recs []record.Record) []byte { return record.EncodeSlice(recs) }

func decodeRecords(p []byte) ([]record.Record, error) { return record.DecodeSlice(p) }

// msgCount is the one-u64 payload shared by ScatterDone, SortDone, and
// FetchDone, and by Fetch, where it is the ID of the worker whose sorted
// shard to serve: a hedge target also holds the shard of the victim whose
// race it won.
type msgCount struct{ Count uint64 }

func (m *msgCount) encode() []byte {
	var w wcur
	w.u64(m.Count)
	return w.b
}

func (m *msgCount) decode(p []byte) error {
	r := rcur{b: p}
	m.Count = r.u64()
	return r.done()
}

// msgHistogram is a worker's key histogram over its shard.
type msgHistogram struct {
	Bins []uint64 // length histBins
}

func (m *msgHistogram) encode() []byte {
	w := wcur{b: make([]byte, 0, 8*histBins)}
	for _, v := range m.Bins {
		w.u64(v)
	}
	return w.b
}

func (m *msgHistogram) decode(p []byte) error {
	if len(p) != 8*histBins {
		return fmt.Errorf("cluster: histogram payload is %d bytes, want %d", len(p), 8*histBins)
	}
	r := rcur{b: p}
	m.Bins = make([]uint64, histBins)
	for i := range m.Bins {
		m.Bins[i] = r.u64()
	}
	return r.done()
}

// msgPivots broadcasts the S-1 deterministic bucket pivots. Bucket b covers
// keys in [piv[b-1], piv[b]); bucketOf computes the index.
type msgPivots struct {
	Pivots []uint64
}

func (m *msgPivots) encode() []byte {
	var w wcur
	w.u32(uint32(len(m.Pivots)))
	for _, v := range m.Pivots {
		w.u64(v)
	}
	return w.b
}

func (m *msgPivots) decode(p []byte) error {
	r := rcur{b: p}
	n := int(r.u32())
	if n < 0 || n > len(p)/8 {
		return fmt.Errorf("cluster: pivot message claims %d pivots in %d bytes", n, len(p))
	}
	m.Pivots = make([]uint64, n)
	for i := range m.Pivots {
		m.Pivots[i] = r.u64()
	}
	return r.done()
}

// bucketOf returns the bucket of key under pivots: the number of pivots <= key.
func bucketOf(key uint64, pivots []uint64) int {
	lo, hi := 0, len(pivots)
	for lo < hi {
		mid := (lo + hi) / 2
		if pivots[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// msgCounts is a worker's per-bucket record counts after partitioning its
// shard against the pivots.
type msgCounts struct {
	PerBucket []uint64
}

func (m *msgCounts) encode() []byte {
	var w wcur
	w.u32(uint32(len(m.PerBucket)))
	for _, v := range m.PerBucket {
		w.u64(v)
	}
	return w.b
}

func (m *msgCounts) decode(p []byte) error {
	r := rcur{b: p}
	n := int(r.u32())
	if n < 0 || n > len(p)/8 {
		return fmt.Errorf("cluster: counts message claims %d buckets in %d bytes", n, len(p))
	}
	m.PerBucket = make([]uint64, n)
	for i := range m.PerBucket {
		m.PerBucket[i] = r.u64()
	}
	return r.done()
}

// msgPlan carries one worker's marching orders for the exchange and gather
// phases: the balancer-decided destination of every block the worker will
// form (indexed [bucket][seq]), how many exchange blocks it will receive,
// the bucket->owner map, and how many gather records to expect.
type msgPlan struct {
	Dests            [][]uint32 // [bucket][seq] -> destination worker
	ExpectRecvBlocks uint64
	Owners           []uint32 // [bucket] -> owning worker
	ExpectGatherRecs uint64
}

func (m *msgPlan) encode() []byte {
	var w wcur
	w.u32(uint32(len(m.Dests)))
	for _, row := range m.Dests {
		w.u32(uint32(len(row)))
		for _, d := range row {
			w.u32(d)
		}
	}
	w.u64(m.ExpectRecvBlocks)
	w.u32(uint32(len(m.Owners)))
	for _, o := range m.Owners {
		w.u32(o)
	}
	w.u64(m.ExpectGatherRecs)
	return w.b
}

func (m *msgPlan) decode(p []byte) error {
	r := rcur{b: p}
	s := int(r.u32())
	if s < 0 || s > len(p)/4 {
		return fmt.Errorf("cluster: plan claims %d buckets in %d bytes", s, len(p))
	}
	m.Dests = make([][]uint32, s)
	for b := range m.Dests {
		n := int(r.u32())
		if n < 0 || n > (len(p)-r.off)/4 {
			return fmt.Errorf("cluster: plan bucket %d claims %d blocks", b, n)
		}
		row := make([]uint32, n)
		for i := range row {
			row[i] = r.u32()
		}
		m.Dests[b] = row
	}
	m.ExpectRecvBlocks = r.u64()
	n := int(r.u32())
	if n < 0 || n > (len(p)-r.off+3)/4 {
		return fmt.Errorf("cluster: plan claims %d owners", n)
	}
	m.Owners = make([]uint32, n)
	for i := range m.Owners {
		m.Owners[i] = r.u32()
	}
	m.ExpectGatherRecs = r.u64()
	return r.done()
}

// msgPhaseDone is a worker's barrier report: it has sent everything the
// plan required of it for the phase and received everything it expected.
type msgPhaseDone struct {
	Phase      uint8 // 1 = exchange, 2 = gather
	BlocksSent uint64
	BlocksRecv uint64
	RecsRecv   uint64
}

func (m *msgPhaseDone) encode() []byte {
	var w wcur
	w.u8(m.Phase)
	w.u64(m.BlocksSent)
	w.u64(m.BlocksRecv)
	w.u64(m.RecsRecv)
	return w.b
}

func (m *msgPhaseDone) decode(p []byte) error {
	r := rcur{b: p}
	m.Phase = r.u8()
	m.BlocksSent = r.u64()
	m.BlocksRecv = r.u64()
	m.RecsRecv = r.u64()
	return r.done()
}

// msgPeerHello opens a worker-to-worker block connection. Epoch is the
// failover epoch the sender believes the job is in. A receiver refuses
// connections from a stale epoch: the sender is a zombie from before a
// failover and its blocks must not land in the reset shard.
type msgPeerHello struct {
	JobID uint64
	Src   uint32
	Epoch uint32
}

func (m *msgPeerHello) encode() []byte {
	var w wcur
	w.u64(m.JobID)
	w.u32(m.Src)
	w.u32(m.Epoch)
	return w.b
}

func (m *msgPeerHello) decode(p []byte) error {
	r := rcur{b: p}
	m.JobID = r.u64()
	m.Src = r.u32()
	m.Epoch = r.u32()
	return r.done()
}

// msgVersion is the mHelloAck payload: the protocol version the worker
// speaks, which the coordinator requires to match its own.
type msgVersion struct {
	Version uint32
}

func (m *msgVersion) encode() []byte {
	var w wcur
	w.u32(m.Version)
	return w.b
}

func (m *msgVersion) decode(p []byte) error {
	r := rcur{b: p}
	m.Version = r.u32()
	return r.done()
}

// msgMonHello opens the coordinator's heartbeat connection to a worker.
// The worker attaches it to the running job's session (so chaos kills and
// session teardown close it) and answers every mPing with an mPong.
type msgMonHello struct {
	JobID uint64
}

func (m *msgMonHello) encode() []byte {
	var w wcur
	w.u64(m.JobID)
	return w.b
}

func (m *msgMonHello) decode(p []byte) error {
	r := rcur{b: p}
	m.JobID = r.u64()
	return r.done()
}

// msgPing / msgPong carry a sequence number so a delayed pong is still
// recognizably a liveness signal (any pong resets the miss counter; the
// sequence exists for debugging, not matching).
type msgPing struct {
	Seq uint64
}

func (m *msgPing) encode() []byte {
	var w wcur
	w.u64(m.Seq)
	return w.b
}

func (m *msgPing) decode(p []byte) error {
	r := rcur{b: p}
	m.Seq = r.u64()
	return r.done()
}

// msgProgress is the mPong payload: the echoed ping sequence followed by
// the worker's per-phase progress counters. Units is a monotone count of
// work items finished in the current phase (records scanned, blocks
// stored, chunks sent, ...): the detector only compares successive values
// of the same worker, so the unit does not have to mean the same thing
// across phases or peers.
type msgProgress struct {
	Seq        uint64
	Phase      uint8 // index into WorkerPhases
	Units      uint64
	ShardRecs  uint64 // records scattered into the shard
	RecvBlocks uint64 // exchange blocks received
	GatherRecs uint64 // gather records received
}

func (m *msgProgress) encode() []byte {
	var w wcur
	w.u64(m.Seq)
	w.u8(m.Phase)
	w.u64(m.Units)
	w.u64(m.ShardRecs)
	w.u64(m.RecvBlocks)
	w.u64(m.GatherRecs)
	return w.b
}

func (m *msgProgress) decode(p []byte) error {
	r := rcur{b: p}
	m.Seq = r.u64()
	m.Phase = r.u8()
	m.Units = r.u64()
	m.ShardRecs = r.u64()
	m.RecvBlocks = r.u64()
	m.GatherRecs = r.u64()
	return r.done()
}

// msgHedgeSend drives the hedge, a speculative re-run of a straggling
// victim's shard sort on the earliest finisher (the target). Sent to the
// target, it arms it to collect Recs records of the victim's buckets and
// sort them; the target answers mHedgeArmed, then mHedgeDone or — never
// an mError — mHedgeFailed. Sent to every other worker once the target is
// armed, it orders the re-send of the buckets' gather blocks to the target
// as phase-3 mBlock frames (fresh streams, so the receiver's per-stream
// dedup makes retransmission safe). The bucket list rides the message so
// re-senders never have to consult their own plan state from another
// goroutine.
type msgHedgeSend struct {
	Epoch   uint32
	Victim  uint32
	Target  uint32
	Recs    uint64 // exact records the hedged shard must contain
	Buckets []uint32
}

func (m *msgHedgeSend) encode() []byte {
	var w wcur
	w.u32(m.Epoch)
	w.u32(m.Victim)
	w.u32(m.Target)
	w.u64(m.Recs)
	w.u32(uint32(len(m.Buckets)))
	for _, b := range m.Buckets {
		w.u32(b)
	}
	return w.b
}

func (m *msgHedgeSend) decode(p []byte) error {
	r := rcur{b: p}
	m.Epoch = r.u32()
	m.Victim = r.u32()
	m.Target = r.u32()
	m.Recs = r.u64()
	n := int(r.u32())
	if n < 0 || n > (len(p)-r.off+3)/4 {
		return fmt.Errorf("cluster: hedge send claims %d buckets in %d bytes", n, len(p))
	}
	m.Buckets = make([]uint32, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		m.Buckets = append(m.Buckets, r.u32())
	}
	return r.done()
}

// Chaos modes carried by msgCrash.
const (
	crashKill  uint8 = iota // drop the session and close every connection
	crashHang               // go silent: stop ponging and stop making progress
	crashStall              // keep ponging but slow every unit of work by Factor
)

// msgCrash is the chaos-harness injection: the worker dies, hangs, or
// slows down the instant its control reader sees it, whatever phase the
// job is in.
type msgCrash struct {
	Mode   uint8
	Factor uint32 // crashStall only: every work unit takes Factor times as long
}

func (m *msgCrash) encode() []byte {
	var w wcur
	w.u8(m.Mode)
	w.u32(m.Factor)
	return w.b
}

func (m *msgCrash) decode(p []byte) error {
	r := rcur{b: p}
	m.Mode = r.u8()
	m.Factor = r.u32()
	return r.done()
}

// msgPeerLost is a worker's report that a peer stopped answering during
// the exchange or gather phase. The reporter stays alive and waits for the
// coordinator's recovery instructions.
type msgPeerLost struct {
	Worker uint32
	Addr   string
	Text   string
}

func (m *msgPeerLost) encode() []byte {
	var w wcur
	w.u32(m.Worker)
	w.str(m.Addr)
	w.str(m.Text)
	return w.b
}

func (m *msgPeerLost) decode(p []byte) error {
	r := rcur{b: p}
	m.Worker = r.u32()
	m.Addr = r.str()
	m.Text = r.str()
	return r.done()
}

// msgRescatter opens a failover epoch on a surviving worker: discard all
// exchange/gather state, keep the scattered shard, adopt the new epoch and
// the shrunk active set. The dead workers' shard records follow as
// mRecords frames, then mRescatterDone closes the stream.
//
// Fresh forces the shard to be truncated before the stream (a joiner, or a
// resumed worker whose shard no longer matches the journal, is re-fed from
// scratch). Peers is the job's full peer address table as of the new
// epoch: a join grows it, so the active set can name a worker the session
// has never met.
type msgRescatter struct {
	Epoch  uint32
	Active []uint32 // surviving worker IDs, ascending
	Fresh  bool     // truncate the shard before applying the stream
	Peers  []string // full replacement peer table
}

func (m *msgRescatter) encode() []byte {
	var w wcur
	w.u32(m.Epoch)
	w.u32(uint32(len(m.Active)))
	for _, a := range m.Active {
		w.u32(a)
	}
	if m.Fresh {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(m.Peers)))
	for _, p := range m.Peers {
		w.str(p)
	}
	return w.b
}

func (m *msgRescatter) decode(p []byte) error {
	r := rcur{b: p}
	m.Epoch = r.u32()
	n := int(r.u32())
	if n < 0 || n > maxWorkers {
		return fmt.Errorf("cluster: rescatter lists %d active workers", n)
	}
	m.Active = make([]uint32, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		m.Active = append(m.Active, r.u32())
	}
	m.Fresh = r.u8() != 0
	np := int(r.u32())
	if np > maxWorkers {
		return fmt.Errorf("cluster: rescatter lists %d peers", np)
	}
	m.Peers = make([]string, 0, np)
	for i := 0; i < np && !r.bad; i++ {
		m.Peers = append(m.Peers, r.str())
	}
	return r.done()
}

// msgRescatterDone ends a re-scatter stream; Total is the shard size the
// coordinator now expects on this worker, which the worker cross-checks.
type msgRescatterDone struct {
	Epoch uint32
	Total uint64
}

func (m *msgRescatterDone) encode() []byte {
	var w wcur
	w.u32(m.Epoch)
	w.u64(m.Total)
	return w.b
}

func (m *msgRescatterDone) decode(p []byte) error {
	r := rcur{b: p}
	m.Epoch = r.u32()
	m.Total = r.u64()
	return r.done()
}

// msgRescatterAck reports a survivor reset and re-fed: old exchange and
// gather state dropped, shard extended, ready to rerun from the histogram
// phase under the new epoch.
type msgRescatterAck struct {
	Epoch     uint32
	ShardRecs uint64
}

func (m *msgRescatterAck) encode() []byte {
	var w wcur
	w.u32(m.Epoch)
	w.u64(m.ShardRecs)
	return w.b
}

func (m *msgRescatterAck) decode(p []byte) error {
	r := rcur{b: p}
	m.Epoch = r.u32()
	m.ShardRecs = r.u64()
	return r.done()
}

// msgResumeState is a worker's answer to mResume: whether it still holds a
// parked shard for the job, and if so under which epoch and how many
// records. A coordinator re-streams a worker's scatter extents only when
// the reported state does not match its journal; matching shards are
// adopted as-is, which is what makes resume cheap after a clean park.
type msgResumeState struct {
	Version   uint32
	HaveShard uint8 // 1 when a parked shard for the job was adopted
	Epoch     uint32
	ShardRecs uint64
}

func (m *msgResumeState) encode() []byte {
	var w wcur
	w.u32(m.Version)
	w.u8(m.HaveShard)
	w.u32(m.Epoch)
	w.u64(m.ShardRecs)
	return w.b
}

func (m *msgResumeState) decode(p []byte) error {
	r := rcur{b: p}
	m.Version = r.u32()
	m.HaveShard = r.u8()
	m.Epoch = r.u32()
	m.ShardRecs = r.u64()
	return r.done()
}

// msgBlock moves one exchange or gather block between workers. Blocks are
// idempotent — (Phase, Src, Bucket, Seq) identifies one forever — so a
// retransmitted block after a dropped connection deduplicates at the
// receiver instead of corrupting the shard.
type msgBlock struct {
	Phase  uint8
	Src    uint32
	Bucket uint32
	Seq    uint32
	Data   []byte // raw encoded records
}

func (m *msgBlock) encode() []byte {
	w := wcur{b: make([]byte, 0, 13+4+len(m.Data))}
	w.u8(m.Phase)
	w.u32(m.Src)
	w.u32(m.Bucket)
	w.u32(m.Seq)
	w.bytes(m.Data)
	return w.b
}

func (m *msgBlock) decode(p []byte) error {
	r := rcur{b: p}
	m.Phase = r.u8()
	m.Src = r.u32()
	m.Bucket = r.u32()
	m.Seq = r.u32()
	m.Data = r.bytes()
	if err := r.done(); err != nil {
		return err
	}
	if len(m.Data)%record.EncodedSize != 0 {
		return fmt.Errorf("cluster: block payload of %d bytes is not whole records", len(m.Data))
	}
	return nil
}

// msgBlockAck acknowledges one block on the same connection it arrived on.
type msgBlockAck struct {
	Phase  uint8
	Bucket uint32
	Seq    uint32
}

func (m *msgBlockAck) encode() []byte {
	var w wcur
	w.u8(m.Phase)
	w.u32(m.Bucket)
	w.u32(m.Seq)
	return w.b
}

func (m *msgBlockAck) decode(p []byte) error {
	r := rcur{b: p}
	m.Phase = r.u8()
	m.Bucket = r.u32()
	m.Seq = r.u32()
	return r.done()
}

// Error codes carried by msgError so typed errors survive the process
// boundary: the receiving side reconstructs the matching Go error type.
const (
	ecGeneric uint32 = iota
	ecWorkerLost
	ecStraggler // a live worker demoted for falling past its phase budget
)

// msgError propagates a fatal job error in either direction.
type msgError struct {
	Code   uint32
	Worker uint32
	Addr   string
	Text   string
	Phase  string // ecStraggler only: the coordinator phase that blew its budget
	Budget uint64 // ecStraggler only: the phase deadline budget, in nanoseconds
}

func (m *msgError) encode() []byte {
	var w wcur
	w.u32(m.Code)
	w.u32(m.Worker)
	w.str(m.Addr)
	w.str(m.Text)
	w.str(m.Phase)
	w.u64(m.Budget)
	return w.b
}

func (m *msgError) decode(p []byte) error {
	r := rcur{b: p}
	m.Code = r.u32()
	m.Worker = r.u32()
	m.Addr = r.str()
	m.Text = r.str()
	m.Phase = r.str()
	m.Budget = r.u64()
	return r.done()
}

// traceChunkSpans bounds spans per mTrace frame. A span is ~85 bytes on
// the wire with typical names, so 8192 spans stay well under the 2 MiB
// MaxFramePayload even with generous attribute lists.
const traceChunkSpans = 8192

// msgTrace ships one chunk of a worker's recorded spans back to the
// coordinator. EpochNanos is the worker tracer's epoch as wall-clock
// UnixNano, which the coordinator uses to rebase span offsets onto its
// own epoch before merging into the job timeline. Each span carries its
// causality fields (span id, parent id, flow id, flow direction), so flow
// edges and parent links survive the merge.
type msgTrace struct {
	EpochNanos uint64
	Spans      []obs.Span
}

func (m *msgTrace) encode() []byte {
	var w wcur
	w.u64(m.EpochNanos)
	w.u32(uint32(len(m.Spans)))
	for _, s := range m.Spans {
		w.str(s.Layer)
		w.str(s.Name)
		w.u32(uint32(s.ID))
		w.u64(uint64(s.Start))
		w.u64(uint64(s.Dur))
		w.u32(uint32(len(s.Attrs)))
		for _, a := range s.Attrs {
			w.str(a.Key)
			w.u64(uint64(a.Val))
		}
		w.u64(s.SpanID)
		w.u64(s.Parent)
		w.u64(s.Flow)
		if s.FlowOut {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	return w.b
}

func (m *msgTrace) decode(p []byte) error {
	r := rcur{b: p}
	m.EpochNanos = r.u64()
	n := int(r.u32())
	// A span is at least 57 bytes (two empty strings, id, start, dur,
	// attr count, span id, parent, flow, flow direction); bound before
	// allocating so a hostile count cannot balloon memory.
	if n < 0 || n > (len(p)-r.off)/57 {
		return fmt.Errorf("cluster: trace chunk claims %d spans in %d bytes", n, len(p))
	}
	m.Spans = make([]obs.Span, 0, n)
	for i := 0; i < n && !r.bad; i++ {
		var s obs.Span
		s.Layer = r.str()
		s.Name = r.str()
		s.ID = int(r.u32())
		s.Start = time.Duration(r.u64())
		s.Dur = time.Duration(r.u64())
		na := int(r.u32())
		if na < 0 || na > (len(p)-r.off)/12 {
			return fmt.Errorf("cluster: trace span claims %d attrs", na)
		}
		if na > 0 {
			s.Attrs = make([]obs.Attr, 0, na)
			for j := 0; j < na && !r.bad; j++ {
				var a obs.Attr
				a.Key = r.str()
				a.Val = int64(r.u64())
				s.Attrs = append(s.Attrs, a)
			}
		}
		s.SpanID = r.u64()
		s.Parent = r.u64()
		s.Flow = r.u64()
		s.FlowOut = r.u8() != 0
		m.Spans = append(m.Spans, s)
	}
	return r.done()
}

// Cluster mode: a shared-nothing coordinator/worker deployment of Balance
// Sort over TCP. The coordinator scatters the input across W worker
// processes, gathers per-worker key histograms, picks bucket pivots
// deterministically, drives a balancer-placed all-to-all block exchange
// (the paper's Invariant 2 bound x_bh <= m_b + 1 holds on the received
// block matrix), gathers each bucket to its owner, has every worker sort
// its shard with the file-backed SortFile path, and drains the shards in
// key order — producing output byte-identical to a single-process sort.
package balancesort

import (
	"context"
	"net"
	"time"

	"balancesort/internal/cluster"
	"balancesort/internal/obs"
)

// WorkerLostError is the typed error for a cluster peer that stayed
// unreachable through the dialer's whole retry/backoff budget — the
// distributed analogue of diskio's DiskFailedError. errors.As works on it
// across the coordinator/worker process boundary.
type WorkerLostError = cluster.WorkerLostError

// ClusterDegradedError is returned when worker losses drop the cluster
// below quorum (⌊W/2⌋+1 survivors) and failover can no longer rebuild the
// job. It wraps the quorum-breaking *WorkerLostError.
type ClusterDegradedError = cluster.ClusterDegradedError

// ClusterHeartbeat configures the coordinator's failure detector; see
// ClusterConfig.Heartbeat.
type ClusterHeartbeat = cluster.Heartbeat

// ChaosSpec injects one worker fault at a chosen coordinator phase; see
// ClusterConfig.Chaos. With Coordinator set, the coordinator itself is the
// victim: Sort aborts with ErrCoordinatorChaosKill at the named phase, and
// ResumeClusterSortFile must finish the job from the journal.
type ChaosSpec = cluster.ChaosSpec

// ClusterJoin admits one extra worker at a chosen coordinator phase; see
// ClusterConfig.Join.
type ClusterJoin = cluster.JoinSpec

// StragglerError is the typed error for a worker that stayed alive but
// fell past its phase deadline budget without progress — the latency dual
// of WorkerLostError. The coordinator builds it when it demotes the worker;
// it reaches the caller wrapped in a ClusterDegradedError.
type StragglerError = cluster.StragglerError

// ClusterStraggler configures the progress-rate straggler detector and
// the hedged shard-sort re-execution path; see ClusterConfig.Straggler.
type ClusterStraggler = cluster.StragglerConfig

// ClusterStall slows one worker by a multiplicative factor from a chosen
// coordinator phase on — the latency fault injector behind `-chaos-stall`;
// see ClusterConfig.Stall.
type ClusterStall = cluster.StallSpec

// ErrCoordinatorChaosKill is the sentinel ClusterSortFile returns when
// ChaosSpec.Coordinator simulated a coordinator crash — the point where a
// real deployment would call ResumeClusterSortFile.
var ErrCoordinatorChaosKill = cluster.ErrCoordinatorChaosKill

// ErrNoJournaledStart means ResumeClusterSortFile found a journal that
// never recorded a job start; callers fall back to a fresh ClusterSortFile
// (the input file is still the source of truth).
var ErrNoJournaledStart = cluster.ErrNoJournaledStart

// ClusterRecovery reports what a failover cost; see ClusterResult.Recovery.
type ClusterRecovery = cluster.RecoveryStats

// ClusterPhases are the coordinator phase names, in order — the legal
// values for ChaosSpec.Phase and the vocabulary of RecoveryStats.LostPhases.
func ClusterPhases() []string {
	return append([]string(nil), cluster.CoordinatorPhases...)
}

// ClusterConfig configures a coordinator-driven cluster sort.
type ClusterConfig struct {
	// Workers are the worker addresses, in worker-ID order.
	Workers []string
	// Buckets is S, the key-range bucket count. 0 means 4x the worker
	// count.
	Buckets int
	// BlockRecs is the exchange block size in records. 0 means 2048.
	BlockRecs int
	// DialAttempts, DialBackoff, and IOTimeout tune the connection
	// retry/backoff budget and the per-operation deadline. Zero values
	// select the defaults (6 attempts, 25ms doubling backoff, 30s I/O
	// timeout).
	DialAttempts int
	DialBackoff  time.Duration
	IOTimeout    time.Duration
	// Heartbeat tunes the failure detector: every worker beats on its
	// control link, and a worker whose link stays silent past the missed-
	// beat budget is declared lost. The zero value means a beat every
	// 500ms with a budget of 3 misses; set Disable to turn it off.
	Heartbeat ClusterHeartbeat
	// Chaos, when non-nil, kills (or hangs) one worker at the start of the
	// named coordinator phase — the built-in chaos harness behind the
	// `-chaos-kill` flag. The job must still produce byte-identical
	// output, recovering through failover.
	Chaos *ChaosSpec
	// Join, when non-nil, admits one extra worker mid-job at the start of
	// the named coordinator phase — the elastic scale-out harness behind
	// `-chaos-join`. The joiner becomes an added virtual disk: the epoch is
	// bumped, bucket placement is re-planned over W+1 workers, and the
	// output stays byte-identical.
	Join *ClusterJoin
	// Straggler configures the progress-rate failure detector: per-phase
	// deadline budgets (derived from the plan cost model and the median
	// finisher when not pinned), demotion of a stalled worker to the
	// failover path, and — with Hedge set — speculative re-execution of a
	// straggling shard sort on the fastest finished peer, first result
	// wins. The zero value disables detection entirely, leaving only the
	// liveness heartbeats.
	Straggler ClusterStraggler
	// Stall, when non-nil, slows one worker by a multiplicative factor
	// from the start of the named coordinator phase — the latency chaos
	// harness behind `-chaos-stall`. Unlike Chaos the victim stays alive
	// and keeps beating; only the Straggler detector can get
	// the job off its critical path.
	Stall *ClusterStall
	// JournalPath, when non-empty, appends a crash-consistent journal of
	// phase transitions, scatter extents, worker losses, and failovers —
	// the audit trail for a recovery decision.
	JournalPath string
	// Obs configures coordinator-side phase tracing. With Obs.Trace set,
	// every worker also records its phases and ships them back over the
	// protocol at the end of the job; ClusterResult.Trace is the merged
	// timeline.
	Obs ObsConfig
}

func (c ClusterConfig) dial() cluster.DialConfig {
	return cluster.DialConfig{
		Attempts:  c.DialAttempts,
		Backoff:   c.DialBackoff,
		IOTimeout: c.IOTimeout,
	}
}

// ClusterResult reports what a cluster sort moved and how evenly the
// balancer spread the exchange.
type ClusterResult struct {
	Records        int     `json:"records"`         // records sorted
	Workers        int     `json:"workers"`         // cluster width W
	Buckets        int     `json:"buckets"`         // S
	ExchangeBlocks int     `json:"exchange_blocks"` // blocks moved by the placement exchange
	RecvBlocks     []int   `json:"recv_blocks"`     // per-worker received blocks (column sums of X)
	X              [][]int `json:"x,omitempty"`     // X[b][h]: blocks of bucket b placed on worker h
	GatherRecords  []int   `json:"gather_records"`  // per-worker final shard sizes
	// Recovery is non-nil when the job survived worker losses: who died,
	// in which phase, what was re-scattered, and what failover cost in
	// wall time. X's columns then cover only Recovery.ActiveWorkers.
	Recovery *ClusterRecovery `json:"recovery,omitempty"`
	// Trace is the merged coordinator+worker timeline when ClusterConfig.Obs
	// asked for one; nil otherwise.
	Trace *Trace `json:"-"`
}

// ClusterSortFile externally sorts the 16-byte-record file inPath into
// outPath across the given cluster of workers. The workers must already be
// serving (ServeWorker, or `balancesort -join`). Output is verified sorted
// while streaming and is byte-identical to SortFile on the same input; a
// worker that stays unreachable fails the job fast with a *WorkerLostError
// rather than hanging.
func ClusterSortFile(ctx context.Context, inPath, outPath string, cfg ClusterConfig) (*ClusterResult, error) {
	tr := cfg.Obs.tracer()
	cfg.Obs.attach("coordinator", tr)
	stats, err := cluster.Sort(ctx, inPath, outPath, cluster.SortSpec{
		Workers:     cfg.Workers,
		Buckets:     cfg.Buckets,
		BlockRecs:   cfg.BlockRecs,
		Dial:        cfg.dial(),
		Heartbeat:   cfg.Heartbeat,
		Chaos:       cfg.Chaos,
		Join:        cfg.Join,
		Straggler:   cfg.Straggler,
		Stall:       cfg.Stall,
		JournalPath: cfg.JournalPath,
		Trace:       tr,
		Sample:      cfg.Obs.Sample,
	})
	if err != nil {
		return nil, err
	}
	return clusterResultFrom(stats, tr), nil
}

// ResumeClusterSortFile restarts a crashed coordinator's job from the
// journal at cfg.JournalPath (which must be the path the original
// ClusterSortFile wrote). It replays the phase-commit log, re-dials the
// workers with the resume handshake — each reports which epoch-tagged
// shard it still holds, and only lost shards are re-scattered — and
// re-enters the pipeline at the last committed phase. The output is
// byte-identical to an uninterrupted sort; the journaled pivots are
// cross-checked against the recomputed ones as a determinism assertion.
// Workers, Buckets, and BlockRecs are taken from the journal, not cfg.
func ResumeClusterSortFile(ctx context.Context, inPath, outPath string, cfg ClusterConfig) (*ClusterResult, error) {
	tr := cfg.Obs.tracer()
	cfg.Obs.attach("coordinator", tr)
	stats, err := cluster.Resume(ctx, inPath, outPath, cluster.SortSpec{
		Workers:     cfg.Workers,
		Dial:        cfg.dial(),
		Heartbeat:   cfg.Heartbeat,
		Straggler:   cfg.Straggler,
		JournalPath: cfg.JournalPath,
		Trace:       tr,
		Sample:      cfg.Obs.Sample,
	})
	if err != nil {
		return nil, err
	}
	return clusterResultFrom(stats, tr), nil
}

func clusterResultFrom(stats *cluster.SortStats, tr *obs.Tracer) *ClusterResult {
	return &ClusterResult{
		Records:        stats.Records,
		Workers:        stats.Workers,
		Buckets:        stats.Buckets,
		ExchangeBlocks: stats.ExchangeBlocks,
		RecvBlocks:     stats.RecvBlocks,
		X:              stats.X,
		GatherRecords:  stats.GatherRecords,
		Recovery:       stats.Recovery,
		Trace:          traceFrom(tr),
	}
}

// WorkerOptions configures one cluster worker process.
type WorkerOptions struct {
	// ScratchDir holds per-job shard, exchange, and sort-scratch files; ""
	// means the OS temp dir.
	ScratchDir string
	// Sort configures the worker-local file-backed sort (disks, block
	// size, memory, I/O layer, robustness) exactly as for SortFile. If
	// Sort.Engine is empty the worker defaults to EngineAuto so the
	// planner picks per shard.
	Sort Config
	// InMemory sorts shards in memory instead of through the file-backed
	// engine — for tests and small shards.
	InMemory bool
	// DialAttempts, DialBackoff, and IOTimeout tune peer redial/backoff.
	DialAttempts int
	DialBackoff  time.Duration
	IOTimeout    time.Duration
	// DropAfterBlocks force-closes a peer connection once after that many
	// sent blocks — fault injection for the retransmit path. 0 disables.
	DropAfterBlocks int
	// ObsAddr, when non-empty, serves this worker's Prometheus /metrics
	// and pprof endpoints on the address for the lifetime of ServeWorker.
	// Empty opens no listener.
	ObsAddr string
	// Sample, when positive, runs a background utilization sampler per
	// job session: goroutines, heap, and wire throughput ride the shipped
	// trace as counter tracks (see ObsConfig.Sample for the coordinator
	// side).
	Sample time.Duration
}

// ServeWorker runs a cluster worker on ln until ctx is canceled or the
// listener fails. Each worker shard is sorted with the same file-backed
// SortFile path a single-process sort uses (unless InMemory is set).
func ServeWorker(ctx context.Context, ln net.Listener, opt WorkerOptions) error {
	wcfg := cluster.WorkerConfig{
		ScratchDir: opt.ScratchDir,
		Dial: cluster.DialConfig{
			Attempts:  opt.DialAttempts,
			Backoff:   opt.DialBackoff,
			IOTimeout: opt.IOTimeout,
		},
		DropAfterBlocks: opt.DropAfterBlocks,
		Sample:          opt.Sample,
	}
	if opt.ObsAddr != "" {
		srv := obs.NewServer()
		if err := srv.Start(opt.ObsAddr); err != nil {
			return err
		}
		defer srv.Close()
		wcfg.Obs = srv
	}
	if !opt.InMemory {
		sortCfg := opt.Sort
		if sortCfg.Engine == "" {
			// Shard sizes vary with W and the input, so let the planner pick
			// the cheapest engine per shard unless the operator pinned one.
			sortCfg.Engine = EngineAuto
		}
		wcfg.SortShard = func(ctx context.Context, inPath, outPath, scratchDir string) error {
			_, err := SortFileContext(ctx, inPath, outPath, scratchDir, sortCfg)
			return err
		}
	}
	return cluster.NewWorker(wcfg).Serve(ctx, ln)
}

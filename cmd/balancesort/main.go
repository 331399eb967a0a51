// Command balancesort sorts a generated workload on a simulated parallel
// disk array or parallel memory hierarchy and reports the model costs —
// the quickest way to poke at the system from a shell.
//
//	go run ./cmd/balancesort -n 1000000 -d 16 -b 64 -m 65536
//	go run ./cmd/balancesort -algo stripedmerge -d 32
//	go run ./cmd/balancesort -hier hmm-log -H 16 -ic hypercube
//	go run ./cmd/balancesort -workload bucketskew -placement random
//	go run ./cmd/balancesort -join 127.0.0.1:7101 -scratch /tmp/w1
//	go run ./cmd/balancesort -infile in.bin -outfile out.bin -cluster 127.0.0.1:7101,127.0.0.1:7102
//	go run ./cmd/balancesort -serve 127.0.0.1:8080 -data-dir /var/lib/balancesort
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"balancesort"
	"balancesort/internal/jobs"
)

func main() {
	var (
		n         = flag.Int("n", 1<<18, "records to sort")
		seed      = flag.Uint64("seed", 42, "workload seed")
		workload  = flag.String("workload", "uniform", "uniform|fewdistinct|nearlysorted|reversed|bucketskew|zipf")
		d         = flag.Int("d", 8, "disks (D)")
		b         = flag.Int("b", 64, "block size in records (B)")
		m         = flag.Int("m", 0, "internal memory in records (M); 0 = 8*D*B")
		p         = flag.Int("p", 1, "PRAM processors (P)")
		v         = flag.Int("v", 0, "virtual disks for partial striping; 0 = D")
		algo      = flag.String("algo", "balancesort", "balancesort|stripedmerge|forecastmerge|columnsort|greedsort")
		placement = flag.String("placement", "balanced", "balanced|random|roundrobin")
		match     = flag.String("match", "derandomized", "derandomized|randomized|greedy")
		hierM     = flag.String("hier", "", "run on a hierarchy instead: hmm-log|hmm-power|bt-log|bt-power|umh")
		hcount    = flag.Int("H", 8, "hierarchies (H) for -hier")
		alpha     = flag.Float64("alpha", 1, "α for the power-law hierarchy models")
		ic        = flag.String("ic", "pram", "interconnect for -hier: pram|hypercube|hypercube-bitonic")
		inFile    = flag.String("infile", "", "sort this 16-byte-record file instead of a generated workload")
		outFile   = flag.String("outfile", "", "write the sorted records here (required with -infile)")
		scratch   = flag.String("scratch", "", "directory for the file-backed disks (default: a temp dir)")
		genFile   = flag.String("genfile", "", "just generate -n records of -workload into this file and exit")
		verify    = flag.String("verify", "", "just check that this record file is sorted and exit")

		// Integrity and recovery knobs (with -infile / -scratch).
		scrub      = flag.String("scrub", "", "verify every block checksum in this scratch directory and exit")
		resume     = flag.Bool("resume", false, "continue an interrupted journaled sort from -scratch")
		journal    = flag.Bool("journal", false, "journal every sort pass so the sort can be resumed (needs -scratch)")
		noChecksum = flag.Bool("nochecksum", false, "disable the per-block CRC32C checksums on the scratch disks")
		scrubAfter = flag.Bool("scrubafter", false, "scrub the scratch array after sorting and report the sweep")
		timeout    = flag.Duration("timeout", 0, "bound the run: cancel a file or cluster sort, or drain the job server, after this long (0 = no deadline)")

		// Engine selection (with -infile and inside -serve/-join sorts).
		engine   = flag.String("engine", "", "file-sort engine: auto|balancesort|stripedmerge|inmem (empty = balancesort; auto asks the cost-model planner)")
		noCRadix = flag.Bool("nocradix", false, "sort memoryloads with the comparison sort instead of the default radix sort")

		// Disk I/O layer knobs (with -infile).
		stats     = flag.Bool("stats", false, "print the I/O layer's per-disk metrics")
		retries   = flag.Int("retries", 0, "retries per failed device op (0 = default)")
		faultRate = flag.Float64("faultrate", 0, "inject transient device faults with this probability")
		tornRate  = flag.Float64("tornrate", 0, "probability an injected write fault tears the block")
		jitter    = flag.Duration("jitter", 0, "inject up to this much per-op device latency")

		// Cluster mode (coordinator/worker Balance Sort over TCP).
		join       = flag.String("join", "", "serve as a cluster worker on this listen address (e.g. 127.0.0.1:0)")
		addrFile   = flag.String("addrfile", "", "with -join: write the actual listen address to this file")
		clusterWs  = flag.String("cluster", "", "coordinate a cluster sort over these comma-separated worker addresses (with -infile/-outfile)")
		cbuckets   = flag.Int("cbuckets", 0, "cluster bucket count S (0 = 4x workers)")
		xblock     = flag.Int("xblock", 0, "cluster exchange block size in records (0 = 2048)")
		inMem      = flag.Bool("inmem", false, "with -join: sort worker shards in memory instead of the file-backed engine")
		dropAfter  = flag.Int("dropafter", 0, "with -join: force-close a peer connection once after this many sent blocks (fault injection)")
		chaosKill  = flag.String("chaos-kill", "", "with -cluster: kill worker W at coordinator phase P, as phase:worker (e.g. exchange:2); append :hang to hang it instead; coordinator@P kills the coordinator itself")
		chaosJoin  = flag.String("chaos-join", "", "with -cluster: hold the last -cluster address back and join it as a new worker at this coordinator phase (e.g. exchange)")
		chaosStall = flag.String("chaos-stall", "", "with -cluster: slow worker W by a multiplicative factor from coordinator phase P on, as phase:worker[:factor] (e.g. local-sort:2:10, default factor 10); the worker stays alive — pair with -straggle/-hedge to mitigate")
		straggle   = flag.Bool("straggle", false, "with -cluster: enable the progress-rate straggler detector (phase deadline budgets; a stalled worker is demoted to the failover path)")
		hedge      = flag.Bool("hedge", false, "with -cluster: speculatively re-run a straggling shard sort on the fastest finished worker, first result wins (implies -straggle)")
		softBudget = flag.Duration("straggle-soft", 0, "with -straggle: hedge a shard sort that exceeds this budget (0 = derive from the median finisher and the plan cost model)")
		hardBudget = flag.Duration("straggle-hard", 0, "with -straggle: demote a worker whose phase exceeds this budget (0 = derive from the median finisher and the plan cost model)")
		hbEvery    = flag.Duration("heartbeat", 0, "with -cluster: the interval at which workers send heartbeats on their control links, at least 1ms; a worker silent for 4 intervals is lost (0 = 500ms default, negative disables the failure detector)")
		cjournal   = flag.String("cjournal", "", "with -cluster: append the coordinator's phase/loss/failover journal to this file")
		cresume    = flag.Bool("cresume", false, "with -cluster: resume a crashed coordinator's job from the -cjournal phase-commit log instead of starting over")

		// Sort-as-a-service job server (-serve).
		serveAddr    = flag.String("serve", "", "run the multi-tenant sort job server on this address (e.g. 127.0.0.1:8080); needs -data-dir")
		dataDir      = flag.String("data-dir", "", "with -serve: durable root for job manifests, inputs, scratch, and outputs")
		serveWorkers = flag.Int("serve-workers", 2, "with -serve: concurrently running sorts")
		budgetMem    = flag.String("budget-mem", "1G", "with -serve: total memory budget for running sorts (bytes, K/M/G suffix ok)")
		budgetDisk   = flag.String("budget-disk", "16G", "with -serve: total disk budget for admitted jobs (bytes, K/M/G suffix ok)")
		tenantJobs   = flag.Int("tenant-quota", 0, "with -serve: max live (queued+running) jobs per tenant (0 = unlimited)")
		tenantDisk   = flag.String("tenant-disk", "", "with -serve: max reserved disk per tenant (bytes, K/M/G suffix ok; empty = unlimited)")
		tenantWts    = flag.String("tenant-weights", "", "with -serve: fair-queueing weights as name=w,name=w (default weight 1)")

		// Observability (tracing, progress, metrics endpoint).
		traceFile = flag.String("trace", "", "write a Chrome trace_event JSON of the sort's phase spans to this file (load at ui.perfetto.dev)")
		jsonOut   = flag.Bool("json", false, "emit the full result as one JSON line on stdout instead of the human report")
		progress  = flag.Bool("progress", false, "render live sort/cluster phase events to stderr")
		obsAddr   = flag.String("obs-addr", "", "serve Prometheus /metrics and pprof on this address (e.g. 127.0.0.1:9100); empty opens no listener")
		sample    = flag.Duration("sample", 0, "sample per-disk utilization, pool occupancy, and runtime gauges at this interval (e.g. 10ms); lands as Chrome counter tracks in -trace and balancesort_util gauges on -obs-addr")
	)
	flag.Parse()

	// obsCfg assembles the observability knobs for the sorting paths; srv
	// may be nil (no -obs-addr), which attaches nothing.
	obsCfg := func(srv *balancesort.ObsServer) balancesort.ObsConfig {
		oc := balancesort.ObsConfig{Trace: *traceFile != "", Server: srv, Sample: *sample}
		if *progress {
			oc.Observer = newProgressRenderer()
		}
		return oc
	}
	// writeTrace lands the recorded timeline in -trace, if asked for.
	writeTrace := func(tr *balancesort.Trace) {
		if *traceFile == "" {
			return
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("  trace:                 %d spans -> %s\n", len(tr.Spans()), *traceFile)
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "warning: span ring overflowed; %d oldest spans dropped from %s (raise ObsConfig.SpanCapacity)\n", d, *traceFile)
		}
	}
	emitJSON := func(v any) {
		if err := json.NewEncoder(os.Stdout).Encode(v); err != nil {
			log.Fatal(err)
		}
	}

	sortEngine, err := balancesort.ParseEngine(*engine)
	if err != nil {
		log.Fatal(err)
	}

	fileCfg := func() balancesort.Config {
		return balancesort.Config{
			Disks: *d, BlockSize: *b, Memory: *m, Processors: *p,
			VirtualDisks: *v, Seed: *seed,
			Engine:  sortEngine,
			NoRadix: *noCRadix,
			IO: balancesort.IOConfig{
				MaxRetries:    *retries,
				FaultRate:     *faultRate,
				TornWriteRate: *tornRate,
				LatencyJitter: *jitter,
				FaultSeed:     *seed,
			},
			Robust: balancesort.RobustConfig{
				NoChecksums: *noChecksum,
				Journal:     *journal || *resume,
				ScrubAfter:  *scrubAfter,
			},
		}
	}

	if *serveAddr != "" {
		if *dataDir == "" {
			log.Fatal("-serve requires -data-dir")
		}
		memB, err := parseBytes(*budgetMem)
		if err != nil {
			log.Fatalf("-budget-mem: %v", err)
		}
		diskB, err := parseBytes(*budgetDisk)
		if err != nil {
			log.Fatalf("-budget-disk: %v", err)
		}
		var tdisk int64
		if *tenantDisk != "" {
			if tdisk, err = parseBytes(*tenantDisk); err != nil {
				log.Fatalf("-tenant-disk: %v", err)
			}
		}
		weights, err := parseWeights(*tenantWts)
		if err != nil {
			log.Fatalf("-tenant-weights: %v", err)
		}
		var clusterAddrs []string
		if *clusterWs != "" {
			clusterAddrs = strings.Split(*clusterWs, ",")
		}
		srv, err := jobs.New(jobs.Options{
			DataDir:       *dataDir,
			Workers:       *serveWorkers,
			Budget:        jobs.Budget{MemoryBytes: memB, DiskBytes: diskB},
			Quota:         jobs.Quota{MaxJobsPerTenant: *tenantJobs, MaxDiskPerTenant: tdisk},
			TenantWeights: weights,
			Sort:          fileCfg(),
			Cluster:       clusterAddrs,
		})
		if err != nil {
			log.Fatal(err)
		}
		addr, err := srv.Start(*serveAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("job server on http://%s (data in %s, %d workers, mem %d disk %d)",
			addr, *dataDir, *serveWorkers, memB, diskB)

		// SIGTERM/SIGINT drains: stop admitting, let running jobs reach a
		// journal commit point, leave everything resumable, exit 0. A
		// -timeout deadline drains the same way, so a scripted run bounds
		// the server's lifetime exactly like a file sort's.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		var deadline <-chan time.Time
		if *timeout > 0 {
			t := time.NewTimer(*timeout)
			defer t.Stop()
			deadline = t.C
		}
		select {
		case <-sig:
		case <-deadline:
			log.Printf("-timeout %v reached", *timeout)
		}
		log.Printf("draining: no new admissions; running jobs stop at their next journal commit")
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			log.Fatalf("drain: %v", err)
		}
		log.Printf("drained; queued and interrupted jobs resume on next start")
		return
	}

	if *join != "" {
		ln, err := net.Listen("tcp", *join)
		if err != nil {
			log.Fatal(err)
		}
		if *addrFile != "" {
			// Write-then-rename so a watcher never reads a partial address.
			tmp := *addrFile + ".tmp"
			if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
				log.Fatal(err)
			}
			if err := os.Rename(tmp, *addrFile); err != nil {
				log.Fatal(err)
			}
		}
		log.Printf("cluster worker listening on %s", ln.Addr())
		opt := balancesort.WorkerOptions{
			ScratchDir:      *scratch,
			Sort:            fileCfg(),
			InMemory:        *inMem,
			DropAfterBlocks: *dropAfter,
			ObsAddr:         *obsAddr,
			Sample:          *sample,
		}
		if *obsAddr != "" {
			log.Printf("worker metrics on http://%s/metrics", *obsAddr)
		}
		if err := balancesort.ServeWorker(context.Background(), ln, opt); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *clusterWs != "" {
		if *inFile == "" || *outFile == "" {
			log.Fatal("-cluster requires -infile and -outfile")
		}
		workers := strings.Split(*clusterWs, ",")
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		srv, err := balancesort.StartObsServer(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		chaos, err := parseChaosKill(*chaosKill)
		if err != nil {
			log.Fatal(err)
		}
		stall, err := parseChaosStall(*chaosStall)
		if err != nil {
			log.Fatal(err)
		}
		var joinSpec *balancesort.ClusterJoin
		if *chaosJoin != "" {
			if len(workers) < 2 {
				log.Fatal("-chaos-join needs at least two -cluster addresses (the last one is the joiner)")
			}
			joinSpec = &balancesort.ClusterJoin{Phase: *chaosJoin, Addr: workers[len(workers)-1]}
			workers = workers[:len(workers)-1]
		}
		hb := balancesort.ClusterHeartbeat{}
		if *hbEvery > 0 {
			hb.Interval = *hbEvery
		} else if *hbEvery < 0 {
			hb.Disable = true
		}
		ccfg := balancesort.ClusterConfig{
			Workers: workers, Buckets: *cbuckets, BlockRecs: *xblock,
			Heartbeat: hb, Chaos: chaos, Join: joinSpec, Stall: stall,
			Straggler: balancesort.ClusterStraggler{
				Enabled:    *straggle || *hedge,
				Hedge:      *hedge,
				SoftBudget: *softBudget,
				HardBudget: *hardBudget,
			},
			JournalPath: *cjournal,
			Obs:         obsCfg(srv),
		}
		start := time.Now()
		var res *balancesort.ClusterResult
		if *cresume {
			if *cjournal == "" {
				log.Fatal("-cresume requires -cjournal (the journal the crashed run was writing)")
			}
			res, err = balancesort.ResumeClusterSortFile(ctx, *inFile, *outFile, ccfg)
		} else {
			res, err = balancesort.ClusterSortFile(ctx, *inFile, *outFile, ccfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			writeTrace(res.Trace)
			emitJSON(res)
			return
		}
		fmt.Printf("cluster sorted %s -> %s (%d workers, S=%d buckets, %v)\n",
			*inFile, *outFile, res.Workers, res.Buckets, elapsed.Round(time.Millisecond))
		fmt.Printf("  records:               %d\n", res.Records)
		fmt.Printf("  exchange blocks:       %d\n", res.ExchangeBlocks)
		for w := range res.RecvBlocks {
			fmt.Printf("  worker %-2d              recv %d blocks, sorted %d records\n",
				w, res.RecvBlocks[w], res.GatherRecords[w])
		}
		if rec := res.Recovery; rec != nil {
			if rec.Resumed {
				fmt.Printf("  resumed:               from journaled phase %q\n", rec.ResumePhase)
			}
			if rec.Joins > 0 {
				fmt.Printf("  joined:                workers %v admitted mid-job (%d join(s))\n",
					rec.JoinedWorkers, rec.Joins)
			}
			if len(rec.LostWorkers) > 0 || rec.Failovers > 0 {
				fmt.Printf("  failover:              lost workers %v (phases %v), %d failover(s)\n",
					rec.LostWorkers, rec.LostPhases, rec.Failovers)
			}
			fmt.Printf("    re-scattered:        %d chunks / %d records to %d active workers in %v\n",
				rec.RescatteredBlocks, rec.RescatteredRecords, len(rec.ActiveWorkers),
				time.Duration(rec.FailoverWallNanos).Round(time.Millisecond))
		}
		fmt.Println("  verification:          OK (checked while streaming out)")
		writeTrace(res.Trace)
		return
	}

	if *scrub != "" {
		rep, err := balancesort.Scrub(*scrub)
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Checksummed {
			fmt.Printf("%s: no checksums to verify (array created with -nochecksum?)\n", *scrub)
			os.Exit(1)
		}
		if len(rep.Corrupt) > 0 {
			fmt.Printf("%s: %d of %d blocks CORRUPT\n", *scrub, len(rep.Corrupt), rep.BlocksChecked)
			for _, c := range rep.Corrupt {
				fmt.Printf("  disk %d block %d: checksum %08x, data hashes to %08x\n", c.Disk, c.Block, c.Want, c.Got)
			}
			os.Exit(1)
		}
		fmt.Printf("%s: all %d blocks verified\n", *scrub, rep.BlocksChecked)
		return
	}

	if *verify != "" {
		recs, err := balancesort.ReadRecordFile(*verify)
		if err != nil {
			log.Fatal(err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Less(recs[i-1]) {
				fmt.Printf("%s: NOT sorted (inversion at record %d)\n", *verify, i)
				os.Exit(1)
			}
		}
		fmt.Printf("%s: sorted (%d records)\n", *verify, len(recs))
		return
	}

	w, err := parseWorkload(*workload)
	if err != nil {
		log.Fatal(err)
	}

	if *genFile != "" {
		recs := balancesort.NewWorkload(w, *n, *seed)
		if err := balancesort.WriteRecordFile(*genFile, recs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d %s records (%d bytes) to %s\n",
			*n, w, *n*balancesort.RecordSize, *genFile)
		return
	}

	if *inFile != "" {
		if *outFile == "" {
			log.Fatal("-infile requires -outfile")
		}
		cfg := fileCfg()
		ctx := context.Background()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		srv, err := balancesort.StartObsServer(*obsAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		cfg.Obs = obsCfg(srv)
		start := time.Now()
		var res *balancesort.Result
		if *resume {
			res, err = balancesort.ResumeSortFileContext(ctx, *inFile, *outFile, *scratch, cfg)
		} else {
			res, err = balancesort.SortFileContext(ctx, *inFile, *outFile, *scratch, cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		if *jsonOut {
			writeTrace(res.Trace)
			emitJSON(res)
			return
		}
		fmt.Printf("externally sorted %s -> %s (D=%d B=%d M=%d, engine=%s, %v)\n",
			*inFile, *outFile, cfg.Disks, cfg.BlockSize, cfg.Memory, res.Engine, elapsed.Round(time.Millisecond))
		if res.Plan != nil {
			pred := res.Plan.Predicted()
			fmt.Printf("  planner:               chose %s (predicted %.0f I/Os, %.3fs; candidates", res.Plan.Engine, pred.IOs, pred.Seconds)
			for _, c := range res.Plan.Candidates {
				if c.Feasible {
					fmt.Printf(" %s=%.0f", c.Engine, c.IOs)
				}
			}
			fmt.Println(")")
		}
		fmt.Printf("  parallel I/Os:         %d\n", res.IOs)
		fmt.Printf("  Theorem 1 lower bound: %.0f  (ratio %.2fx)\n",
			res.IOLowerBound, float64(res.IOs)/res.IOLowerBound)
		if res.MaxBucketReadRatio > 0 {
			fmt.Printf("  bucket read balance:   %.2fx of optimal\n", res.MaxBucketReadRatio)
		}
		fmt.Println("  verification:          OK (checked while streaming out)")
		if res.Scrub != nil {
			fmt.Printf("  scrub:                 %d blocks checked, %d corrupt\n",
				res.Scrub.BlocksChecked, len(res.Scrub.Corrupt))
		}
		if *stats {
			printIOStats(res.IO)
		}
		writeTrace(res.Trace)
		return
	}

	recs := balancesort.NewWorkload(w, *n, *seed)

	if *hierM != "" {
		runHierarchy(recs, *hierM, *hcount, *alpha, *ic, *seed)
		return
	}

	cfg := balancesort.Config{
		Disks: *d, BlockSize: *b, Memory: *m, Processors: *p,
		VirtualDisks: *v, Seed: *seed,
	}
	switch strings.ToLower(*placement) {
	case "balanced":
		cfg.Placement = balancesort.PlacementBalanced
	case "random":
		cfg.Placement = balancesort.PlacementRandom
	case "roundrobin":
		cfg.Placement = balancesort.PlacementRoundRobin
	default:
		log.Fatalf("unknown placement %q", *placement)
	}
	switch strings.ToLower(*match) {
	case "derandomized":
		cfg.Match = balancesort.MatchDerandomized
	case "randomized":
		cfg.Match = balancesort.MatchRandomized
	case "greedy":
		cfg.Match = balancesort.MatchGreedy
	default:
		log.Fatalf("unknown match strategy %q", *match)
	}

	var a balancesort.Algorithm
	switch strings.ToLower(*algo) {
	case "balancesort":
		a = balancesort.AlgoBalanceSort
	case "stripedmerge":
		a = balancesort.AlgoStripedMerge
	case "forecastmerge":
		a = balancesort.AlgoForecastMerge
	case "columnsort":
		a = balancesort.AlgoColumnSort
	case "greedsort":
		a = balancesort.AlgoGreedSort
	default:
		log.Fatalf("unknown algorithm %q", *algo)
	}

	srv, err := balancesort.StartObsServer(*obsAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	cfg.Obs = obsCfg(srv)

	res, err := balancesort.SortWith(a, recs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !balancesort.Verify(recs, res.Records) {
		log.Fatal("FAILED: output is not the sorted permutation of the input")
	}
	if *jsonOut {
		writeTrace(res.Trace)
		emitJSON(res)
		return
	}

	fmt.Printf("%s: sorted %d %s records (D=%d B=%d M=%d P=%d)\n",
		*algo, *n, w, cfg.Disks, cfg.BlockSize, cfg.Memory, cfg.Processors)
	fmt.Printf("  parallel I/Os:         %d\n", res.IOs)
	fmt.Printf("  Theorem 1 lower bound: %.0f  (ratio %.2fx)\n",
		res.IOLowerBound, float64(res.IOs)/res.IOLowerBound)
	fmt.Printf("  PRAM time / work:      %.4g / %.4g\n", res.PRAMTime, res.PRAMWork)
	if a == balancesort.AlgoBalanceSort {
		fmt.Printf("  bucket read balance:   %.2fx of optimal (Theorem 4 ≈ 2)\n", res.MaxBucketReadRatio)
		fmt.Printf("  max bucket size:       %.2fx of even share (guarantee ≈ 2)\n", res.MaxBucketFrac)
		fmt.Printf("  recursion depth:       %d (%d distribution passes)\n", res.Depth, res.Passes)
		fmt.Printf("  memory peak:           %d of %d records\n", res.MemPeak, cfg.Memory)
	}
	fmt.Println("  verification:          OK")
	writeTrace(res.Trace)
}

// progressRenderer is the -progress Observer: it narrates sort and cluster
// phase starts/ends to stderr with a run-relative timestamp. The "disk"
// layer's per-flush spans are deliberately skipped — at one line per device
// flush they would drown the phase narrative.
type progressRenderer struct {
	mu    sync.Mutex
	start time.Time
}

func newProgressRenderer() *progressRenderer {
	return &progressRenderer{start: time.Now()}
}

func (p *progressRenderer) stamp() time.Duration {
	return time.Since(p.start).Round(time.Millisecond)
}

func (p *progressRenderer) SpanStart(layer, name string, id int) {
	if layer == "disk" {
		return
	}
	p.mu.Lock()
	fmt.Fprintf(os.Stderr, "[%9s] > %s/%s #%d\n", p.stamp(), layer, name, id)
	p.mu.Unlock()
}

func (p *progressRenderer) SpanEnd(s balancesort.Span) {
	if s.Layer == "disk" {
		return
	}
	p.mu.Lock()
	fmt.Fprintf(os.Stderr, "[%9s] < %s/%s #%d (%s)\n",
		p.stamp(), s.Layer, s.Name, s.ID, s.Dur.Round(time.Microsecond))
	p.mu.Unlock()
}

func (p *progressRenderer) Count(layer, name string, id int, delta int64) {}

// printIOStats renders the I/O layer's per-disk metrics table for -stats.
// The op columns count device ops, each moving one or more consecutive
// blocks.
func printIOStats(s *balancesort.IOStats) {
	if s == nil {
		fmt.Println("  I/O layer:             no scratch array (no device metrics)")
		return
	}
	agg := s.Aggregate()
	fmt.Println("  I/O layer metrics:")
	fmt.Printf("    %-6s %8s %8s %10s %10s %8s\n",
		"disk", "rd-ops", "wr-ops", "rd-bytes", "wr-bytes", "retries")
	for i, d := range s.PerDisk {
		fmt.Printf("    %-6d %8d %8d %10d %10d %8d\n",
			i, d.Reads, d.Writes, d.BytesRead, d.BytesWritten, d.Retries)
	}
	fmt.Printf("    %-6s %8d %8d %10d %10d %8d\n",
		"total", agg.Reads, agg.Writes, agg.BytesRead, agg.BytesWritten, agg.Retries)
	if agg.Faults > 0 || agg.BreakerTrips > 0 {
		fmt.Printf("    faults injected: %d   breaker trips: %d\n", agg.Faults, agg.BreakerTrips)
	}
}

func runHierarchy(recs []balancesort.Record, model string, h int, alpha float64, ic string, seed uint64) {
	cfg := balancesort.HierConfig{Hierarchies: h, Alpha: alpha, Seed: seed}
	switch strings.ToLower(model) {
	case "hmm-log":
		cfg.Model = balancesort.HMMLog
	case "hmm-power":
		cfg.Model = balancesort.HMMPower
	case "bt-log":
		cfg.Model = balancesort.BTLog
	case "bt-power":
		cfg.Model = balancesort.BTPower
	case "umh":
		cfg.Model = balancesort.UMH
	default:
		log.Fatalf("unknown hierarchy model %q", model)
	}
	switch strings.ToLower(ic) {
	case "pram":
		cfg.Interconnect = balancesort.EREWPRAM
	case "hypercube":
		cfg.Interconnect = balancesort.Hypercube
	case "hypercube-bitonic":
		cfg.Interconnect = balancesort.HypercubeBitonic
	default:
		log.Fatalf("unknown interconnect %q", ic)
	}
	res, err := balancesort.SortHierarchy(recs, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !balancesort.Verify(recs, res.Records) {
		log.Fatal("FAILED: output is not the sorted permutation of the input")
	}
	fmt.Printf("%s on H=%d (%s): sorted %d records\n", model, h, ic, len(recs))
	fmt.Printf("  parallel time:   %.4g (access %.4g + interconnect %.4g)\n",
		res.Time, res.AccessTime, res.NetTime)
	fmt.Printf("  Θ-bound:         %.4g  (ratio %.2fx)\n", res.Bound, res.Time/res.Bound)
	fmt.Printf("  bucket balance:  %.2fx even share; log skew %.2fx\n", res.MaxBucketFrac, res.MaxLogSkew)
	fmt.Printf("  recursion depth: %d (%d distribution passes)\n", res.Depth, res.Passes)
	fmt.Println("  verification:    OK")
}

// parseChaosStall decodes -chaos-stall's phase:worker[:factor] syntax.
func parseChaosStall(s string) (*balancesort.ClusterStall, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("-chaos-stall %q: want phase:worker or phase:worker:factor", s)
	}
	w, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("-chaos-stall %q: bad worker id: %v", s, err)
	}
	spec := &balancesort.ClusterStall{Phase: parts[0], Worker: w}
	if len(parts) == 3 {
		f, err := strconv.Atoi(parts[2])
		if err != nil || f < 2 {
			return nil, fmt.Errorf("-chaos-stall %q: factor must be an integer >= 2", s)
		}
		spec.Factor = f
	}
	return spec, nil
}

// parseChaosKill decodes -chaos-kill's phase:worker[:hang] syntax, plus the
// coordinator@phase form that kills the coordinator itself (recover with
// -cresume against the same -cjournal).
func parseChaosKill(s string) (*balancesort.ChaosSpec, error) {
	if s == "" {
		return nil, nil
	}
	if phase, ok := strings.CutPrefix(s, "coordinator@"); ok {
		if phase == "" {
			return nil, fmt.Errorf("-chaos-kill %q: want coordinator@phase", s)
		}
		return &balancesort.ChaosSpec{Phase: phase, Coordinator: true}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return nil, fmt.Errorf("-chaos-kill %q: want phase:worker or phase:worker:hang", s)
	}
	w, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("-chaos-kill %q: bad worker id: %v", s, err)
	}
	spec := &balancesort.ChaosSpec{Phase: parts[0], Worker: w}
	if len(parts) == 3 {
		if parts[2] != "hang" {
			return nil, fmt.Errorf("-chaos-kill %q: third field must be \"hang\"", s)
		}
		spec.Hang = true
	}
	return spec, nil
}

// parseBytes decodes a byte count with an optional K/M/G suffix (powers
// of 1024).
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return n * mult, nil
}

// parseWeights decodes -tenant-weights' name=w,name=w syntax.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q: want name=weight", part)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad weight in %q: want a positive integer", part)
		}
		out[name] = n
	}
	return out, nil
}

func parseWorkload(s string) (balancesort.Workload, error) {
	switch strings.ToLower(s) {
	case "uniform":
		return balancesort.Uniform, nil
	case "fewdistinct":
		return balancesort.FewDistinct, nil
	case "nearlysorted":
		return balancesort.NearlySorted, nil
	case "reversed":
		return balancesort.Reversed, nil
	case "bucketskew":
		return balancesort.BucketSkew, nil
	case "zipf":
		return balancesort.Zipf, nil
	default:
		return 0, fmt.Errorf("unknown workload %q", s)
	}
}

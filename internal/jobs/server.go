package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"balancesort"
	"balancesort/internal/obs"
)

// Cancellation causes: runJob reads context.Cause to tell a client cancel
// (job → canceled) from a drain or kill (job left resumable on disk).
var (
	errCanceledByUser = errors.New("jobs: canceled by client")
	errDrained        = errors.New("jobs: server draining")
	errKilled         = errors.New("jobs: server killed")
)

// Options configures a job server.
type Options struct {
	// DataDir is the durable root: per-job directories (manifest, input,
	// scratch, output) live under DataDir/jobs, upload staging under
	// DataDir/tmp. Required.
	DataDir string
	// Workers bounds concurrently running sorts. Default 2.
	Workers int
	// Budget is the admission envelope. Zero fields default to 1 GiB of
	// memory and 16 GiB of disk.
	Budget Budget
	// Quota bounds each tenant. Zero fields are unlimited.
	Quota Quota
	// TenantWeights sets per-tenant fair-queueing weights (default 1).
	TenantWeights map[string]int
	// Sort is the base engine configuration jobs inherit; per-job
	// parameters (disks, block size, memory, buckets, sort engine)
	// override it. Sort.IO applies to every job.
	Sort balancesort.Config
	// Cluster lists worker addresses for cluster-backed jobs (SortParams.
	// Cluster). Empty refuses such jobs at submission. The workers must
	// outlive the server: a cluster job's coordinator journal lands in the
	// job's scratch directory, and a restarted server resumes the job
	// against the same workers' parked shards.
	Cluster []string
	// ClusterHeartbeat tunes the coordinator failure detector for
	// cluster-backed jobs; the zero value is the cluster default.
	ClusterHeartbeat balancesort.ClusterHeartbeat
	// Logf receives operational log lines. Default log.Printf.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.Budget.MemoryBytes == 0 {
		o.Budget.MemoryBytes = 1 << 30
	}
	if o.Budget.DiskBytes == 0 {
		o.Budget.DiskBytes = 16 << 30
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
}

// Disk-reservation model, in multiples of the input size: the scratch
// array holds the records plus per-pass distribution regions (estimated
// at scratchDiskFactor), and the sorted output is exactly input-sized.
// These are admission estimates, not enforced limits.
const (
	scratchDiskFactor = 3
	recordSize        = balancesort.RecordSize
)

// job is the in-memory state of one job; the durable subset is man.
type job struct {
	mu     sync.Mutex
	man    Manifest
	prog   *progress
	cancel context.CancelCauseFunc // set while running
	done   chan struct{}           // closed on reaching a terminal state
}

func (j *job) snapshotStatus() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.man.ID, Tenant: j.man.Tenant, State: j.man.State,
		Records: j.man.Records, InputBytes: j.man.InputBytes,
		Params:        j.man.Params,
		SubmittedUnix: j.man.SubmittedUnix, StartedUnix: j.man.StartedUnix, FinishedUnix: j.man.FinishedUnix,
		Error: j.man.Error, ErrorCode: j.man.ErrorCode,
		IOs: j.man.IOs, SortPasses: j.man.SortPasses, Resumes: j.man.Resumes,
	}
	if j.man.State == StateRunning && j.prog != nil {
		p := j.prog.snapshot()
		st.Progress = &p
	}
	return st
}

// JobStatus is the API's view of one job.
type JobStatus struct {
	ID            string            `json:"id"`
	Tenant        string            `json:"tenant"`
	State         string            `json:"state"`
	Records       int               `json:"records"`
	InputBytes    int64             `json:"input_bytes"`
	Params        SortParams        `json:"params"`
	SubmittedUnix int64             `json:"submitted_unix"`
	StartedUnix   int64             `json:"started_unix,omitempty"`
	FinishedUnix  int64             `json:"finished_unix,omitempty"`
	Progress      *ProgressSnapshot `json:"progress,omitempty"`
	Error         string            `json:"error,omitempty"`
	ErrorCode     string            `json:"error_code,omitempty"`
	IOs           int64             `json:"ios,omitempty"`
	SortPasses    int               `json:"sort_passes,omitempty"`
	Resumes       int               `json:"resumes,omitempty"`
}

// Server is the multi-tenant sort-as-a-service front end. Create with
// New (which also recovers any jobs a previous process left behind),
// serve its Handler (or call Start), and stop with Drain for a graceful
// shutdown or Kill for an abrupt one.
type Server struct {
	opt     Options
	jobsDir string
	tmpDir  string
	sched   *Scheduler
	obs     *obs.Server
	obsWrap *balancesort.ObsServer
	mux     *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	nextID   int64
	draining bool
	killed   bool
	counters struct {
		submitted, completed, failed, canceled, resumed int64
	}

	runCtx       context.Context
	stopDispatch context.CancelFunc
	wg           sync.WaitGroup

	httpMu sync.Mutex
	httpLn net.Listener
	http   *http.Server
}

// New creates a job server over opt.DataDir, recovers every job a
// previous process left there (terminal jobs keep serving their outputs;
// queued and in-flight jobs are re-queued, in their original admission
// order, and resume from their pass journals when one exists), and
// starts the worker pool. The HTTP side starts separately (Start or
// Handler).
func New(opt Options) (*Server, error) {
	opt.fill()
	if opt.DataDir == "" {
		return nil, errors.New("jobs: Options.DataDir is required")
	}
	s := &Server{
		opt:     opt,
		jobsDir: filepath.Join(opt.DataDir, "jobs"),
		tmpDir:  filepath.Join(opt.DataDir, "tmp"),
		sched:   NewScheduler(opt.Budget, opt.Quota),
		obs:     obs.NewServer(),
		jobs:    make(map[string]*job),
	}
	s.obsWrap = balancesort.WrapObsServer(s.obs)
	if err := os.MkdirAll(s.jobsDir, 0o755); err != nil {
		return nil, err
	}
	// Upload staging is transient: anything left is from a dead process.
	os.RemoveAll(s.tmpDir)
	if err := os.MkdirAll(s.tmpDir, 0o755); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	s.obs.AddSource(s.metrics)
	s.mux = http.NewServeMux()
	s.routes(s.mux)
	s.runCtx, s.stopDispatch = context.WithCancel(context.Background())
	for i := 0; i < opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover scans the data directory and rebuilds the registry and the
// scheduler's reservations from the checksummed manifests.
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.jobsDir)
	if err != nil {
		return err
	}
	var pending []*job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.jobsDir, e.Name())
		man, err := ReadManifest(dir)
		if err != nil {
			// A corrupt manifest is quarantined, not trusted and not
			// deleted: the operator decides.
			s.opt.Logf("jobs: skipping %s: %v", dir, err)
			continue
		}
		j := &job{man: *man, prog: &progress{}, done: make(chan struct{})}
		s.jobs[man.ID] = j
		if n, err := strconv.ParseInt(man.ID[1:], 10, 64); err == nil && n > s.nextID {
			s.nextID = n
		}
		switch man.State {
		case StateDone:
			close(j.done)
			s.sched.Restore(man.Tenant, man.RetainBytes)
		case StateFailed, StateCanceled:
			close(j.done)
		case StateQueued, StateRunning:
			pending = append(pending, j)
		default:
			s.opt.Logf("jobs: %s has unknown state %q; leaving it alone", man.ID, man.State)
			close(j.done)
		}
	}
	// Re-queue interrupted work in original admission order. A job found
	// "running" was in flight when the process died: its scratch journal
	// (when it reached a commit) carries the resume point, so it goes back
	// to queued and picks up from there on dispatch.
	sort.Slice(pending, func(i, k int) bool { return pending[i].man.Seq < pending[k].man.Seq })
	for _, j := range pending {
		if j.man.State == StateRunning {
			j.man.State = StateQueued
			j.man.Resumes++
			s.mu.Lock()
			s.counters.resumed++
			s.mu.Unlock()
			if err := WriteManifest(s.jobDir(j.man.ID), &j.man); err != nil {
				s.opt.Logf("jobs: %s: %v", j.man.ID, err)
			}
		}
		s.sched.Readmit(&Ticket{
			ID: j.man.ID, Tenant: j.man.Tenant,
			MemBytes: j.man.MemBytes, DiskBytes: j.man.DiskBytes,
			Weight: j.man.Weight,
		})
		s.opt.Logf("jobs: recovered %s (%s, tenant %s)", j.man.ID, j.man.State, j.man.Tenant)
	}
	return nil
}

func (s *Server) jobDir(id string) string { return filepath.Join(s.jobsDir, id) }

func (s *Server) lookup(id, tenant string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || j.man.Tenant != tenant {
		return nil
	}
	return j
}

func (s *Server) stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining || s.killed
}

// worker is one slot of the bounded pool: it pulls tickets in the
// scheduler's weighted-fair order until dispatch stops.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		t, err := s.sched.Next(s.runCtx)
		if err != nil {
			return
		}
		s.runJob(t)
	}
}

// runJob runs one dispatched job end to end: mark it running, sort (or
// resume) with the journal on, and land it in a terminal state — unless
// the server is draining or killed, in which case the job is left
// resumable on disk exactly as the journal last committed it.
func (s *Server) runJob(t *Ticket) {
	s.mu.Lock()
	if s.draining || s.killed {
		s.mu.Unlock()
		return
	}
	j := s.jobs[t.ID]
	if j == nil {
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel(nil)

	dir := s.jobDir(t.ID)
	scratch := filepath.Join(dir, "scratch")
	outPath := filepath.Join(dir, "output.bin")

	j.mu.Lock()
	j.man.State = StateRunning
	j.man.StartedUnix = time.Now().Unix()
	inPath := j.man.LocalInput
	if inPath == "" {
		inPath = filepath.Join(dir, "input.bin")
	}
	man := j.man
	j.mu.Unlock()
	if err := WriteManifest(dir, &man); err != nil {
		s.opt.Logf("jobs: %s: %v", t.ID, err)
	}

	oc := balancesort.ObsConfig{
		Observer:     j.prog,
		SpanCapacity: 512,
		Server:       s.obsWrap,
		ServerKey:    "job-" + t.ID,
	}

	var ios int64
	var passes int
	var err error
	if man.Params.Cluster {
		err = s.runClusterJob(ctx, inPath, outPath, scratch, &man, oc)
	} else {
		cfg := s.sortConfig(man.Params)
		cfg.Robust.Journal = true
		cfg.Obs = oc

		var res *balancesort.Result
		if commits, jerr := balancesort.JournalCommits(scratch); jerr == nil && commits > 0 {
			// An earlier run of this job committed state; continue it.
			res, err = balancesort.ResumeSortFileContext(ctx, inPath, outPath, scratch, cfg)
		} else {
			// Fresh start (also the crashed-before-first-commit path: the
			// input file is still the source of truth, so wipe and redo).
			if rmErr := os.RemoveAll(scratch); rmErr != nil {
				err = rmErr
			} else if mkErr := os.MkdirAll(scratch, 0o755); mkErr != nil {
				err = mkErr
			} else {
				res, err = balancesort.SortFileContext(ctx, inPath, outPath, scratch, cfg)
			}
		}
		if res != nil {
			ios, passes = res.IOs, res.Passes
		}
	}

	if err == nil {
		// Success: the output is the only artifact worth keeping; the
		// scratch array and an uploaded input copy go back to the pool.
		os.RemoveAll(scratch)
		if man.LocalInput == "" {
			os.Remove(filepath.Join(dir, "input.bin"))
		}
		// Return the reservation and count the job before its status reads
		// done, so a client that saw it finish finds the freed disk and the
		// job in /metrics.
		s.sched.EndJob(t, true, man.DiskBytes-man.RetainBytes)
		s.mu.Lock()
		s.counters.completed++
		s.mu.Unlock()
		j.mu.Lock()
		j.man.State = StateDone
		j.man.FinishedUnix = time.Now().Unix()
		j.man.IOs = ios
		j.man.SortPasses = passes
		man = j.man
		j.mu.Unlock()
		if werr := WriteManifest(dir, &man); werr != nil {
			s.opt.Logf("jobs: %s: %v", t.ID, werr)
		}
		close(j.done)
		return
	}

	switch cause := context.Cause(ctx); {
	case errors.Is(cause, errDrained), errors.Is(cause, errKilled):
		// The server is going down. Touch nothing: the manifest says
		// running, the journal holds the last committed pass, and the next
		// process re-queues and resumes the job. This is the crash-
		// consistency contract, exercised deliberately by Kill.
		return
	case errors.Is(cause, errCanceledByUser):
		s.removeJobFiles(dir, man.LocalInput == "")
		s.sched.EndJob(t, true, man.DiskBytes)
		s.mu.Lock()
		s.counters.canceled++
		s.mu.Unlock()
		j.mu.Lock()
		j.man.State = StateCanceled
		j.man.FinishedUnix = time.Now().Unix()
		man = j.man
		j.mu.Unlock()
		if werr := WriteManifest(dir, &man); werr != nil {
			s.opt.Logf("jobs: %s: %v", t.ID, werr)
		}
		close(j.done)
		return
	default:
		status, code := Classify(err)
		s.removeJobFiles(dir, man.LocalInput == "")
		s.sched.EndJob(t, true, man.DiskBytes)
		s.mu.Lock()
		s.counters.failed++
		s.mu.Unlock()
		j.mu.Lock()
		j.man.State = StateFailed
		j.man.FinishedUnix = time.Now().Unix()
		j.man.Error = err.Error()
		j.man.ErrorCode = code
		man = j.man
		j.mu.Unlock()
		if werr := WriteManifest(dir, &man); werr != nil {
			s.opt.Logf("jobs: %s: %v", t.ID, werr)
		}
		s.opt.Logf("jobs: %s failed (%d %s): %v", t.ID, status, code, err)
		close(j.done)
		return
	}
}

// runClusterJob runs (or resumes) one cluster-backed job. The coordinator's
// phase-commit journal lives in the job's scratch directory, so the same
// crash-consistency contract as the local engine holds: if this server dies
// mid-job, the restarted server finds the journal and resumes the sort
// against the workers' parked shards instead of starting over.
func (s *Server) runClusterJob(ctx context.Context, inPath, outPath, scratch string, man *Manifest, oc balancesort.ObsConfig) error {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	journal := filepath.Join(scratch, "cluster.journal")
	ccfg := balancesort.ClusterConfig{
		Workers:     s.opt.Cluster,
		Buckets:     man.Params.Buckets,
		Heartbeat:   s.opt.ClusterHeartbeat,
		JournalPath: journal,
	}
	ccfg.Obs = oc
	if _, err := os.Stat(journal); err == nil {
		_, rerr := balancesort.ResumeClusterSortFile(ctx, inPath, outPath, ccfg)
		if rerr == nil {
			s.opt.Logf("jobs: %s resumed its cluster sort from %s", man.ID, journal)
			return nil
		}
		if !errors.Is(rerr, balancesort.ErrNoJournaledStart) {
			return rerr
		}
		// The coordinator died before journaling a start; the input is
		// still the source of truth, so wipe the stub and run fresh.
		if err := os.Remove(journal); err != nil {
			return err
		}
	}
	_, err := balancesort.ClusterSortFile(ctx, inPath, outPath, ccfg)
	return err
}

// removeJobFiles deletes a job's data files (not its manifest).
func (s *Server) removeJobFiles(dir string, uploaded bool) {
	os.RemoveAll(filepath.Join(dir, "scratch"))
	os.Remove(filepath.Join(dir, "output.bin"))
	if uploaded {
		os.Remove(filepath.Join(dir, "input.bin"))
	}
}

// Drain is the graceful shutdown: stop admitting, stop dispatching, let
// every running job stop at its journal's last commit point (the sort
// polls cancellation between passes, and every completed pass is a
// durable commit), and shut the HTTP side down. Queued and interrupted
// jobs stay on disk and complete after the next New on the same data
// directory. Returns nil once everything has stopped, or ctx's error if
// it expires first.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining || s.killed
	s.draining = true
	cancels := s.collectCancels()
	s.mu.Unlock()
	if already {
		return nil
	}
	s.sched.Close()
	s.stopDispatch()
	for _, c := range cancels {
		c(errDrained)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.httpMu.Lock()
	srv := s.http
	s.httpMu.Unlock()
	if srv != nil {
		return srv.Shutdown(ctx)
	}
	return nil
}

// Kill is the abrupt shutdown — the in-process stand-in for SIGKILL that
// the crash-recovery tests aim mid-job. Running sorts are canceled with
// no manifest updates and no scheduler bookkeeping: whatever the journal
// last committed is what the next process finds. Kill waits for the
// worker goroutines to unwind (so a test can immediately start a new
// server on the same data directory) but performs no graceful handover.
func (s *Server) Kill() {
	s.mu.Lock()
	already := s.killed
	s.killed = true
	cancels := s.collectCancels()
	s.mu.Unlock()
	if already {
		return
	}
	s.sched.Close()
	s.stopDispatch()
	for _, c := range cancels {
		c(errKilled)
	}
	s.wg.Wait()
	s.httpMu.Lock()
	srv := s.http
	s.http = nil
	s.httpMu.Unlock()
	if srv != nil {
		srv.Close()
	}
}

// collectCancels snapshots the cancel funcs of running jobs; caller holds
// s.mu.
func (s *Server) collectCancels() []context.CancelCauseFunc {
	var out []context.CancelCauseFunc
	for _, j := range s.jobs {
		if j.cancel != nil {
			out = append(out, j.cancel)
		}
	}
	return out
}

// Close shuts the server down abruptly (Kill); use Drain for graceful.
func (s *Server) Close() { s.Kill() }

// Handler returns the API handler: the /v1/jobs resource plus /metrics,
// /debug/pprof/*, and /healthz.
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves the API on it, returning the bound
// address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.httpMu.Lock()
	s.httpLn = ln
	s.http = srv
	s.httpMu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Addr returns the bound API address, or "" before Start.
func (s *Server) Addr() string {
	s.httpMu.Lock()
	defer s.httpMu.Unlock()
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// Stats snapshots the scheduler for operators and tests.
func (s *Server) Stats() SchedStats { return s.sched.Stats() }

// metrics is the obs.Source behind /metrics: job counts by state, the
// lifetime counters, and the budget gauges.
func (s *Server) metrics() []obs.Metric {
	s.mu.Lock()
	states := map[string]int{}
	for _, j := range s.jobs {
		j.mu.Lock()
		states[j.man.State]++
		j.mu.Unlock()
	}
	c := s.counters
	s.mu.Unlock()
	st := s.sched.Stats()
	ms := []obs.Metric{
		{Name: "balancesort_jobs_submitted_total", Type: "counter", Help: "Jobs accepted by admission control.", Value: float64(c.submitted)},
		{Name: "balancesort_jobs_completed_total", Type: "counter", Help: "Jobs that reached done.", Value: float64(c.completed)},
		{Name: "balancesort_jobs_failed_total", Type: "counter", Help: "Jobs that reached failed.", Value: float64(c.failed)},
		{Name: "balancesort_jobs_canceled_total", Type: "counter", Help: "Jobs canceled by clients.", Value: float64(c.canceled)},
		{Name: "balancesort_jobs_resumed_total", Type: "counter", Help: "Crash-restart resumptions of interrupted jobs.", Value: float64(c.resumed)},
		{Name: "balancesort_jobs_budget_free_bytes", Type: "gauge", Help: "Unreserved budget bytes by resource.",
			Labels: []obs.Label{{Name: "resource", Value: "memory"}}, Value: float64(st.FreeMem)},
		{Name: "balancesort_jobs_budget_free_bytes", Type: "gauge",
			Labels: []obs.Label{{Name: "resource", Value: "disk"}}, Value: float64(st.FreeDisk)},
	}
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		ms = append(ms, obs.Metric{
			Name: "balancesort_jobs", Type: "gauge", Help: "Jobs by state.",
			Labels: []obs.Label{{Name: "state", Value: state}}, Value: float64(states[state]),
		})
	}
	return ms
}

// ---- HTTP layer ----

var tenantRe = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/jobs/{id}/output", s.handleOutput)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	s.obs.Mount(mux)
}

func tenantOf(r *http.Request) (string, error) {
	t := r.Header.Get("X-Tenant")
	if t == "" {
		return "default", nil
	}
	if !tenantRe.MatchString(t) {
		return "", fmt.Errorf("bad tenant name %q: %w", t, ErrBadRequest)
	}
	return t, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status, code := Classify(err)
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

// submitRequest is the JSON submission body (server-local input path).
// Uploaded submissions carry the same parameters as query strings and the
// records as the request body.
type submitRequest struct {
	InputPath  string `json:"input_path"`
	Disks      int    `json:"disks"`
	BlockSize  int    `json:"block_size"`
	Memory     int    `json:"memory"`
	Buckets    int    `json:"buckets"`
	SortEngine string `json:"sort_engine"`
	Cluster    bool   `json:"cluster"`
}

// params fills unset fields from the server's base Sort config and
// validates the geometry the way SortFile will.
func (s *Server) params(req submitRequest) (SortParams, error) {
	base := s.opt.Sort
	p := SortParams{Disks: req.Disks, BlockSize: req.BlockSize, Memory: req.Memory, Buckets: req.Buckets, SortEngine: string(base.Engine), Cluster: req.Cluster}
	if req.SortEngine != "" {
		eng, err := balancesort.ParseEngine(req.SortEngine)
		if err != nil {
			return p, fmt.Errorf("%v: %w", err, ErrBadRequest)
		}
		p.SortEngine = string(eng)
	}
	if p.Cluster && len(s.opt.Cluster) == 0 {
		return p, fmt.Errorf("cluster job submitted but the server has no cluster workers configured: %w", ErrBadRequest)
	}
	if p.Disks == 0 {
		p.Disks = base.Disks
	}
	if p.BlockSize == 0 {
		p.BlockSize = base.BlockSize
	}
	if p.Memory == 0 {
		p.Memory = base.Memory
	}
	if p.Disks == 0 {
		p.Disks = 8
	}
	if p.BlockSize == 0 {
		p.BlockSize = 64
	}
	if p.Memory == 0 {
		p.Memory = 8 * p.Disks * p.BlockSize
		if p.Memory < 4096 {
			p.Memory = 4096
		}
	}
	if p.Disks < 1 || p.BlockSize < 1 || p.Memory < 1 || p.Buckets < 0 {
		return p, fmt.Errorf("bad geometry D=%d B=%d M=%d S=%d: %w", p.Disks, p.BlockSize, p.Memory, p.Buckets, ErrBadRequest)
	}
	if 4*p.Disks*p.BlockSize > p.Memory {
		return p, fmt.Errorf("DB = %d needs M >= %d (got %d): %w", p.Disks*p.BlockSize, 4*p.Disks*p.BlockSize, p.Memory, ErrBadRequest)
	}
	if p.Cluster {
		return p, nil // buckets is the cluster's key-range count, not a pass's S
	}
	// A local job's buckets is the sort's fixed S.
	if err := s.sortConfig(p).Validate(); err != nil {
		return p, fmt.Errorf("%v: %w", err, ErrBadRequest)
	}
	return p, nil
}

// sortConfig is the server's base Sort config with a local job's
// parameters applied.
func (s *Server) sortConfig(p SortParams) balancesort.Config {
	cfg := s.opt.Sort
	cfg.Disks = p.Disks
	cfg.BlockSize = p.BlockSize
	cfg.Memory = p.Memory
	cfg.Buckets = p.Buckets
	cfg.Engine = balancesort.Engine(p.SortEngine)
	return cfg
}

func queryInt(r *http.Request, key string) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q: %w", key, v, ErrBadRequest)
	}
	return n, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if s.stopping() {
		writeError(w, ErrDraining)
		return
	}

	var req submitRequest
	uploaded := true
	if ct := r.Header.Get("Content-Type"); ct == "application/json" {
		uploaded = false
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("bad JSON body: %v: %w", err, ErrBadRequest))
			return
		}
		if req.InputPath == "" || !filepath.IsAbs(req.InputPath) {
			writeError(w, fmt.Errorf("input_path must be an absolute server-local path: %w", ErrBadRequest))
			return
		}
	} else {
		for key, dst := range map[string]*int{
			"disks": &req.Disks, "block": &req.BlockSize, "memory": &req.Memory, "buckets": &req.Buckets,
		} {
			n, err := queryInt(r, key)
			if err != nil {
				writeError(w, err)
				return
			}
			*dst = n
		}
		req.SortEngine = r.URL.Query().Get("engine")
		if v := r.URL.Query().Get("cluster"); v != "" {
			b, err := strconv.ParseBool(v)
			if err != nil {
				writeError(w, fmt.Errorf("bad cluster=%q: %w", v, ErrBadRequest))
				return
			}
			req.Cluster = b
		}
	}

	params, err := s.params(req)
	if err != nil {
		writeError(w, err)
		return
	}

	var inputBytes int64
	var staged string
	if uploaded {
		staged, inputBytes, err = s.spool(r.Body)
		if err != nil {
			writeError(w, err)
			return
		}
		defer func() {
			if staged != "" {
				os.Remove(staged)
			}
		}()
	} else {
		fi, err := os.Stat(req.InputPath)
		if err != nil {
			writeError(w, fmt.Errorf("input_path: %v: %w", err, ErrBadRequest))
			return
		}
		inputBytes = fi.Size()
	}
	if inputBytes == 0 || inputBytes%recordSize != 0 {
		writeError(w, fmt.Errorf("input is %d bytes, not a positive multiple of the %d-byte record size: %w",
			inputBytes, recordSize, ErrBadRequest))
		return
	}

	diskFactor := int64(scratchDiskFactor + 1) // scratch + output
	if uploaded {
		diskFactor++ // plus the stored input copy
	}
	weight := 1
	if wt, ok := s.opt.TenantWeights[tenant]; ok && wt > 0 {
		weight = wt
	}
	man := Manifest{
		Tenant: tenant, State: StateQueued, Weight: weight,
		InputBytes: inputBytes, Records: int(inputBytes / recordSize),
		MemBytes:      int64(params.Memory) * recordSize,
		DiskBytes:     inputBytes * diskFactor,
		RetainBytes:   inputBytes, // the sorted output is exactly input-sized
		Params:        params,
		SubmittedUnix: time.Now().Unix(),
	}
	if !uploaded {
		man.LocalInput = req.InputPath
	}

	// Register before admitting so a worker that dispatches the ticket
	// immediately finds the job; unwind everything if admission refuses.
	s.mu.Lock()
	if s.draining || s.killed {
		s.mu.Unlock()
		writeError(w, ErrDraining)
		return
	}
	s.nextID++
	man.ID = fmt.Sprintf("j%06d", s.nextID)
	man.Seq = s.nextID
	j := &job{man: man, prog: &progress{}, done: make(chan struct{})}
	s.jobs[man.ID] = j
	s.mu.Unlock()

	dir := s.jobDir(man.ID)
	cleanup := func() {
		s.mu.Lock()
		delete(s.jobs, man.ID)
		s.mu.Unlock()
		os.RemoveAll(dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		cleanup()
		writeError(w, err)
		return
	}
	if uploaded {
		if err := os.Rename(staged, filepath.Join(dir, "input.bin")); err != nil {
			cleanup()
			writeError(w, err)
			return
		}
		staged = ""
	}
	if err := WriteManifest(dir, &man); err != nil {
		cleanup()
		writeError(w, err)
		return
	}
	ticket := &Ticket{ID: man.ID, Tenant: tenant, MemBytes: man.MemBytes, DiskBytes: man.DiskBytes, Weight: weight}
	if err := s.sched.Admit(ticket); err != nil {
		cleanup()
		writeError(w, err)
		return
	}
	s.mu.Lock()
	s.counters.submitted++
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, j.snapshotStatus())
}

// spool streams an upload into the staging directory, bounded by the
// currently unreserved disk budget so a runaway upload cannot blow
// through the envelope before admission sees it.
func (s *Server) spool(body io.Reader) (path string, n int64, err error) {
	limit := s.sched.Stats().FreeDisk
	f, err := os.CreateTemp(s.tmpDir, "upload-*")
	if err != nil {
		return "", 0, err
	}
	n, err = io.Copy(f, io.LimitReader(body, limit+1))
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", 0, err
	}
	if n > limit {
		os.Remove(f.Name())
		return "", 0, &BudgetError{Resource: "disk", Need: n, Avail: limit, Budget: s.sched.Stats().BudgetDisk}
	}
	return f.Name(), n, nil
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	s.mu.Lock()
	list := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.man.Tenant == tenant {
			list = append(list, j)
		}
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, k int) bool { return list[i].man.Seq < list[k].man.Seq })
	out := struct {
		Jobs []JobStatus `json:"jobs"`
	}{Jobs: make([]JobStatus, 0, len(list))}
	for _, j := range list {
		out.Jobs = append(out.Jobs, j.snapshotStatus())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	j := s.lookup(r.PathValue("id"), tenant)
	if j == nil {
		writeError(w, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, j.snapshotStatus())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	id := r.PathValue("id")
	j := s.lookup(id, tenant)
	if j == nil {
		writeError(w, ErrNotFound)
		return
	}

	// Queued: pull it out of the scheduler before a worker can take it.
	if t := s.sched.CancelQueued(id); t != nil {
		// Return the reservation before the job reads canceled, so a client
		// that sees the terminal state never reads a stale free-disk figure.
		j.mu.Lock()
		diskBytes := j.man.DiskBytes
		j.mu.Unlock()
		s.sched.EndJob(t, false, diskBytes)
		j.mu.Lock()
		uploaded := j.man.LocalInput == ""
		j.man.State = StateCanceled
		j.man.FinishedUnix = time.Now().Unix()
		man := j.man
		j.mu.Unlock()
		s.removeJobFiles(s.jobDir(id), uploaded)
		if err := WriteManifest(s.jobDir(id), &man); err != nil {
			s.opt.Logf("jobs: %s: %v", id, err)
		}
		s.mu.Lock()
		s.counters.canceled++
		s.mu.Unlock()
		close(j.done)
		writeJSON(w, http.StatusOK, j.snapshotStatus())
		return
	}

	j.mu.Lock()
	state := j.man.State
	retain := j.man.RetainBytes
	cancel := j.cancel
	j.mu.Unlock()
	switch state {
	case StateRunning:
		// Cancellation is asynchronous: the sort notices between passes
		// and the job lands in canceled. 202 + poll.
		if cancel != nil {
			cancel(errCanceledByUser)
		}
		writeJSON(w, http.StatusAccepted, j.snapshotStatus())
	case StateDone, StateFailed, StateCanceled:
		// Terminal: purge the job entirely and free what it retained.
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		os.RemoveAll(s.jobDir(id))
		if state == StateDone {
			s.sched.FreeDisk(tenant, retain)
		}
		s.obs.SetTracer("job-"+id, nil)
		w.WriteHeader(http.StatusNoContent)
	default:
		// Queued but the scheduler no longer has it: a worker grabbed it
		// between our lookup and CancelQueued. Treat as running.
		writeJSON(w, http.StatusAccepted, j.snapshotStatus())
	}
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	tenant, err := tenantOf(r)
	if err != nil {
		writeError(w, err)
		return
	}
	id := r.PathValue("id")
	j := s.lookup(id, tenant)
	if j == nil {
		writeError(w, ErrNotFound)
		return
	}
	j.mu.Lock()
	state := j.man.State
	j.mu.Unlock()
	if state != StateDone {
		writeError(w, fmt.Errorf("job %s is %s: %w", id, state, ErrNotDone))
		return
	}
	f, err := os.Open(filepath.Join(s.jobDir(id), "output.bin"))
	if err != nil {
		writeError(w, err)
		return
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	_, _ = io.Copy(w, f)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "ok"
	if s.stopping() {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"state": state, "scheduler": s.sched.Stats()})
}

package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"balancesort"
	"balancesort/internal/pdm"
)

// matrixParams is the crash-test geometry shared with the root package's
// journal tests: N=6000 Zipf records through a 3-level recursion, ~21
// journal commit boundaries to interrupt at.
const matrixQuery = "?disks=4&block=8&memory=1024&buckets=4"

func matrixInput(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	in := balancesort.NewWorkload(balancesort.Zipf, 6000, 21)
	path := filepath.Join(dir, "in.bin")
	if err := balancesort.WriteRecordFile(path, in); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// matrixReference sorts the same input directly with SortFile — the
// byte-identical baseline every server path must reproduce.
func matrixReference(t *testing.T, input []byte) []byte {
	t.Helper()
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")
	if err := os.WriteFile(inPath, input, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := balancesort.Config{Disks: 4, BlockSize: 8, Memory: 1024, Buckets: 4}
	cfg.Robust.Journal = true
	if _, err := balancesort.SortFile(inPath, outPath, filepath.Join(dir, "scratch"), cfg); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	if opt.DataDir == "" {
		opt.DataDir = t.TempDir()
	}
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Kill)
	return srv, ts
}

func submitUpload(t *testing.T, base, tenant, query string, body []byte) JobStatus {
	t.Helper()
	st, code := trySubmitUpload(t, base, tenant, query, body)
	if code != http.StatusCreated {
		t.Fatalf("submit: status %d", code)
	}
	return st
}

func trySubmitUpload(t *testing.T, base, tenant, query string, body []byte) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest("POST", base+"/v1/jobs"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getStatus(t *testing.T, base, tenant, id string) (JobStatus, int) {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id, nil)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func waitState(t *testing.T, base, tenant, id, want string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		st, code := getStatus(t, base, tenant, id)
		if code == http.StatusOK && st.State == want {
			return st
		}
		if code == http.StatusOK && (st.State == StateFailed || st.State == StateCanceled) && want == StateDone {
			t.Fatalf("job %s landed in %s (%s: %s)", id, st.State, st.ErrorCode, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %s within %v", id, want, timeout)
	return JobStatus{}
}

func download(t *testing.T, base, tenant, id string) []byte {
	t.Helper()
	req, _ := http.NewRequest("GET", base+"/v1/jobs/"+id+"/output", nil)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download: status %d", resp.StatusCode)
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerLifecycle walks one uploaded job through submit → done →
// download → delete, checking the output is byte-identical to a direct
// SortFile and the API bookkeeping along the way.
func TestServerLifecycle(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	srv, ts := newTestServer(t, Options{Workers: 2})

	st := submitUpload(t, ts.URL, "alice", matrixQuery, input)
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %q", st.State)
	}
	if st.Records != len(input)/recordSize {
		t.Fatalf("records %d, want %d", st.Records, len(input)/recordSize)
	}

	fin := waitState(t, ts.URL, "alice", st.ID, StateDone, 30*time.Second)
	if fin.SortPasses == 0 || fin.IOs == 0 {
		t.Fatalf("done job reports no work: %+v", fin)
	}
	got := download(t, ts.URL, "alice", st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("served output differs from direct SortFile")
	}

	// The job's scratch and uploaded input are gone; the output remains.
	dir := srv.jobDir(st.ID)
	if _, err := os.Stat(filepath.Join(dir, "scratch")); !os.IsNotExist(err) {
		t.Fatal("done job kept its scratch directory")
	}
	if _, err := os.Stat(filepath.Join(dir, "input.bin")); !os.IsNotExist(err) {
		t.Fatal("done job kept its uploaded input")
	}

	// Tenant isolation: bob sees neither the status nor the listing.
	if _, code := getStatus(t, ts.URL, "bob", st.ID); code != http.StatusNotFound {
		t.Fatalf("cross-tenant status: %d, want 404", code)
	}

	// Delete purges the directory and the registry.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d, want 204", resp.StatusCode)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("delete left the job directory")
	}
	if _, code := getStatus(t, ts.URL, "alice", st.ID); code != http.StatusNotFound {
		t.Fatalf("status after delete: %d, want 404", code)
	}
	if st := srv.Stats(); st.FreeDisk != srv.opt.Budget.DiskBytes {
		t.Fatalf("disk not fully released: free %d of %d", st.FreeDisk, srv.opt.Budget.DiskBytes)
	}
}

// TestServerLocalPathSubmit submits by server-local path and checks the
// input file is left untouched.
func TestServerLocalPathSubmit(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	inPath := filepath.Join(t.TempDir(), "local.bin")
	if err := os.WriteFile(inPath, input, 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1})

	body, _ := json.Marshal(map[string]any{
		"input_path": inPath, "disks": 4, "block_size": 8, "memory": 1024, "buckets": 4,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	waitState(t, ts.URL, "", st.ID, StateDone, 30*time.Second)
	if got := download(t, ts.URL, "", st.ID); !bytes.Equal(got, want) {
		t.Fatal("output differs from direct SortFile")
	}
	if raw, err := os.ReadFile(inPath); err != nil || !bytes.Equal(raw, input) {
		t.Fatal("server touched the local input file")
	}
}

// TestServerQuarterMemoryGeometry runs a local job with the default
// bucket count at DB = M/4 on 16 disks, where a distribution pass's
// balancer matrices and track take as much memory as its block pools. The
// sort must finish with the reference output, not panic in the job
// goroutine and take the server down.
func TestServerQuarterMemoryGeometry(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submitUpload(t, ts.URL, "", "?disks=16&block=8&memory=512", input)
	waitState(t, ts.URL, "", st.ID, StateDone, 30*time.Second)
	if got := download(t, ts.URL, "", st.ID); !bytes.Equal(got, want) {
		t.Fatal("output differs from direct SortFile")
	}
}

// recordFile returns the wire bytes of n generated records.
func recordFile(t *testing.T, w balancesort.Workload, n int, seed uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "in.bin")
	if err := balancesort.WriteRecordFile(path, balancesort.NewWorkload(w, n, seed)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServerSmallMemoryJob serves the small-memory geometry whose
// distribution used to stall: the sorter panicked inside the job
// goroutine and took the whole server down. The job now completes with
// the bytes of a direct SortFile.
func TestServerSmallMemoryJob(t *testing.T) {
	input := recordFile(t, balancesort.Uniform, 6000, 1)
	dir := t.TempDir()
	inPath, outPath := filepath.Join(dir, "in.bin"), filepath.Join(dir, "out.bin")
	if err := os.WriteFile(inPath, input, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := balancesort.SortFile(inPath, outPath, "", balancesort.Config{Disks: 4, BlockSize: 2, Memory: 128}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submitUpload(t, ts.URL, "", "?disks=4&block=2&memory=128", input)
	waitState(t, ts.URL, "", st.ID, StateDone, 60*time.Second)
	if got := download(t, ts.URL, "", st.ID); !bytes.Equal(got, want) {
		t.Fatal("output differs from direct SortFile")
	}
}

// TestServerStalledJobFails checks a job whose distribution still stops
// making progress (D=1 B=1 M=8 on few-distinct input) fails with
// internal_error, and the server goes on to complete the next job.
func TestServerStalledJobFails(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submitUpload(t, ts.URL, "", "?disks=1&block=1&memory=8", recordFile(t, balancesort.FewDistinct, 3000, 1))
	failed := waitState(t, ts.URL, "", st.ID, StateFailed, 60*time.Second)
	if failed.ErrorCode != CodeInternal {
		t.Fatalf("stalled job failed with %q (%s), want %q", failed.ErrorCode, failed.Error, CodeInternal)
	}
	input := matrixInput(t)
	next := submitUpload(t, ts.URL, "", matrixQuery, input)
	waitState(t, ts.URL, "", next.ID, StateDone, 30*time.Second)
	if got := download(t, ts.URL, "", next.ID); !bytes.Equal(got, matrixReference(t, input)) {
		t.Fatal("output differs from direct SortFile")
	}
}

// TestServerRejections drives the admission errors through HTTP: bad
// input size, geometry or bucket count (400), memory over budget (507),
// tenant over quota (429), output before done (409), unknown job (404).
func TestServerRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Budget:  Budget{MemoryBytes: 1 << 20, DiskBytes: 1 << 30},
		Quota:   Quota{MaxJobsPerTenant: 1},
		// A slow engine keeps the first job running while the quota case
		// submits a second one.
		Sort: balancesort.Config{IO: balancesort.IOConfig{LatencyJitter: time.Millisecond}},
	})
	input := matrixInput(t)

	// 400: not a whole number of records.
	if _, code := trySubmitUpload(t, ts.URL, "", matrixQuery, input[:recordSize+3]); code != http.StatusBadRequest {
		t.Fatalf("ragged input: %d, want 400", code)
	}
	// 400: bad geometry (M < 4DB).
	if _, code := trySubmitUpload(t, ts.URL, "", "?disks=4&block=8&memory=100", input); code != http.StatusBadRequest {
		t.Fatalf("bad geometry: %d, want 400", code)
	}
	// 400: a local job's buckets is the pass's S, and 100000 buckets cannot
	// fit M = 1024 (the job goroutine used to panic in the sorter and take
	// the server down).
	if _, code := trySubmitUpload(t, ts.URL, "", "?disks=4&block=8&memory=1024&buckets=100000", input); code != http.StatusBadRequest {
		t.Fatalf("oversized bucket count: %d, want 400", code)
	}
	// 400: bad tenant name.
	if _, code := trySubmitUpload(t, ts.URL, "no spaces", matrixQuery, input); code != http.StatusBadRequest {
		t.Fatalf("bad tenant: %d, want 400", code)
	}
	// 507: M=1<<20 records × 16 bytes blows the 1 MiB memory budget.
	if _, code := trySubmitUpload(t, ts.URL, "", fmt.Sprintf("?disks=4&block=8&memory=%d", 1<<20), input); code != http.StatusInsufficientStorage {
		t.Fatalf("over budget: %d, want 507", code)
	}

	// 429: second live job for the same tenant.
	st := submitUpload(t, ts.URL, "carol", matrixQuery, input)
	if _, code := trySubmitUpload(t, ts.URL, "carol", matrixQuery, input); code != http.StatusTooManyRequests {
		t.Fatalf("over quota: %d, want 429", code)
	}

	// 409: output requested before done (the slow job is still going).
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+st.ID+"/output", nil)
	req.Header.Set("X-Tenant", "carol")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early output: %d, want 409", resp.StatusCode)
	}

	// 404: unknown job.
	if _, code := getStatus(t, ts.URL, "", "j999999"); code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", code)
	}
}

// TestServerCancelRunning cancels a mid-flight job and checks it lands in
// canceled with its files gone and its reservations returned.
func TestServerCancelRunning(t *testing.T) {
	srv, ts := newTestServer(t, Options{
		Workers: 1,
		Sort:    balancesort.Config{IO: balancesort.IOConfig{LatencyJitter: time.Millisecond}},
	})
	input := matrixInput(t)
	st := submitUpload(t, ts.URL, "", matrixQuery, input)
	waitState(t, ts.URL, "", st.ID, StateRunning, 10*time.Second)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d, want 202", resp.StatusCode)
	}
	waitState(t, ts.URL, "", st.ID, StateCanceled, 30*time.Second)
	if fs := srv.Stats(); fs.FreeDisk != srv.opt.Budget.DiskBytes {
		t.Fatalf("canceled job still holds disk: free %d of %d", fs.FreeDisk, srv.opt.Budget.DiskBytes)
	}
	if _, err := os.Stat(filepath.Join(srv.jobDir(st.ID), "scratch")); !os.IsNotExist(err) {
		t.Fatal("canceled job kept its scratch")
	}
}

// TestServerCancelQueued cancels a job before any worker dispatches it.
func TestServerCancelQueued(t *testing.T) {
	srv, ts := newTestServer(t, Options{
		Workers: 1,
		Sort:    balancesort.Config{IO: balancesort.IOConfig{LatencyJitter: time.Millisecond}},
	})
	input := matrixInput(t)
	running := submitUpload(t, ts.URL, "", matrixQuery, input)
	waitState(t, ts.URL, "", running.ID, StateRunning, 10*time.Second)
	queued := submitUpload(t, ts.URL, "", matrixQuery, input)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != StateCanceled {
		t.Fatalf("cancel queued: %d %q, want 200 canceled", resp.StatusCode, st.State)
	}
	// The running job is unaffected and completes.
	waitState(t, ts.URL, "", running.ID, StateDone, 60*time.Second)
	_ = srv
}

// TestServerKillRestartResume is the durability acceptance test: kill the
// server abruptly mid-sort (after the journal has committed passes),
// start a fresh server over the same data directory, and require the
// resumed job's output to be byte-identical to a direct SortFile of the
// same input.
func TestServerKillRestartResume(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	dataDir := t.TempDir()

	// Phase 1: a deliberately slow server (per-op latency injection) so
	// the kill lands mid-recursion, after ≥2 journal commits.
	srv1, err := New(Options{
		DataDir: dataDir, Workers: 1, Logf: t.Logf,
		Sort: balancesort.Config{IO: balancesort.IOConfig{LatencyJitter: time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	st := submitUpload(t, ts1.URL, "alice", matrixQuery, input)
	scratch := filepath.Join(dataDir, "jobs", st.ID, "scratch")

	deadline := time.Now().Add(60 * time.Second)
	for {
		if n, err := balancesort.JournalCommits(scratch); err == nil && n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached two journal commits")
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Kill() // abrupt: no manifest updates, no graceful anything
	ts1.Close()

	// The manifest must still say running — the kill wrote nothing.
	man, err := ReadManifest(filepath.Join(dataDir, "jobs", st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateRunning {
		t.Fatalf("manifest after kill says %q, want running", man.State)
	}

	// Phase 2: a fresh, full-speed server over the same directory resumes
	// the job from its journal.
	srv2, err := New(Options{DataDir: dataDir, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	fin := waitState(t, ts2.URL, "alice", st.ID, StateDone, 60*time.Second)
	if fin.Resumes < 1 {
		t.Fatalf("job reports %d resumes, want ≥1", fin.Resumes)
	}
	got := download(t, ts2.URL, "alice", st.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from the uninterrupted direct sort")
	}
}

// TestServerDrainRestart is the graceful half: SIGTERM semantics. Drain
// stops admission (503), lets the running job stop at a journal commit,
// leaves the queue durable, and a restarted server completes everything
// byte-identically.
func TestServerDrainRestart(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	dataDir := t.TempDir()

	srv1, err := New(Options{
		DataDir: dataDir, Workers: 1, Logf: t.Logf,
		Sort: balancesort.Config{IO: balancesort.IOConfig{LatencyJitter: time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	running := submitUpload(t, ts1.URL, "", matrixQuery, input)
	waitState(t, ts1.URL, "", running.ID, StateRunning, 10*time.Second)
	queued := submitUpload(t, ts1.URL, "", matrixQuery, input)

	done := make(chan error, 1)
	go func() { done <- srv1.Drain(context.Background()) }()
	// While draining (and after), submissions are refused with 503.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, code := trySubmitUpload(t, ts1.URL, "", matrixQuery, input); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server kept accepting jobs")
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	srv2, err := New(Options{DataDir: dataDir, Workers: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	for _, id := range []string{running.ID, queued.ID} {
		waitState(t, ts2.URL, "", id, StateDone, 60*time.Second)
		if got := download(t, ts2.URL, "", id); !bytes.Equal(got, want) {
			t.Fatalf("job %s: drained-then-restarted output differs from direct sort", id)
		}
	}
}

// startClusterWorkers launches n in-process cluster workers (the same
// ServeWorker entry a `balancesort -join` process uses) that outlive any
// job server in the test — exactly the deployment shape where a coordinator
// dies but its workers keep their shards parked.
func startClusterWorkers(t *testing.T, n int, sort balancesort.Config) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		opt := balancesort.WorkerOptions{ScratchDir: t.TempDir(), Sort: sort}
		go func() {
			defer close(done)
			_ = balancesort.ServeWorker(ctx, ln, opt)
		}()
		t.Cleanup(func() {
			cancel()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// TestServerClusterLifecycle runs one job over the cluster backend end to
// end and checks the output matches the direct single-process sort.
func TestServerClusterLifecycle(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	workers := startClusterWorkers(t, 3, balancesort.Config{Disks: 4, BlockSize: 8, Memory: 1024})
	_, ts := newTestServer(t, Options{Workers: 1, Cluster: workers})

	st := submitUpload(t, ts.URL, "alice", matrixQuery+"&cluster=1", input)
	waitState(t, ts.URL, "alice", st.ID, StateDone, 60*time.Second)
	if got := download(t, ts.URL, "alice", st.ID); !bytes.Equal(got, want) {
		t.Fatal("cluster-backed output differs from direct SortFile")
	}
}

// TestServerClusterRejectedWithoutWorkers: a cluster job against a server
// with no configured workers is a 400 at submission, not a doomed dispatch.
func TestServerClusterRejectedWithoutWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	if _, code := trySubmitUpload(t, ts.URL, "", matrixQuery+"&cluster=1", matrixInput(t)); code != http.StatusBadRequest {
		t.Fatalf("cluster job without workers: %d, want 400", code)
	}
}

// TestServerClusterKillRestartResume is the membership-churn durability
// acceptance test: the job server (and with it the cluster coordinator) is
// killed abruptly mid-sort, while the cluster workers live on and park
// their shards. A fresh server over the same data directory must resume the
// job through the coordinator journal's resume path — not start it over —
// and the output must be byte-identical to a direct sort.
func TestServerClusterKillRestartResume(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	dataDir := t.TempDir()
	// Slow worker-side shard sorts give the kill a wide mid-job window.
	workers := startClusterWorkers(t, 3, balancesort.Config{
		Disks: 4, BlockSize: 8, Memory: 1024,
		IO: balancesort.IOConfig{LatencyJitter: time.Millisecond},
	})

	srv1, err := New(Options{DataDir: dataDir, Workers: 1, Logf: t.Logf, Cluster: workers})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	st := submitUpload(t, ts1.URL, "alice", matrixQuery+"&cluster=1", input)
	journal := filepath.Join(dataDir, "jobs", st.ID, "scratch", "cluster.journal")

	// Kill once the coordinator journal has committed real progress.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if entries, err := pdm.LoadJournal(journal); err == nil && len(entries) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cluster job never committed journal progress")
		}
		time.Sleep(time.Millisecond)
	}
	srv1.Kill()
	ts1.Close()

	man, err := ReadManifest(filepath.Join(dataDir, "jobs", st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if man.State != StateRunning {
		t.Fatalf("manifest after kill says %q, want running", man.State)
	}

	srv2, err := New(Options{DataDir: dataDir, Workers: 1, Logf: t.Logf, Cluster: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Kill()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	fin := waitState(t, ts2.URL, "alice", st.ID, StateDone, 120*time.Second)
	if fin.Resumes < 1 {
		t.Fatalf("job reports %d resumes, want ≥1", fin.Resumes)
	}
	if got := download(t, ts2.URL, "alice", st.ID); !bytes.Equal(got, want) {
		t.Fatal("resumed cluster output differs from the uninterrupted direct sort")
	}
}

// TestServerRecoveryQuarantine checks a corrupt manifest is skipped, not
// trusted and not deleted, while healthy neighbors recover.
func TestServerRecoveryQuarantine(t *testing.T) {
	dataDir := t.TempDir()
	good := filepath.Join(dataDir, "jobs", "j000001")
	bad := filepath.Join(dataDir, "jobs", "j000002")
	for _, d := range []string{good, bad} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteManifest(good, &Manifest{
		ID: "j000001", Tenant: "t", State: StateDone, Seq: 1,
		InputBytes: 160, Records: 10, RetainBytes: 160,
	}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, manifestName), []byte(`{"crc":1,"manifest":{"id":"j000002"}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Options{DataDir: dataDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	if srv.lookup("j000001", "t") == nil {
		t.Fatal("healthy manifest not recovered")
	}
	if srv.lookup("j000002", "t") != nil {
		t.Fatal("corrupt manifest was trusted")
	}
	if _, err := os.Stat(filepath.Join(bad, manifestName)); err != nil {
		t.Fatal("corrupt manifest was deleted instead of quarantined")
	}
	// The recovered done job holds its retained bytes against the budget.
	if st := srv.Stats(); st.FreeDisk != srv.opt.Budget.DiskBytes-160 {
		t.Fatalf("free disk %d, want budget-160", st.FreeDisk)
	}
}

// TestManifestRoundTrip pins the envelope: write, read back identical,
// and a flipped payload byte is detected by the checksum.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := &Manifest{
		ID: "j000007", Tenant: "acme", State: StateRunning, Weight: 2, Seq: 7,
		InputBytes: 96000, Records: 6000, MemBytes: 16384, DiskBytes: 480000, RetainBytes: 96000,
		Params: SortParams{Disks: 4, BlockSize: 8, Memory: 1024, Buckets: 4}, SubmittedUnix: 1754600000,
	}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *m {
		t.Fatalf("round trip changed the manifest:\n got %+v\nwant %+v", got, m)
	}

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, []byte("acme"))
	raw[i] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, manifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(dir); err == nil {
		t.Fatal("bit-flipped manifest read back clean")
	}
}

// TestServerMetricsEndpoint checks the job gauges and per-job sort spans
// surface on /metrics.
func TestServerMetricsEndpoint(t *testing.T) {
	input := matrixInput(t)
	_, ts := newTestServer(t, Options{Workers: 1})
	st := submitUpload(t, ts.URL, "", matrixQuery, input)
	waitState(t, ts.URL, "", st.ID, StateDone, 30*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"balancesort_jobs_submitted_total 1",
		"balancesort_jobs_completed_total 1",
		`balancesort_jobs{state="done"} 1`,
		`balancesort_events_total{layer="sort"`,
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerSortEngineParam drives the per-job engine selector: engine=auto
// routes the job through the planner, engine=stripedmerge pins that
// engine, and anything that names no sort engine is rejected at
// submission, including a boolean and the removed guidesort.
func TestServerSortEngineParam(t *testing.T) {
	input := matrixInput(t)
	want := matrixReference(t, input)
	_, ts := newTestServer(t, Options{Workers: 2})

	for _, eng := range []string{"stripedmerge", "auto"} {
		st := submitUpload(t, ts.URL, "", matrixQuery+"&engine="+eng, input)
		if st.Params.SortEngine != eng {
			t.Fatalf("engine=%s recorded as %q", eng, st.Params.SortEngine)
		}
		waitState(t, ts.URL, "", st.ID, StateDone, 30*time.Second)
		if got := download(t, ts.URL, "", st.ID); !bytes.Equal(got, want) {
			t.Fatalf("engine=%s output differs from direct SortFile", eng)
		}
	}

	for _, bad := range []string{"true", "quantum", "guidesort"} {
		if _, code := trySubmitUpload(t, ts.URL, "", matrixQuery+"&engine="+bad, input); code != http.StatusBadRequest {
			t.Fatalf("engine=%s: status %d, want 400", bad, code)
		}
	}
}

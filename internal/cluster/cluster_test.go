package cluster

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"balancesort/internal/record"
)

// startWorkers launches n in-process workers on loopback listeners and
// returns their addresses. Workers are torn down with the test.
func startWorkers(t testing.TB, n int, mutate func(i int, cfg *WorkerConfig)) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{ScratchDir: t.TempDir()}
		if mutate != nil {
			mutate(i, &cfg)
		}
		addrs[i], _ = serveWorker(t, cfg)
	}
	return addrs
}

// serveWorker runs one worker on a loopback listener and returns its
// address and a stop func that cancels the worker and returns once Serve
// has. The test's cleanup stops it too.
func serveWorker(t testing.TB, cfg WorkerConfig) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = NewWorker(cfg).Serve(ctx, ln)
	}()
	stop := func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// makeInput writes n pseudo-random records (seeded, so reproducible) and
// returns the file path plus the expected sorted order.
func makeInput(t testing.TB, n int, seed int64, dupKeys bool) (string, []record.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		key := rng.Uint64()
		if dupKeys {
			key %= 50 // heavy duplication exercises the (Key, Loc) tiebreak
		}
		recs[i] = record.Record{Key: key, Loc: uint64(i)}
	}
	path := filepath.Join(t.TempDir(), "in.dat")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := record.WriteAll(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := append([]record.Record(nil), recs...)
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	return path, want
}

func checkOutput(t testing.TB, outPath string, want []record.Record) {
	t.Helper()
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := record.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("output holds %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %v, want %v", i, got[i], want[i])
		}
	}
}

// checkBalanceBound asserts Invariant 2 on the received-block matrix: for
// every bucket b, no worker holds more than m_b + 1 of its blocks, where
// m_b is the ⌈H/2⌉-th smallest entry of row b.
func checkBalanceBound(t testing.TB, X [][]int) {
	t.Helper()
	for b, row := range X {
		sorted := append([]int(nil), row...)
		sort.Ints(sorted)
		h := len(sorted)
		mb := sorted[(h+1)/2-1]
		for w, x := range row {
			if x > mb+1 {
				t.Fatalf("bucket %d on worker %d: %d blocks exceeds m_b+1 = %d (row %v)", b, w, x, mb+1, row)
			}
		}
	}
}

func runClusterSort(t testing.TB, addrs []string, n int, seed int64, dupKeys bool, spec SortSpec) *SortStats {
	t.Helper()
	inPath, want := makeInput(t, n, seed, dupKeys)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	spec.Workers = addrs
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := Sort(ctx, inPath, outPath, spec)
	if err != nil {
		t.Fatalf("cluster sort over %d workers: %v", len(addrs), err)
	}
	checkOutput(t, outPath, want)
	return stats
}

// TestClusterSortParity: 2-, 4-, and 8-worker in-process clusters must sort
// to exactly the single-process order, and the exchange's received-block
// matrix must respect the balance bound.
func TestClusterSortParity(t *testing.T) {
	for _, w := range []int{2, 4, 8} {
		w := w
		t.Run(map[int]string{2: "w2", 4: "w4", 8: "w8"}[w], func(t *testing.T) {
			t.Parallel()
			addrs := startWorkers(t, w, nil)
			stats := runClusterSort(t, addrs, 40000, int64(w), false, SortSpec{BlockRecs: 256})
			if stats.Records != 40000 || stats.Workers != w {
				t.Fatalf("stats %+v", stats)
			}
			checkBalanceBound(t, stats.X)
			var recv int
			for _, r := range stats.RecvBlocks {
				recv += r
			}
			if recv != stats.ExchangeBlocks {
				t.Fatalf("received %d of %d exchange blocks", recv, stats.ExchangeBlocks)
			}
		})
	}
}

// TestClusterSortDuplicateKeys: with 50 distinct keys over 30k records the
// (Key, Loc) tiebreak is what makes the sorted arrangement unique; the
// cluster must reproduce it exactly.
func TestClusterSortDuplicateKeys(t *testing.T) {
	addrs := startWorkers(t, 4, nil)
	runClusterSort(t, addrs, 30000, 11, true, SortSpec{BlockRecs: 128})
}

func TestClusterSortTinyInputs(t *testing.T) {
	addrs := startWorkers(t, 3, nil)
	for _, n := range []int{0, 1, 2, 5, 100} {
		runClusterSort(t, addrs, n, int64(n)+77, false, SortSpec{})
	}
}

// TestClusterSortSurvivesConnectionDrop: every worker severs one peer
// connection mid-exchange; redial plus retransmit plus receiver-side dedup
// must still deliver the exact sorted output.
func TestClusterSortSurvivesConnectionDrop(t *testing.T) {
	addrs := startWorkers(t, 4, func(i int, cfg *WorkerConfig) {
		cfg.DropAfterBlocks = 3 + i
		cfg.Dial = DialConfig{Backoff: time.Millisecond}
	})
	stats := runClusterSort(t, addrs, 30000, 23, false, SortSpec{BlockRecs: 128})
	checkBalanceBound(t, stats.X)
}

// TestClusterSortWorkerLost: a worker address nobody answers must fail the
// job fast with a typed *WorkerLostError — not a hang, not a generic error.
func TestClusterSortWorkerLost(t *testing.T) {
	live := startWorkers(t, 1, nil)
	// A listener opened and immediately closed: connection refused forever.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	inPath, _ := makeInput(t, 1000, 3, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err = Sort(ctx, inPath, outPath, SortSpec{
		Workers: []string{live[0], dead},
		Dial:    DialConfig{Attempts: 2, Backoff: time.Millisecond},
	})
	var lost *WorkerLostError
	if !errors.As(err, &lost) {
		t.Fatalf("got %v, want a *WorkerLostError", err)
	}
	if lost.Addr != dead {
		t.Fatalf("lost worker at %s, want %s", lost.Addr, dead)
	}
	if _, serr := os.Stat(outPath); serr == nil {
		t.Fatal("failed sort left an output file behind")
	}
}

// TestClusterSortContextCancel: a canceled context must abort the job
// promptly instead of hanging a barrier.
func TestClusterSortContextCancel(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	inPath, _ := makeInput(t, 20000, 5, false)
	outPath := filepath.Join(t.TempDir(), "out.dat")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Sort(ctx, inPath, outPath, SortSpec{Workers: addrs})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("canceled sort reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled sort did not return")
	}
}

package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
	"time"

	"balancesort/internal/record"
)

// scratchTree lists every path under dir, relative to it.
func scratchTree(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if rel, _ := filepath.Rel(dir, path); rel != "." {
			paths = append(paths, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// TestServeWaitsForHandlers: once Serve returns, no session it started may
// still touch ScratchDir. The worker's shard sort outlives the cancel by
// 50ms and then writes into its scratch directory; Serve must return only
// after that write and the session's teardown, so the tree it leaves is
// final.
func TestServeWaitsForHandlers(t *testing.T) {
	scratch := t.TempDir()
	sorting := make(chan struct{}, 1)
	addr, stop := serveWorker(t, WorkerConfig{
		ScratchDir: scratch,
		Dial:       fastDial,
		SortShard: func(ctx context.Context, _, _, dir string) error {
			sorting <- struct{}{}
			<-ctx.Done()
			time.Sleep(50 * time.Millisecond)
			if err := os.WriteFile(filepath.Join(dir, "late.dat"), nil, 0o644); err != nil {
				return err
			}
			return ctx.Err()
		},
	})
	inPath, _ := makeInput(t, 2000, 71, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	sortErr := make(chan error, 1)
	go func() {
		_, err := Sort(ctx, inPath, filepath.Join(t.TempDir(), "out.dat"),
			SortSpec{Workers: []string{addr}, Dial: fastDial, Heartbeat: fastHeartbeat()})
		sortErr <- err
	}()
	select {
	case <-sorting:
	case <-time.After(time.Minute):
		t.Fatal("the shard sort never started")
	}
	stop()
	before := scratchTree(t, scratch)
	time.Sleep(150 * time.Millisecond)
	if after := scratchTree(t, scratch); !reflect.DeepEqual(before, after) {
		t.Fatalf("ScratchDir changed after Serve returned:\n  at return %v\n  150ms on  %v", before, after)
	}
	if err := <-sortErr; err == nil {
		t.Fatal("sort succeeded after its only worker stopped")
	}
}

func TestIsTransportErr(t *testing.T) {
	_, statErr := os.Stat(filepath.Join(t.TempDir(), "missing"))
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"stat ENOENT", statErr, false},
		{"wrapped ENOSPC", fmt.Errorf("local sort: %w", &os.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}), false},
		{"EIO", &os.PathError{Op: "read", Path: "x", Err: syscall.EIO}, false},
		{"op error", &net.OpError{Op: "read", Net: "tcp", Err: syscall.ETIMEDOUT}, true},
		{"EOF", io.EOF, true},
		{"ECONNRESET", fmt.Errorf("read: %w", syscall.ECONNRESET), true},
		{"canceled", context.Canceled, false},
		{"nil", nil, false},
	} {
		if got := isTransportErr(tc.err); got != tc.want {
			t.Errorf("%s: isTransportErr(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestWorkerDiskErrorNotParked: a worker whose own shard sort fails on its
// scratch disk has not lost its coordinator, so it must not park the shard
// for a resume. Once the job is over and the worker has stopped, its
// ScratchDir is empty.
func TestWorkerDiskErrorNotParked(t *testing.T) {
	healthy := startWorkers(t, 1, fastWorker)
	scratch := t.TempDir()
	failing, stop := serveWorker(t, WorkerConfig{
		ScratchDir: scratch,
		Dial:       fastDial,
		SortShard: func(_ context.Context, _, _, dir string) error {
			_, err := os.Stat(filepath.Join(dir, "missing"))
			return err
		},
	})
	inPath, _ := makeInput(t, 4000, 83, false)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_, err := Sort(ctx, inPath, filepath.Join(t.TempDir(), "out.dat"), SortSpec{
		Workers: []string{healthy[0], failing}, BlockRecs: 128, Dial: fastDial, Heartbeat: fastHeartbeat(),
	})
	if err == nil {
		t.Fatal("sort succeeded although a worker's shard sort failed")
	}
	stop()
	if left := scratchTree(t, scratch); len(left) != 0 {
		t.Fatalf("the failed worker left %v in its ScratchDir", left)
	}
}

// TestWorkerRefusesBadPivots drives a worker by hand through the scatter
// (the job's first epoch) and the histogram, then sends pivots a bucket
// table cannot represent: out of order, or inside a histogram bin. The
// worker must fail the job and say why — an mError before its control
// connection ends, no plan asked for — and must not panic, which would take
// the test binary down with it.
func TestWorkerRefusesBadPivots(t *testing.T) {
	addrs := startWorkers(t, 1, fastWorker)
	recs := record.Generate(record.Uniform, 500, 9)
	for i, pivots := range [][]uint64{
		{binStart(9), binStart(3), binStart(12)},
		{binStart(3), binStart(9) + 1, binStart(12)},
	} {
		conn, err := net.DialTimeout("tcp", addrs[0], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(20 * time.Second))
		br := bufio.NewReader(conn)
		h := msgHello{Version: protocolVersion, JobID: uint64(100 + i), Workers: 1, S: 4, BlockRecs: 16, Peers: addrs}
		expect := func(want byte) {
			t.Helper()
			typ, _, err := readFrame(br, nil)
			if err != nil || typ != want {
				t.Fatalf("pivots %#x: got message %d (%v), want %d", pivots, typ, err, want)
			}
		}
		for _, f := range []struct {
			typ     byte
			payload []byte
		}{
			{mHello, h.encode()},
			{mRescatter, (&msgRescatter{Active: []uint32{0}, Fresh: true, Peers: addrs}).encode()},
			{mRecords, record.EncodeSlice(recs)},
			{mRescatterDone, (&msgRescatterDone{Total: uint64(len(recs))}).encode()},
		} {
			if err := writeFrame(conn, f.typ, f.payload); err != nil {
				t.Fatal(err)
			}
			if f.typ == mHello {
				expect(mHelloAck)
			}
		}
		expect(mRescatterAck)
		expect(mHistogram)
		if err := writeFrame(conn, mPivots, (&msgPivots{Pivots: pivots}).encode()); err != nil {
			t.Fatal(err)
		}
		expect(mError)
		conn.Close()
	}
}

// TestStoreRefusesOversizedBlock: a block holding more than BlockRecs
// records is an error in either phase, and nothing of it is stored; a
// full block is stored.
func TestStoreRefusesOversizedBlock(t *testing.T) {
	w := NewWorker(WorkerConfig{ScratchDir: t.TempDir()})
	s, err := newSession(w, &msgHello{JobID: 1, Worker: 0, Workers: 2, S: 4, BlockRecs: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.teardown()
	for _, phase := range []uint8{1, 2} {
		big := &msgBlock{Phase: phase, Src: 1, Data: make([]byte, 5*record.EncodedSize)}
		if _, err := s.storeBlock(big, 0); err == nil {
			t.Fatalf("phase %d: a 5-record block stored under BlockRecs 4", phase)
		}
		full := &msgBlock{Phase: phase, Src: 1, Data: make([]byte, 4*record.EncodedSize)}
		if stale, err := s.storeBlock(full, 0); err != nil || stale {
			t.Fatalf("phase %d: a full block refused: stale %v, %v", phase, stale, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.exIndex[0]) != 1 || s.exSize != 4*record.EncodedSize || s.recvGatherRecs != 4 {
		t.Fatalf("stored %d exchange blocks (%d bytes) and %d gather records, want 1, 64 and 4",
			len(s.exIndex[0]), s.exSize, s.recvGatherRecs)
	}
}

// TestSessionsOfOneJobKeepTheirFiles: two sessions of one (job, worker)
// overlap when a resume claims the worker while the session before it
// tears down. The teardown must leave the other session's shard,
// exchange and gather files in place.
func TestSessionsOfOneJobKeepTheirFiles(t *testing.T) {
	w := NewWorker(WorkerConfig{ScratchDir: t.TempDir()})
	h := &msgHello{JobID: 1, Worker: 0, Workers: 2, S: 4, BlockRecs: 4}
	old, err := newSession(w, h)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(w, h)
	if err != nil {
		old.teardown()
		t.Fatal(err)
	}
	defer s.teardown()
	if err := os.WriteFile(s.shardPath(), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old.teardown()
	for _, p := range []string{s.shardPath(), filepath.Join(s.dir, "exchange.dat"), s.gatherPath()} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("the other session's teardown took %s: %v", filepath.Base(p), err)
		}
	}
}

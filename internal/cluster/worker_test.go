package cluster

import (
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

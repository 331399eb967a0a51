package pdm

import (
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"balancesort/internal/diskio"
	"balancesort/internal/record"
)

// faultyIO is an I/O layer that injects transient faults and torn writes
// for its retries to absorb.
func faultyIO() diskio.Config {
	return diskio.Config{
		RetryBase: 10 * time.Microsecond,
		Fault:     diskio.FaultConfig{ErrorRate: 0.1, TornWriteRate: 0.5, Seed: 17},
	}
}

// newFileArray creates a file-backed array under a fresh temporary
// directory with the given I/O layer.
func newFileArray(tb testing.TB, p Params, io diskio.Config) *Array {
	tb.Helper()
	a, err := NewFileBackedOpts(p, filepath.Join(tb.TempDir(), "s"), FileOptions{IO: io})
	if err != nil {
		tb.Fatal(err)
	}
	return a
}

// TestEngineBackedStripeRoundTrip drives a file-backed array through its
// I/O layer: striped writes and reads round-trip, the model counts them,
// and the layer counts the device bytes.
func TestEngineBackedStripeRoundTrip(t *testing.T) {
	a := newFileArray(t, testParams(), diskio.Config{})
	defer a.Close()
	data := record.Generate(record.Zipf, 300, 3)
	off := a.AllocStripe(16)
	a.WriteStripe(off, 0, data)
	got := make([]record.Record, 300)
	a.ReadStripe(off, 0, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("stripe mismatch at %d", i)
		}
	}
	if s := a.Stats(); s.IOs == 0 {
		t.Fatal("file-backed array did not count model I/Os")
	}
	io := a.IOMetrics()
	if io == nil {
		t.Fatal("file-backed array has no I/O metrics")
	}
	if agg := io.Aggregate(); agg.BytesWritten == 0 {
		t.Fatal("I/O layer moved no bytes")
	}
	if New(testParams()).IOMetrics() != nil {
		t.Fatal("in-memory array reports I/O layer metrics")
	}
}

// TestEngineBackedModelCostsIdentical is the acceptance criterion that the
// I/O layer cannot perturb the measurement instrument: the same op
// sequence produces identical model stats in memory and on files whose
// layer retries injected faults.
func TestEngineBackedModelCostsIdentical(t *testing.T) {
	run := func(a *Array) Stats {
		defer a.Close()
		data := record.Generate(record.Uniform, 500, 9)
		off := a.AllocStripe(32)
		a.WriteStripe(off, 0, data)
		got := make([]record.Record, 500)
		a.ReadStripe(off, 0, got)
		a.ParallelIO([]Op{{Disk: 2, Off: off, Write: true, Data: make([]record.Record, a.B())}})
		return a.Stats()
	}
	plain := run(New(testParams()))
	file := run(newFileArray(t, testParams(), faultyIO()))
	if plain.IOs != file.IOs || plain.BlocksRead != file.BlocksRead ||
		plain.BlocksWritten != file.BlocksWritten ||
		plain.ReadIOs != file.ReadIOs || plain.WriteIOs != file.WriteIOs {
		t.Fatalf("model stats diverge:\nmem  %+v\nfile %+v", plain, file)
	}
	for w := range plain.WidthHist {
		if plain.WidthHist[w] != file.WidthHist[w] {
			t.Fatalf("width histogram diverges at %d", w)
		}
	}
}

// TestEngineBackedFaultsRecover checks an array under transient faults
// still serves every block correctly (the retry layer absorbs them below
// the model).
func TestEngineBackedFaultsRecover(t *testing.T) {
	a := newFileArray(t, testParams(), faultyIO())
	defer a.Close()
	data := record.Generate(record.BucketSkew, 400, 5)
	off := a.AllocStripe(32)
	a.WriteStripe(off, 0, data)
	got := make([]record.Record, 400)
	a.ReadStripe(off, 0, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("data corrupted under faults at %d", i)
		}
	}
	if agg := a.IOMetrics().Aggregate(); agg.Faults == 0 || agg.Retries == 0 {
		t.Fatalf("fault layer inactive: faults=%d retries=%d", agg.Faults, agg.Retries)
	}
}

// TestFileBackedEngineReopen is the crash/resume path through a faulty
// I/O layer: write blocks, Close, reopen with the default layer and with
// the faulty one again, compare.
func TestFileBackedEngineReopen(t *testing.T) {
	dir := t.TempDir()
	a, err := NewFileBackedOpts(testParams(), dir, FileOptions{IO: faultyIO()})
	if err != nil {
		t.Fatal(err)
	}
	data := record.Generate(record.NearlySorted, 200, 21)
	off := a.AllocStripe(16)
	a.WriteStripe(off, 0, data)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	for _, io := range []diskio.Config{{}, faultyIO()} {
		b, err := OpenFileBackedOpts(dir, FileOptions{IO: io})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]record.Record, 200)
		b.ReadStripe(off, 0, got)
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("data lost across close/reopen at %d (faults %v)", i, io.Fault.ErrorRate > 0)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileBackedStartsNoGoroutine checks a file-backed array moves every
// block on its caller: opening it, sorting a memoryload through it, and
// closing it leaves runtime.NumGoroutine() where it was.
func TestFileBackedStartsNoGoroutine(t *testing.T) {
	p := testParams()
	before := runtime.NumGoroutine()
	a := newFileArray(t, p, faultyIO())
	data := record.Generate(record.Uniform, p.M/2, 4)
	off := a.AllocStripe(len(data)/(p.D*p.B) + 1)
	a.WriteStripe(off, 0, data)
	got := make([]record.Record, len(data))
	a.ReadStripe(off, 0, got)
	sort.Slice(got, func(i, j int) bool { return got[i].Less(got[j]) })
	a.WriteStripe(off, 0, got)
	if err := a.Sync(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines with the array open, %d before", n, before)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before", n, before)
	}
}

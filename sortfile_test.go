package balancesort

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"balancesort/internal/core"
	"balancesort/internal/pdm"
)

func TestSortFileEndToEnd(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")

	in := NewWorkload(Zipf, 50000, 77)
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}

	res, err := SortFile(inPath, outPath, "", Config{Disks: 8, BlockSize: 32, Memory: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOs == 0 {
		t.Fatal("no I/Os counted")
	}

	out, err := ReadRecordFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, out) {
		t.Fatal("file sort output is not the sorted permutation of the input")
	}
}

// TestSortFileSizeAwareFanout sorts the sort-dist benchmark's input (256Ki
// uniform records, D=8 B=64 M=16Ki): the size-aware fan-out takes 64
// buckets of at most one memoryload each, so one distribution pass does
// what the paper's S = 4 needs 21 for. Theorem 4's read balance must hold
// at the larger S, and the output must match the paper's S byte for byte.
func TestSortFileSizeAwareFanout(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordFile(inPath, NewWorkload(Uniform, 1<<18, 1)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Disks: 8, BlockSize: 64, Memory: 1 << 14}
	sized := filepath.Join(dir, "sized.bin")
	res, err := SortFile(inPath, sized, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passes > 3 {
		t.Errorf("%d distribution passes, want <= 3", res.Passes)
	}
	if r := float64(res.IOs) / res.IOLowerBound; r > 4.6 {
		t.Errorf("%d I/Os are %.2fx the bound, want <= 4.6x", res.IOs, r)
	}
	if res.MaxBucketReadRatio > 2 {
		t.Errorf("bucket read ratio %.2f exceeds Theorem 4's 2", res.MaxBucketReadRatio)
	}

	paper := filepath.Join(dir, "paper.bin")
	cfg.Buckets = core.PaperS(pdm.Params{D: cfg.Disks, B: cfg.BlockSize, M: cfg.Memory})
	if _, err := SortFile(inPath, paper, "", cfg); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(sized)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(paper)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("size-aware output differs from the paper's S")
	}
}

func TestSortFileScratchPersists(t *testing.T) {
	dir := t.TempDir()
	scratch := filepath.Join(dir, "scratch")
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")

	in := NewWorkload(Uniform, 10000, 5)
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	if _, err := SortFile(inPath, outPath, scratch, Config{Disks: 4, BlockSize: 16, Memory: 4096}); err != nil {
		t.Fatal(err)
	}
	// The scratch directory holds the data file, the disks' checksum
	// sidecars, and the manifest.
	if _, err := os.Stat(filepath.Join(scratch, "manifest.json")); err != nil {
		t.Fatal("scratch manifest missing")
	}
	ents, err := os.ReadDir(scratch)
	if err != nil || len(ents) != 6 { // data file + 4 crc sidecars + manifest
		t.Fatalf("scratch contents: %v err=%v", ents, err)
	}
}

// TestSortFileEngine runs the external sort through the I/O layer with its
// defaults and checks the output plus the layer's metrics.
func TestSortFileEngine(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")
	in := NewWorkload(BucketSkew, 40000, 31)
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	res, err := SortFile(inPath, outPath, "", Config{Disks: 8, BlockSize: 32, Memory: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReadRecordFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, out) {
		t.Fatal("file-backed sort output is not the sorted permutation of the input")
	}
	if res.IO == nil {
		t.Fatal("file-backed sort but Result.IO is nil")
	}
	agg := res.IO.Aggregate()
	if agg.BytesWritten == 0 || agg.Reads == 0 {
		t.Fatalf("I/O layer metrics empty: %+v", agg)
	}
	if len(res.IO.PerDisk) != 8 {
		t.Fatalf("metrics for %d disks, want 8", len(res.IO.PerDisk))
	}
}

// TestSortFileEngineParity is the acceptance criterion that the I/O layer
// cannot change the measured model costs: a clean run and a run whose
// layer retries injected faults and torn writes produce identical parallel
// I/O counts and output bytes, and both report the layer's metrics.
func TestSortFileEngineParity(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	in := NewWorkload(Zipf, 30000, 13)
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	run := func(io IOConfig, out string) *Result {
		res, err := SortFile(inPath, filepath.Join(dir, out), "", Config{
			Disks: 8, BlockSize: 32, Memory: 1 << 13, IO: io,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.IO == nil {
			t.Fatalf("%s: Result.IO is nil", out)
		}
		return res
	}
	clean := run(IOConfig{}, "clean.bin")
	faulty := run(IOConfig{FaultRate: 0.02, TornWriteRate: 0.5, FaultSeed: 29}, "faulty.bin")
	if clean.IOs != faulty.IOs {
		t.Fatalf("injected faults changed the model cost: %d vs %d parallel I/Os", clean.IOs, faulty.IOs)
	}
	if agg := faulty.IO.Aggregate(); agg.Faults == 0 || agg.Retries == 0 {
		t.Fatalf("fault injection inactive: faults=%d retries=%d", agg.Faults, agg.Retries)
	}
	a, err := os.ReadFile(filepath.Join(dir, "clean.bin"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "faulty.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("injected faults changed the output bytes")
	}
}

// TestSortFileUnderFaults injects a nonzero transient-error rate plus torn
// writes and checks the sort still completes with sorted, complete output.
func TestSortFileUnderFaults(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	outPath := filepath.Join(dir, "out.bin")
	in := NewWorkload(Uniform, 30000, 19)
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	res, err := SortFile(inPath, outPath, "", Config{
		Disks: 8, BlockSize: 32, Memory: 1 << 13,
		IO: IOConfig{
			FaultRate:     0.02,
			TornWriteRate: 0.5,
			FaultSeed:     29,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ReadRecordFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, out) {
		t.Fatal("sort under injected faults lost or disordered records")
	}
	agg := res.IO.Aggregate()
	if agg.Faults == 0 {
		t.Fatal("fault injection inactive (raise the rate or the op count)")
	}
	if agg.Retries == 0 {
		t.Fatal("faults injected but nothing retried")
	}
}

func TestSortFileRejectsRaggedInput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(inPath, make([]byte, 17), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SortFile(inPath, filepath.Join(dir, "out.bin"), "", Config{}); err == nil {
		t.Fatal("ragged input accepted")
	}
}

func TestSortFileMissingInput(t *testing.T) {
	if _, err := SortFile("/nonexistent/in.bin", "/tmp/out.bin", "", Config{}); err == nil {
		t.Fatal("missing input accepted")
	}
}

func TestSortFileEmpty(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "empty.bin")
	outPath := filepath.Join(dir, "out.bin")
	if err := WriteRecordFile(inPath, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := SortFile(inPath, outPath, "", Config{}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadRecordFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatal("empty file sort produced records")
	}
}

func TestRecordFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.bin")
	rs := NewWorkload(FewDistinct, 1234, 9)
	if err := WriteRecordFile(path, rs); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() != int64(1234*RecordSize) {
		t.Fatalf("file size %v err=%v", st.Size(), err)
	}
	back, err := ReadRecordFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if back[i] != rs[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

package balancesort

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"balancesort/internal/core"
	"balancesort/internal/diskio"
	"balancesort/internal/pdm"
)

// matrixConfig is shared by the crash tests: D=4, B=8, M=1024, S=4 drives
// N=6000 records through a 3-level recursion (one root pass, four level-1
// passes, sixteen base cases — ~21 commit boundaries to kill at).
func matrixConfig() Config {
	return Config{Disks: 4, BlockSize: 8, Memory: 1024, Buckets: 4}
}

func writeMatrixInput(t *testing.T, dir string) (string, []Record) {
	t.Helper()
	inPath := filepath.Join(dir, "in.bin")
	in := NewWorkload(Zipf, 6000, 21)
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	return inPath, in
}

func flipFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestSortFileRobustParity is the acceptance pin that the integrity
// machinery is free in model terms: checksums, journaling, and the final
// scrub change neither the parallel I/O count nor one output byte.
func TestSortFileRobustParity(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)

	cfg := matrixConfig()
	cfg.Robust = RobustConfig{NoChecksums: true}
	plain, err := SortFile(inPath, filepath.Join(dir, "plain.bin"), "", cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg = matrixConfig()
	cfg.Robust = RobustConfig{Journal: true, ScrubAfter: true}
	robust, err := SortFile(inPath, filepath.Join(dir, "robust.bin"), filepath.Join(dir, "scratch"), cfg)
	if err != nil {
		t.Fatal(err)
	}

	if plain.IOs != robust.IOs {
		t.Fatalf("robustness machinery changed the model cost: %d vs %d parallel I/Os", plain.IOs, robust.IOs)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "plain.bin"))
	b, _ := os.ReadFile(filepath.Join(dir, "robust.bin"))
	if len(a) == 0 || string(a) != string(b) {
		t.Fatal("robustness machinery changed the output bytes")
	}
	if robust.Scrub == nil || !robust.Scrub.Checksummed {
		t.Fatalf("ScrubAfter reported %+v", robust.Scrub)
	}
	if robust.Scrub.BlocksChecked == 0 || len(robust.Scrub.Corrupt) != 0 {
		t.Fatalf("post-sort scrub: %+v", robust.Scrub)
	}
	if plain.Scrub != nil {
		t.Fatal("Scrub set without ScrubAfter")
	}
}

// TestCrashMatrixResume kills the sort immediately before every commit
// boundary of a 3-level recursion, resumes each interrupted run, and
// checks the resumed output is byte-identical to the uninterrupted one
// while costing at most one redone pass of extra committed I/Os.
func TestCrashMatrixResume(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)

	// Uninterrupted journaled baseline: output bytes, total I/Os, and the
	// per-commit I/O ledger from its journal.
	basePath := filepath.Join(dir, "base.bin")
	cfg := matrixConfig()
	cfg.Robust = RobustConfig{Journal: true}
	base, err := SortFile(inPath, basePath, filepath.Join(dir, "base-scratch"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	entries, err := pdm.LoadJournal(pdm.JournalPath(filepath.Join(dir, "base-scratch")))
	if err != nil {
		t.Fatal(err)
	}
	// Entry 1 is the loaded-input commit; the rest are sorter passes.
	commits := len(entries) - 1
	if commits < 10 {
		t.Fatalf("only %d commit boundaries; the matrix needs a multi-level sort", commits)
	}
	var maxStep, prevIOs int64
	for _, e := range entries {
		var st sortJournalState
		if err := json.Unmarshal(e.Payload, &st); err != nil {
			t.Fatal(err)
		}
		if d := st.IOs - prevIOs; d > maxStep {
			maxStep = d
		}
		prevIOs = st.IOs
	}
	if prevIOs != base.IOs {
		t.Fatalf("journal final I/O count %d disagrees with the result's %d", prevIOs, base.IOs)
	}

	step := 1
	if testing.Short() {
		step = 5
	}
	for k := 1; k <= commits; k += step {
		scratch := filepath.Join(dir, "scratch", "k")
		outPath := filepath.Join(dir, "out.bin")
		os.RemoveAll(scratch)
		os.Remove(outPath)

		cfg := matrixConfig()
		cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: k}
		_, err := SortFile(inPath, outPath, scratch, cfg)
		if !errors.Is(err, core.ErrInjectedCrash) {
			t.Fatalf("kill %d: got %v, want the injected crash", k, err)
		}
		if _, err := os.Stat(outPath); !os.IsNotExist(err) {
			t.Fatalf("kill %d: crashed sort left an output file", k)
		}

		res, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig())
		if err != nil {
			t.Fatalf("resume after kill %d: %v", k, err)
		}
		if res.IO == nil {
			t.Fatalf("resume after kill %d: Result.IO is nil", k)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baseBytes) {
			t.Fatalf("resume after kill %d: output differs from the uninterrupted run", k)
		}
		if res.IOs > base.IOs+maxStep {
			t.Fatalf("resume after kill %d: %d committed I/Os, uninterrupted %d + one pass %d",
				k, res.IOs, base.IOs, maxStep)
		}
	}
}

// TestCrashResumeSizeAwareFanout kills a journaled sort that runs the
// size-aware fan-out (Buckets = 0) across its two distribution levels. The
// journal records no per-pass S, so each resume recomputes it from the
// pending subproblem's size: the output must be byte-identical to the
// uninterrupted run at no more than one redone pass of extra I/Os.
func TestCrashResumeSizeAwareFanout(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordFile(inPath, NewWorkload(Uniform, 20000, 22)); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Disks: 4, BlockSize: 8, Memory: 1024, Robust: RobustConfig{Journal: true}}
	basePath := filepath.Join(dir, "base.bin")
	base, err := SortFile(inPath, basePath, filepath.Join(dir, "base-scratch"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Depth < 2 {
		t.Fatalf("depth %d; the test needs a second distribution level", base.Depth)
	}
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	// One pass at most re-reads and re-writes the whole input twice.
	maxStep := 4 * int64((20000+cfg.Disks*cfg.BlockSize-1)/(cfg.Disks*cfg.BlockSize))
	for _, k := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
		scratch := filepath.Join(dir, "scratch")
		outPath := filepath.Join(dir, "out.bin")
		os.RemoveAll(scratch)
		crash := cfg
		crash.Robust.crashAfterCommits = k
		if _, err := SortFile(inPath, outPath, scratch, crash); !errors.Is(err, core.ErrInjectedCrash) {
			t.Fatalf("kill %d: got %v, want the injected crash", k, err)
		}
		res, err := ResumeSortFile(inPath, outPath, scratch, Config{})
		if err != nil {
			t.Fatalf("resume after kill %d: %v", k, err)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, baseBytes) {
			t.Fatalf("resume after kill %d: output differs from the uninterrupted run", k)
		}
		if res.IOs > base.IOs+maxStep {
			t.Fatalf("resume after kill %d: %d I/Os, uninterrupted %d + one pass %d", k, res.IOs, base.IOs, maxStep)
		}
	}
}

// TestResumeRefusesCorruptScratch flips one byte of a committed scratch
// block after a crash; the resume must surface the typed corruption error
// and must not write an output file.
func TestResumeRefusesCorruptScratch(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	scratch := filepath.Join(dir, "scratch")
	outPath := filepath.Join(dir, "out.bin")

	cfg := matrixConfig()
	cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: 1}
	if _, err := SortFile(inPath, outPath, scratch, cfg); !errors.Is(err, core.ErrInjectedCrash) {
		t.Fatal("crash injection did not fire")
	}

	// Block 0 of disk 0 holds the start of the striped input region the
	// journal's work list points at; the resume must re-read it.
	flipFileByte(t, filepath.Join(scratch, "disk000.bin"), 0)

	_, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig())
	var corrupt *pdm.CorruptBlockError
	if !errors.As(err, &corrupt) {
		t.Fatalf("resume over corrupt scratch: got %v, want *pdm.CorruptBlockError", err)
	}
	if corrupt.Disk != 0 || corrupt.Block != 0 {
		t.Fatalf("corruption misattributed: %+v", corrupt)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("corrupt resume emitted an output file")
	}
}

// TestOversizedBucketsRejected checks that a bucket count whose
// distribution pass cannot fit internal memory, or a negative one, comes
// back from Sort, SortFile and a resume of a journal recording it as an
// error, never as a panic out of the sorter, and leaves no output file.
func TestOversizedBucketsRejected(t *testing.T) {
	dir := t.TempDir()
	inPath, in := writeMatrixInput(t, dir)
	outPath := filepath.Join(dir, "out.bin")
	for _, s := range []int{1000, -1} {
		// The defaults (D=8 B=64 M=4096) fit at most 16 buckets.
		if _, err := Sort(in, Config{Buckets: s}); err == nil {
			t.Fatalf("Sort accepted Buckets = %d", s)
		}
		if _, err := SortFile(inPath, outPath, "", Config{Buckets: s}); err == nil {
			t.Fatalf("SortFile accepted Buckets = %d", s)
		}
		if _, err := os.Stat(outPath); !os.IsNotExist(err) {
			t.Fatalf("rejected Buckets = %d left an output file", s)
		}
	}

	// A journal whose recorded S does not fit its own geometry.
	scratch := filepath.Join(dir, "scratch")
	cfg := matrixConfig()
	cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: 1}
	if _, err := SortFile(inPath, outPath, scratch, cfg); !errors.Is(err, core.ErrInjectedCrash) {
		t.Fatalf("got %v, want the injected crash", err)
	}
	jnl, entries, err := pdm.OpenJournalAppend(pdm.JournalPath(scratch))
	if err != nil {
		t.Fatal(err)
	}
	var js sortJournalState
	if err := json.Unmarshal(entries[len(entries)-1].Payload, &js); err != nil {
		t.Fatal(err)
	}
	js.S = 1000
	payload, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jnl.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig()); err == nil {
		t.Fatal("resume accepted a journaled S = 1000")
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("rejected resume left an output file")
	}
}

// TestSortFileCancelAndResume cancels a journaled sort before it starts
// its passes, checks the typed error and the absent output, then resumes
// to completion from the same scratch directory.
func TestSortFileCancelAndResume(t *testing.T) {
	dir := t.TempDir()
	inPath, in := writeMatrixInput(t, dir)
	scratch := filepath.Join(dir, "scratch")
	outPath := filepath.Join(dir, "out.bin")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := matrixConfig()
	cfg.Robust = RobustConfig{Journal: true}
	_, err := SortFileContext(ctx, inPath, outPath, scratch, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sort: got %v, want context.Canceled", err)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("canceled sort left an output file")
	}

	if _, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig()); err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	out, err := ReadRecordFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, out) {
		t.Fatal("resumed sort output is not the sorted permutation of the input")
	}
}

// TestResumeFreshFallback checks ResumeSortFile on a scratch directory
// with no committed journal simply sorts from the input file.
func TestResumeFreshFallback(t *testing.T) {
	dir := t.TempDir()
	inPath, in := writeMatrixInput(t, dir)
	outPath := filepath.Join(dir, "out.bin")

	if _, err := ResumeSortFile(inPath, outPath, filepath.Join(dir, "scratch"), matrixConfig()); err != nil {
		t.Fatalf("resume with no journal: %v", err)
	}
	out, err := ReadRecordFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !Verify(in, out) {
		t.Fatal("fallback sort output is not the sorted permutation of the input")
	}
}

// TestSortFileEngineFailure drives the I/O layer with a certain fault
// rate: the sort must return an error rooted in the injected fault — not
// panic — and must not leave a partial output file.
func TestSortFileEngineFailure(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	outPath := filepath.Join(dir, "out.bin")

	cfg := matrixConfig()
	cfg.IO = IOConfig{FaultRate: 1, FaultSeed: 7}
	_, err := SortFile(inPath, outPath, "", cfg)
	if err == nil {
		t.Fatal("sort on always-failing disks succeeded")
	}
	if !errors.Is(err, diskio.ErrInjected) {
		t.Fatalf("got %v, want an error rooted in the injected fault", err)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("failed sort left an output file")
	}
}

// TestScrubStandalone checks the library-level Scrub over a finished
// scratch directory, clean and after deliberate damage.
func TestScrubStandalone(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	scratch := filepath.Join(dir, "scratch")

	if _, err := SortFile(inPath, filepath.Join(dir, "out.bin"), scratch, matrixConfig()); err != nil {
		t.Fatal(err)
	}
	rep, err := Scrub(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Checksummed || rep.BlocksChecked == 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("clean scrub: %+v", rep)
	}

	flipFileByte(t, filepath.Join(scratch, "disk000.bin"), 3)
	rep, err = Scrub(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Disk != 0 || rep.Corrupt[0].Block != 0 {
		t.Fatalf("scrub after damage: %+v", rep.Corrupt)
	}
}

package balancesort

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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
	flipFileByte(t, filepath.Join(scratch, "disks.bin"), 0)

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

	flipFileByte(t, filepath.Join(scratch, "disks.bin"), 3)
	rep, err = Scrub(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Disk != 0 || rep.Corrupt[0].Block != 0 {
		t.Fatalf("scrub after damage: %+v", rep.Corrupt)
	}
}

// tinyConfig is the geometry of FuzzResumeJournal and of the crashed
// scratch directories under testdata/crashed-scratch: D=2 B=4 M=64, small
// enough that a whole scratch directory stays under 64 KiB.
func tinyConfig(eng Engine) Config {
	return Config{Disks: 2, BlockSize: 4, Memory: 64, Engine: eng}
}

// writeTinyInput writes the 300 zipf records the tiny-geometry sorts run.
func writeTinyInput(t testing.TB, dir string) string {
	t.Helper()
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordFile(inPath, NewWorkload(Zipf, 300, 21)); err != nil {
		t.Fatal(err)
	}
	return inPath
}

// readFiles returns the contents of every regular file in dir by name.
func readFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = raw
	}
	return files
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, raw := range readFiles(t, src) {
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestResumeRefusesUnreadableJournal replaces a crashed sort's journal with
// a directory. Only a missing or empty journal means nothing was
// committed, so the resume must return the read error and leave every
// scratch file as it was, not sort afresh over the committed state. With
// the journal back, the resume completes to SortFile's bytes.
func TestResumeRefusesUnreadableJournal(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	wantPath := filepath.Join(dir, "want.bin")
	if _, err := SortFile(inPath, wantPath, "", matrixConfig()); err != nil {
		t.Fatal(err)
	}
	scratch := filepath.Join(dir, "scratch")
	outPath := filepath.Join(dir, "out.bin")
	cfg := matrixConfig()
	cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: 3}
	if _, err := SortFile(inPath, outPath, scratch, cfg); !errors.Is(err, core.ErrInjectedCrash) {
		t.Fatalf("got %v, want the injected crash", err)
	}

	jpath, saved := pdm.JournalPath(scratch), filepath.Join(dir, "journal.saved")
	if err := os.Rename(jpath, saved); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(jpath, 0o755); err != nil {
		t.Fatal(err)
	}
	before := readFiles(t, scratch)
	if _, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig()); err == nil {
		t.Fatal("resume over an unreadable journal succeeded")
	}
	after := readFiles(t, scratch)
	if len(after) != len(before) {
		t.Fatalf("scratch held %d files before the refused resume, %d after", len(before), len(after))
	}
	for name, raw := range before {
		if !bytes.Equal(after[name], raw) {
			t.Fatalf("refused resume changed %s (%d bytes, now %d)", name, len(raw), len(after[name]))
		}
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("refused resume left an output file")
	}

	if err := os.Remove(jpath); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(saved, jpath); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig()); err != nil {
		t.Fatalf("resume with the journal restored: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed output differs from SortFile's")
	}
}

// TestResumeCommittedScratch resumes the scratch directories under
// testdata/crashed-scratch, one per engine, each a journaled tiny-geometry
// sort of writeTinyInput's records crashed mid-sort by an earlier version
// of this package (balancesort before its 16th commit, stripedmerge before
// its 13th). The journal format must still resume to an uninterrupted
// sort's bytes and model I/O count.
func TestResumeCommittedScratch(t *testing.T) {
	dir := t.TempDir()
	inPath := writeTinyInput(t, dir)
	for _, eng := range []Engine{EngineBalanceSort, EngineStripedMerge} {
		wantPath := filepath.Join(dir, string(eng)+".want")
		want, err := SortFile(inPath, wantPath, "", tinyConfig(eng))
		if err != nil {
			t.Fatal(err)
		}
		scratch := filepath.Join(dir, string(eng))
		copyDir(t, filepath.Join("testdata", "crashed-scratch", string(eng)), scratch)
		outPath := filepath.Join(dir, string(eng)+".out")
		res, err := ResumeSortFile(inPath, outPath, scratch, Config{})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if res.Engine != string(eng) || res.IOs != want.IOs {
			t.Fatalf("%s: resumed as %s with %d I/Os; the uninterrupted sort made %d", eng, res.Engine, res.IOs, want.IOs)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(wantPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("%s: resumed output differs from the uninterrupted sort", eng)
		}
	}
}

// TestResumeRefusesMissingDiskData resumes a crashed scratch directory in
// the per-disk layout with one disk's file gone: the resume fails with a
// *pdm.TruncatedDiskError naming that disk and writes no output.
func TestResumeRefusesMissingDiskData(t *testing.T) {
	dir := t.TempDir()
	inPath := writeTinyInput(t, dir)
	scratch := filepath.Join(dir, "scratch")
	copyDir(t, filepath.Join("testdata", "crashed-scratch", string(EngineStripedMerge)), scratch)
	if err := os.Remove(filepath.Join(scratch, "disk001.bin")); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.bin")
	_, err := ResumeSortFile(inPath, outPath, scratch, Config{})
	var trunc *pdm.TruncatedDiskError
	if !errors.As(err, &trunc) || trunc.Disk != 1 {
		t.Fatalf("resume without disk 1's file: got %v, want a *pdm.TruncatedDiskError for disk 1", err)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("refused resume left an output file")
	}
}

// FuzzResumeJournal rewrites the last commit of a crashed tiny-geometry
// sort of each engine with a fuzzed, CRC-valid payload and resumes it.
// Nothing read off disk is trusted: the resume must never panic, and when
// it fails it must leave no output file. The seeds are each engine's
// commit as written and the same commit with its first region moved to
// block 100000, which the array never wrote.
func FuzzResumeJournal(f *testing.F) {
	dir := f.TempDir()
	inPath := writeTinyInput(f, dir)
	engines := []Engine{EngineBalanceSort, EngineStripedMerge}
	var last [2]string
	for i, eng := range engines {
		scratch := filepath.Join(dir, string(eng))
		cfg := tinyConfig(eng)
		cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: 6}
		if _, err := SortFile(inPath, filepath.Join(dir, "out.bin"), scratch, cfg); !errors.Is(err, core.ErrInjectedCrash) {
			f.Fatalf("%s: got %v, want the injected crash", eng, err)
		}
		entries, err := pdm.LoadJournal(pdm.JournalPath(scratch))
		if err != nil {
			f.Fatal(err)
		}
		last[i] = string(entries[len(entries)-1].Payload)
		f.Add(uint8(i), []byte(last[i]))
		f.Add(uint8(i), []byte(strings.Replace(last[i],
			regexp.MustCompile(`"off":\d+`).FindString(last[i]), `"off":100000`, 1)))
	}
	// Two commits that pass every other check: a chain entry claiming 8
	// records of a 4-record virtual block beside one claiming 0, and a
	// formation position off a block boundary beside a run 2 records
	// longer.
	edit := func(s string, pairs ...string) []byte {
		for i := 0; i < len(pairs); i += 2 {
			s = strings.Replace(s, pairs[i], pairs[i+1], 1)
		}
		return []byte(s)
	}
	f.Add(uint8(0), edit(last[0], `"count":4`, `"count":0`, `"count":4`, `"count":8`))
	f.Add(uint8(1), edit(last[1], `"input_pos":160`, `"input_pos":162`, `"n":32`, `"n":34`))
	f.Fuzz(func(t *testing.T, engine uint8, payload []byte) {
		scratch := filepath.Join(t.TempDir(), "scratch")
		copyDir(t, filepath.Join(dir, string(engines[int(engine)%len(engines)])), scratch)
		entries, err := pdm.LoadJournal(pdm.JournalPath(scratch))
		if err != nil {
			t.Fatal(err)
		}
		jnl, err := pdm.CreateJournal(pdm.JournalPath(scratch))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries[:len(entries)-1] {
			if _, err := jnl.Append(e.Payload); err != nil {
				t.Fatal(err)
			}
		}
		_, err = jnl.Append(payload)
		if cerr := jnl.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			return // not JSON, so never a commit
		}
		outPath := filepath.Join(t.TempDir(), "out.bin")
		if _, err := ResumeSortFile(inPath, outPath, scratch, Config{}); err != nil {
			if _, serr := os.Stat(outPath); !os.IsNotExist(serr) {
				t.Fatalf("failed resume (%v) left an output file", err)
			}
		}
	})
}

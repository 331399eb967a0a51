package balancesort

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"balancesort/internal/core"
	"balancesort/internal/pdm"
	"balancesort/internal/record"
)

func sortFileWithEngine(t *testing.T, dir, name, inPath string, cfg Config, eng Engine) ([]byte, *Result) {
	t.Helper()
	outPath := filepath.Join(dir, name+".out")
	cfg.Engine = eng
	res, err := SortFile(inPath, outPath, "", cfg)
	if err != nil {
		t.Fatalf("engine %s: %v", eng, err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != string(eng) {
		t.Fatalf("result engine %q, ran %q", res.Engine, eng)
	}
	return got, res
}

// TestEngineParityMatrix pins that every engine produces byte-identical
// output over skewed, duplicate-heavy, and reverse-sorted inputs — the
// (Key, Loc) effective keys make the sorted permutation unique, so any
// divergence is a bug.
func TestEngineParityMatrix(t *testing.T) {
	dir := t.TempDir()
	for _, w := range []Workload{Zipf, FewDistinct, Reversed} {
		in := NewWorkload(w, 6000, 21)
		inPath := filepath.Join(dir, w.String()+".bin")
		if err := WriteRecordFile(inPath, in); err != nil {
			t.Fatal(err)
		}
		want, _ := sortFileWithEngine(t, dir, w.String()+"-balance", inPath, matrixConfig(), EngineBalanceSort)
		got, _ := sortFileWithEngine(t, dir, w.String()+"-striped", inPath, matrixConfig(), EngineStripedMerge)
		if string(got) != string(want) {
			t.Fatalf("%s: stripedmerge output differs from balancesort", w)
		}
	}
}

// TestSortWithStripedMergeIsTheEngine pins that there is one striped
// merge: SortWith(AlgoStripedMerge) runs the stripedmerge engine on an
// in-memory array, so it reports a stripedmerge SortFile's model costs and
// writes its bytes, for every generator at BENCH_sort.json's geometry and
// at an unaligned N, and it refuses DB > M/4 with SortFile's error.
func TestSortWithStripedMergeIsTheEngine(t *testing.T) {
	dir := t.TempDir()
	bench := Config{Disks: 8, BlockSize: 64, Memory: 1 << 15}
	type cost struct {
		IOs                int64
		PRAMTime, PRAMWork float64
		Passes, Depth      int
		MemPeak            int
	}
	costOf := func(r *Result) cost {
		return cost{r.IOs, r.PRAMTime, r.PRAMWork, r.Passes, r.Depth, r.MemPeak}
	}
	type tc struct {
		name string
		in   []Record
		cfg  Config
	}
	var cases []tc
	for _, w := range []Workload{Uniform, FewDistinct, NearlySorted, Reversed, BucketSkew, Zipf} {
		cases = append(cases, tc{w.String(), NewWorkload(w, 1<<16, 42), bench})
	}
	cases = append(cases, tc{"unaligned", NewWorkload(Uniform, 100003, 42), Config{Disks: 8, BlockSize: 64, Memory: 1 << 12}})
	for _, c := range cases {
		inPath := filepath.Join(dir, c.name+".bin")
		if err := WriteRecordFile(inPath, c.in); err != nil {
			t.Fatal(err)
		}
		want, file := sortFileWithEngine(t, dir, c.name, inPath, c.cfg, EngineStripedMerge)
		mem, err := SortWith(AlgoStripedMerge, c.in, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got, wantCost := costOf(mem), costOf(file); got != wantCost {
			t.Errorf("%s: SortWith costs %+v, SortFile %+v", c.name, got, wantCost)
		}
		if string(record.EncodeSlice(mem.Records)) != string(want) {
			t.Errorf("%s: SortWith's records differ from SortFile's bytes", c.name)
		}
	}

	tight := Config{Disks: 8, BlockSize: 64, Memory: 1 << 10} // DB = 512 > M/4
	inPath := filepath.Join(dir, "tight.bin")
	if err := WriteRecordFile(inPath, NewWorkload(Uniform, 1000, 1)); err != nil {
		t.Fatal(err)
	}
	tight.Engine = EngineStripedMerge
	_, fileErr := SortFile(inPath, filepath.Join(dir, "tight.out"), "", tight)
	_, memErr := SortWith(AlgoStripedMerge, NewWorkload(Uniform, 1000, 1), tight)
	if fileErr == nil || memErr == nil || memErr.Error() != fileErr.Error() {
		t.Fatalf("DB > M/4: SortWith error %v, SortFile error %v", memErr, fileErr)
	}
}

// TestEngineAutoParity pins the auto contract: the planner's pick sorts to
// the same bytes as balancesort, records its decision, and performs no
// more model I/Os than either external engine run on its own.
func TestEngineAutoParity(t *testing.T) {
	dir := t.TempDir()
	matrixIn, _ := writeMatrixInput(t, dir)
	wideIn := filepath.Join(dir, "wide.bin")
	if err := WriteRecordFile(wideIn, NewWorkload(Uniform, 1<<16, 1)); err != nil {
		t.Fatal(err)
	}
	wideBigIn := filepath.Join(dir, "wide-big.bin")
	if err := WriteRecordFile(wideBigIn, NewWorkload(Uniform, 1<<18, 1)); err != nil {
		t.Fatal(err)
	}
	wide := Config{Disks: 16, BlockSize: 128, Memory: 1 << 14}
	for _, tc := range []struct {
		name, inPath string
		cfg          Config
	}{
		{"matrix", matrixIn, matrixConfig()},
		// DB/M = 1/8, where the striped merge's fan-in M/(2DB) is only 4.
		{"wide-stripe", wideIn, wide},
		// The fan-out's S·VB ≤ M/4 cap leaves balancesort's top-level buckets
		// at two memoryloads, so it needs a second level.
		{"wide-stripe-256Ki", wideBigIn, wide},
	} {
		want, bal := sortFileWithEngine(t, dir, tc.name+"-balance", tc.inPath, tc.cfg, EngineBalanceSort)
		_, striped := sortFileWithEngine(t, dir, tc.name+"-striped", tc.inPath, tc.cfg, EngineStripedMerge)

		outPath := filepath.Join(dir, tc.name+"-auto.out")
		cfg := tc.cfg
		cfg.Engine = EngineAuto
		res, err := SortFile(tc.inPath, outPath, "", cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: auto output differs from balancesort", tc.name)
		}
		if res.Plan == nil {
			t.Fatalf("%s: auto did not record its plan", tc.name)
		}
		if res.Engine != res.Plan.Engine {
			t.Fatalf("%s: ran %q but planned %q", tc.name, res.Engine, res.Plan.Engine)
		}
		if res.IOs > bal.IOs || res.IOs > striped.IOs {
			t.Fatalf("%s: auto ran %s at %d I/Os; balancesort needs %d, stripedmerge %d",
				tc.name, res.Engine, res.IOs, bal.IOs, striped.IOs)
		}
	}
}

func TestEngineInMemFile(t *testing.T) {
	dir := t.TempDir()
	in := NewWorkload(Zipf, 400, 7)
	inPath := filepath.Join(dir, "in.bin")
	if err := WriteRecordFile(inPath, in); err != nil {
		t.Fatal(err)
	}
	want, _ := sortFileWithEngine(t, dir, "balance", inPath, matrixConfig(), EngineBalanceSort)
	got, res := sortFileWithEngine(t, dir, "inmem", inPath, matrixConfig(), EngineInMem)
	if string(got) != string(want) {
		t.Fatal("inmem output differs from balancesort")
	}
	if res.IOs == 0 || res.PRAMWork == 0 {
		t.Fatalf("inmem result not metered: %+v", res)
	}
	// Too large for half a memoryload must be refused, not mis-sorted.
	big := NewWorkload(Uniform, matrixConfig().Memory, 9)
	bigPath := filepath.Join(dir, "big.bin")
	if err := WriteRecordFile(bigPath, big); err != nil {
		t.Fatal(err)
	}
	cfg := matrixConfig()
	cfg.Engine = EngineInMem
	if _, err := SortFile(bigPath, filepath.Join(dir, "big.out"), "", cfg); err == nil {
		t.Fatal("inmem accepted an input larger than M/2")
	}
}

// TestEngineInMemRefusesBeforeReading hands the inmem engine a sparse
// 64 MiB input at the default M: it must refuse N > M/2 from the file
// size, before it reads or decodes one record.
func TestEngineInMemRefusesBeforeReading(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "big.bin")
	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(64 << 20); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = SortFile(inPath, filepath.Join(dir, "out.bin"), "", Config{Engine: EngineInMem})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "inmem engine needs") {
		t.Fatalf("got %v, want the inmem size refusal", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("refusing the input allocated %d bytes first", d)
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Engine
	}{
		{"", EngineBalanceSort},
		{"auto", EngineAuto},
		{"balancesort", EngineBalanceSort},
		{"stripedmerge", EngineStripedMerge},
		{"inmem", EngineInMem},
	} {
		got, err := ParseEngine(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, bad := range []string{"quantum", "guidesort"} {
		if _, err := ParseEngine(bad); err == nil {
			t.Fatalf("unknown engine %q accepted", bad)
		}
	}
}

// TestStripedMergeCrashMatrixResume mirrors TestCrashMatrixResume for the
// stripedmerge engine: kill immediately before every journal commit in
// turn, resume, and demand byte-identical output plus a bounded I/O
// overhead (at most one redone step).
func TestStripedMergeCrashMatrixResume(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)

	basePath := filepath.Join(dir, "base.bin")
	cfg := matrixConfig()
	cfg.Engine = EngineStripedMerge
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
	// Entry 1 is the loaded-input commit; the rest are sorter steps.
	commits := len(entries) - 1
	if commits < 10 {
		t.Fatalf("only %d commit boundaries; the matrix needs a multi-step sort", commits)
	}
	var maxStep, prevIOs int64
	for _, e := range entries {
		var js guideJournalState
		if err := json.Unmarshal(e.Payload, &js); err != nil {
			t.Fatal(err)
		}
		if js.Engine != string(EngineStripedMerge) {
			t.Fatalf("journal entry tagged %q", js.Engine)
		}
		if d := js.State.Metrics.IOs - prevIOs; d > maxStep {
			maxStep = d
		}
		prevIOs = js.State.Metrics.IOs
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
		cfg.Engine = EngineStripedMerge
		cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: k}
		_, err := SortFile(inPath, outPath, scratch, cfg)
		if !errors.Is(err, core.ErrInjectedCrash) {
			t.Fatalf("kill %d: got %v, want the injected crash", k, err)
		}
		if _, err := os.Stat(outPath); !os.IsNotExist(err) {
			t.Fatalf("kill %d: crashed sort left an output file", k)
		}

		// Resume deliberately passes no Engine: the journal's tag must win.
		res, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig())
		if err != nil {
			t.Fatalf("resume after kill %d: %v", k, err)
		}
		if res.Engine != string(EngineStripedMerge) {
			t.Fatalf("resume after kill %d ran %q, journal said stripedmerge", k, res.Engine)
		}
		got, err := os.ReadFile(outPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(baseBytes) {
			t.Fatalf("resume after kill %d: output differs from the uninterrupted run", k)
		}
		if res.IOs > base.IOs+maxStep {
			t.Fatalf("resume after kill %d: %d committed I/Os, uninterrupted %d + one step %d",
				k, res.IOs, base.IOs, maxStep)
		}
	}
}

// TestStripedMergeCrashResume spot-checks that the striped discipline
// inherits the same journaling machinery.
func TestStripedMergeCrashResume(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	want, _ := sortFileWithEngine(t, dir, "striped-base", inPath, matrixConfig(), EngineStripedMerge)

	scratch := filepath.Join(dir, "scratch")
	outPath := filepath.Join(dir, "out.bin")
	cfg := matrixConfig()
	cfg.Engine = EngineStripedMerge
	cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: 3}
	if _, err := SortFile(inPath, outPath, scratch, cfg); !errors.Is(err, core.ErrInjectedCrash) {
		t.Fatalf("got %v, want the injected crash", err)
	}
	res, err := ResumeSortFile(inPath, outPath, scratch, matrixConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != string(EngineStripedMerge) {
		t.Fatalf("resumed as %q", res.Engine)
	}
	if res.IO == nil {
		t.Fatal("resumed stripedmerge sort has no Result.IO")
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("resumed striped output differs")
	}
}

// TestResumeRejectsGuidesortJournal resumes a scratch directory whose
// last journal commit is tagged with the removed guided-merge engine: the
// resume must fail with the unknown-engine error and write no output.
func TestResumeRejectsGuidesortJournal(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	scratch := filepath.Join(dir, "scratch")
	outPath := filepath.Join(dir, "out.bin")
	cfg := matrixConfig()
	cfg.Engine = EngineStripedMerge
	cfg.Robust = RobustConfig{Journal: true, crashAfterCommits: 1}
	if _, err := SortFile(inPath, outPath, scratch, cfg); !errors.Is(err, core.ErrInjectedCrash) {
		t.Fatalf("got %v, want the injected crash", err)
	}

	// Recommit the loaded-input state under the old engine tag.
	jnl, entries, err := pdm.OpenJournalAppend(pdm.JournalPath(scratch))
	if err != nil {
		t.Fatal(err)
	}
	var js guideJournalState
	if err := json.Unmarshal(entries[len(entries)-1].Payload, &js); err != nil {
		t.Fatal(err)
	}
	js.Engine = "guidesort"
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

	_, err = ResumeSortFile(inPath, outPath, scratch, matrixConfig())
	if err == nil || !strings.Contains(err.Error(), `journal names unknown engine "guidesort"`) {
		t.Fatalf("resume of a guidesort journal: got %v, want the unknown-engine error", err)
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Fatal("rejected resume left an output file")
	}
}

func TestPlanFile(t *testing.T) {
	dir := t.TempDir()
	inPath, _ := writeMatrixInput(t, dir)
	pl, err := PlanFile(inPath, matrixConfig())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Engine == "" || len(pl.Candidates) == 0 || pl.LowerBoundIOs <= 0 {
		t.Fatalf("plan incomplete: %+v", pl)
	}
}

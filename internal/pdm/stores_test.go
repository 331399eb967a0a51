package pdm

import (
	"path/filepath"
	"slices"
	"testing"

	"balancesort/internal/record"
)

// TestStoresCopyOpData pins the contract buffer reuse above this package
// relies on: every block store copies Op.Data before ParallelIO returns.
// A buffer overwritten right after its write, or after a read into it,
// must not change what the block holds.
func TestStoresCopyOpData(t *testing.T) {
	p := testParams()
	arrays := map[string]func(t *testing.T) *Array{
		"mem": func(t *testing.T) *Array { return New(p) },
		"file": func(t *testing.T) *Array {
			a, err := NewFileBacked(p, filepath.Join(t.TempDir(), "s"))
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"engine": func(t *testing.T) *Array { return NewModeEngine(p, ModePDM, engineConfig()) },
		"file-engine": func(t *testing.T) *Array {
			a, err := NewFileBackedEngine(p, filepath.Join(t.TempDir(), "s"), engineConfig())
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
	}
	for name, open := range arrays {
		t.Run(name, func(t *testing.T) {
			a := open(t)
			defer a.Close()
			want := block(p.B, 7)
			buf := slices.Clone(want)
			a.ParallelIO([]Op{{Disk: 1, Off: 0, Write: true, Data: buf}})
			for i := range buf {
				buf[i] = record.Record{Key: 99, Loc: 99}
			}
			got := make([]record.Record, p.B)
			a.ParallelIO([]Op{{Disk: 1, Off: 0, Data: got}})
			if !slices.Equal(got, want) {
				t.Fatalf("block changed after its write buffer was overwritten: %v", got)
			}
			for i := range got {
				got[i] = record.Record{Key: 98, Loc: 98}
			}
			again := make([]record.Record, p.B)
			a.ParallelIO([]Op{{Disk: 1, Off: 0, Data: again}})
			if !slices.Equal(again, want) {
				t.Fatalf("block changed after its read buffer was overwritten: %v", again)
			}
		})
	}
}

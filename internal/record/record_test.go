package record

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"
)

func TestLessOrdersByKeyThenLoc(t *testing.T) {
	a := Record{Key: 1, Loc: 9}
	b := Record{Key: 2, Loc: 0}
	if !a.Less(b) || b.Less(a) {
		t.Fatalf("key ordering broken: %v vs %v", a, b)
	}
	c := Record{Key: 1, Loc: 10}
	if !a.Less(c) || c.Less(a) {
		t.Fatalf("loc tie-breaking broken: %v vs %v", a, c)
	}
	if a.Less(a) {
		t.Fatalf("record compares less than itself")
	}
}

func TestCompareConsistentWithLess(t *testing.T) {
	f := func(k1, l1, k2, l2 uint64) bool {
		a := Record{Key: k1, Loc: l1}
		b := Record{Key: k2, Loc: l2}
		c := a.Compare(b)
		switch {
		case a.Less(b):
			return c == -1 && b.Compare(a) == 1
		case b.Less(a):
			return c == 1 && b.Compare(a) == -1
		default:
			return c == 0 && b.Compare(a) == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompareTransitivity(t *testing.T) {
	f := func(ks [3]uint64, ls [3]uint64) bool {
		rs := []Record{
			{Key: ks[0] % 4, Loc: ls[0] % 4},
			{Key: ks[1] % 4, Loc: ls[1] % 4},
			{Key: ks[2] % 4, Loc: ls[2] % 4},
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].Less(rs[j]) })
		return !rs[1].Less(rs[0]) && !rs[2].Less(rs[1])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted(nil) {
		t.Fatal("nil slice should be sorted")
	}
	if !IsSorted([]Record{{Key: 1}}) {
		t.Fatal("singleton should be sorted")
	}
	if !IsSorted([]Record{{Key: 1, Loc: 0}, {Key: 1, Loc: 1}, {Key: 2}}) {
		t.Fatal("sorted slice reported unsorted")
	}
	if IsSorted([]Record{{Key: 2}, {Key: 1}}) {
		t.Fatal("unsorted slice reported sorted")
	}
	if IsSorted([]Record{{Key: 1, Loc: 1}, {Key: 1, Loc: 0}}) {
		t.Fatal("loc inversion not detected")
	}
}

func TestStamp(t *testing.T) {
	rs := make([]Record, 5)
	Stamp(rs, 100)
	for i, r := range rs {
		if r.Loc != 100+uint64(i) {
			t.Fatalf("rs[%d].Loc = %d, want %d", i, r.Loc, 100+i)
		}
	}
}

func TestSameMultiset(t *testing.T) {
	a := []Record{{Key: 1, Loc: 0}, {Key: 1, Loc: 1}, {Key: 2, Loc: 2}}
	b := []Record{{Key: 2, Loc: 2}, {Key: 1, Loc: 0}, {Key: 1, Loc: 1}}
	if !SameMultiset(a, b) {
		t.Fatal("permutation not recognized")
	}
	if SameMultiset(a, a[:2]) {
		t.Fatal("length mismatch not detected")
	}
	c := []Record{{Key: 1, Loc: 0}, {Key: 1, Loc: 0}, {Key: 2, Loc: 2}}
	if SameMultiset(a, c) {
		t.Fatal("multiplicity mismatch not detected")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, w := range AllWorkloads {
		a := Generate(w, 512, 42)
		b := Generate(w, 512, 42)
		if len(a) != 512 {
			t.Fatalf("%v: wrong length %d", w, len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: generation not deterministic at %d", w, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a := Generate(Uniform, 256, 1)
	b := Generate(Uniform, 256, 2)
	same := 0
	for i := range a {
		if a[i].Key == b[i].Key {
			same++
		}
	}
	if same > 8 {
		t.Fatalf("different seeds produced %d/256 identical keys", same)
	}
}

func TestGenerateStampsLocs(t *testing.T) {
	for _, w := range AllWorkloads {
		rs := Generate(w, 100, 7)
		for i, r := range rs {
			if r.Loc != uint64(i) {
				t.Fatalf("%v: rs[%d].Loc = %d", w, i, r.Loc)
			}
		}
	}
}

func TestGenerateEffectiveKeysDistinct(t *testing.T) {
	// Even FewDistinct must have fully distinct (Key, Loc) pairs.
	rs := Generate(FewDistinct, 1000, 3)
	seen := make(map[Record]bool, len(rs))
	for _, r := range rs {
		if seen[r] {
			t.Fatalf("duplicate effective key %v", r)
		}
		seen[r] = true
	}
}

func TestWorkloadShapes(t *testing.T) {
	n := 4096
	rev := Generate(Reversed, n, 5)
	for i := 1; i < n; i++ {
		if rev[i-1].Key <= rev[i].Key {
			t.Fatalf("Reversed not strictly descending at %d", i)
		}
	}

	ns := Generate(NearlySorted, n, 5)
	inversions := 0
	for i := 1; i < n; i++ {
		if ns[i].Key < ns[i-1].Key {
			inversions++
		}
	}
	if inversions == 0 || inversions > n/8 {
		t.Fatalf("NearlySorted has %d adjacent inversions, want a small positive count", inversions)
	}

	fd := Generate(FewDistinct, n, 5)
	distinct := make(map[uint64]bool)
	for _, r := range fd {
		distinct[r.Key] = true
	}
	if len(distinct) > 7 {
		t.Fatalf("FewDistinct produced %d distinct keys", len(distinct))
	}

	sk := Generate(BucketSkew, n, 5)
	high := 0
	for _, r := range sk {
		if r.Key > ^uint64(0)-2048 {
			high++
		}
	}
	if high < n/2 {
		t.Fatalf("BucketSkew concentrated only %d/%d keys in the hot band", high, n)
	}

	z := Generate(Zipf, n, 5)
	counts := make(map[uint64]int)
	for _, r := range z {
		counts[r.Key]++
	}
	if counts[0] < counts[512] {
		t.Fatalf("Zipf rank 0 (%d) not hotter than rank 512 (%d)", counts[0], counts[512])
	}
}

func TestRNGIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := g.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestKeys(t *testing.T) {
	rs := []Record{{Key: 3}, {Key: 1}, {Key: 2}}
	ks := Keys(rs)
	want := []uint64{3, 1, 2}
	for i := range want {
		if ks[i] != want[i] {
			t.Fatalf("Keys[%d] = %d, want %d", i, ks[i], want[i])
		}
	}
}

func TestCodecInPackage(t *testing.T) {
	rs := Generate(Zipf, 100, 3)
	buf := EncodeSlice(rs)
	back, err := DecodeSlice(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if back[i] != rs[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

// TestCodecMatchesByteLoop checks the codec's one-copy path against the
// record-by-record byte loop, called directly, on random, zero, all-ones
// and high-bit values: both must give the same bytes, Key then Loc
// little-endian, and the same records back, whatever the buffer's
// alignment or prefix.
func TestCodecMatchesByteLoop(t *testing.T) {
	rs := Generate(Uniform, 300, 41)
	for _, v := range []uint64{0, ^uint64(0), 1 << 63, 0x8000000000000001, 0x0102030405060708} {
		rs = append(rs, Record{Key: v, Loc: v}, Record{Key: v, Loc: ^v}, Record{Key: ^v, Loc: v})
	}
	want := make([]byte, len(rs)*EncodedSize)
	encodeLoop(want, rs)
	for i, r := range rs {
		if one := Encode(nil, r); !bytes.Equal(want[i*EncodedSize:(i+1)*EncodedSize], one) {
			t.Fatalf("record %d: byte loop wrote %x, Encode %x", i, want[i*EncodedSize:(i+1)*EncodedSize], one)
		}
	}

	prefix := []byte{0xaa, 0xbb, 0xcc}
	got := AppendSlice(append([]byte(nil), prefix...), rs)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatal("AppendSlice's bytes differ from the byte loop's")
	}
	var sb bytes.Buffer
	if err := WriteAll(&sb, rs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb.Bytes(), want) {
		t.Fatal("WriteAll's bytes differ from the byte loop's")
	}

	loop := make([]Record, len(rs))
	decodeLoop(loop, want)
	odd := got[len(prefix):] // 3 bytes past the allocation's start, so unaligned
	native := make([]Record, len(rs))
	DecodeInto(native, odd)
	whole, err := DecodeSlice(odd)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if loop[i] != rs[i] || native[i] != rs[i] || whole[i] != rs[i] {
			t.Fatalf("record %d: byte loop %v, DecodeInto %v, DecodeSlice %v, want %v", i, loop[i], native[i], whole[i], rs[i])
		}
	}
}

func TestWriteReadAll(t *testing.T) {
	rs := Generate(Uniform, 5000, 9) // spans multiple WriteAll chunks
	var sb bytes.Buffer
	if err := WriteAll(&sb, rs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAll(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(rs) {
		t.Fatalf("got %d records", len(back))
	}
	for i := range rs {
		if back[i] != rs[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestWorkloadStrings(t *testing.T) {
	names := map[Workload]string{
		Uniform: "uniform", FewDistinct: "fewdistinct", NearlySorted: "nearlysorted",
		Reversed: "reversed", BucketSkew: "bucketskew", Zipf: "zipf", Workload(99): "unknown",
	}
	for w, want := range names {
		if w.String() != want {
			t.Fatalf("%d.String() = %q, want %q", w, w.String(), want)
		}
	}
}

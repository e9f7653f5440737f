package postings

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/transport"
	"repro/internal/wire"
)

func mk(peer string, doc uint32, score float64) Posting {
	return Posting{Ref: DocRef{Peer: transport.Addr("p" + peer), Doc: doc}, Score: score}
}

func TestNormalizeOrdersAndDedupes(t *testing.T) {
	l := &List{Entries: []Posting{
		mk("a", 1, 0.5),
		mk("b", 2, 0.9),
		mk("a", 1, 0.7), // duplicate ref, higher score wins
		mk("c", 3, 0.9), // tie with b/2: ref order breaks it
	}}
	l.Normalize()
	want := []Posting{mk("b", 2, 0.9), mk("c", 3, 0.9), mk("a", 1, 0.7)}
	if !reflect.DeepEqual(l.Entries, want) {
		t.Fatalf("normalized = %v, want %v", l.Entries, want)
	}
}

// TestCanonicalOrderIsTotal: every input order of the same postings
// sorts to one result, NaN scores included (they sort last, by ref).
func TestCanonicalOrderIsTotal(t *testing.T) {
	nan := math.NaN()
	want := []Posting{mk("b", 2, 0.9), mk("c", 3, 0.9), mk("a", 1, 0.5), mk("a", 4, nan), mk("d", 1, nan)}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		got := slices.Clone(want)
		rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
		sortCanonical(got)
		for i := range got {
			if got[i].Ref != want[i].Ref || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("trial %d: sorted = %v, want %v", trial, got, want)
			}
		}
	}
}

func TestTruncate(t *testing.T) {
	l := &List{Entries: []Posting{mk("a", 1, 3), mk("a", 2, 2), mk("a", 3, 1)}}
	l.Truncate(2)
	if len(l.Entries) != 2 || !l.Truncated {
		t.Fatalf("after truncate: %d entries, truncated=%v", len(l.Entries), l.Truncated)
	}
	if l.Entries[0].Score != 3 || l.Entries[1].Score != 2 {
		t.Fatalf("kept wrong entries: %v", l.Entries)
	}
	// Truncating to a larger bound is a no-op and keeps the flag.
	l.Truncate(10)
	if len(l.Entries) != 2 || !l.Truncated {
		t.Fatal("truncate to larger bound changed the list")
	}
	// An untruncated list that fits is not marked.
	m := &List{Entries: []Posting{mk("a", 1, 1)}}
	m.Truncate(5)
	if m.Truncated {
		t.Fatal("list within bound must not be marked truncated")
	}
}

func TestInsert(t *testing.T) {
	l := &List{}
	if !l.Insert(mk("a", 1, 0.5)) {
		t.Fatal("insert into empty list")
	}
	if !l.Insert(mk("a", 2, 0.9)) {
		t.Fatal("insert higher")
	}
	if !l.Insert(mk("a", 3, 0.1)) {
		t.Fatal("insert lower")
	}
	// Same ref, lower score: rejected.
	if l.Insert(mk("a", 2, 0.2)) {
		t.Fatal("lower score for same ref must be rejected")
	}
	// Same ref, higher score: replaces.
	if !l.Insert(mk("a", 1, 1.5)) {
		t.Fatal("higher score for same ref must replace")
	}
	want := []Posting{mk("a", 1, 1.5), mk("a", 2, 0.9), mk("a", 3, 0.1)}
	if !reflect.DeepEqual(l.Entries, want) {
		t.Fatalf("entries = %v, want %v", l.Entries, want)
	}
}

func TestUnion(t *testing.T) {
	a := &List{Entries: []Posting{mk("a", 1, 0.9), mk("a", 2, 0.4)}}
	b := &List{Entries: []Posting{mk("a", 2, 0.6), mk("b", 7, 0.8)}, Truncated: true}
	u := Union(a, b, nil)
	want := []Posting{mk("a", 1, 0.9), mk("b", 7, 0.8), mk("a", 2, 0.6)}
	if !reflect.DeepEqual(u.Entries, want) {
		t.Fatalf("union = %v, want %v", u.Entries, want)
	}
	if !u.Truncated {
		t.Fatal("union of a truncated list must be truncated")
	}
}

func TestIntersect(t *testing.T) {
	a := &List{Entries: []Posting{mk("a", 1, 0.9), mk("a", 2, 0.4), mk("b", 3, 0.7)}}
	b := &List{Entries: []Posting{mk("a", 2, 0.1), mk("b", 3, 0.2), mk("c", 9, 0.5)}}
	i := Intersect(a, b)
	want := []Posting{mk("b", 3, 0.7), mk("a", 2, 0.4)}
	if !reflect.DeepEqual(i.Entries, want) {
		t.Fatalf("intersect = %v, want %v", i.Entries, want)
	}
	if i.Truncated {
		t.Fatal("intersection of complete lists is complete")
	}
	b.Truncated = true
	if !Intersect(a, b).Truncated {
		t.Fatal("intersection with truncated input is truncated")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	l := &List{Truncated: true}
	rng := rand.New(rand.NewSource(5))
	peers := []string{"peer-a:1", "peer-b:2", "peer-c:3", "peer-d:4"}
	for i := 0; i < 200; i++ {
		l.Add(Posting{
			Ref:   DocRef{Peer: transport.Addr(peers[rng.Intn(len(peers))]), Doc: uint32(rng.Intn(10000))},
			Score: float64(rng.Intn(1000)) / 10,
		})
	}
	l.Normalize()
	got, err := DecodeBytes(l.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got.Entries[:3], l.Entries[:3])
	}
}

func TestEncodeEmptyList(t *testing.T) {
	l := &List{}
	got, err := DecodeBytes(l.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Truncated {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	l := &List{Entries: []Posting{mk("a", 1, 0.5), mk("b", 9, 0.25)}}
	l.Normalize()
	if got, want := l.EncodedSize(), len(l.EncodeBytes()); got != want {
		t.Fatalf("EncodedSize = %d, len(EncodeBytes) = %d", got, want)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	l := &List{Entries: []Posting{mk("a", 1, 0.5), mk("a", 2, 0.25)}}
	l.Normalize()
	full := l.EncodeBytes()
	for i := 0; i < len(full); i++ {
		if _, err := DecodeBytes(full[:i]); err == nil {
			t.Fatalf("decoding %d/%d bytes should fail", i, len(full))
		}
	}
	// A hostile count prefix must be rejected rather than allocated.
	w := wire.NewWriter(16)
	w.Bool(false)
	w.Uvarint(1 << 30) // absurd peer count
	if _, err := DecodeBytes(w.Bytes()); err == nil {
		t.Fatal("hostile peer count must be rejected")
	}
	// A failed read before Decode fails Decode too, even ahead of a good
	// frame: callers take its nil error to mean every read succeeded.
	r := wire.NewReader(append([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, full...))
	_ = r.String() // an absurd length prefix
	if _, err := Decode(r, nil); err == nil {
		t.Fatal("Decode after a failed read must report it")
	}
}

func TestDeltaEncodingCompacts(t *testing.T) {
	// 100 postings of one peer with dense doc ids must cost far less than
	// 100 repetitions of the address.
	l := &List{}
	for i := 0; i < 100; i++ {
		l.Add(Posting{Ref: DocRef{Peer: "some-peer-address:9999", Doc: uint32(i)}, Score: 1})
	}
	l.Normalize()
	size := l.EncodedSize()
	naive := 100 * (len("some-peer-address:9999") + 4 + 8)
	if size >= naive/2 {
		t.Fatalf("encoding not compact: %d bytes vs naive %d", size, naive)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(docs []uint32, scores []float64, trunc bool) bool {
		l := &List{Truncated: trunc}
		for i, d := range docs {
			s := 1.0
			if i < len(scores) {
				s = scores[i]
			}
			// NaN scores break canonical ordering by design; exclude them.
			if s != s {
				s = 0
			}
			l.Add(Posting{Ref: DocRef{Peer: transport.Addr("p"), Doc: d % 100000}, Score: s})
		}
		l.Normalize()
		got, err := DecodeBytes(l.EncodeBytes())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnionIdempotentAndCommutative(t *testing.T) {
	f := func(docsA, docsB []uint32) bool {
		build := func(docs []uint32) *List {
			l := &List{}
			for _, d := range docs {
				l.Add(Posting{Ref: DocRef{Peer: "p", Doc: d % 1000}, Score: float64(d % 97)})
			}
			l.Normalize()
			return l
		}
		a, b := build(docsA), build(docsB)
		ab := Union(a, b)
		ba := Union(b, a)
		aa := Union(a, a)
		return reflect.DeepEqual(ab, ba) && reflect.DeepEqual(aa.Entries, a.Entries)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesUnionTruncate checks Merge against its definition at
// every bound from 0 past the union's length, on its own: the store's
// DF-based truncation mark would hide a missing cut mark. Each peer's
// entries come from add when fromAdd picks the peer and from stored
// otherwise.
func TestMergeMatchesUnionTruncate(t *testing.T) {
	f := func(docsA, docsB []uint32, truncA, truncB bool, pick uint8) bool {
		build := func(docs []uint32, trunc bool) *List {
			l := &List{Truncated: trunc}
			for _, d := range docs {
				l.Add(mk(string(rune('a'+d%3)), d%16, float64(d%5)))
			}
			return l
		}
		fromAdd := func(p transport.Addr) bool { return pick>>(p[0]-'a')&1 == 1 }
		only := func(l *List, keep bool) *List {
			c := l.Clone()
			c.Entries = slices.DeleteFunc(c.Entries, func(p Posting) bool { return fromAdd(p.Ref.Peer) != keep })
			return c
		}
		stored, add := build(docsA, truncA), build(docsB, truncB)
		stored.Normalize()
		for bound := 0; bound <= len(docsA)+len(docsB)+1; bound++ {
			want := Union(only(stored, false), only(add, true))
			want.Truncate(bound)
			got := Merge(stored, add, fromAdd, bound)
			if !slices.Equal(got.Entries, want.Entries) || got.Truncated != want.Truncated {
				t.Logf("bound %d: got %v (truncated %v), want %v (truncated %v)", bound, got.Entries, got.Truncated, want.Entries, want.Truncated)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	l := &List{Entries: []Posting{mk("a", 1, 1)}, Truncated: true}
	c := l.Clone()
	c.Entries[0].Score = 99
	c.Truncated = false
	if l.Entries[0].Score != 1 || !l.Truncated {
		t.Fatal("clone must not share state")
	}
}

func TestTopK(t *testing.T) {
	l := &List{Entries: []Posting{mk("a", 1, 3), mk("a", 2, 2), mk("a", 3, 1)}}
	if got := l.TopK(2); len(got) != 2 || got[0].Score != 3 {
		t.Fatalf("TopK(2) = %v", got)
	}
	if got := l.TopK(10); len(got) != 3 {
		t.Fatalf("TopK(10) = %v", got)
	}
}

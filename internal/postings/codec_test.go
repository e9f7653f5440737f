package postings

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

func randomList(seed int64, n int) *List {
	l := &List{Truncated: seed%2 == 0}
	rng := rand.New(rand.NewSource(seed))
	peers := []string{"peer-a:1", "peer-b:2", "peer-c:3", "peer-d:4"}
	for i := 0; i < n; i++ {
		l.Add(Posting{
			Ref:   DocRef{Peer: transport.Addr(peers[rng.Intn(len(peers))]), Doc: uint32(rng.Intn(100000))},
			Score: rng.Float64() * 40,
		})
	}
	l.Normalize()
	return l
}

func TestCompressedRoundTripApprox(t *testing.T) {
	l := randomList(7, 300)
	got, err := DecodeBytes(l.EncodeBytesCompressed())
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated != l.Truncated {
		t.Fatalf("truncated flag: got %v want %v", got.Truncated, l.Truncated)
	}
	if got.Len() != l.Len() {
		t.Fatalf("length: got %d want %d", got.Len(), l.Len())
	}
	exact := make(map[DocRef]float64, l.Len())
	groupMax := map[transport.Addr]float64{}
	for _, p := range l.Entries {
		exact[p.Ref] = p.Score
		if p.Score > groupMax[p.Ref.Peer] {
			groupMax[p.Ref.Peer] = p.Score
		}
	}
	for _, p := range got.Entries {
		want, ok := exact[p.Ref]
		if !ok {
			t.Fatalf("unexpected ref %v", p.Ref)
		}
		// Floor quantization: decoded never exceeds exact, and stays
		// within one quantum of it.
		if p.Score > want {
			t.Fatalf("decoded score %v exceeds exact %v for %v", p.Score, want, p.Ref)
		}
		if want-p.Score > groupMax[p.Ref.Peer]/quantScale+1e-12 {
			t.Fatalf("decoded score %v too far below exact %v for %v", p.Score, want, p.Ref)
		}
	}
}

func TestCompressedGroupMaxIsExact(t *testing.T) {
	// The top entry of each per-peer group must survive byte-for-byte:
	// it is the score the threshold loop uses as that chunk's bound.
	l := randomList(11, 120)
	got, err := DecodeBytes(l.EncodeBytesCompressed())
	if err != nil {
		t.Fatal(err)
	}
	maxExact := map[transport.Addr]float64{}
	for _, p := range l.Entries {
		if p.Score > maxExact[p.Ref.Peer] {
			maxExact[p.Ref.Peer] = p.Score
		}
	}
	maxGot := map[transport.Addr]float64{}
	for _, p := range got.Entries {
		if p.Score > maxGot[p.Ref.Peer] {
			maxGot[p.Ref.Peer] = p.Score
		}
	}
	if !reflect.DeepEqual(maxExact, maxGot) {
		t.Fatalf("group maxima changed:\n got %v\nwant %v", maxGot, maxExact)
	}
}

func TestCompressedRawFallback(t *testing.T) {
	// Negative, infinite and all-zero groups cannot be quantized: a list
	// holding any of them goes exact as a whole — byte for byte the exact
	// frame — and round-trips exactly, its quantizable groups included.
	l := &List{}
	l.Add(Posting{Ref: DocRef{Peer: "neg:1", Doc: 1}, Score: -2.5})
	l.Add(Posting{Ref: DocRef{Peer: "neg:1", Doc: 2}, Score: 3.5})
	l.Add(Posting{Ref: DocRef{Peer: "zero:1", Doc: 1}, Score: 0})
	l.Add(Posting{Ref: DocRef{Peer: "inf:1", Doc: 1}, Score: math.Inf(1)})
	l.Add(Posting{Ref: DocRef{Peer: "fine:1", Doc: 1}, Score: 0.1})
	l.Normalize()
	for _, bad := range []Posting{{Ref: DocRef{Peer: "zero:1", Doc: 1}, Score: 0}, l.Entries[0], l.Entries[len(l.Entries)-1]} {
		one := &List{Entries: []Posting{{Ref: DocRef{Peer: "fine:1", Doc: 1}, Score: 0.1}, bad}}
		one.Normalize()
		if got, want := one.EncodeBytesCompressed(), one.EncodeBytes(); !reflect.DeepEqual(got, want) {
			t.Fatalf("list with %v: compressed frame % x, want the exact frame % x", bad, got, want)
		}
	}
	got, err := DecodeBytes(l.EncodeBytesCompressed())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Fatalf("raw fallback round trip:\n got %+v\nwant %+v", got, l)
	}
}

func TestCompressedEmptyList(t *testing.T) {
	got, err := DecodeBytes((&List{}).EncodeBytesCompressed())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Truncated {
		t.Fatalf("empty round trip: %+v", got)
	}
}

func TestCompressedSmallerThanLegacy(t *testing.T) {
	l := randomList(3, 500)
	legacy, compact := l.EncodedSize(), len(l.EncodeBytesCompressed())
	if compact >= legacy*2/3 {
		t.Fatalf("compressed %d bytes not smaller than legacy %d", compact, legacy)
	}
}

// TestQuantizationFloor pins the property the threshold loop's soundness
// rests on: a quantized score never decodes above the stored score, even
// where score/max rounds up across a quantization step.
func TestQuantizationFloor(t *testing.T) {
	const max, score = 24.22006116640428, 0.8867918952285541
	l := &List{Entries: []Posting{
		{Ref: DocRef{Peer: "p:1", Doc: 1}, Score: max},
		{Ref: DocRef{Peer: "p:1", Doc: 2}, Score: score},
	}}
	got, err := DecodeBytes(l.EncodeBytesCompressed())
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Score != max || got.Entries[1].Score > score {
		t.Fatalf("decoded %v, %v; want %v and at most %v", got.Entries[0].Score, got.Entries[1].Score, max, score)
	}

	// Scores one ulp below a step, under random group maxima: the floor
	// of score/max lands on the step above for a few percent of them.
	rng := rand.New(rand.NewSource(38))
	l = &List{}
	for g := 0; g < 20; g++ {
		peer := transport.Addr("peer-" + string(rune('a'+g)))
		max := rng.Float64()*100 + 0.01
		l.Add(Posting{Ref: DocRef{Peer: peer, Doc: 0}, Score: max})
		for d := 1; d <= 500; d++ {
			step := float64(1+rng.Intn(quantScale-1)) / quantScale * max
			l.Add(Posting{Ref: DocRef{Peer: peer, Doc: uint32(d)}, Score: math.Nextafter(step, 0)})
		}
	}
	l.Normalize()
	exact := make(map[DocRef]float64, l.Len())
	for _, p := range l.Entries {
		exact[p.Ref] = p.Score
	}
	got, err = DecodeBytes(l.EncodeBytesCompressed())
	if err != nil {
		t.Fatal(err)
	}
	over := 0
	for _, p := range got.Entries {
		if p.Score > exact[p.Ref] {
			over++
		}
	}
	if over > 0 {
		t.Fatalf("%d of %d near-step scores decoded above the stored score", over, got.Len())
	}
}

func TestCompressedDecodeCorruptInputs(t *testing.T) {
	l := randomList(5, 30)
	full := l.EncodeBytesCompressed()
	for i := 0; i < len(full); i++ {
		if _, err := DecodeBytes(full[:i]); err == nil {
			t.Fatalf("decoding %d/%d bytes should fail", i, len(full))
		}
	}
	// Unknown flag bits, the retired 0xC2 marker among them.
	for _, b := range []byte{0x04, 0x7F, 0xC2} {
		if _, err := DecodeBytes([]byte{b, 0}); err == nil {
			t.Fatalf("flags byte 0x%02x must be rejected", b)
		}
	}
	// Hostile counts and invalid group metadata.
	hostile := func(build func(w *wire.Writer)) {
		t.Helper()
		w := wire.NewWriter(32)
		w.Byte(flagQuantized)
		build(w)
		if _, err := DecodeBytes(w.Bytes()); err == nil {
			t.Fatalf("hostile quantized frame must be rejected: % x", w.Bytes())
		}
	}
	hostile(func(w *wire.Writer) { w.Uvarint(1 << 30) }) // absurd peer count
	hostile(func(w *wire.Writer) {                       // absurd group count
		w.Uvarint(1)
		w.String("p:1")
		w.Uvarint(1 << 30)
		w.Float64(1)
	})
	for _, max := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		hostile(func(w *wire.Writer) { // group maximum not positive and finite
			w.Uvarint(1)
			w.String("p:1")
			w.Uvarint(1)
			w.Float64(max)
			w.Uvarint(0)
			w.Uvarint(5)
		})
	}
	hostile(func(w *wire.Writer) { // quantized value above scale
		w.Uvarint(1)
		w.String("p:1")
		w.Uvarint(1)
		w.Float64(1)
		w.Uvarint(0)
		w.Uvarint(quantScale + 1)
	})
}

func TestLegacyEncodingUnchanged(t *testing.T) {
	// The legacy format is the compatibility default for old frames;
	// its bytes must not drift. Pin a small golden frame.
	l := &List{Truncated: true}
	l.Add(Posting{Ref: DocRef{Peer: "a:1", Doc: 3}, Score: 1.5})
	l.Add(Posting{Ref: DocRef{Peer: "a:1", Doc: 5}, Score: 0.5})
	l.Normalize()
	got := l.EncodeBytes()
	w := wire.NewWriter(64)
	w.Bool(true)
	w.Uvarint(1)
	w.String("a:1")
	w.Uvarint(2)
	w.Uvarint(3)
	w.Float64(1.5)
	w.Uvarint(2)
	w.Float64(0.5)
	if !reflect.DeepEqual(got, append([]byte(nil), w.Bytes()...)) {
		t.Fatalf("legacy frame drifted:\n got % x\nwant % x", got, w.Bytes())
	}
}

// gapFrame is an exact one-group list frame carrying the document gaps
// as given, its peer inline or, with peers, by index 0.
func gapFrame(peers *PeerTable, gaps ...uint64) []byte {
	w := wire.NewWriter(64)
	if peers == nil {
		w.Byte(0)
		w.Uvarint(1)
		w.String("p:1")
	} else {
		w.Byte(flagPeerIndex)
		w.Uvarint(1)
		w.Uvarint(0)
	}
	w.Uvarint(uint64(len(gaps)))
	for _, g := range gaps {
		w.Uvarint(g)
		w.Float64(1)
	}
	return w.Bytes()
}

// TestDecodeRejectsGapOverflow pins that a document gap carrying the
// document number past 2^32−1 is corrupt on both peer paths: wrapped,
// gaps 5 and 2^32 would name p:1/5 twice.
func TestDecodeRejectsGapOverflow(t *testing.T) {
	table := NewPeerTable("p:1")
	for _, peers := range []*PeerTable{nil, table} {
		for _, gaps := range [][]uint64{{5, 1 << 32}, {1 << 32}, {math.MaxUint32, 1}, {math.MaxUint64}} {
			if l, err := Decode(wire.NewReader(gapFrame(peers, gaps...)), peers); !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("table %v, gaps %v: got %v, %v; want ErrCorrupt", peers != nil, gaps, l, err)
			}
		}
		l, err := Decode(wire.NewReader(gapFrame(peers, 5, math.MaxUint32-5)), peers)
		if err != nil || l.Len() != 2 || l.Entries[0].Ref.Doc != 5 || l.Entries[1].Ref.Doc != math.MaxUint32 {
			t.Errorf("table %v: gaps reaching the last document number: %v, %v", peers != nil, l, err)
		}
	}
}

// TestPeerTableRoundTrip pins the frame-scoped peer table: lists encoded
// against one table decode to the lists the inline frame carries, the
// frame spells each address once, and an indexed list decodes only
// against a table that holds its peers.
func TestPeerTableRoundTrip(t *testing.T) {
	lists := []*List{randomList(31, 40), randomList(32, 3), {}, randomList(34, 1)}
	peers := NewPeerTable("peer-a:1", "peer-b:2", "peer-c:3", "peer-d:4")
	w := wire.NewWriter(1024)
	peers.Encode(w)
	for _, l := range lists {
		l.EncodeIndexed(w, peers)
	}
	frame := w.Bytes()
	for _, addr := range []string{"peer-a:1", "peer-b:2", "peer-c:3", "peer-d:4"} {
		if n := bytes.Count(frame, []byte(addr)); n != 1 {
			t.Errorf("frame spells %s %d times, want once", addr, n)
		}
	}
	r := wire.NewReader(frame)
	got, err := DecodePeerTable(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, l := range lists {
		d, err := Decode(r, got)
		if err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if !bytes.Equal(d.EncodeBytes(), l.EncodeBytes()) {
			t.Fatalf("list %d decoded to a different list", i)
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d trailing bytes", r.Remaining())
	}
	if _, err := DecodePeerTable(wire.NewReader(frame), 3); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("table of 4 peers under a bound of 3: got %v, want ErrCorrupt", err)
	}
	one := wire.NewWriter(64)
	lists[3].EncodeIndexed(one, peers)
	if _, err := DecodeBytes(one.Bytes()); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("indexed list without a table: got %v, want ErrCorrupt", err)
	}
	if _, err := Decode(wire.NewReader(one.Bytes()), &PeerTable{}); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("indexed list against an empty table: got %v, want ErrCorrupt", err)
	}
}

// Package postings implements the scored posting lists stored in the
// AlvisP2P global index. A posting carries a global document reference
// (hosting peer + peer-local document number) and the publisher-computed
// relevance score of that document for the list's key; carrying the score
// lets the querying peer rank a union of lists without contacting the
// document owners (paper §2).
//
// Lists are kept sorted by decreasing score and may be *truncated* to a
// bounded number of top-ranked entries — the property that caps the size
// of any transmitted list and hence the per-query bandwidth (paper §1).
package postings

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/transport"
	"repro/internal/wire"
)

// DocRef identifies a document globally. Documents never leave their
// owner; the reference is what circulates in the index.
type DocRef struct {
	Peer transport.Addr // hosting peer
	Doc  uint32         // peer-local document number
}

// Less orders references by (peer, doc) for deterministic tie-breaking.
func (r DocRef) Less(o DocRef) bool { return r.Compare(o) < 0 }

// Compare orders references by (peer, doc): -1, 0 or +1.
func (r DocRef) Compare(o DocRef) int {
	if r.Peer != o.Peer {
		if r.Peer < o.Peer {
			return -1
		}
		return 1
	}
	return cmp.Compare(r.Doc, o.Doc)
}

func (r DocRef) String() string { return fmt.Sprintf("%s/%d", r.Peer, r.Doc) }

// RefIDs numbers document references as pointer-free map keys: the
// peer's ordinal of first appearance in the high 32 bits, the document
// number in the low 32. A map keyed by them hashes no string and holds
// nothing the garbage collector must scan. Ids are stable for the life
// of one RefIDs and mean nothing across two. The zero value is ready to
// use; it is not safe for concurrent use.
type RefIDs struct {
	peers   map[transport.Addr]uint64
	last    transport.Addr // the previous call's peer, matched without hashing
	lastOrd uint64
}

// ID returns ref's id.
func (r *RefIDs) ID(ref DocRef) uint64 {
	if r.peers == nil || ref.Peer != r.last {
		ord, ok := r.peers[ref.Peer]
		if !ok {
			if r.peers == nil {
				r.peers = make(map[transport.Addr]uint64)
			}
			ord = uint64(len(r.peers))
			r.peers[ref.Peer] = ord
		}
		r.last, r.lastOrd = ref.Peer, ord
	}
	return r.lastOrd<<32 | uint64(ref.Doc)
}

// Posting is one scored entry.
type Posting struct {
	Ref   DocRef
	Score float64
}

// List is a posting list. Entries are maintained in canonical order:
// decreasing score, ties broken by ascending DocRef. Truncated records
// that entries beyond the publication bound were dropped, which the
// retrieval layer uses for lattice pruning decisions.
type List struct {
	Entries   []Posting
	Truncated bool
}

// Len returns the number of entries.
func (l *List) Len() int { return len(l.Entries) }

// Clone returns a deep copy.
func (l *List) Clone() *List {
	c := &List{Truncated: l.Truncated}
	c.Entries = append([]Posting(nil), l.Entries...)
	return c
}

// Normalize sorts entries into canonical order and merges duplicate
// references, keeping the highest score for each.
func (l *List) Normalize() {
	if len(l.Entries) == 0 {
		return
	}
	// Merge duplicates by ref, keeping max score.
	slices.SortFunc(l.Entries, func(a, b Posting) int {
		if c := a.Ref.Compare(b.Ref); c != 0 {
			return c
		}
		return cmp.Compare(b.Score, a.Score)
	})
	out := l.Entries[:1]
	for _, p := range l.Entries[1:] {
		if p.Ref == out[len(out)-1].Ref {
			continue // lower or equal score for same ref
		}
		out = append(out, p)
	}
	l.Entries = out
	sortCanonical(l.Entries)
}

func sortCanonical(ps []Posting) { slices.SortFunc(ps, CompareCanonical) }

// CompareCanonical orders postings canonically: decreasing score, ties
// broken by ascending DocRef. It is a total order (NaN scores sort last),
// so any sort under it yields one result.
func CompareCanonical(a, b Posting) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return a.Ref.Compare(b.Ref)
}

// Add inserts a posting (without resorting; call Normalize afterwards, or
// use Insert for incremental maintenance).
func (l *List) Add(p Posting) { l.Entries = append(l.Entries, p) }

// Insert places p in canonical position, replacing an existing entry for
// the same ref if p scores higher. It returns true if the list changed.
func (l *List) Insert(p Posting) bool {
	for i, e := range l.Entries {
		if e.Ref == p.Ref {
			if p.Score <= e.Score {
				return false
			}
			l.Entries = append(l.Entries[:i], l.Entries[i+1:]...)
			break
		}
	}
	i := sort.Search(len(l.Entries), func(i int) bool {
		e := l.Entries[i]
		if e.Score != p.Score {
			return e.Score < p.Score
		}
		return p.Ref.Less(e.Ref)
	})
	l.Entries = append(l.Entries, Posting{})
	copy(l.Entries[i+1:], l.Entries[i:])
	l.Entries[i] = p
	return true
}

// Truncate cuts the list to its top-k entries (canonical order assumed),
// marking it truncated if entries were dropped.
func (l *List) Truncate(k int) {
	if k >= 0 && len(l.Entries) > k {
		l.Entries = l.Entries[:k]
		l.Truncated = true
	}
}

// TopK returns the first k entries (or fewer).
func (l *List) TopK(k int) []Posting {
	if k > len(l.Entries) {
		k = len(l.Entries)
	}
	return l.Entries[:k]
}

// Union merges any number of lists into a new normalized list. The result
// is marked truncated if any input was (the union of truncated lists is
// itself incomplete).
func Union(lists ...*List) *List {
	out := &List{}
	for _, l := range lists {
		if l == nil {
			continue
		}
		out.Entries = append(out.Entries, l.Entries...)
		out.Truncated = out.Truncated || l.Truncated
	}
	out.Normalize()
	return out
}

// Merge returns the union of stored's entries of the peers fromAdd
// rejects and add's entries of the peers it accepts, cut to its top bound
// entries (bound >= 0) as Truncate would cut it, in one pass over stored:
// the writes of the global index replace whole peers' slices of a stored
// list. stored must be in canonical order without repeated refs, as every
// stored list is; add may be any list (a ref it repeats keeps its higher
// score). The result is marked truncated if either input was or the cut
// dropped entries. Neither input is modified.
func Merge(stored, add *List, fromAdd func(transport.Addr) bool, bound int) *List {
	in := add.Clone()
	in.Entries = slices.DeleteFunc(in.Entries, func(p Posting) bool { return !fromAdd(p.Ref.Peer) })
	in.Normalize()
	cur, inc := stored.Entries, in.Entries
	out := &List{
		Entries:   make([]Posting, 0, min(bound, len(cur)+len(inc))),
		Truncated: stored.Truncated || in.Truncated,
	}
	i, j := 0, 0
	for i < len(cur) || j < len(inc) {
		if i < len(cur) && fromAdd(cur[i].Ref.Peer) {
			i++
			continue
		}
		if len(out.Entries) == bound {
			out.Truncated = true
			break
		}
		if j == len(inc) || i < len(cur) && CompareCanonical(cur[i], inc[j]) < 0 {
			out.Entries = append(out.Entries, cur[i])
			i++
		} else {
			out.Entries = append(out.Entries, inc[j])
			j++
		}
	}
	return out
}

// IntersectSum returns the postings whose refs appear in every input
// list, with scores summed across lists. Because BM25 is additive over
// query terms, intersecting single-term lists with summed scores
// reconstructs the multi-term BM25 score exactly for the surviving
// documents — the operation QDI's on-demand indexing is built on. The
// result is marked truncated if any input was (the intersection of
// incomplete lists may miss documents).
func IntersectSum(lists ...*List) *List {
	out := &List{}
	if len(lists) == 0 {
		return out
	}
	scores := make(map[DocRef]float64, len(lists[0].Entries))
	counts := make(map[DocRef]int, len(lists[0].Entries))
	for _, l := range lists {
		if l == nil {
			return &List{}
		}
		out.Truncated = out.Truncated || l.Truncated
		for _, p := range l.Entries {
			scores[p.Ref] += p.Score
			counts[p.Ref]++
		}
	}
	for ref, c := range counts {
		if c == len(lists) {
			out.Entries = append(out.Entries, Posting{Ref: ref, Score: scores[ref]})
		}
	}
	sortCanonical(out.Entries)
	return out
}

// Intersect returns the postings of a whose refs also appear in b,
// keeping a's scores. Both inputs may be in any order.
func Intersect(a, b *List) *List {
	inB := make(map[DocRef]struct{}, len(b.Entries))
	for _, p := range b.Entries {
		inB[p.Ref] = struct{}{}
	}
	out := &List{Truncated: a.Truncated || b.Truncated}
	for _, p := range a.Entries {
		if _, ok := inB[p.Ref]; ok {
			out.Entries = append(out.Entries, p)
		}
	}
	sortCanonical(out.Entries)
	return out
}

// The list frame — the one encoding of a posting list, on the wire and
// on disk:
//
//	flags byte (bit 0 Truncated, bit 1 quantized scores, bit 2 peers by
//	index); groups uvarint;
//	per peer group, ascending by (peer, document):
//	  peer (string, or with bit 2 a uvarint index into the enclosing
//	  frame's PeerTable); count uvarint; if quantized: group maximum
//	  Float64; count × (document gap uvarint, score)
//
// A score is a Float64, or if quantized a uvarint q in [0, quantScale]
// standing for q/quantScale × the group maximum. Grouping by peer with
// delta-gap document numbers compresses the repeated peer addresses that
// dominate naive encodings; canonical order is restored at decode time.
// With bits 1 and 2 clear the flags byte is the Truncated bool, so the
// exact frame is the one writes, WAL records and snapshots have always
// carried. Bit 2 appears only inside a frame that carries a peer table.
const (
	flagTruncated byte = 1 << 0
	flagQuantized byte = 1 << 1
	flagPeerIndex byte = 1 << 2

	// Quantized scores keep quantBits of precision relative to the group
	// maximum, rounded down: a decoded score never exceeds the stored
	// score, and the group maximum decodes exactly — what the top-k
	// threshold loop relies on when it compares streamed scores with
	// exact per-key bounds.
	quantBits  = 21
	quantScale = 1 << quantBits
)

// PeerTable is the peer table of a frame that carries many lists: the
// frame spells each peer address once, ahead of its lists, and every list
// encoded against the table names its groups' peers by index (flag bit
// 2). The sender numbers the peers its lists may name (NewPeerTable), the
// receiver reads the table from the frame (DecodePeerTable).
type PeerTable struct {
	addrs []transport.Addr
	index map[transport.Addr]uint64
}

// NewPeerTable numbers the distinct addresses in order of first
// appearance.
func NewPeerTable(addrs ...transport.Addr) *PeerTable {
	t := &PeerTable{index: make(map[transport.Addr]uint64, len(addrs))}
	for _, a := range addrs {
		if _, ok := t.index[a]; !ok {
			t.index[a] = uint64(len(t.addrs))
			t.addrs = append(t.addrs, a)
		}
	}
	return t
}

// Addrs returns the table's addresses in index order; the caller must
// not modify them.
func (t *PeerTable) Addrs() []transport.Addr { return t.addrs }

// Index returns a's index in the table and whether the table holds it.
func (t *PeerTable) Index(a transport.Addr) (uint64, bool) {
	i, ok := t.index[a]
	return i, ok
}

// Encode writes the table: its size, then each address.
func (t *PeerTable) Encode(w *wire.Writer) {
	w.Uvarint(uint64(len(t.addrs)))
	for _, a := range t.addrs {
		w.String(string(a))
	}
}

// DecodePeerTable reads a table written by Encode. A table of more than
// max peers is corrupt.
func DecodePeerTable(r *wire.Reader, max int) (*PeerTable, error) {
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	// Every address takes at least its length byte.
	if n > uint64(max) || n > uint64(r.Remaining()) {
		return nil, wire.ErrCorrupt
	}
	addrs := make([]transport.Addr, n)
	for i := range addrs {
		addrs[i] = transport.Addr(r.String())
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	t := NewPeerTable(addrs...)
	t.addrs = addrs // a repeated address keeps its every index
	return t, nil
}

// Encode writes the list's exact frame.
func (l *List) Encode(w *wire.Writer) { l.encode(w, false, nil) }

// EncodeCompressed writes the list's quantized frame: one Float64 group
// maximum plus one uvarint per entry instead of one Float64 per entry.
// A list the quantized form cannot carry goes exact (see quantizable).
func (l *List) EncodeCompressed(w *wire.Writer) { l.encode(w, true, nil) }

// EncodeIndexed writes the list's exact frame naming its peers by index
// into peers, which must hold every peer the list names.
func (l *List) EncodeIndexed(w *wire.Writer, peers *PeerTable) { l.encode(w, false, peers) }

func (l *List) encode(w *wire.Writer, quantize bool, table *PeerTable) {
	sorted, peers := peerGroups(l.Entries)
	quantize = quantize && quantizable(sorted)
	var flags byte
	if l.Truncated {
		flags |= flagTruncated
	}
	if quantize {
		flags |= flagQuantized
	}
	if table != nil {
		flags |= flagPeerIndex
	}
	w.Byte(flags)
	w.Uvarint(uint64(peers))
	for rest := sorted; len(rest) > 0; {
		group := nextGroup(rest)
		rest = rest[len(group):]
		if table == nil {
			w.String(string(group[0].Ref.Peer))
		} else if i, ok := table.index[group[0].Ref.Peer]; ok {
			w.Uvarint(i)
		} else {
			panic(fmt.Sprintf("postings: peer %q missing from the frame's peer table", group[0].Ref.Peer))
		}
		w.Uvarint(uint64(len(group)))
		max := 0.0
		if quantize {
			max = groupMax(group)
			w.Float64(max)
		}
		prev := uint32(0)
		for _, p := range group {
			w.Uvarint(uint64(p.Ref.Doc - prev))
			prev = p.Ref.Doc
			if quantize {
				w.Uvarint(quantum(p.Score, max))
			} else {
				w.Float64(p.Score)
			}
		}
	}
}

// peerGroups returns a copy of entries ordered by peer, then document
// number — the group order of the frame — and the number of distinct
// peers. Entries repeating a ref follow in canonical order, ties by
// score bits, so the frame is a function of the entries alone, whatever
// their order in the list.
func peerGroups(entries []Posting) ([]Posting, int) {
	sorted := slices.Clone(entries)
	slices.SortFunc(sorted, func(a, b Posting) int {
		if c := a.Ref.Compare(b.Ref); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return cmp.Compare(math.Float64bits(a.Score), math.Float64bits(b.Score))
	})
	peers := 0
	for i := range sorted {
		if i == 0 || sorted[i].Ref.Peer != sorted[i-1].Ref.Peer {
			peers++
		}
	}
	return sorted, peers
}

// nextGroup returns the leading run of a non-empty peerGroups result
// that shares one peer.
func nextGroup(sorted []Posting) []Posting {
	end := 1
	for end < len(sorted) && sorted[end].Ref.Peer == sorted[0].Ref.Peer {
		end++
	}
	return sorted[:end]
}

// quantizable reports whether the quantized form can carry every group
// of a peerGroups result: no NaN, infinite or negative score, and no
// group whose maximum is 0.
func quantizable(sorted []Posting) bool {
	for rest := sorted; len(rest) > 0; {
		group := nextGroup(rest)
		rest = rest[len(group):]
		if groupMax(group) == 0 {
			return false
		}
		for _, p := range group {
			if math.IsNaN(p.Score) || math.IsInf(p.Score, 0) || p.Score < 0 {
				return false
			}
		}
	}
	return true
}

func groupMax(group []Posting) float64 {
	m := 0.0
	for _, p := range group {
		m = max(m, p.Score)
	}
	return m
}

// quantum returns the largest q whose decoded score q/quantScale×max does
// not exceed score. The floor of score/max can round up across a step,
// so it steps down until the decoder's own expression agrees.
func quantum(score, max float64) uint64 {
	q := uint64(math.Floor(score / max * quantScale))
	for q > 0 && float64(q)/quantScale*max > score {
		q--
	}
	return q
}

// EncodedSize returns the exact number of bytes Encode would produce.
func (l *List) EncodedSize() int {
	w := wire.NewWriter(16 + 12*len(l.Entries))
	l.Encode(w)
	return w.Len()
}

// EncodeBytesCompressed is a convenience wrapper returning a fresh buffer.
func (l *List) EncodeBytesCompressed() []byte {
	w := wire.NewWriter(16 + 5*len(l.Entries))
	l.EncodeCompressed(w)
	return append([]byte(nil), w.Bytes()...)
}

// Decode reads one list frame, exact or quantized, and returns the list
// in canonical order. peers is the enclosing frame's peer table, nil for
// a list that travels alone; a list naming its peers by index decodes
// only against a table. It reports an error on corrupt input, and on any
// earlier failed read of r: a nil error means every read of r succeeded.
func Decode(r *wire.Reader, peers *PeerTable) (*List, error) {
	flags := r.Byte()
	groups := r.Uvarint()
	if r.Err() != nil {
		return nil, r.Err()
	}
	known := flagTruncated | flagQuantized
	if peers != nil {
		known |= flagPeerIndex
	}
	if flags&^known != 0 || groups > 1<<20 {
		return nil, wire.ErrCorrupt
	}
	quantized := flags&flagQuantized != 0
	indexed := flags&flagPeerIndex != 0
	l := &List{Truncated: flags&flagTruncated != 0}
	for i := uint64(0); i < groups; i++ {
		var peer transport.Addr
		if indexed {
			if j := r.Uvarint(); j < uint64(len(peers.addrs)) {
				peer = peers.addrs[j]
			} else if r.Err() == nil {
				return nil, wire.ErrCorrupt
			}
		} else {
			peer = transport.Addr(r.String())
		}
		count := r.Uvarint()
		max := 0.0
		if quantized {
			max = r.Float64()
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		// Every entry takes at least one byte, its document gap: a count
		// beyond the bytes left is corrupt, and anything else bounds the
		// allocation.
		if count > 1<<24 || count > uint64(r.Remaining()) || quantized && !(max > 0 && max <= math.MaxFloat64) {
			return nil, wire.ErrCorrupt
		}
		l.Entries = slices.Grow(l.Entries, int(count))
		doc := uint32(0)
		for j := uint64(0); j < count; j++ {
			// A gap past the last document number would wrap around and
			// could repeat a reference.
			gap := r.Uvarint()
			if gap > uint64(math.MaxUint32-doc) {
				return nil, wire.ErrCorrupt
			}
			doc += uint32(gap)
			score := 0.0
			if !quantized {
				score = r.Float64()
			} else if q := r.Uvarint(); q <= quantScale {
				score = float64(q) / quantScale * max
			} else {
				return nil, wire.ErrCorrupt
			}
			if r.Err() != nil {
				return nil, r.Err()
			}
			l.Entries = append(l.Entries, Posting{Ref: DocRef{Peer: peer, Doc: doc}, Score: score})
		}
	}
	sortCanonical(l.Entries)
	return l, nil
}

// EncodeBytes is a convenience wrapper returning a fresh buffer.
func (l *List) EncodeBytes() []byte {
	w := wire.NewWriter(16 + 12*len(l.Entries))
	l.Encode(w)
	return append([]byte(nil), w.Bytes()...)
}

// DecodeBytes decodes a buffer produced by EncodeBytes or
// EncodeBytesCompressed.
func DecodeBytes(b []byte) (*List, error) {
	return Decode(wire.NewReader(b), nil)
}

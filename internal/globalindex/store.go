// Package globalindex implements AlvisP2P's layer-3 distributed index:
// the key → (truncated) posting-list store partitioned over the DHT. Each
// peer runs one Index component that (a) stores and serves the slice of
// the global index whose keys hash onto it and (b) lets the local engine
// publish and fetch posting lists anywhere in the network.
//
// Every probe for a key — hit or miss — updates usage statistics at the
// responsible peer (paper §2: "during the exploration, each contacted
// peer also updates the usage statistics for the requested term
// combination"). The read handler reports each probe to the hook the
// query-driven indexing layer installs (Index.SetProbeHook), which keeps
// those statistics and decides which keys to index or evict; the store
// itself holds index content only.
package globalindex

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// HardCap bounds any posting list a store will retain, whatever bound the
// publisher requests; it protects peers from hostile or buggy publishers.
// It is far above any AlvisP2P truncation bound — it exists so that the
// *baseline* single-term index (experiment E1) can store its untruncated
// lists through the same machinery.
const HardCap = 1 << 20

// Share is one origin's part of a stored key. The origin is the
// publishing peer, and its slice of the key's list is exactly the
// entries whose Ref.Peer is the origin: a list names the documents of the
// peers that host them, and only a peer publishes its own. DF is the
// document frequency the origin announced for the key — at least its
// slice's length before truncation — and a key's approximate global DF is
// the sum over its shares. Seq orders the origin's writes: a write, or a
// replica copy, whose Seq is not above the stored share's is a replay or
// out of date and changes nothing. A share with DF 0 is a tombstone: the
// origin withdrew from the key, and the share stays so that a copy still
// holding an older share of the origin gives way to it (Memory.Adopt).
type Share struct {
	Origin transport.Addr
	Seq    uint64
	DF     int64
}

// sumDF returns the approximate global document frequency of a key: the
// sum of its shares' DFs.
func sumDF(shares []Share) int64 {
	var df int64
	for _, sh := range shares {
		df += sh.DF
	}
	return df
}

// withdrawn reports whether an entry is only tombstones: every origin
// that wrote the key withdrew from it. Reads treat such a key as absent;
// it is kept, and replicated, so that the withdrawals win over older
// copies.
func withdrawn(list *postings.List, shares []Share) bool {
	return list.Len() == 0 && len(shares) > 0 && sumDF(shares) == 0
}

// findShare returns the index of origin's share in shares (sorted by
// origin), or where it would go, and whether it is there.
func findShare(shares []Share, origin transport.Addr) (int, bool) {
	return slices.BinarySearchFunc(shares, origin, func(sh Share, o transport.Addr) int { return cmp.Compare(sh.Origin, o) })
}

// Memory is the in-RAM storage engine — the default, and the reference
// implementation of StorageEngine. It is safe for concurrent use.
// Nothing survives a restart; see internal/storage for the durable
// engine that wraps a Memory behind a write-ahead log and snapshots.
type Memory struct {
	mu sync.RWMutex
	// entries holds each key's list in canonical order without repeated
	// refs: every write merges into it (postings.Merge relies on it), and
	// Put and RestoreState normalize.
	entries map[string]*postings.List

	// shares holds each key's per-origin table, sorted by origin. Every
	// write replaces one origin's share, so a key's DF counts each
	// origin's documents once however often it publishes. A list is
	// marked Truncated exactly when the shares' DF exceeds its length.
	// A withdrawal leaves a tombstone share, and a key only tombstones
	// hold stays stored but invisible to reads (withdrawn).
	shares map[string][]Share

	// Responsibility watermark: the ring interval this slice covered when
	// it was last known stable. The memory engine only ever holds it in
	// RAM — it exists so durable engines wrapping a Memory can journal it.
	wmFrom, wmTo ids.ID
	wmSet        bool
}

// Store is the historical name of the memory engine, kept so existing
// callers and tests compile unchanged.
type Store = Memory

// NewStore returns an empty memory engine.
func NewStore() *Memory {
	return &Memory{
		entries: make(map[string]*postings.List),
		shares:  make(map[string][]Share),
	}
}

// storeLocked installs key's list and shares, marking the list truncated
// exactly when the shares announce more documents than it holds. It
// returns the stored length.
func (s *Memory) storeLocked(key string, list *postings.List, shares []Share) int {
	list.Truncated = sumDF(shares) > int64(list.Len())
	s.entries[key] = list
	s.shares[key] = shares
	return list.Len()
}

// SharesOf returns the shares a list stands for on its own: one per peer
// it names, with that peer's entry count as its DF and sequence 0, older
// than any write. A list marked Truncated is incomplete by its own
// account, so its first share announces one document more than the list
// holds — the mark survives as DF above the stored length.
func SharesOf(list *postings.List) []Share {
	var shares []Share
	for _, p := range list.Entries {
		i, ok := findShare(shares, p.Ref.Peer)
		if !ok {
			shares = slices.Insert(shares, i, Share{Origin: p.Ref.Peer})
		}
		shares[i].DF++
	}
	if list.Truncated && len(shares) > 0 {
		shares[0].DF++
	}
	return shares
}

// Put replaces the entry stored under key with list, truncating it to
// bound (and to the hard cap); the shares become SharesOf the list. It
// returns the stored length.
func (s *Memory) Put(key string, list *postings.List, bound int) int {
	if bound <= 0 || bound > HardCap {
		bound = HardCap
	}
	cp := list.Clone()
	cp.Normalize()
	shares := SharesOf(cp)
	cp.Truncate(bound)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.storeLocked(key, cp, shares)
}

// Write is one origin's write of many keys: what one MsgMultiAppend
// frame carries, and what a durable engine journals as one record. Each
// item replaces the origin's share of its key (Memory.Replace), all under
// the one sequence number, so a write applies whole or not at all.
type Write struct {
	Origin transport.Addr
	Seq    uint64
	Keys   []string
	Items  []AppendItem // Items[i] is written under Keys[i]; Terms are unused
}

// Write applies w, returning each key's resulting stored length. Each
// key takes the lock on its own, so reads interleave with a long write.
func (s *Memory) Write(w Write) []int {
	out := make([]int, len(w.Keys))
	for i, it := range w.Items {
		out[i] = s.Replace(w.Keys[i], Share{Origin: w.Origin, Seq: w.Seq, DF: int64(it.AnnouncedDF)}, it.List, it.Bound)
	}
	return out
}

// Replace is an origin's write to key (creating it if absent): the
// entries of sh.Origin in the stored list give way to list's, cut with
// the rest to bound, and sh replaces the origin's share. list must name
// only sh.Origin's documents; entries naming other peers are ignored.
// Publishers cap the postings they ship (sending more than the bound is
// wasted bandwidth) but announce their true local document frequency in
// sh.DF, so the store can (a) approximate the global DF for HDK's
// frequency test and (b) mark lists that are incomplete; a DF below the
// shipped length is corrected upward. An empty list with DF 0 withdraws
// the origin from the key: its share becomes a tombstone, and a key only
// tombstones hold reads as absent. A write whose sequence is not above
// the stored share's is a replay or out of date and changes nothing. It
// returns the resulting stored length.
func (s *Memory) Replace(key string, sh Share, list *postings.List, bound int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replaceLocked(key, sh, list, bound)
}

func (s *Memory) replaceLocked(key string, sh Share, list *postings.List, bound int) int {
	if bound <= 0 || bound > HardCap {
		bound = HardCap
	}
	sh.DF = max(sh.DF, int64(list.Len()))
	cur, ok := s.entries[key]
	if !ok {
		cur = &postings.List{}
	}
	old := s.shares[key]
	i, found := findShare(old, sh.Origin)
	if found && old[i].Seq >= sh.Seq {
		return cur.Len()
	}
	shares := slices.Clone(old)
	if found {
		shares[i] = sh
	} else {
		shares = slices.Insert(shares, i, sh)
	}
	return s.storeLocked(key, postings.Merge(cur, list, func(p transport.Addr) bool { return p == sh.Origin }, bound), shares)
}

// Get returns (a copy of) the list stored under key capped to maxResults
// entries (0 = all), and whether the key is present. A list cut short by
// the cap is marked truncated. wantIndex is always false: the activation
// signal belongs to the read handler's probe hook, not to the store.
func (s *Memory) Get(key string, maxResults int) (list *postings.List, found, wantIndex bool) {
	res := s.GetPrefix(key, 0, maxResults)
	if !res.Found {
		return nil, false, false
	}
	trunc := res.Truncated || (maxResults > 0 && res.Total > maxResults)
	return &postings.List{Entries: res.Entries, Truncated: trunc}, true, false
}

// PrefixResult is one chunk of a stored list served in canonical
// (descending-score) order by GetPrefix.
type PrefixResult struct {
	Entries   []postings.Posting // the chunk [offset, offset+limit)
	Total     int                // stored list length (continuation horizon)
	Truncated bool               // the STORED list's truncation mark
	Found     bool               // whether the key is present
	WantIndex bool               // QDI activation signal, set by the read handler's probe hook
}

// GetPrefix returns the chunk [offset, offset+limit) of key's stored
// list (limit <= 0 means to the end). Lists are stored in canonical
// descending-score order, so a chunk is a plain slice and a continuation
// cursor is a stored-list offset. Truncated reports the stored list's
// own truncation mark — NOT whether this chunk cut the list short; the
// retrieval layer's pruning decisions must match a whole-list read, and
// the chunk horizon travels separately as Total. WantIndex is never set
// here; see Index.SetProbeHook.
func (s *Memory) GetPrefix(key string, offset, limit int) PrefixResult {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.liveLocked(key)
	if !ok {
		return PrefixResult{}
	}
	offset = max(offset, 0)
	res := PrefixResult{Total: cur.Len(), Truncated: cur.Truncated, Found: true}
	if offset >= cur.Len() {
		return res
	}
	// Compare by subtraction: offset+limit can wrap for int inputs near
	// MaxInt, and wire-supplied arguments reach this method.
	end := cur.Len()
	if limit > 0 && limit < end-offset {
		end = offset + limit
	}
	res.Entries = append([]postings.Posting(nil), cur.Entries[offset:end]...)
	return res
}

// liveLocked returns key's stored list, unless the key is absent or
// withdrawn.
func (s *Memory) liveLocked(key string) (*postings.List, bool) {
	cur, ok := s.entries[key]
	if !ok || withdrawn(cur, s.shares[key]) {
		return nil, false
	}
	return cur, true
}

// Peek returns the stored list (monitoring and tests).
func (s *Memory) Peek(key string) (*postings.List, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.liveLocked(key)
	if !ok {
		return nil, false
	}
	return cur.Clone(), true
}

// Remove deletes the key, tombstones and all. It reports whether the key
// was present and not withdrawn.
func (s *Memory) Remove(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, live := s.liveLocked(key)
	delete(s.entries, key)
	delete(s.shares, key)
	return live
}

// ApproxDF returns the approximate global document frequency of key —
// the sum of its origins' announced DFs — and whether the key is present.
func (s *Memory) ApproxDF(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, present := s.liveLocked(key)
	return sumDF(s.shares[key]), present
}

// KeysInRange returns the stored keys whose canonical hash lies in the
// half-open ring interval (from, to], ordered by clockwise ring position
// starting at from (ties broken by key string). The replication layer
// uses it to select the entries a responsibility range owns: a joining
// node pulls this range from its successor, a promoted node re-replicates
// it onward. Ring order is what makes the pull protocol resumable — a
// response capped at the batch bound continues from the last returned
// key's position.
func (s *Memory) KeysInRange(from, to ids.ID) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type keyPos struct {
		key  string
		dist uint64
	}
	var hits []keyPos
	for k := range s.entries {
		if h := ids.HashString(k); ids.Between(h, from, to) {
			hits = append(hits, keyPos{k, ids.Distance(from, h)})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		return hits[i].key < hits[j].key
	})
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.key
	}
	return out
}

// Export atomically snapshots one entry for replication transfer: the
// stored list (with its truncation mark) and its per-origin shares,
// tombstones included — a withdrawn key exports too.
func (s *Memory) Export(key string) (list *postings.List, shares []Share, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.entries[key]
	if !ok {
		return nil, nil, false
	}
	return cur.Clone(), slices.Clone(s.shares[key]), true
}

// Adopt merges a replicated entry into the store during anti-entropy:
// per origin, the share with the higher sequence number wins, and with it
// that origin's slice of its side's list (the stored copy keeps a tie).
// A winning tombstone takes the origin's slice away. Entries naming a
// peer the incoming shares do not cover are not adopted.
// Adopting is idempotent and order-free, so repeated synchronization
// passes converge on each origin's newest write. It returns the
// resulting stored length.
func (s *Memory) Adopt(key string, shares []Share, list *postings.List) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[key]
	if !ok {
		cur = &postings.List{}
	}
	merged := slices.Clone(s.shares[key])
	won := make(map[transport.Addr]bool)
	for _, sh := range shares {
		i, found := findShare(merged, sh.Origin)
		switch {
		case !found:
			merged = slices.Insert(merged, i, sh)
		case sh.Seq > merged[i].Seq:
			merged[i] = sh
		default:
			continue
		}
		won[sh.Origin] = true
	}
	if len(won) == 0 {
		return cur.Len()
	}
	return s.storeLocked(key, postings.Merge(cur, list, func(p transport.Addr) bool { return won[p] }, HardCap), merged)
}

// Keys returns all stored keys, sorted; withdrawn keys are left out.
func (s *Memory) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.entries))
	for k, l := range s.entries {
		if !withdrawn(l, s.shares[k]) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Stats summarizes the store for monitoring and the storage experiments.
type Stats struct {
	Keys     int
	Postings int
	Bytes    int // exact wire-encoded size of all stored lists
}

// Stats computes current storage statistics; withdrawn keys are left
// out.
func (s *Memory) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	for k, l := range s.entries {
		if withdrawn(l, s.shares[k]) {
			continue
		}
		st.Keys++
		st.Postings += l.Len()
		st.Bytes += l.EncodedSize()
	}
	return st
}

// Watermark returns the recorded responsibility watermark; see
// StorageEngine.Watermark.
func (s *Memory) Watermark() (from, to ids.ID, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wmFrom, s.wmTo, s.wmSet
}

// SetWatermark records the responsibility watermark (RAM only — the
// memory engine forgets it on restart, which is exactly what makes a
// memory-engine rejoin cold).
func (s *Memory) SetWatermark(from, to ids.ID) {
	s.mu.Lock()
	s.wmFrom, s.wmTo, s.wmSet = from, to, true
	s.mu.Unlock()
}

// Recovered always reports false: a memory engine never restores state.
func (s *Memory) Recovered() bool { return false }

// Close is a no-op for the memory engine.
func (s *Memory) Close() error { return nil }

// EntryState is one stored entry as captured by ExportState: the key,
// its per-origin shares, and the stored list.
type EntryState struct {
	Key    string
	Shares []Share
	List   *postings.List
}

// ExportState captures the engine's complete state in deterministic
// (key-sorted) order — the durable engine's snapshot writer consumes it.
// The returned lists and shares are copies.
func (s *Memory) ExportState() []EntryState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := make([]EntryState, 0, len(s.entries))
	for k, l := range s.entries {
		entries = append(entries, EntryState{Key: k, Shares: slices.Clone(s.shares[k]), List: l.Clone()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries
}

// RestoreState replaces the engine's state wholesale with a snapshot
// produced by ExportState — the durable engine's recovery path. Incoming
// lists are deep-copied, so the caller may keep its buffers, and
// normalized: every write merges into a stored list on the condition
// that it is canonical without repeated refs, and a snapshot is read from
// disk. Shares are sorted by origin, the first of a repeated origin kept.
func (s *Memory) RestoreState(entries []EntryState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*postings.List, len(entries))
	s.shares = make(map[string][]Share, len(entries))
	for _, e := range entries {
		l := e.List.Clone()
		l.Normalize()
		shares := slices.Clone(e.Shares)
		slices.SortStableFunc(shares, func(a, b Share) int { return cmp.Compare(a.Origin, b.Origin) })
		shares = slices.CompactFunc(shares, func(a, b Share) bool { return a.Origin == b.Origin })
		s.storeLocked(e.Key, l, shares)
	}
}

// maxShareDF bounds a decoded share's DF, far above any real collection:
// summing the shares of a key can then never overflow.
const maxShareDF = 1 << 40

// PeerTableOf numbers every origin and every listed peer of entries, the
// origins first: the peer table their encodings are written against.
func PeerTableOf(entries ...EntryState) *postings.PeerTable {
	var addrs []transport.Addr
	for _, e := range entries {
		for _, sh := range e.Shares {
			addrs = append(addrs, sh.Origin)
		}
	}
	for _, e := range entries {
		for _, p := range e.List.Entries {
			addrs = append(addrs, p.Ref.Peer)
		}
	}
	return postings.NewPeerTable(addrs...)
}

// EncodeEntry writes one stored entry against peers, which must hold its
// every origin and listed peer (PeerTableOf): the shares as (n, n×(origin
// index, seq, DF)), then the list naming its peers by index. Replica
// transfers, the write-ahead log and snapshots carry entries this way.
func EncodeEntry(w *wire.Writer, peers *postings.PeerTable, shares []Share, list *postings.List) {
	w.Uvarint(uint64(len(shares)))
	for _, sh := range shares {
		i, ok := peers.Index(sh.Origin)
		if !ok {
			panic(fmt.Sprintf("globalindex: origin %q missing from the peer table", sh.Origin))
		}
		w.Uvarint(i)
		w.Uvarint(sh.Seq)
		w.Uvarint(uint64(sh.DF))
	}
	list.EncodeIndexed(w, peers)
}

// DecodeEntry reads an entry written by EncodeEntry against peers.
func DecodeEntry(r *wire.Reader, peers *postings.PeerTable) ([]Share, *postings.List, error) {
	addrs := peers.Addrs()
	n := r.Uvarint()
	if r.Err() != nil {
		return nil, nil, r.Err()
	}
	// Every share takes at least three bytes.
	if n > uint64(r.Remaining()/3) {
		return nil, nil, wire.ErrCorrupt
	}
	shares := make([]Share, n)
	for i := range shares {
		idx, seq, df := r.Uvarint(), r.Uvarint(), r.Uvarint()
		if r.Err() != nil {
			return nil, nil, r.Err()
		}
		if idx >= uint64(len(addrs)) || df > maxShareDF {
			return nil, nil, wire.ErrCorrupt
		}
		shares[i] = Share{Origin: addrs[idx], Seq: seq, DF: int64(df)}
	}
	list, err := postings.Decode(r, peers)
	if err != nil {
		return nil, nil, err
	}
	return shares, list, nil
}

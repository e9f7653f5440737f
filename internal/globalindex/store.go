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
	"sort"
	"sync"

	"repro/internal/ids"
	"repro/internal/postings"
)

// HardCap bounds any posting list a store will retain, whatever bound the
// publisher requests; it protects peers from hostile or buggy publishers.
// It is far above any AlvisP2P truncation bound — it exists so that the
// *baseline* single-term index (experiment E1) can store its untruncated
// lists through the same machinery.
const HardCap = 1 << 20

// Memory is the in-RAM storage engine — the default, and the reference
// implementation of StorageEngine. It is safe for concurrent use.
// Nothing survives a restart; see internal/storage for the durable
// engine that wraps a Memory behind a write-ahead log and snapshots.
type Memory struct {
	mu sync.RWMutex
	// entries holds each key's list in canonical order without repeated
	// refs: Put and RestoreState normalize, Append and AdoptReplica merge
	// (postings.Merge relies on it).
	entries map[string]*postings.List

	// approxDF approximates each key's global document frequency: the
	// total number of postings publishers have pushed for it, counted
	// before truncation. HDK's frequency test (df > DFmax) reads it; it
	// is exact as long as each peer publishes each (key, doc) once.
	approxDF map[string]int64

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
		entries:  make(map[string]*postings.List),
		approxDF: make(map[string]int64),
	}
}

// Put replaces the list stored under key, truncating to bound (and to the
// hard cap). It returns the stored length.
func (s *Memory) Put(key string, list *postings.List, bound int) int {
	if bound <= 0 || bound > HardCap {
		bound = HardCap
	}
	cp := list.Clone()
	cp.Normalize()
	preTruncate := cp.Len()
	cp.Truncate(bound)
	s.mu.Lock()
	s.entries[key] = cp
	s.approxDF[key] = int64(preTruncate)
	s.mu.Unlock()
	return cp.Len()
}

// Append merges new entries into the list stored under key (creating it
// if absent), truncating to bound. announcedDF is the publisher's true
// local document frequency for the key — publishers cap the postings they
// ship (sending more than the bound is wasted bandwidth) but must still
// announce the real count so the store can (a) approximate the global DF
// for HDK's frequency test and (b) mark lists that are incomplete.
// announcedDF below the shipped length is corrected upward. It returns
// the resulting stored length.
func (s *Memory) Append(key string, list *postings.List, bound, announcedDF int) int {
	if bound <= 0 || bound > HardCap {
		bound = HardCap
	}
	if announcedDF < list.Len() {
		announcedDF = list.Len()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[key]
	if !ok {
		cur = &postings.List{}
	}
	// Merge marks the result truncated if either input was; appending to
	// a previously truncated list keeps that mark.
	merged := postings.Merge(cur, list, bound)
	s.approxDF[key] += int64(announcedDF)
	if s.approxDF[key] > int64(merged.Len()) {
		merged.Truncated = true
	}
	s.entries[key] = merged
	return merged.Len()
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
	cur, ok := s.entries[key]
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

// Peek returns the stored list (monitoring and tests).
func (s *Memory) Peek(key string) (*postings.List, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	return cur.Clone(), true
}

// Remove deletes the key. It reports whether the key was present.
func (s *Memory) Remove(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; !ok {
		return false
	}
	delete(s.entries, key)
	delete(s.approxDF, key)
	return true
}

// ApproxDF returns the approximate global document frequency of key (the
// number of postings ever pushed for it, pre-truncation) and whether the
// key is present.
func (s *Memory) ApproxDF(key string) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, present := s.entries[key]
	return s.approxDF[key], present
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
// stored list (with its truncation mark) and the accumulated approximate
// document frequency.
func (s *Memory) Export(key string) (list *postings.List, approxDF int64, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cur, ok := s.entries[key]
	if !ok {
		return nil, 0, false
	}
	return cur.Clone(), s.approxDF[key], true
}

// AdoptReplica merges a replicated entry into the store during
// anti-entropy: the stored list becomes the union of the current and the
// incoming copy (keeping truncation marks), and the approximate DF
// becomes the larger of the two accumulations — both idempotent, so
// repeated synchronization passes converge instead of double-counting.
// It returns the resulting stored length.
func (s *Memory) AdoptReplica(key string, list *postings.List, approxDF int64) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.entries[key]
	if !ok {
		cur = &postings.List{}
	}
	merged := postings.Merge(cur, list, HardCap)
	if approxDF > s.approxDF[key] {
		s.approxDF[key] = approxDF
	}
	if s.approxDF[key] > int64(merged.Len()) {
		merged.Truncated = true
	}
	s.entries[key] = merged
	return merged.Len()
}

// Keys returns all stored keys, sorted.
func (s *Memory) Keys() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
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

// Stats computes current storage statistics.
func (s *Memory) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Keys: len(s.entries)}
	for _, l := range s.entries {
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
// its accumulated approximate document frequency, and the stored list.
type EntryState struct {
	Key      string
	ApproxDF int64
	List     *postings.List
}

// ExportState captures the engine's complete state in deterministic
// (key-sorted) order — the durable engine's snapshot writer consumes it.
// The returned lists are deep copies.
func (s *Memory) ExportState() []EntryState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries := make([]EntryState, 0, len(s.entries))
	for k, l := range s.entries {
		entries = append(entries, EntryState{Key: k, ApproxDF: s.approxDF[k], List: l.Clone()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	return entries
}

// RestoreState replaces the engine's state wholesale with a snapshot
// produced by ExportState — the durable engine's recovery path. Incoming
// lists are deep-copied, so the caller may keep its buffers, and
// normalized: Append and AdoptReplica merge into a stored list on the
// condition that it is canonical without repeated refs, and a snapshot
// is read from disk.
func (s *Memory) RestoreState(entries []EntryState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*postings.List, len(entries))
	s.approxDF = make(map[string]int64, len(entries))
	for _, e := range entries {
		l := e.List.Clone()
		l.Normalize()
		s.entries[e.Key] = l
		s.approxDF[e.Key] = e.ApproxDF
	}
}

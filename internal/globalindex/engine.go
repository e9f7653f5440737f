package globalindex

import (
	"repro/internal/ids"
	"repro/internal/postings"
)

// StorageEngine is the mutation and query surface of one peer's slice of
// the global index. The protocol layers (batch frames, replication,
// QDI's activation policy) operate exclusively through this
// interface, so the state behind it is swappable:
//
//   - Memory (this package) is the default engine: pure in-RAM maps,
//     byte-identical to the pre-engine Store, nothing survives a restart;
//   - storage.Engine (internal/storage) wraps a Memory behind an
//     append-only CRC-framed write-ahead log compacted into snapshots,
//     so a restarted peer recovers its slice from disk and its rejoin
//     walk fetches only what changed instead of the whole range.
//
// Implementations must be safe for concurrent use; every method's
// semantics are documented on Memory, the reference implementation.
type StorageEngine interface {
	// Put replaces the list stored under key, truncated to bound (and to
	// the hard cap), returning the stored length.
	Put(key string, list *postings.List, bound int) int
	// Append merges new entries into key's list (creating it if absent),
	// accumulating announcedDF into the approximate global DF.
	Append(key string, list *postings.List, bound, announcedDF int) int
	// Get returns a copy of key's list capped to maxResults (0 = all),
	// recording the probe in the usage statistics either way. wantIndex
	// is the QDI activation signal for missing-but-popular keys. No
	// handler calls it any more — every read is a GetPrefix — it stays
	// only because the frozen bench/ decorates it (see ROADMAP).
	Get(key string, maxResults int) (list *postings.List, found, wantIndex bool)
	// GetPrefix returns the score-ordered chunk [offset, offset+limit) of
	// key's stored list (limit 0 = to the end) — what MsgRead serves.
	// Only the first chunk (offset 0) records a probe — a continuation
	// is part of the same logical probe, not new popularity evidence.
	GetPrefix(key string, offset, limit int) PrefixResult
	// Peek returns the stored list without touching usage statistics.
	Peek(key string) (*postings.List, bool)
	// Remove deletes the key, reporting whether it was present.
	Remove(key string) bool
	// ApproxDF returns the approximate global document frequency of key.
	ApproxDF(key string) (int64, bool)
	// KeysInRange returns the stored keys hashing into the half-open ring
	// interval (from, to], in clockwise ring order starting at from.
	KeysInRange(from, to ids.ID) []string
	// Export atomically snapshots one entry for replication transfer.
	Export(key string) (list *postings.List, approxDF int64, ok bool)
	// AdoptReplica idempotently merges a replicated entry into the store.
	AdoptReplica(key string, list *postings.List, approxDF int64) int
	// Keys returns all stored keys, sorted.
	Keys() []string
	// Stats summarizes the store for monitoring.
	Stats() Stats
	// SetActivationPolicy installs QDI's on-demand indexing predicate.
	SetActivationPolicy(f func(key string, ks KeyStats) bool)
	// Popularity returns the usage record for key.
	Popularity(key string) KeyStats
	// PopularAbsentKeys returns the QDI indexing candidates.
	PopularAbsentKeys(minCount float64) []string
	// ColdIndexedKeys returns the QDI eviction candidates.
	ColdIndexedKeys(maxCount float64) []string
	// Decay ages every probe count by factor.
	Decay(factor float64)
	// TrackedKeys returns the number of usage records currently held.
	TrackedKeys() int

	// Watermark returns the persisted responsibility watermark: the ring
	// interval (from, to] this engine's slice covered when it was last
	// known stable (anti-entropy completion or graceful shutdown). ok is
	// false until SetWatermark has run.
	Watermark() (from, to ids.ID, ok bool)
	// SetWatermark records the responsibility watermark. Durable engines
	// journal it, so a restarted peer knows which range its recovered
	// slice covers, and may drop what its successor lacks there.
	SetWatermark(from, to ids.ID)
	// Recovered reports whether this engine restored state from durable
	// storage when it was opened. The replication layer keys the rejoin
	// sweep on it: the first complete manifest walk of a recovered slice
	// whose watermark ends at this node drops the keys its successor
	// lacks — deletions made while the peer was down.
	Recovered() bool
	// Close flushes any durable state and releases resources. The memory
	// engine's Close is a no-op. Close is idempotent.
	Close() error
}

// Memory implements StorageEngine (compile-time check).
var _ StorageEngine = (*Memory)(nil)

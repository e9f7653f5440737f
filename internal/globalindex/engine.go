package globalindex

import (
	"repro/internal/ids"
	"repro/internal/postings"
)

// StorageEngine is the mutation and query surface of one peer's slice of
// the global index. It holds index content only: the usage statistics
// QDI keys on are collected by the read handler (Index.SetProbeHook),
// not by the engine. The protocol layers (batch frames, replication,
// QDI's activations and evictions) operate exclusively through this
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
	// Put replaces the entry stored under key with list, truncated to
	// bound (and to the hard cap), returning the stored length.
	Put(key string, list *postings.List, bound int) int
	// Write applies one origin's write of many keys whole: each item
	// replaces the origin's slice of its key's list and its share, unless
	// the stored share is as new. It returns the stored lengths.
	Write(w Write) []int
	// GetPrefix returns the score-ordered chunk [offset, offset+limit) of
	// key's stored list (limit 0 = to the end) — what MsgRead serves.
	GetPrefix(key string, offset, limit int) PrefixResult
	// Peek returns a copy of the whole stored list.
	Peek(key string) (*postings.List, bool)
	// Remove deletes the key, reporting whether it was present.
	Remove(key string) bool
	// ApproxDF returns the approximate global document frequency of key:
	// the sum of its shares' DFs.
	ApproxDF(key string) (int64, bool)
	// KeysInRange returns the stored keys hashing into the half-open ring
	// interval (from, to], in clockwise ring order starting at from.
	KeysInRange(from, to ids.ID) []string
	// Export atomically snapshots one entry for replication transfer.
	Export(key string) (list *postings.List, shares []Share, ok bool)
	// Adopt idempotently merges a replicated entry into the store, per
	// origin keeping the share with the higher sequence number.
	Adopt(key string, shares []Share, list *postings.List) int
	// Keys returns all stored keys, sorted.
	Keys() []string
	// Stats summarizes the store for monitoring.
	Stats() Stats

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

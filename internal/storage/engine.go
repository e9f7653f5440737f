// Package storage implements the durable global-index storage engine:
// a globalindex.Memory state machine fronted by an append-only,
// CRC-framed write-ahead log that is periodically compacted into atomic
// snapshots. A peer that restarts with the same data directory replays
// snapshot + WAL and recovers its slice of the global index (and the
// responsibility watermark that lets the replication layer rejoin with
// a delta pull) instead of re-pulling everything over the network.
//
// Durability contract:
//
//   - every index mutation (Put / Replace / Remove / Adopt, plus the
//     watermark) is journaled before the call returns; with
//     Options.Fsync off (the default) the record reaches the OS page
//     cache, so a killed *process* loses nothing and only a machine
//     crash can lose the unsynced WAL tail;
//   - the WAL tail is torn-write tolerant: replay stops at the first
//     record whose framing or CRC does not verify, truncates the file
//     there, and the engine continues from the last consistent state —
//     a corrupt record can never be served as a posting list;
//   - snapshots are written to a temporary file and renamed into place,
//     and every WAL record carries a monotonic sequence number that the
//     snapshot stores too, so replaying a WAL over a snapshot that
//     already contains its effects is a no-op (crash between "snapshot
//     renamed" and "WAL truncated" is safe).
//
// The engine holds index content only: reads change nothing, so nothing
// but the journaled mutations above needs to survive a restart.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/postings"
)

// Options configure a durable engine.
type Options struct {
	// CompactBytes is the WAL size that triggers compaction into a fresh
	// snapshot (0 = 1 MiB). Compaction also runs on Close.
	CompactBytes int64
	// Fsync forces an fsync after every WAL append. Off by default: the
	// global index is replicated soft state, so surviving process kills
	// (page-cache durability) is the design point, and a machine crash
	// costs at most the unsynced tail plus one anti-entropy delta pull.
	Fsync bool
}

func (o *Options) fillDefaults() {
	if o.CompactBytes <= 0 {
		o.CompactBytes = 1 << 20
	}
}

// Engine is the durable StorageEngine. All mutations are serialized by
// mu (reads go straight to the memory state machine, which has its own
// lock), so every WAL record is applied in the order it was journaled.
type Engine struct {
	mem  *globalindex.Memory
	opts Options
	dir  string

	mu        sync.Mutex
	wal       *os.File
	walBytes  int64
	seq       uint64 // sequence of the last journaled record
	recovered bool
	closed    bool
	lastErr   error // sticky background I/O error, surfaced by Close
}

// Engine implements the global-index storage interface.
var _ globalindex.StorageEngine = (*Engine)(nil)

// Open creates or recovers the engine rooted at dir: the snapshot (if
// any) is loaded and CRC-verified, the WAL is replayed over it with
// torn-tail truncation, and the engine is ready for appends. A fresh
// directory starts an empty, not-recovered engine.
func Open(dir string, opts Options) (*Engine, error) {
	opts.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", dir, err)
	}
	e := &Engine{
		mem:  globalindex.NewStore(),
		opts: opts,
		dir:  dir,
	}
	snapSeq, snapLoaded, err := e.loadSnapshot()
	if err != nil {
		return nil, err
	}
	e.seq = snapSeq
	replayed, err := e.replayWAL(snapSeq)
	if err != nil {
		return nil, err
	}
	e.recovered = snapLoaded || replayed > 0
	return e, nil
}

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.dir }

// Recovered reports whether Open restored state from disk.
func (e *Engine) Recovered() bool { return e.recovered }

// Close compacts the current state into a final snapshot, syncs, and
// releases the WAL file.
// Close is idempotent; it returns the first background I/O error the
// engine swallowed while running, if any.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.compactLocked()
	if e.wal != nil {
		if err := e.wal.Close(); err != nil && e.lastErr == nil {
			e.lastErr = err
		}
		e.wal = nil
	}
	return e.lastErr
}

// CompactNow forces a snapshot + WAL reset (tests and operators).
func (e *Engine) CompactNow() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.compactLocked()
	return e.lastErr
}

// WALSize returns the current WAL length in bytes (tests).
func (e *Engine) WALSize() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.walBytes
}

// journalLocked appends one mutation record and triggers compaction
// when the WAL outgrows the configured bound. Called with e.mu held,
// *after* the mutation was applied to the memory state — compaction may
// run here, and the snapshot it captures must already contain the
// record whose sequence it claims. (A crash between apply and append
// only loses the newest record, exactly like a torn tail.)
func (e *Engine) journalLocked(payload []byte) {
	if e.closed {
		// A straggler mutation after Close (a handler draining during
		// shutdown) still applies to the memory state — it is simply not
		// durable, like any unsynced tail.
		return
	}
	// The sequence advances only with a record on disk, so the journal's
	// sequence numbers stay consecutive (see replayWAL).
	n, err := e.appendRecord(payload, e.seq+1)
	if err != nil {
		if e.lastErr == nil {
			e.lastErr = err
		}
		return
	}
	e.seq++
	e.walBytes += int64(n)
	if e.walBytes >= e.opts.CompactBytes {
		e.compactLocked()
	}
}

// --- StorageEngine mutations (journaled) ---

// Put implements StorageEngine.Put.
func (e *Engine) Put(key string, list *postings.List, bound int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.mem.Put(key, list, bound)
	e.journalLocked(encodePut(key, list, bound))
	return n
}

// Write implements StorageEngine.Write: the whole write is one record.
func (e *Engine) Write(w globalindex.Write) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writeLocked(w)
}

func (e *Engine) writeLocked(w globalindex.Write) []int {
	ns := e.mem.Write(w)
	e.journalLocked(encodeWrite(w))
	return ns
}

// Append is the write surface of the accumulating format, kept only so
// that decorators of the concrete engine that still forward it compile;
// the index writes through Write and never calls it. It adopts the list
// as AdoptReplica does; bound and announcedDF are not used.
func (e *Engine) Append(key string, list *postings.List, _, _ int) int {
	return e.AdoptReplica(key, list, 0)
}

// Remove implements StorageEngine.Remove.
func (e *Engine) Remove(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	removed := e.mem.Remove(key)
	e.journalLocked(encodeRemove(key))
	return removed
}

// Adopt implements StorageEngine.Adopt.
func (e *Engine) Adopt(key string, shares []globalindex.Share, list *postings.List) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.mem.Adopt(key, shares, list)
	e.journalLocked(encodeAdopt(key, shares, list))
	return n
}

// AdoptReplica is Adopt in the accumulating format's terms, kept only so
// that decorators of the concrete engine that still forward it compile;
// the index never calls it. The list is adopted under the shares it
// stands for on its own (globalindex.SharesOf), which no write is older
// than.
func (e *Engine) AdoptReplica(key string, list *postings.List, _ int64) int {
	return e.Adopt(key, globalindex.SharesOf(list), list)
}

// SetWatermark implements StorageEngine.SetWatermark; the watermark is
// journaled so a recovered peer knows which ring interval its slice
// covers.
func (e *Engine) SetWatermark(from, to ids.ID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.mem.SetWatermark(from, to)
	e.journalLocked(encodeWatermark(from, to))
}

// --- StorageEngine reads (delegated) ---

// Get returns a copy of key's list capped to maxResults; see Memory.Get.
// It is not part of StorageEngine: no handler reads whole lists this
// way, but decorators of the concrete engine forward it.
func (e *Engine) Get(key string, maxResults int) (*postings.List, bool, bool) {
	return e.mem.Get(key, maxResults)
}

// GetPrefix implements StorageEngine.GetPrefix.
func (e *Engine) GetPrefix(key string, offset, limit int) globalindex.PrefixResult {
	return e.mem.GetPrefix(key, offset, limit)
}

// Peek implements StorageEngine.Peek.
func (e *Engine) Peek(key string) (*postings.List, bool) { return e.mem.Peek(key) }

// ApproxDF implements StorageEngine.ApproxDF.
func (e *Engine) ApproxDF(key string) (int64, bool) { return e.mem.ApproxDF(key) }

// KeysInRange implements StorageEngine.KeysInRange.
func (e *Engine) KeysInRange(from, to ids.ID) []string { return e.mem.KeysInRange(from, to) }

// Export implements StorageEngine.Export.
func (e *Engine) Export(key string) (*postings.List, []globalindex.Share, bool) {
	return e.mem.Export(key)
}

// Keys implements StorageEngine.Keys.
func (e *Engine) Keys() []string { return e.mem.Keys() }

// Stats implements StorageEngine.Stats.
func (e *Engine) Stats() globalindex.Stats { return e.mem.Stats() }

// Watermark implements StorageEngine.Watermark.
func (e *Engine) Watermark() (from, to ids.ID, ok bool) { return e.mem.Watermark() }

// walPath / snapPath name the engine's two files.
func (e *Engine) walPath() string      { return filepath.Join(e.dir, "wal.log") }
func (e *Engine) snapPath() string     { return filepath.Join(e.dir, "snapshot") }
func (e *Engine) snapTempPath() string { return filepath.Join(e.dir, "snapshot.tmp") }

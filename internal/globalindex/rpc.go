package globalindex

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/loadstat"
	"repro/internal/readcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Message types for the global-index protocol (range 0x10–0x2F). Every
// keyed operation travels as a batch frame — MsgMultiAppend and
// MsgMultiKeyInfo (batch.go), MsgRead (topk.go); a single key is a batch
// of one. 0x10–0x12, 0x15, 0x16 and 0x20 carried the retired per-key and
// replace-write frames and stay unassigned.
const (
	MsgRemove uint8 = 0x13 // (key) -> removed
	MsgStats  uint8 = 0x14 // () -> (keys, postings, bytes)
)

// Index is one peer's global-index component: the local store slice plus
// client operations that route through the DHT to whichever peer is
// responsible for a key. The Multi operations (batch.go) share a caching
// resolver and coalesce keys per responsible peer.
type Index struct {
	node     *dht.Node
	store    StorageEngine
	disp     *transport.Dispatcher // for batch-quota consultation (partial sheds)
	resolver *dht.Resolver
	repl     replicator
	lat      *loadstat.Tracker // per-peer latency EWMAs fed by timedCall

	// Hot-key read path (softreplica.go): client-side posting-prefix
	// cache, per-key popularity tracker, and the soft-replica state.
	// pcache and hotRate stay nil until EnableHotKeyPath arms them —
	// every call site is nil-safe, so the disabled path is byte-for-byte
	// the pre-cache behaviour. hot's holder side (copies of other
	// peers' hot keys) is live unconditionally.
	pcache  *readcache.Cache
	hotRate *loadstat.KeyRate
	hot     hotKeyState

	// Streamed-read counters (topk.go); see TopKStats.
	topkRounds atomic.Int64
	topkEarly  atomic.Int64
	topkSaved  atomic.Int64
	// Hedged-read counters (hedge.go); see TopKStats.
	hedgesLaunched atomic.Int64
	hedgesWon      atomic.Int64
}

// New creates the component for node with the default in-memory engine,
// registering its handlers on d. Replication is off by default (factor
// 1); see EnableReplication.
func New(node *dht.Node, d *transport.Dispatcher) *Index {
	return NewWithEngine(node, d, NewStore())
}

// NewWithEngine creates the component over an explicit storage engine —
// the durable internal/storage engine, or any other StorageEngine
// implementation. A nil engine selects the default memory engine.
func NewWithEngine(node *dht.Node, d *transport.Dispatcher, engine StorageEngine) *Index {
	if engine == nil {
		engine = NewStore()
	}
	ix := &Index{node: node, store: engine, disp: d, resolver: node.NewResolver(), lat: loadstat.NewTracker()}
	ix.repl.factor = 1
	d.Handle(MsgRemove, ix.handleRemove)
	d.Handle(MsgStats, ix.handleStats)
	d.Handle(MsgMultiAppend, ix.handleMultiAppend)
	d.Handle(MsgMultiKeyInfo, ix.handleMultiKeyInfo)
	d.Handle(MsgRead, ix.handleRead)
	d.Handle(MsgSoftAnnounce, ix.handleSoftAnnounce)
	// The batch frames shed at item granularity under admission control:
	// an under-budget frame is served as a prefix instead of refused
	// whole, and the client redrives only the shed suffix.
	for _, m := range []uint8{MsgMultiAppend, MsgMultiKeyInfo, MsgRead} {
		d.SetPartialShed(m)
	}
	ix.registerReplicationHandlers(d)
	return ix
}

// Store exposes the peer's local slice of the global index — the
// storage engine behind the protocol layers (the QDI layer and the
// monitoring UI read it).
func (ix *Index) Store() StorageEngine { return ix.store }

// Node returns the underlying DHT node.
func (ix *Index) Node() *dht.Node { return ix.node }

// LatencySnapshot returns a copy of the per-peer round-trip EWMA table
// the read path maintains; the telemetry registry exports it as the
// alvis_remote_latency_ewma_seconds gauge.
func (ix *Index) LatencySnapshot() map[transport.Addr]time.Duration {
	return ix.lat.Snapshot()
}

func (ix *Index) handleRemove(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	key := r.String()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if err := ix.checkResponsible([]string{key}); err != nil {
		return 0, nil, err
	}
	removed := ix.store.Remove(key)
	w := wire.NewWriter(2)
	w.Bool(removed)
	return MsgRemove, w.Bytes(), nil
}

func (ix *Index) handleStats(_ context.Context, _ transport.Addr, _ uint8, _ []byte) (uint8, []byte, error) {
	st := ix.store.Stats()
	w := wire.NewWriter(16)
	w.Uvarint(uint64(st.Keys))
	w.Uvarint(uint64(st.Postings))
	w.Uvarint(uint64(st.Bytes))
	return MsgStats, w.Bytes(), nil
}

// Remove deletes the entry for the given term combination — the one
// keyed write without a batch frame. It routes over a fresh ring walk,
// and the handler responsibility-checks like every write handler, so a
// ring in flux surfaces as an error instead of removing the wrong copy.
func (ix *Index) Remove(ctx context.Context, terms []string) (bool, error) {
	key := ids.KeyString(terms)
	ix.pcache.Invalidate(key)
	peer, _, err := ix.node.Lookup(ctx, ids.HashString(key))
	if err != nil {
		return false, fmt.Errorf("globalindex: resolve %q: %w", key, err)
	}
	w := wire.NewWriter(len(key) + 4)
	w.String(key)
	_, resp, err := ix.node.Endpoint().Call(ctx, peer.Addr, MsgRemove, w.Bytes())
	if err != nil {
		return false, fmt.Errorf("globalindex: remove %q: %w", key, err)
	}
	if ix.repl.factor > 1 {
		rw := wire.NewWriter(len(key) + 8)
		rw.Uvarint(1)
		rw.String(key)
		ix.replicate(ctx, peer.Addr, MsgReplRemove, rw.Bytes())
	}
	r := wire.NewReader(resp)
	return r.Bool(), r.Err()
}

// PeerStats fetches the storage statistics of an arbitrary peer.
func (ix *Index) PeerStats(ctx context.Context, addr transport.Addr) (Stats, error) {
	_, resp, err := ix.node.Endpoint().Call(ctx, addr, MsgStats, nil)
	if err != nil {
		return Stats{}, fmt.Errorf("globalindex: stats %s: %w", addr, err)
	}
	r := wire.NewReader(resp)
	st := Stats{
		Keys:     int(r.Uvarint()),
		Postings: int(r.Uvarint()),
		Bytes:    int(r.Uvarint()),
	}
	return st, r.Err()
}

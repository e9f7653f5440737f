package globalindex

import (
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/loadstat"
	"repro/internal/readcache"
	"repro/internal/transport"
)

// Message types for the global-index protocol (range 0x10–0x2F). Every
// keyed operation travels as a batch frame — MsgMultiAppend and
// MsgMultiKeyInfo (batch.go), MsgRead (topk.go); a single key is a batch
// of one. 0x10–0x16 and 0x20 carried the retired per-key, replace-write,
// remove and peer-statistics frames and stay unassigned.

// Index is one peer's global-index component: the local store slice plus
// client operations that route through the DHT to whichever peer is
// responsible for a key. The Multi operations (batch.go) share a caching
// resolver and coalesce keys per responsible peer.
type Index struct {
	node     *dht.Node
	store    StorageEngine
	resolver *dht.Resolver
	repl     replicator
	lat      *loadstat.Tracker // per-peer latency EWMAs fed by timedCall

	// probeHook sees every probe handleRead serves; see SetProbeHook.
	probeHook func(key string, found bool) (wantIndex bool)

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

	// lastSeq is the sequence number of this peer's latest write (see
	// nextSeq).
	lastSeq atomic.Uint64
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
	ix := &Index{node: node, store: engine, resolver: node.NewResolver(), lat: loadstat.NewTracker()}
	ix.repl.factor = 1
	d.Handle(MsgMultiAppend, ix.handleMultiAppend)
	d.Handle(MsgMultiKeyInfo, ix.handleMultiKeyInfo)
	d.Handle(MsgRead, ix.handleRead)
	d.Handle(MsgSoftAnnounce, ix.handleSoftAnnounce)
	ix.registerReplicationHandlers(d)
	return ix
}

// Store exposes the peer's local slice of the global index — the
// storage engine behind the protocol layers (the QDI layer and the
// monitoring UI read it).
func (ix *Index) Store() StorageEngine { return ix.store }

// SetProbeHook installs the observer of this peer's probes (paper §2:
// "each contacted peer also updates the usage statistics for the
// requested term combination"). handleRead calls it once per logical
// probe — the opening chunk (cursor 0) of an owner or any-mode read,
// never a continuation and never a soft-copy read — for present and
// absent keys alike, after the store lookup so found is known. A true
// answer for an absent key raises the read's wantIndex flag, asking the
// querying peer to index the key on demand. The QDI layer installs it;
// nil records nothing. Like EnableHotKeyPath it must be called before
// the node serves: the handler reads it without a lock.
func (ix *Index) SetProbeHook(hook func(key string, found bool) (wantIndex bool)) {
	ix.probeHook = hook
}

// Node returns the underlying DHT node.
func (ix *Index) Node() *dht.Node { return ix.node }

// LatencySnapshot returns a copy of the per-peer round-trip EWMA table
// the read path maintains; the telemetry registry exports it as the
// alvis_remote_latency_ewma_seconds gauge.
func (ix *Index) LatencySnapshot() map[transport.Addr]time.Duration {
	return ix.lat.Snapshot()
}

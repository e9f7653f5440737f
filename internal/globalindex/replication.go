package globalindex

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Replication message types (range 0x20–0x2F). Write-through needs no
// frame of its own: it replays the applied MsgMultiAppend in any mode.
// Two copies of a range converge through one walk: a MsgRangeManifest of
// the range — its (key, fingerprint) pairs, a fingerprint being a 64-bit
// digest of the entry's stored bytes, paginated in ring order — diffed
// against the local copy. A puller fetches the entries it lacks or holds
// differently with MsgFetchEntries; an owner ships the entries a replica
// lacks or holds differently with MsgReplSync. An entry travels as its
// per-origin shares and its list (EncodeEntry), against a peer table the
// frame leads with. Receivers merge entries idempotently, per origin
// keeping the newer write (Store.Adopt), so repeated passes converge.
// 0x20–0x23 carried the retired ReplPut, ReplAppend, ReplRemove and
// PullRange and stay unassigned.
const (
	MsgReplSync      uint8 = 0x24 // (peers, n, n×(key, shares, list)) -> n×storedLen
	MsgRangeManifest uint8 = 0x25 // (from, to) -> (n, n×(key, fingerprint), more)
	MsgFetchEntries  uint8 = 0x26 // (n, n×key) -> (peers, n, n×(key, shares, list)) for the keys held
)

// replicator holds the replication state of one Index. Where a primary's
// replicas live is not state of its own: the index's Resolver answers it
// from the same cached ring view that routes keys (replicaTargets).
type replicator struct {
	factor int // replication factor R; <= 1 disables replication

	// life is the index's lifetime context (the peer's root): the
	// anti-entropy passes that run from ring-maintenance callbacks,
	// outside any query, run under it so Close unwinds their RPCs.
	life context.Context

	// Pull transfer accounting, for the persistence experiments: how
	// many manifest (key, fingerprint) pairs this peer's pull walks
	// compared, and how many full entries they fetched into this store.
	pulledKeys   atomic.Int64
	manifestKeys atomic.Int64

	// rejoinPending marks a recovered peer whose rejoin pull has not yet
	// walked its owned range to completion. The pull normally runs from
	// the first ring change that reveals a predecessor, but on a ring
	// that stabilizes immediately afterwards no further change arrives —
	// if that one attempt fired before the pointers settled or its RPCs
	// failed, MaintainReplication retries on the maintenance cadence
	// until a walk completes. Only this walk may delete (see
	// pullOwnedRange).
	rejoinPending atomic.Bool
}

// PullTransferCounts reports the pull walks' transfer counters: manifest
// is the number of (key, fingerprint) pairs they compared, pulled the
// number of full entries they fetched and adopted. A walk over an empty
// store fetches every pair it lists, so pulled < manifest shows a walk
// that found entries already here. Experiment E12 reads them to quantify
// what WAL/snapshot recovery saves a restarted peer.
func (ix *Index) PullTransferCounts() (manifest, pulled int64) {
	return ix.repl.manifestKeys.Load(), ix.repl.pulledKeys.Load()
}

// ReplicationFactor returns the configured replication factor (1 = no
// replication, today's single-copy behaviour).
func (ix *Index) ReplicationFactor() int {
	if ix.repl.factor < 1 {
		return 1
	}
	return ix.repl.factor
}

// EnableReplication sets the replication factor and, for R > 1,
// subscribes the anti-entropy pass to the node's ring-change
// notifications. Call it once, before the node joins a network. With
// R <= 1 it is a no-op: every write stays single-copy and the
// determinism contract of the batch layer is untouched.
//
// life is the index's lifetime context — the peer's root, cancelled on
// Close — under which the ring-change-triggered anti-entropy passes
// run; nil keeps them uncancellable.
func (ix *Index) EnableReplication(life context.Context, r int) {
	if r <= 1 {
		return
	}
	ix.repl.life = life
	ix.repl.factor = r
	ix.repl.rejoinPending.Store(ix.store.Recovered())
	ix.node.OnRingChange(ix.onRingChange)
}

// MaintainReplication runs the replication work a maintenance round
// owes: retrying a recovered peer's rejoin pull until one attempt walks
// the owned range to completion. No-op for peers without recovered
// state, once a pull has completed, or with replication disabled.
func (ix *Index) MaintainReplication() {
	if ix.repl.factor <= 1 || !ix.repl.rejoinPending.Load() {
		return
	}
	ix.pullOwnedRange()
}

// lifetimeCtx returns the context anti-entropy passes run under: the
// lifetime handed to EnableReplication, or an uncancellable fallback
// when none was.
func (ix *Index) lifetimeCtx() context.Context {
	ctx := ix.repl.life
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// registerReplicationHandlers wires the replica-side protocol. Handlers
// are registered unconditionally (in New) so that a peer can hold
// replicas for others whatever its own factor is.
func (ix *Index) registerReplicationHandlers(d *transport.Dispatcher) {
	d.Handle(MsgReplSync, ix.handleReplSync)
	d.Handle(MsgRangeManifest, ix.handleRangeManifest)
	d.Handle(MsgFetchEntries, ix.handleFetchEntries)
}

// pageRangeKeys caps one page of a manifest walk at the batch bound. The
// walker resumes from the last returned key's hash (exclusive lower
// bound), so a page must end on a hash boundary — the cut retreats
// past any keys sharing the boundary hash, or resuming would skip the
// rest of the tie group.
func pageRangeKeys(keys []string) (page []string, more bool) {
	if len(keys) <= MaxBatchItems {
		return keys, false
	}
	cut := MaxBatchItems
	for cut > 0 && ids.HashString(keys[cut-1]) == ids.HashString(keys[cut]) {
		cut--
	}
	if cut == 0 {
		// A whole page of one hash value cannot happen with a real 64-bit
		// digest; if it somehow does, ship the raw page rather than loop
		// forever.
		cut = MaxBatchItems
	}
	return keys[:cut], true
}

// entryFingerprint digests one stored entry (its shares and the exact
// encoded list bytes) into the 64-bit value the range manifest ships. Two
// peers holding byte-identical entries produce equal fingerprints, so a
// walk skips their transfer.
func entryFingerprint(shares []Share, list *postings.List) uint64 {
	w := wire.NewWriter(32 + 12*list.Len())
	writeEntries(w, []syncItem{{shares: shares, list: list}})
	return uint64(ids.HashBytes(w.Bytes()))
}

// writeEntries writes items as the peer table of their shares and lists,
// the count, then each item's key and entry.
func writeEntries(w *wire.Writer, items []syncItem) {
	states := make([]EntryState, len(items))
	for i, it := range items {
		states[i] = EntryState{Shares: it.shares, List: it.list}
	}
	peers := PeerTableOf(states...)
	peers.Encode(w)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.String(it.key)
		EncodeEntry(w, peers, it.shares, it.list)
	}
}

// readEntries reads a body written by writeEntries.
func readEntries(r *wire.Reader) ([]syncItem, error) {
	peers, err := postings.DecodePeerTable(r, MaxBatchItems)
	if err != nil {
		return nil, err
	}
	count, err := readBatchCount(r)
	if err != nil {
		return nil, err
	}
	items := make([]syncItem, count)
	for i := range items {
		items[i].key = r.String()
		if items[i].shares, items[i].list, err = DecodeEntry(r, peers); err != nil {
			return nil, err
		}
	}
	return items, nil
}

func (ix *Index) handleRangeManifest(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	from := ids.ID(r.Uint64())
	to := ids.ID(r.Uint64())
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	keys, more := pageRangeKeys(ix.store.KeysInRange(from, to))
	w := wire.NewWriter(16 * len(keys))
	w.Uvarint(uint64(len(keys)))
	for _, key := range keys {
		list, shares, ok := ix.store.Export(key)
		if !ok {
			list = &postings.List{}
		}
		w.String(key)
		w.Uint64(entryFingerprint(shares, list))
	}
	w.Bool(more)
	return MsgRangeManifest, w.Bytes(), nil
}

func (ix *Index) handleFetchEntries(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	count, err := readBatchCount(r)
	if err != nil {
		return 0, nil, err
	}
	keys := make([]string, count)
	for i := 0; i < count; i++ {
		keys[i] = r.String()
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	// The held entries travel as a ReplSync body; a key this store lacks
	// is left out.
	var held []syncItem
	for _, key := range keys {
		if list, shares, ok := ix.store.Export(key); ok {
			held = append(held, syncItem{key, shares, list})
		}
	}
	w := wire.NewWriter(64 * count)
	writeEntries(w, held)
	return MsgFetchEntries, w.Bytes(), nil
}

func (ix *Index) handleReplSync(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	items, err := readEntries(wire.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	w := wire.NewWriter(8 + 4*len(items))
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.Uvarint(uint64(ix.store.Adopt(it.key, it.shares, it.list)))
	}
	return MsgReplSync, w.Bytes(), nil
}

// syncItem is one stored entry (key, per-origin shares, list) in
// anti-entropy transfer.
type syncItem struct {
	key    string
	shares []Share
	list   *postings.List
}

// replicaTargets returns where primary's replicas live: the first R−1
// distinct nodes following it on the ring, from the resolver's cached
// ring view (see dht.Resolver.Successors). It returns nil with
// replication off, and fewer nodes when the ring is smaller or a step
// cannot be resolved.
func (ix *Index) replicaTargets(ctx context.Context, primary dht.Remote) []dht.Remote {
	return ix.resolver.Successors(ctx, primary, ix.repl.factor-1)
}

// selectReplicas picks the first want distinct successors of primary,
// excluding the primary itself.
func selectReplicas(primary transport.Addr, succs []dht.Remote, want int) []dht.Remote {
	var out []dht.Remote
	seen := map[transport.Addr]bool{primary: true}
	for _, s := range succs {
		if len(out) >= want {
			break
		}
		if s.IsZero() || seen[s.Addr] {
			continue
		}
		seen[s.Addr] = true
		out = append(out, s)
	}
	return out
}

// replicate ships a write-through frame (the any-mode replay of a keyed
// write the primary just applied) to every replica of primary.
// Best effort: a replica that cannot be reached is repaired later by the
// anti-entropy pass, and a failed replica write must not fail the
// client's operation.
func (ix *Index) replicate(ctx context.Context, primary dht.Remote, msg uint8, body []byte) {
	for _, t := range ix.replicaTargets(ctx, primary) {
		_, _, err := ix.node.Endpoint().Call(ctx, t.Addr, msg, body)
		if errors.Is(err, transport.ErrUnreachable) {
			// An unreachable replica means the cached route is stale: drop
			// it so the next write-through re-resolves the chain instead
			// of re-hammering the dead peer until an unrelated ring
			// change clears the cache. The write itself stays best
			// effort — anti-entropy repairs the missed frame.
			ix.resolver.Invalidate(t.Addr)
		}
	}
}

// onRingChange is the anti-entropy/handoff pass, invoked synchronously on
// every change to the node's ring pointers:
//
//   - a new (non-zero) predecessor redefines this node's responsibility
//     range (pred, self]: a joining node pulls the keys it now owns from
//     its successor (which held them as primary until now), and a node
//     that absorbed a failed predecessor's range — its replica copies
//     promote to primary in place — pushes the range onward so the
//     replication factor is restored at the new depth;
//   - a changed successor list pushes the owned range to the current
//     successors (replicas must live on today's successor set, not
//     yesterday's).
//
// Both directions are the one manifest walk (walkManifest), so a copy
// that is already converged costs fingerprints, not entries.
//
// A zero new predecessor (PredecessorFailed's transient state) is skipped:
// the responsibility range is unknown until the repairing notify arrives,
// and acting on "I own everything" would flood the ring.
func (ix *Index) onRingChange(ch dht.RingChange) {
	if ch.PredChanged && !ch.NewPred.IsZero() {
		ix.pullOwnedRange()
		ix.pushOwnedRange()
		ix.recordWatermark()
		return
	}
	if ch.SuccsChanged {
		ix.pushOwnedRange()
		ix.recordWatermark()
	}
}

// recordWatermark persists the current responsibility range (pred, self]
// into the storage engine after an anti-entropy pass. A durable engine
// journals it, which is what lets a restarted peer prove "my recovered
// slice covers this ring interval" and sweep its rejoin walk.
func (ix *Index) recordWatermark() {
	pred := ix.node.Predecessor()
	if pred.IsZero() {
		return
	}
	ix.store.SetWatermark(pred.ID, ix.node.Self().ID)
}

// AntiEntropySweep runs one background anti-entropy pass: the owned
// range (pred, self] is diffed against each current successor's copy and
// the entries a replica lacks or holds differently are shipped as
// idempotent ReplSync frames, repairing replica divergence left by missed
// best-effort write-throughs — without waiting for a ring-change event.
// It returns the number of entries shipped (0 with replication off, or
// on a converged replica set). Long-running peers call it on the
// Config.AntiEntropyInterval cadence.
func (ix *Index) AntiEntropySweep() int {
	if ix.repl.factor <= 1 {
		return 0
	}
	n := ix.pushOwnedRange()
	ix.recordWatermark()
	return n
}

// walkManifest is the one range walk two copies converge by. It pages
// peer's MsgRangeManifest of (from, to] in ring order and hands visit
// each page: its keys in ring order, their fingerprints, and the exact
// interval (lo, hi] the page speaks for — a page ends on a hash
// boundary, so the local keys in (lo, hi] are precisely the ones to
// compare it with. It reports whether the walk reached to; an RPC or
// decode failure, or a visit returning false, cuts it short.
func (ix *Index) walkManifest(ctx context.Context, peer transport.Addr, from, to ids.ID, visit func(lo, hi ids.ID, keys []string, fps map[string]uint64) bool) bool {
	for page := 0; page < 1024; page++ { // hard stop against protocol bugs
		w := wire.NewWriter(16)
		w.Uint64(uint64(from))
		w.Uint64(uint64(to))
		_, resp, err := ix.node.Endpoint().Call(ctx, peer, MsgRangeManifest, w.Bytes())
		if err != nil {
			return false // best effort; maintenance or the next ring change retries
		}
		r := wire.NewReader(resp)
		count, err := readBatchCount(r)
		if err != nil {
			return false
		}
		keys := make([]string, count)
		fps := make(map[string]uint64, count)
		for i := range keys {
			keys[i] = r.String()
			fps[keys[i]] = r.Uint64()
		}
		more := r.Bool()
		if r.Err() != nil {
			return false
		}
		hi := to
		if more && count > 0 {
			hi = ids.HashString(keys[count-1])
		}
		if !visit(from, hi, keys, fps) {
			return false
		}
		if hi == to || hi == from {
			return true // range end reached, or no forward progress possible
		}
		from = hi
	}
	return false
}

// pullOwnedRange walks the immediate successor's manifest of this node's
// responsibility range (pred, self] and fetches the entries that are
// missing here or differ — the key migration a join requires, since the
// successor was the range's primary before this node joined (or holds
// its replicas). A cold join is this walk against an empty store; a
// recovered slice moves only the writes that landed while it was down.
//
// Deletions propagate only on the rejoin walk of a recovered slice whose
// persisted watermark (wfrom, wto] ends at this node's ring position, and
// only for keys inside that watermark: a recovered key the successor —
// the range's primary throughout the downtime — no longer holds was
// removed cluster-wide meanwhile, and keeping it would resurrect
// withdrawn postings. Everything else the walk covers keeps what it
// holds: a range absorbed from a dead predecessor, before the restart
// (a double failure) or after it, was never at the successor, and this
// copy may be its last. A walk cut short by an RPC failure or unsettled
// ring pointers leaves the rejoin pending, so the maintenance cadence
// retries it.
func (ix *Index) pullOwnedRange() {
	ctx := ix.lifetimeCtx()
	self := ix.node.Self()
	pred := ix.node.Predecessor()
	succ := ix.node.Successor()
	if pred.IsZero() || succ.IsZero() || succ.Addr == self.Addr {
		return
	}
	wfrom, wto, ok := ix.store.Watermark()
	sweep := ix.repl.rejoinPending.Load() && ok && wto == self.ID
	complete := ix.walkManifest(ctx, succ.Addr, pred.ID, self.ID, func(lo, hi ids.ID, keys []string, fps map[string]uint64) bool {
		ix.repl.manifestKeys.Add(int64(len(keys)))
		var need []string
		for _, key := range keys {
			if list, shares, ok := ix.store.Export(key); !ok || entryFingerprint(shares, list) != fps[key] {
				need = append(need, key)
			}
		}
		if !ix.fetchEntries(ctx, succ, need) {
			return false
		}
		if sweep {
			for _, key := range ix.store.KeysInRange(lo, hi) {
				if _, held := fps[key]; !held && ids.Between(ids.HashString(key), wfrom, wto) {
					ix.store.Remove(key)
				}
			}
		}
		return true
	})
	if complete {
		ix.repl.rejoinPending.Store(false)
	}
}

// fetchEntries pulls the named full entries from succ (chunked at the
// batch bound) and merges them in. It reports whether every chunk was
// transferred and decoded.
func (ix *Index) fetchEntries(ctx context.Context, succ dht.Remote, need []string) bool {
	for start := 0; start < len(need); start += MaxBatchItems {
		chunk := need[start:min(start+MaxBatchItems, len(need))]
		w := wire.NewWriter(32 * len(chunk))
		w.Uvarint(uint64(len(chunk)))
		for _, key := range chunk {
			w.String(key)
		}
		_, resp, err := ix.node.Endpoint().Call(ctx, succ.Addr, MsgFetchEntries, w.Bytes())
		if err != nil {
			return false
		}
		// Keys the successor no longer holds were removed there since the
		// manifest page; only the held ones come back as entries, and
		// nothing that was not asked for.
		items, err := readEntries(wire.NewReader(resp))
		if err != nil {
			return false
		}
		asked := make(map[string]bool, len(chunk))
		for _, key := range chunk {
			asked[key] = true
		}
		for _, it := range items {
			if !asked[it.key] {
				return false
			}
		}
		for _, it := range items {
			ix.store.Adopt(it.key, it.shares, it.list)
			ix.repl.pulledKeys.Add(1)
		}
	}
	return true
}

// pushOwnedRange walks each of this node's first R−1 successors'
// manifests of its responsibility range (pred, self] and ships, as
// ReplSync frames chunked at the batch bound, the local entries a
// replica lacks or holds differently. A converged replica costs one
// manifest walk and no entries; merging on the receiver makes repeated
// pushes idempotent. It returns the number of entries shipped, summed
// over the replicas.
func (ix *Index) pushOwnedRange() int {
	ctx := ix.lifetimeCtx()
	self := ix.node.Self()
	pred := ix.node.Predecessor()
	if pred.IsZero() {
		return 0
	}
	// The owned keys in ring order: each manifest page speaks for the
	// contiguous run of them hashing into its interval.
	owned := ix.store.KeysInRange(pred.ID, self.ID)
	if len(owned) == 0 {
		return 0
	}
	hashes := make([]ids.ID, len(owned))
	for i, key := range owned {
		hashes[i] = ids.HashString(key)
	}
	pushed := 0
	for _, t := range selectReplicas(self.Addr, ix.node.Successors(), ix.repl.factor-1) {
		next := 0
		ix.walkManifest(ctx, t.Addr, pred.ID, self.ID, func(lo, hi ids.ID, _ []string, fps map[string]uint64) bool {
			var ship []syncItem
			for ; next < len(owned) && ids.Between(hashes[next], lo, hi); next++ {
				key := owned[next]
				list, shares, ok := ix.store.Export(key)
				if !ok {
					continue // removed since the range listing
				}
				if fp, held := fps[key]; !held || fp != entryFingerprint(shares, list) {
					ship = append(ship, syncItem{key, shares, list})
				}
			}
			for start := 0; start < len(ship); start += MaxBatchItems {
				chunk := ship[start:min(start+MaxBatchItems, len(ship))]
				w := wire.NewWriter(64 * len(chunk))
				writeEntries(w, chunk)
				if _, _, err := ix.node.Endpoint().Call(ctx, t.Addr, MsgReplSync, w.Bytes()); err != nil {
					return false // the replica is gone or refusing; the next pass retries
				}
				pushed += len(chunk)
			}
			return true
		})
	}
	return pushed
}

// ReadPolicy selects which copy of an entry serves a read — the
// per-query read-consistency knob the facade exposes as
// WithReadConsistency.
type ReadPolicy int

const (
	// ReadPrimary (the default) reads from the responsible peer, falling
	// over to its replicas only when the primary cannot serve the read.
	ReadPrimary ReadPolicy = iota
	// ReadAnyReplica spreads reads across the primary's whole replica set
	// (primary + R−1 successors), chosen per key by hash, so query
	// hotspots distribute over R peers instead of hammering the primary.
	// Replica copies are write-through + anti-entropy soft state: a read
	// may briefly miss an entry the primary already holds. With
	// replication off (factor 1) it behaves exactly like ReadPrimary.
	ReadAnyReplica
)

// readTarget picks the peer that serves an AnyReplica read of key: the
// key's hash indexes deterministically into [primary, replica1, ...], so
// a given key always reads from the same copy (cache-friendly) while
// distinct keys of one hot primary spread across its replica set.
func (ix *Index) readTarget(ctx context.Context, key string, primary dht.Remote) dht.Remote {
	replicas := ix.replicaTargets(ctx, primary)
	idx := int(uint64(ids.HashString(key)) % uint64(1+len(replicas)))
	if idx == 0 {
		return primary
	}
	return replicas[idx-1]
}

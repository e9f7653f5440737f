package globalindex

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Batch message types (still inside the global-index range 0x10–0x2F).
// Each Multi frame carries every key of one logical operation that
// resolved to the same responsible peer, collapsing N round trips into
// one; handlers decode the whole frame before applying anything, so a
// malformed batch is rejected without partial effects.
// Posting lists are read through the one MsgRead frame (topk.go); 0x18
// and 0x1B carried the retired one-shot read frames and stay unassigned
// (0x1A is the single-term baseline's MsgIntersect).
//
// The two publish-side frames carry their items in key order and each
// key front-coded (keyCoder): the length of the prefix it shares with
// the frame's previous key, then the rest of it. A MultiAppend frame is
// one origin's write: it leads with the frame's peer table, which names
// the origin — the peer whose documents its lists hold — once, with the
// origin's sequence number for the write, and each list names its peer
// by index into it (list flag bit 2). Every item replaces the origin's
// share of its key (Memory.Replace).
const (
	MsgMultiAppend  uint8 = 0x17 // (mode, origin, seq, n, n×(sharedPrefixLen, keySuffix, bound, announcedDF, list)) -> n×storedLen
	MsgMultiKeyInfo uint8 = 0x19 // (n, n×(sharedPrefixLen, keySuffix)) -> n×(present, approxDF, truncated)
)

// MaxBatchItems bounds the item count a batch handler accepts in one
// frame; hostile counts beyond it are rejected as corrupt.
const MaxBatchItems = 1 << 14

// AppendItem is one element of a MultiAppend: the complete list of one
// peer's documents under a key (empty to withdraw the peer from it) and
// the peer's document frequency for the key.
type AppendItem struct {
	Terms       []string
	List        *postings.List
	Bound       int
	AnnouncedDF int
}

// GetItem is one element of a MultiGet.
type GetItem struct {
	Terms      []string
	MaxResults int
}

// GetResult is the per-item answer of a MultiGet. Found reports whether
// the key is indexed; WantIndex is the serving peer's QDI activation
// request for a missing-but-popular key.
type GetResult struct {
	List      *postings.List
	Found     bool
	WantIndex bool
}

// KeyInfoItem is one element of a MultiKeyInfo.
type KeyInfoItem struct {
	Terms []string
}

// KeyInfoResult is the per-item answer of a MultiKeyInfo: presence,
// approximate global document frequency and truncation state of a key at
// its responsible peer. HDK's frequency test is built on it.
type KeyInfoResult struct {
	DF        int64
	Present   bool
	Truncated bool
}

// checkResponsible rejects a batch naming any key this node does not
// currently own. Batch frames arrive over cached routes; after a ring
// change a stale route can deliver keys that moved to another node, and
// silently absorbing them would strand the entries where no lookup finds
// them. The rejection makes the client invalidate the route and redrive
// the items over fresh ring walks (see runBatch).
func (ix *Index) checkResponsible(keys []string) error {
	for _, key := range keys {
		if !ix.node.Responsible(ids.HashString(key)) {
			return fmt.Errorf("globalindex: not responsible for %q", key)
		}
	}
	return nil
}

// handleMultiAppend applies a MultiAppend frame whole. Its leading byte
// is MsgRead's mode: an owner-mode frame is a client write, applied only
// if this node owns every key; an any-mode frame is a primary's
// write-through replay, applied whatever it names, since a replica owns
// none of its keys.
func (ix *Index) handleMultiAppend(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	mode := r.Byte()
	wr, err := DecodeWrite(r)
	if err != nil {
		return 0, nil, err
	}
	if err := ix.AdmitKeyed(mode, wr.Keys); err != nil {
		return 0, nil, err
	}
	w := wire.NewWriter(8 + 4*len(wr.Keys))
	w.Uvarint(uint64(len(wr.Keys)))
	for _, n := range ix.store.Write(wr) {
		w.Uvarint(uint64(n))
	}
	return MsgMultiAppend, w.Bytes(), nil
}

func (ix *Index) handleMultiKeyInfo(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	keys, err := readKeys(wire.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if err := ix.checkResponsible(keys); err != nil {
		return 0, nil, err
	}
	w := wire.NewWriter(16 * len(keys))
	w.Uvarint(uint64(len(keys)))
	for _, key := range keys {
		df, present := ix.store.ApproxDF(key)
		truncated := false
		if present {
			if l, ok := ix.store.Peek(key); ok {
				truncated = l.Truncated
			}
		}
		w.Bool(present)
		w.Uvarint(uint64(df))
		w.Bool(truncated)
	}
	return MsgMultiKeyInfo, w.Bytes(), nil
}

// readBatchCount reads and validates a batch frame's item count. The
// comparison happens on the raw uint64: a hostile count in [2^63, 2^64)
// would wrap negative through int() and slip past a signed check
// straight into make().
func readBatchCount(r *wire.Reader) (int, error) {
	count := r.Uvarint()
	if r.Err() != nil || count > MaxBatchItems {
		return 0, wire.ErrCorrupt
	}
	return int(count), nil
}

// keyCoder front-codes the keys of one MultiAppend or MultiKeyInfo
// frame: each key travels as the length of the prefix it shares with the
// frame's previous key, at most maxSharedPrefix, then the rest of it.
// Senders put a frame's keys in sorted order, where HDK's
// term-combination keys share most of their bytes with their
// neighbours; keys in any order decode.
type keyCoder struct{ prev string }

// maxSharedPrefix bounds the prefix a key may take from the previous
// one. A shared prefix costs the sender a varint but the receiver a copy
// in a new string, which it also hashes; with the bound a frame's keys
// cost at most its body plus MaxBatchItems × maxSharedPrefix bytes (4
// MiB) to rebuild, where a few MiB of keys sharing all of a long
// previous key could otherwise cost tens of GiB. HDK keys are a few
// terms long and stay under it.
const maxSharedPrefix = 255

func (c *keyCoder) write(w *wire.Writer, key string) {
	n := 0
	for n < len(key) && n < len(c.prev) && n < maxSharedPrefix && key[n] == c.prev[n] {
		n++
	}
	w.Uvarint(uint64(n))
	w.String(key[n:])
	c.prev = key
}

// read rebuilds the next key. A shared prefix longer than the previous
// key or than maxSharedPrefix, or a key longer than any string the wire
// carries, is corrupt.
func (c *keyCoder) read(r *wire.Reader) (string, error) {
	shared := r.Uvarint()
	suffix := r.String()
	if err := r.Err(); err != nil {
		return "", err
	}
	if shared > uint64(min(len(c.prev), maxSharedPrefix)) || uint64(len(suffix)) > wire.MaxStringLen-shared {
		return "", wire.ErrCorrupt
	}
	c.prev = c.prev[:shared] + suffix
	return c.prev, nil
}

// writeKeys writes the keys at items (indices into keys) as a
// MultiKeyInfo request body: (n, n×key), keys front-coded.
func writeKeys(w *wire.Writer, keys []string, items []int) {
	w.Uvarint(uint64(len(items)))
	var kc keyCoder
	for _, i := range items {
		kc.write(w, keys[i])
	}
}

// readKeys reads a body written by writeKeys.
func readKeys(r *wire.Reader) ([]string, error) {
	count, err := readBatchCount(r)
	if err != nil {
		return nil, err
	}
	keys := make([]string, count)
	var kc keyCoder
	for i := range keys {
		if keys[i], err = kc.read(r); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// writeAppendFrame writes the MultiAppend items at idx (indices into keys
// and items), every list naming only origin's documents, as the frame
// body after the mode byte: origin and seq, the count, then each item —
// key front-coded, bound, announced DF, and the list naming its peer by
// index into the one-entry table. It is the one encoder of the frame;
// sendGroup replays what it wrote, and DecodeWrite reads it.
func writeAppendFrame(w *wire.Writer, origin transport.Addr, seq uint64, keys []string, items []AppendItem, idx []int) {
	peers := postings.NewPeerTable(origin)
	w.String(string(origin))
	w.Uvarint(seq)
	w.Uvarint(uint64(len(idx)))
	var kc keyCoder
	for _, i := range idx {
		kc.write(w, keys[i])
		w.Uvarint(uint64(items[i].Bound))
		w.Uvarint(uint64(items[i].AnnouncedDF))
		items[i].List.EncodeIndexed(w, peers)
	}
}

// EncodeWrite writes w as the MultiAppend frame body after the mode
// byte — the form a durable engine journals it in too.
func EncodeWrite(wr *wire.Writer, w Write) {
	idx := make([]int, len(w.Keys))
	for i := range idx {
		idx[i] = i
	}
	writeAppendFrame(wr, w.Origin, w.Seq, w.Keys, w.Items, idx)
}

// DecodeWrite decodes a body written by writeAppendFrame fully before
// returning, so the handler applies either every item or none. A list
// naming any peer but the origin, or a DF beyond maxShareDF, is corrupt.
// The items' Terms stay empty: the frame carries canonical keys.
func DecodeWrite(r *wire.Reader) (Write, error) {
	origin := transport.Addr(r.String())
	seq := r.Uvarint()
	if err := r.Err(); err != nil {
		return Write{}, err
	}
	peers := postings.NewPeerTable(origin)
	count, err := readBatchCount(r)
	if err != nil {
		return Write{}, err
	}
	w := Write{Origin: origin, Seq: seq, Keys: make([]string, count), Items: make([]AppendItem, count)}
	var kc keyCoder
	for i := range w.Items {
		it := &w.Items[i]
		if w.Keys[i], err = kc.read(r); err != nil {
			return Write{}, err
		}
		it.Bound = int(r.Uvarint())
		df := r.Uvarint()
		if it.List, err = postings.Decode(r, peers); err != nil {
			return Write{}, err
		}
		if df > maxShareDF || originOf(it.List, origin) != origin {
			return Write{}, wire.ErrCorrupt
		}
		it.AnnouncedDF = int(df)
	}
	return w, nil
}

// originOf returns the one peer list names, or def for an empty list;
// a list naming several peers has no origin and yields "".
func originOf(list *postings.List, def transport.Addr) transport.Addr {
	if list.Len() == 0 {
		return def
	}
	o := list.Entries[0].Ref.Peer
	for _, p := range list.Entries[1:] {
		if p.Ref.Peer != o {
			return ""
		}
	}
	return o
}

// nextSeq returns the sequence number of this peer's next write: the
// wall clock in milliseconds, held strictly above the previous write's.
// A restarted peer's clock has moved on, so its writes still supersede
// the ones it made before the restart.
func (ix *Index) nextSeq() uint64 {
	for {
		last := ix.lastSeq.Load()
		next := max(uint64(time.Now().UnixMilli()), last+1)
		if ix.lastSeq.CompareAndSwap(last, next) {
			return next
		}
	}
}

// inKeyOrder returns keys stably sorted, and for each position of that
// order the caller's index: the item order of the front-coded frames.
func inKeyOrder(keys []string) (sorted []string, order []int) {
	order = make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return strings.Compare(keys[a], keys[b]) })
	sorted = make([]string, len(keys))
	for j, i := range order {
		sorted[j] = keys[i]
	}
	return sorted, order
}

// group maps each item index to a responsible peer and collects the per
// peer item order. Groups preserve first-occurrence order of peers and
// input order of items, keeping batch frames deterministic. The peer
// carries its ring ID: a primary's replicas are the nodes following it.
type group struct {
	peer  dht.Remote
	items []int
}

func groupByPeer(peers []dht.Remote) []group {
	index := make(map[transport.Addr]int)
	var out []group
	for i, p := range peers {
		gi, ok := index[p.Addr]
		if !ok {
			gi = len(out)
			index[p.Addr] = gi
			out = append(out, group{peer: p})
		}
		out[gi].items = append(out[gi].items, i)
	}
	return out
}

// chunkGroups splits any group larger than max into consecutive chunks,
// keeping item order. Handlers reject frames above MaxBatchItems, so an
// unchunked oversized group would be guaranteed-refused.
func chunkGroups(groups []group, max int) []group {
	out := make([]group, 0, len(groups))
	for _, g := range groups {
		for len(g.items) > max {
			out = append(out, group{peer: g.peer, items: g.items[:max]})
			g.items = g.items[max:]
		}
		out = append(out, g)
	}
	return out
}

// resolveAll resolves the canonical keys of a batch through the caching
// resolver.
func (ix *Index) resolveAll(ctx context.Context, keys []string) ([]dht.Remote, error) {
	_, span := telemetry.StartSpan(ctx, "resolve")
	defer span.Finish()
	span.SetAttr("keys", fmt.Sprint(len(keys)))
	hashes := make([]ids.ID, len(keys))
	for i, k := range keys {
		hashes[i] = ids.HashString(k)
	}
	peers, err := ix.resolver.Resolve(ctx, hashes)
	if err != nil {
		return nil, fmt.Errorf("globalindex: batch resolve: %w", err)
	}
	return peers, nil
}

// MultiAppend writes every item as its origin's share of the entry
// stored under its canonical key: the item's list replaces the postings
// the origin stored there before, and its announced DF the origin's
// (see Memory.Replace). An item's origin is the one peer its list names,
// or this peer for an empty list, which withdraws it from the key; a
// list naming several peers is refused. Each origin's items are one
// write under one fresh sequence number. All items of an origin that
// resolve to the same responsible peer travel in one MsgMultiAppend round
// trip and the per-peer calls are issued concurrently (at most dht.FanOut
// in flight). It returns the stored length per item, in input order.
// Items whose frame provably was not applied — a stale or dead route, a
// shed — are redriven once over fresh ring walks (see runBatch).
func (ix *Index) MultiAppend(ctx context.Context, items []AppendItem) ([]int, error) {
	self := ix.node.Self().Addr
	out := make([]int, len(items))
	byOrigin := make(map[transport.Addr][]int)
	for i, it := range items {
		o := originOf(it.List, self)
		if o == "" {
			return out, fmt.Errorf("globalindex: append %q: list names more than one peer", ids.KeyString(it.Terms))
		}
		byOrigin[o] = append(byOrigin[o], i)
	}
	for _, origin := range slices.Sorted(maps.Keys(byOrigin)) {
		if err := ix.appendFrom(ctx, origin, items, byOrigin[origin], out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// appendFrom runs the items at idx, all of origin, as one write, storing
// each item's stored length in out.
func (ix *Index) appendFrom(ctx context.Context, origin transport.Addr, items []AppendItem, idx []int, out []int) error {
	keys := make([]string, len(idx))
	for j, i := range idx {
		keys[j] = ids.KeyString(items[i].Terms)
		ix.pcache.Invalidate(keys[j]) // write watermark: never serve a pre-write prefix
	}
	keys, order := inKeyOrder(keys)
	sorted := make([]AppendItem, len(idx))
	for j, k := range order {
		sorted[j] = items[idx[k]]
	}
	seq := ix.nextSeq()
	return ix.runBatch(ctx, keys, batchOp{
		msg:    MsgMultiAppend,
		moded:  true,
		write:  true,
		encode: func(w *wire.Writer, at []int) { writeAppendFrame(w, origin, seq, keys, sorted, at) },
		decode: func(r *wire.Reader, j int, _ transport.Addr) error {
			out[idx[order[j]]] = int(r.Uvarint())
			return r.Err()
		},
	})
}

// MultiGet fetches every item's posting list in one shot, capped to the
// item's MaxResults entries (0 = whole stored list, exact scores): a read
// session that opens and never refines (see NewTopKSession, whose policy
// and options it takes). A list the cap cut short comes back marked
// Truncated. Each probe updates usage statistics at the serving peer;
// because a probe is a side effect, an ambiguously-failed frame is
// surfaced as an error rather than retried (see runBatch).
func (ix *Index) MultiGet(ctx context.Context, items []GetItem, policy ReadPolicy, opts ...ReadOption) ([]GetResult, error) {
	return ix.NewTopKSession(1, 0, policy, opts...).FetchPrefixes(ctx, items)
}

// MultiKeyInfo fetches presence, approximate global DF and truncation
// state for every item's key, coalescing per responsible peer. HDK's
// expansion rounds use it to frequency-test a whole frontier in a few
// round trips.
func (ix *Index) MultiKeyInfo(ctx context.Context, items []KeyInfoItem) ([]KeyInfoResult, error) {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = ids.KeyString(it.Terms)
	}
	keys, order := inKeyOrder(keys)
	out := make([]KeyInfoResult, len(items))
	err := ix.runBatch(ctx, keys, batchOp{
		msg:        MsgMultiKeyInfo,
		idempotent: true,
		encode:     func(w *wire.Writer, idx []int) { writeKeys(w, keys, idx) },
		decode: func(r *wire.Reader, j int, _ transport.Addr) error {
			out[order[j]] = KeyInfoResult{Present: r.Bool(), DF: int64(r.Uvarint()), Truncated: r.Bool()}
			return r.Err()
		},
	})
	return out, err
}

// KeyedOp describes a sibling service's keyed operation — such as the
// ranking layer's statistics — to the batch engine. Its request body is
// (mode, n, n×item), mode being MsgRead's owner/any byte, and its answer
// (n, n×value); the receiver checks the mode with AdmitKeyed before it
// applies anything. Encode writes item i, Decode reads item i's value.
//
// A Write goes in owner mode on both rounds of the recovery ladder, is
// redriven only when the failure proves the frame never ran, and each
// applied frame is replayed once, in any mode, on the owner's replicas.
// A read is redriven in any mode and, with R > 1, asks the owner's
// replicas when the owner cannot serve it — the ladder MsgRead climbs.
type KeyedOp struct {
	Msg    uint8
	Write  bool
	Encode func(w *wire.Writer, i int)
	Decode func(r *wire.Reader, i int) error
}

// RunKeyed runs op over keys — routing keys, hashed onto the ring like
// index keys — through the engine every index operation uses (see
// runBatch): the caching resolver, one frame per owner, the recovery
// ladder and write-through. Groups decode concurrently, so Decode must
// write only to item i's own slot.
func (ix *Index) RunKeyed(ctx context.Context, keys []string, op KeyedOp) error {
	return ix.runBatch(ctx, keys, batchOp{msg: op.Msg, moded: true, write: op.Write, idempotent: !op.Write, encode: eachItem(op.Encode),
		decode: func(r *wire.Reader, i int, _ transport.Addr) error { return op.Decode(r, i) }})
}

// AdmitKeyed is the receiving half of RunKeyed. It rejects an unknown
// mode as corrupt and, in owner mode, the whole frame unless this node
// owns every key: a cached route goes stale when a node joins, and the
// rejection makes the sender redrive over a fresh ring walk instead of
// misplacing the write.
func (ix *Index) AdmitKeyed(mode uint8, keys []string) error {
	switch mode {
	case readOwner:
		return ix.checkResponsible(keys)
	case readAny:
		return nil
	}
	return wire.ErrCorrupt
}

// batchOp describes one Multi operation to the batch engine.
type batchOp struct {
	msg uint8
	// idempotent declares that re-applying an already-applied item is
	// harmless (KeyInfo reads without side effects). A read records a
	// usage probe and a keyed write may not be idempotent, so their frames
	// are redriven only when the failure proves they never ran.
	idempotent bool
	// write marks a keyed write: each applied frame is replayed, in any
	// mode, on the serving peer's replicas (write-through).
	write bool
	// encode writes the frame body after the mode byte for items
	// (indices into keys), in that order: (n, n×item), MultiAppend's led
	// by its peer table.
	encode func(w *wire.Writer, items []int)
	// decode reads item i's answer from the copy at from.
	decode func(r *wire.Reader, i int, from transport.Addr) error

	// moded marks a request body led by the mode byte (MsgRead and the
	// keyed ops). The engine picks the mode per group: readOwner for a
	// group every key of which goes to its resolved primary (stale-route
	// detection) and for every write, readAny for retargeted, hedged and
	// redriven reads and for write-through replays.
	moded bool
	mode  uint8
	// The ReadAnyReplica plans of a MsgRead's first round; at most one is
	// set.
	// retarget maps each item's resolved primary to the copy that serves
	// it. hedge keeps items grouped by primary and races each group frame
	// across the group's copies (hedgedRead).
	retarget func(ctx context.Context, key string, primary dht.Remote) dht.Remote
	hedge    time.Duration
}

// planReplicaRead spreads a read over the replica set when the policy
// asks for it and there is a second copy: the first round is either
// hedged per primary (hedge > 0) or retargeted per key to readTarget's
// hash pick.
func (ix *Index) planReplicaRead(op *batchOp, policy ReadPolicy, hedge time.Duration) {
	if policy != ReadAnyReplica || ix.repl.factor <= 1 {
		return
	}
	if hedge > 0 {
		op.hedge = hedge
	} else {
		op.retarget = ix.readTarget
	}
}

// runBatch is the one engine of the keyed operations: resolve all keys
// through the caching resolver, group per serving peer, one concurrent
// frame per peer, decode per-item answers in order. Every frame is all or
// nothing: it is served whole or fails whole, a shed included. The
// context stops the fan-out from dispatching further frames once it
// dies, and its error propagates. The groups whose frames failed climb
// one recovery ladder, the same for every operation:
//
//  1. A group whose frame failed has the resolver's route to its peer
//     dropped — the replica sets through that peer go with it, since
//     they are read from the same intervals — and, for a
//     replica-addressed group, the primary routes that produced it,
//     since a stale primary mapping is a failure the unchecked replica
//     frame cannot detect on its own. Its items join the redrive set
//     only when re-applying them is safe: the operation is idempotent,
//     or the failure proves the frame never ran (retryProvablySafe). An
//     interrupted call or a garbled response of a non-idempotent frame
//     surfaces as the operation's error.
//  2. The redrive set is re-resolved through the resolver — the routes
//     rule 1 dropped miss and take a fresh ring walk, a shedding owner's
//     route is re-learned — regrouped per owner and resent once. Writes
//     and frequency probes stay responsibility-checked: an owner that
//     still rejects them (the ring is in flux) fails the operation
//     rather than stranding a write.
//     Moded reads go in readAny mode: the fresh walk is the best route
//     there is, and a soft-state read answered by a copy that is about
//     to hand the key over beats a failed query.
//  3. A moded read with R > 1 whose redriven frame provably never ran —
//     owner dead or shedding — asks the owner's replicas, the R−1 nodes
//     following it in the resolver's chain (replicaTargets), until one
//     serves the group whole. A group no copy serves fails the operation
//     with the owner's error. A redriven frame that fails drops its
//     route as rule 1 does: the walk re-learned it from successor lists
//     that name a dead or refusing copy until stabilization repairs them.
func (ix *Index) runBatch(ctx context.Context, keys []string, op batchOp) error {
	if len(keys) == 0 {
		return nil
	}
	primaries, err := ix.resolveAll(ctx, keys)
	if err != nil {
		return err
	}
	serve := primaries
	if op.retarget != nil {
		serve = make([]dht.Remote, len(primaries))
		for i, p := range primaries {
			serve[i] = op.retarget(ctx, keys[i], p)
		}
	}
	groups := chunkGroups(groupByPeer(serve), MaxBatchItems)
	// retargeted reports whether any of a group's items was steered away
	// from its primary. A group whose every item is primary-served keeps
	// the responsibility check even under a replica-read policy,
	// preserving stale-route detection for the ~1/R of keys the hash
	// keeps on their primaries. A hedged group owns its own addressing.
	retargeted := func(g group) bool {
		if op.hedge > 0 {
			return true
		}
		for _, i := range g.items {
			if serve[i].Addr != primaries[i].Addr {
				return true
			}
		}
		return false
	}
	errs := make([]error, len(groups))
	stopped := dht.RunBounded(ctx, len(groups), func(gi int) {
		g, gop := groups[gi], op
		if retargeted(g) {
			gop.mode = readAny
		}
		errs[gi] = ix.sendGroup(ctx, g.peer, keys, g.items, gop)
	})
	if stopped != nil {
		return stopped
	}
	var redrive []int
	var cause error
	for gi, g := range groups {
		gerr := errs[gi]
		if gerr == nil {
			continue
		}
		if ctx.Err() != nil {
			// The group failed because the caller gave up: surface the
			// cancellation instead of burning a redrive.
			return gerr
		}
		ix.resolver.Invalidate(g.peer.Addr)
		if op.retarget != nil && retargeted(g) {
			dropped := map[transport.Addr]bool{g.peer.Addr: true}
			for _, i := range g.items {
				if p := primaries[i].Addr; !dropped[p] {
					dropped[p] = true
					ix.resolver.Invalidate(p)
				}
			}
		}
		if !op.idempotent && !retryProvablySafe(gerr) {
			return gerr
		}
		if cause == nil {
			cause = gerr
		}
		redrive = append(redrive, g.items...)
	}
	if len(redrive) == 0 {
		return nil
	}
	// In index order, so a redriven frame of an op whose keys are sorted
	// (MultiAppend, MultiKeyInfo) carries them sorted too.
	slices.Sort(redrive)
	if err := ix.redrive(ctx, keys, redrive, op); err != nil {
		return fmt.Errorf("globalindex: batch redrive after %v: %w", cause, err)
	}
	return nil
}

// redrive is rules 2 and 3 of runBatch's ladder over the item subset
// items (indices into keys).
func (ix *Index) redrive(ctx context.Context, keys []string, items []int, op batchOp) error {
	sub := make([]string, len(items))
	for j, i := range items {
		sub[j] = keys[i]
	}
	owners, err := ix.resolveAll(ctx, sub)
	if err != nil {
		return err
	}
	groups := chunkGroups(groupByPeer(owners), MaxBatchItems)
	errs := make([]error, len(groups))
	op.hedge = 0
	read := op.moded && !op.write
	if read {
		op.mode = readAny
	}
	stopped := dht.RunBounded(ctx, len(groups), func(gi int) {
		owner := groups[gi].peer
		rest := make([]int, len(groups[gi].items))
		for j, k := range groups[gi].items {
			rest[j] = items[k]
		}
		err := ix.sendGroup(ctx, owner, keys, rest, op)
		if err != nil && ctx.Err() == nil {
			ix.resolver.Invalidate(owner.Addr)
			if read && retryProvablySafe(err) {
				for _, replica := range ix.replicaTargets(ctx, owner) {
					if ix.sendGroup(ctx, replica, keys, rest, op) == nil {
						err = nil
						break
					}
					ix.resolver.Invalidate(replica.Addr)
				}
			}
		}
		errs[gi] = err
	})
	if stopped != nil {
		return stopped
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sendGroup ships the items (indices into keys) as one op.msg frame to
// peer — raced over peer's copies when the plan hedges — and decodes
// every item's answer as the answer of the copy that sent it: peer, or
// the hedge's winner. The remote serves a frame whole or fails it, so an
// answer whose count is not len(items) is corrupt. A write is replayed
// on the peer's replicas before returning.
func (ix *Index) sendGroup(ctx context.Context, peer dht.Remote, keys []string, items []int, op batchOp) error {
	w := wire.NewWriter(64 * len(items))
	if op.moded {
		w.Byte(op.mode)
	}
	op.encode(w, items)
	body := w.Bytes()
	from := peer.Addr
	var resp []byte
	var err error
	if op.hedge > 0 {
		resp, from, err = ix.hedgedRead(ctx, peer, keys[items[0]], len(items) == 1, body, op.hedge)
	} else {
		_, resp, err = ix.timedCall(ctx, peer.Addr, op.msg, body)
	}
	if err != nil {
		return err
	}
	r := wire.NewReader(resp)
	if count := r.Uvarint(); r.Err() != nil || count != uint64(len(items)) {
		return fmt.Errorf("globalindex: batch 0x%02x at %s: %w: bad response count", op.msg, from, wire.ErrCorrupt)
	}
	for _, i := range items {
		if err := op.decode(r, i, from); err != nil {
			return fmt.Errorf("globalindex: batch 0x%02x at %s: %w", op.msg, from, err)
		}
	}
	if op.write && ix.repl.factor > 1 {
		// Write-through: the replay is the applied frame in any mode,
		// since a replica owns none of its keys — the sent body with its
		// mode byte flipped.
		body = append([]byte(nil), body...)
		body[0] = readAny
		ix.replicate(ctx, peer, op.msg, body)
	}
	return nil
}

// eachItem adapts an item encoder to the (n, n×item) frame body of the
// ops whose items are encoded independently.
func eachItem(enc func(w *wire.Writer, i int)) func(w *wire.Writer, items []int) {
	return func(w *wire.Writer, items []int) {
		w.Uvarint(uint64(len(items)))
		for _, i := range items {
			enc(w, i)
		}
	}
}

// retryProvablySafe reports whether err guarantees the batch frame was
// not applied at the remote store: the handler rejected it (RemoteError
// — batch handlers mutate nothing before rejecting), the remote's
// admission control refused it before any work (ErrShed — precisely so
// that callers can redrive it on another copy), or the transport never
// delivered it (ErrUnreachable, which includes a context that died
// before the send).
func retryProvablySafe(err error) bool {
	var remote *transport.RemoteError
	return errors.Is(err, transport.ErrUnreachable) ||
		errors.Is(err, transport.ErrShed) ||
		errors.As(err, &remote)
}

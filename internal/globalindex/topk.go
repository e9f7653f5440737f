package globalindex

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the score-bounded streamed read path (the
// threshold-algorithm family of Akbarinia et al.): instead of pulling a
// probed key's whole stored list in one shot, the coordinator fetches a
// score-sorted *prefix* per key plus an upper bound on the scores it has
// not seen, and requests continuation chunks only while the k-th best
// aggregate could still change. Chunks travel in the compressed postings
// encoding; the classic one-shot frames keep the legacy encoding as the
// compatibility default.
const (
	// MsgMultiGetTopK opens streamed reads: (n, n×(key, cursor, chunk))
	// -> (n×prefix answer). cursor is 0 on open; the answer carries the
	// serving peer's address, the continuation cursor, the stored-list
	// total, and the exact score bound on unserved entries.
	MsgMultiGetTopK uint8 = 0x1C
	// MsgGetMore continues streams at the peer that served the prefix:
	// same layout as MsgMultiGetTopK with cursor > 0. No responsibility
	// check — like a replica read, the serving copy may legitimately not
	// own the key anymore; the coordinator falls back to a fresh full
	// read if the copy lost the list.
	MsgGetMore uint8 = 0x1D
	// MsgMultiGetTopKAny is MsgMultiGetTopK minus the responsibility
	// check, addressed to a replica under the ReadAnyReplica policy
	// (mirrors MsgMultiGetAny).
	MsgMultiGetTopKAny uint8 = 0x1E
)

// approxFullPostingBytes estimates the legacy wire cost of one posting
// (delta-gap uvarint + Float64 score); the bytes-saved counter prices the
// stored tail entries a streamed read never shipped.
const approxFullPostingBytes = 9

// TopKStats are the cumulative streamed-read counters of one Index,
// exported as the alvis_index_topk_* telemetry families.
type TopKStats struct {
	Rounds            int64 // continuation (MsgGetMore) rounds issued
	EarlyTerminations int64 // sessions ended by the threshold test with unread tail remaining
	BytesSaved        int64 // estimated bytes of stored tails never shipped
}

// TopKStats returns the index's cumulative streamed-read counters.
func (ix *Index) TopKStats() TopKStats {
	return TopKStats{
		Rounds:            ix.topkRounds.Load(),
		EarlyTerminations: ix.topkEarly.Load(),
		BytesSaved:        ix.topkSaved.Load(),
	}
}

// handleTopK serves all three streamed-read frames. The request layout
// is shared: (n, n×(key, cursor, chunk)). Responsibility is checked only
// for MsgMultiGetTopK — continuations and replica-addressed opens go to
// a copy that may not own the key. The frames shed at item granularity
// like the other Multi* frames.
func (ix *Index) handleTopK(ctx context.Context, _ transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	count, err := readBatchCount(r)
	if err != nil {
		return 0, nil, err
	}
	keys := make([]string, count)
	cursors := make([]int, count)
	chunks := make([]int, count)
	for i := 0; i < count; i++ {
		keys[i] = r.String()
		cursors[i] = clampPrefixArg(r.Uvarint())
		chunks[i] = clampPrefixArg(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	serve := ix.disp.BatchQuota(ctx, msgType, count)
	if msgType == MsgMultiGetTopK {
		if err := ix.checkResponsible(keys[:serve]); err != nil {
			return 0, nil, err
		}
	}
	start := time.Now()
	self := ix.node.Self().Addr
	w := wire.NewWriter(64 * serve)
	w.Uvarint(uint64(serve))
	epoch := ix.node.RingEpoch()
	for i := 0; i < serve; i++ {
		if cursors[i] == 0 {
			ix.observeRead(keys[i])
		}
		res := ix.store.GetPrefix(keys[i], cursors[i], chunks[i])
		if !res.Found && msgType == MsgGetMore {
			// A continuation for a key this peer does not store may still
			// target a live soft copy here: a hedged open won by MsgSoftGet
			// continues against the serving peer.
			if sres, ok := ix.hot.getPrefix(keys[i], cursors[i], chunks[i], epoch); ok {
				res = sres
				ix.hot.servedN.Add(1)
			}
		}
		writeTopKAnswer(w, self, cursors[i], res)
	}
	ix.disp.ObserveBatch(msgType, time.Since(start), serve)
	return msgType, w.Bytes(), nil
}

// clampPrefixArg bounds a wire-supplied cursor or chunk size to the
// store's hard cap before the int conversion. No stored list exceeds
// HardCap entries, so a larger cursor still reads past the end and a
// larger chunk still serves the whole remainder — while offset+limit
// stays far from integer overflow whatever a peer sends.
func clampPrefixArg(v uint64) int {
	if v > HardCap {
		return HardCap
	}
	return int(v)
}

// writeTopKAnswer encodes one streamed-read item answer:
//
//	found bool; wantIndex bool;
//	if found: served addr; truncated bool; total uvarint; cursor uvarint;
//	          if cursor < total: bound Float64;
//	          chunk entries (compressed postings frame)
//
// truncated is the STORED list's truncation mark — the retrieval layer's
// pruning must decide exactly as a full-pull read would; the chunk
// horizon travels separately as (cursor, total). bound is the exact
// stored score of the last served entry: every unserved entry scores at
// most that, and because the compressed chunk encoding floors its
// quantized scores, every *decoded* score respects the same bound.
func writeTopKAnswer(w *wire.Writer, self transport.Addr, offset int, res PrefixResult) {
	w.Bool(res.Found)
	w.Bool(res.WantIndex)
	if !res.Found {
		return
	}
	cursor := offset + len(res.Entries)
	if cursor > res.Total {
		cursor = res.Total
	}
	w.String(string(self))
	w.Bool(res.Truncated)
	w.Uvarint(uint64(res.Total))
	w.Uvarint(uint64(cursor))
	if cursor < res.Total {
		bound := 0.0
		if n := len(res.Entries); n > 0 {
			bound = res.Entries[n-1].Score
		}
		w.Float64(bound)
	}
	chunk := postings.List{Entries: res.Entries, Truncated: res.Truncated}
	chunk.EncodeCompressed(w)
}

// topKAnswer is one decoded streamed-read item answer.
type topKAnswer struct {
	found     bool
	wantIndex bool
	served    transport.Addr
	truncated bool
	total     int
	cursor    int
	bound     float64
	entries   []postings.Posting
}

func readTopKAnswer(r *wire.Reader) (topKAnswer, error) {
	var a topKAnswer
	a.found = r.Bool()
	a.wantIndex = r.Bool()
	if err := r.Err(); err != nil {
		return a, err
	}
	if !a.found {
		return a, nil
	}
	a.served = transport.Addr(r.String())
	a.truncated = r.Bool()
	a.total = int(r.Uvarint())
	a.cursor = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return a, err
	}
	if a.cursor > a.total || a.total > HardCap {
		return a, wire.ErrCorrupt
	}
	if a.cursor < a.total {
		a.bound = r.Float64()
	}
	chunk, err := postings.Decode(r)
	if err != nil {
		return a, err
	}
	a.entries = chunk.Entries
	return a, nil
}

// topkKeyState tracks one probed key through a streamed session.
type topkKeyState struct {
	key       string
	terms     []string
	peer      transport.Addr // copy that served the last chunk; continuation target
	list      *postings.List // fetched prefix so far, canonical order
	seen      map[postings.DocRef]bool
	found     bool
	wantIndex bool
	cursor    int // stored-list offset of the next unfetched entry
	total     int // stored-list length at the serving copy
	bound     float64
	done      bool // every stored entry fetched (or key absent / full-pulled)
	fetched   bool // a network answer was absorbed this session (vs. pure cache replay)
}

func (st *topkKeyState) pending() bool { return st.found && !st.done }

// absorb merges one chunk answer into the state. Chunks are consecutive
// slices of the serving copy's canonical-order list, so appending keeps
// the fetched prefix in canonical order; the seen filter drops the rare
// duplicate when a fallback re-serves entries from a different copy.
func (st *topkKeyState) absorb(a topKAnswer) {
	st.found, st.peer = true, a.served
	st.list.Truncated = a.truncated
	for _, p := range a.entries {
		if !st.seen[p.Ref] {
			st.seen[p.Ref] = true
			st.list.Entries = append(st.list.Entries, p)
		}
	}
	st.cursor, st.total, st.bound = a.cursor, a.total, a.bound
	st.done = a.cursor >= a.total
}

// TopKSession is the coordinator side of one streamed top-k read: it
// opens score-sorted prefixes for every probed key (FetchPrefixes, one
// call per lattice generation) and then runs the threshold loop
// (Refine), requesting continuation chunks only from keys whose unseen
// scores could still lift a document into the aggregate top k.
type TopKSession struct {
	ix      *Index
	k       int
	chunk   int
	workers int
	policy  ReadPolicy
	ro      readOpts

	mu     sync.Mutex
	states map[string]*topkKeyState
	order  []string // insertion order, for deterministic iteration

	// epoch is the ring epoch captured before the session's first
	// fan-out; every cache refill is stamped with it, so a mid-session
	// ring change makes the refill dead on arrival at the epoch check
	// instead of laundering old-ring data as current.
	epoch   uint64
	epochOK bool
}

// NewTopKSession starts a streamed read session targeting the best k
// aggregate results. chunk is the per-key prefix size of the first round
// (<= 0 selects 2k, floored at 8); continuation rounds double it.
// policy and opts carry the caller's read policy exactly as MultiGet
// would: replica spreading and hedging apply to the prefix round.
func (ix *Index) NewTopKSession(k, chunk, workers int, policy ReadPolicy, opts ...ReadOption) *TopKSession {
	if k <= 0 {
		k = 1
	}
	if chunk <= 0 {
		chunk = 2 * k
		if chunk < 8 {
			chunk = 8
		}
	}
	return &TopKSession{
		ix:      ix,
		k:       k,
		chunk:   chunk,
		workers: workers,
		policy:  policy,
		ro:      resolveReadOpts(opts),
		states:  make(map[string]*topkKeyState),
	}
}

func (s *TopKSession) state(key string, terms []string) *topkKeyState {
	st, ok := s.states[key]
	if !ok {
		st = &topkKeyState{
			key:   key,
			terms: terms,
			list:  &postings.List{},
			seen:  make(map[postings.DocRef]bool),
		}
		s.states[key] = st
		s.order = append(s.order, key)
	}
	return st
}

// fullPullReplace degrades continuation streams whose serving copy can
// no longer continue them (dead, shedding, or it lost the key) to classic
// full reads: one MultiGet for all of them — fresh resolution, the batch
// engine's recovery ladder, caller's policy and hedging preserved. The
// states end the session exhausted (done, no tail), so the threshold
// loop stays sound; the extra probe a full read records is the same
// soft-state cost the pre-streaming path paid.
func (s *TopKSession) fullPullReplace(ctx context.Context, sts []*topkKeyState) error {
	if len(sts) == 0 {
		return nil
	}
	items := make([]GetItem, len(sts))
	for i, st := range sts {
		items[i] = GetItem{Terms: st.terms}
	}
	res, err := s.ix.MultiGet(ctx, items, s.workers, s.policy, WithHedge(s.ro.hedge))
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, st := range sts {
		st.found = res[i].Found
		st.fetched = true
		st.wantIndex = st.wantIndex || res[i].WantIndex
		st.done = true
		if !st.found {
			continue
		}
		// Union keeps the maximum score per ref, so the full read's exact
		// scores supersede any quantized chunk scores fetched earlier.
		merged := postings.Union(st.list, res[i].List)
		st.list.Entries = merged.Entries
		st.list.Truncated = res[i].List.Truncated
		st.cursor, st.total = merged.Len(), merged.Len()
		for _, p := range merged.Entries {
			st.seen[p.Ref] = true
		}
	}
	return nil
}

// cachedPrefix is a posting-prefix cache entry: one key's last known
// chunk answer, replayable into a fresh session state exactly as the
// wire answer it condenses. entries is immutable once cached — absorb
// copies postings out, and fills always store a fresh copy.
type cachedPrefix struct {
	entries   []postings.Posting
	truncated bool
	wantIndex bool
	peer      transport.Addr
	cursor    int
	total     int
	bound     float64
}

// cachedPrefixOf snapshots a key state for the cache. Callers hold s.mu.
func cachedPrefixOf(st *topkKeyState) *cachedPrefix {
	return &cachedPrefix{
		entries:   append([]postings.Posting(nil), st.list.Entries...),
		truncated: st.list.Truncated,
		wantIndex: st.wantIndex,
		peer:      st.peer,
		cursor:    st.cursor,
		total:     st.total,
		bound:     st.bound,
	}
}

// answerOf replays the cached prefix as the chunk answer it condenses.
func (cp *cachedPrefix) answerOf() topKAnswer {
	return topKAnswer{
		found:     true,
		wantIndex: cp.wantIndex,
		served:    cp.peer,
		truncated: cp.truncated,
		total:     cp.total,
		cursor:    cp.cursor,
		bound:     cp.bound,
		entries:   cp.entries,
	}
}

// FetchPrefixes opens the streamed read for one batch of probed keys and
// returns per-item results shaped exactly like MultiGet's: List is the
// fetched prefix carrying the STORED list's truncation mark (the lattice
// must prune exactly as it would on a full pull), Found and WantIndex
// are the probe semantics of a classic read (the serving store records
// the probe on the first chunk only). Keys group per serving peer into
// MsgMultiGetTopK frames — or MsgMultiGetTopKAny under ReadAnyReplica,
// hedged across the replica chain under WithHedge — and items whose
// group fails or sheds are redriven by the batch engine's ladder, still
// as streamed frames.
//
// With the hot-key path armed, two things short-circuit the fan-out:
// a fresh item whose key has a live posting-prefix cache entry (same
// ring epoch, younger than the TTL, no intervening local write) absorbs
// the cached chunk and skips the network entirely — no probe is
// recorded at the store, the accepted cost of serving from cache — and
// a single-key hedged group whose key is locally hot interleaves the
// key's soft replicas into the hedge chain (hedgeTargetsFor).
func (s *TopKSession) FetchPrefixes(ctx context.Context, items []GetItem) ([]GetResult, error) {
	keys := make([]string, len(items))
	s.mu.Lock()
	sts := make([]*topkKeyState, len(items))
	for i, it := range items {
		keys[i] = ids.KeyString(it.Terms)
		sts[i] = s.state(keys[i], it.Terms)
	}
	s.mu.Unlock()

	// Cache consult: a hit replays the cached answer into the session
	// state; only the misses go to the network. Items that already
	// carry session state (a repeated key within one session) keep the
	// pre-cache behaviour of re-fetching, so the absorb dedup — not the
	// cache — stays the arbiter of their contents.
	epoch := s.ix.node.RingEpoch()
	fetchIdx := make([]int, 0, len(items))
	s.mu.Lock()
	if !s.epochOK {
		s.epoch, s.epochOK = epoch, true
	}
	for i := range items {
		s.ix.observeRead(keys[i])
		st := sts[i]
		if !st.found && !st.done && st.list.Len() == 0 {
			if v, ok := s.ix.pcache.Get(keys[i], epoch); ok {
				cp := v.(*cachedPrefix)
				st.absorb(cp.answerOf())
				st.wantIndex = st.wantIndex || cp.wantIndex
				continue
			}
		}
		fetchIdx = append(fetchIdx, i)
	}
	s.mu.Unlock()

	fetchKeys := make([]string, len(fetchIdx))
	for fi, i := range fetchIdx {
		fetchKeys[fi] = keys[i]
	}

	op := batchOp{
		msg: MsgMultiGetTopK,
		encode: func(w *wire.Writer, fi int) {
			w.String(fetchKeys[fi])
			w.Uvarint(0)               // cursor: opening chunk
			w.Uvarint(uint64(s.chunk)) // chunk size
		},
		decode: func(r *wire.Reader, fi int) error {
			a, err := readTopKAnswer(r)
			if err != nil {
				return err
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			st := sts[fetchIdx[fi]]
			st.fetched = true
			st.wantIndex = st.wantIndex || a.wantIndex
			if a.found {
				st.absorb(a)
			} else {
				st.done = true
			}
			return nil
		},
	}
	s.ix.planReplicaRead(&op, s.policy, s.ro.hedge, s.ix.hedgeTargetsFor)
	if err := s.ix.runBatch(ctx, fetchKeys, s.workers, op); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ix.pcache != nil {
		// Fill with what the network just served (finish() re-fills with
		// the refined, longer prefixes when the session ends). The stamp
		// is the session epoch, not this call's: a repeated key in a
		// later generation may mix data fetched under an older ring, and
		// a conservative old stamp only costs the refill, never serves
		// mixed-epoch data as current.
		for _, i := range fetchIdx {
			if st := sts[i]; st.found {
				s.ix.pcache.Put(st.key, s.epoch, cachedPrefixOf(st))
			}
		}
	}
	out := make([]GetResult, len(items))
	for i, st := range sts {
		out[i] = GetResult{Found: st.found, WantIndex: st.wantIndex}
		if st.found {
			out[i].List = st.list
		}
	}
	return out, nil
}

// Lists returns the per-key fetched lists of every found key — the same
// shape rankUnion consumes after a classic exploration. The lists are
// live session state: Refine extends them in place.
func (s *TopKSession) Lists() map[string]*postings.List {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*postings.List, len(s.states))
	for k, st := range s.states {
		if st.found {
			out[k] = st.list
		}
	}
	return out
}

// RankFn aggregates the fetched per-key lists into the best-first
// document ranking — the retrieval layer's rankUnion. The threshold
// loop's bound arithmetic assumes the aggregator is a *greedy disjoint
// cover*: a document's aggregate is the sum of its per-key scores over
// the subset of keys selected by walking the keys in cover order (more
// terms first, ties by canonical key string — see coverBefore) and
// selecting each key whose term set is disjoint from the terms already
// covered for that document. A plain sum over term-disjoint keys is the
// degenerate case. Note the greedy cover is NOT monotone in the fetched
// prefixes when key term sets intersect — a tail entry revealed later
// can displace contributions the current ranking already counts, in
// either direction — which is why Refine drains such keys before it
// trusts any bound (see mustDrainLocked).
type RankFn func(perKey map[string]*postings.List) []postings.Posting

// coverBefore reports whether key a precedes key b in the aggregator's
// greedy cover order: more terms first, ties broken by the canonical
// key string — the order rankUnion walks when assembling each
// document's disjoint term cover.
func coverBefore(a, b *topkKeyState) bool {
	if len(a.terms) != len(b.terms) {
		return len(a.terms) > len(b.terms)
	}
	return a.key < b.key
}

// mustDrainLocked returns the pending keys whose unread tails must be
// fetched to exhaustion before any early termination is sound: the
// pending keys whose term set intersects a *later-in-cover-order* found
// key. A tail entry of such a key, once revealed, is greedily selected
// ahead of the later partner and can block it (or unblock a key that
// partner was blocking), moving the document's aggregate in either
// direction by amounts unrelated to the tail's score bound — so no
// per-document bound derived from the current ranking is valid while
// that tail is unread.
//
// A pending key whose intersecting partners are all *earlier* in cover
// order is harmless once those partners are fully fetched: its own
// selection for any document is then fixed by complete data, so a tail
// reveal either adds its score (≤ the key's bound) or is blocked and
// adds nothing — the additive regime couldImprove's arithmetic is built
// on. An earlier partner that is still pending needs no separate check:
// this key is *its* later partner, which puts the partner itself in the
// drain set, and the loop re-evaluates once it drains.
func (s *TopKSession) mustDrainLocked(pending []*topkKeyState) []*topkKeyState {
	var found []*topkKeyState
	for _, key := range s.order {
		if st := s.states[key]; st.found {
			found = append(found, st)
		}
	}
	var out []*topkKeyState
	for _, st := range pending {
		terms := make(map[string]bool, len(st.terms))
		for _, t := range st.terms {
			terms[t] = true
		}
		for _, other := range found {
			if other == st || coverBefore(other, st) {
				continue
			}
			shares := false
			for _, t := range other.terms {
				if terms[t] {
					shares = true
					break
				}
			}
			if shares {
				out = append(out, st)
				break
			}
		}
	}
	return out
}

// Refine runs the threshold loop: while the aggregate top k could still
// change, fetch the next chunk of the keys that could still change it,
// doubling the chunk each round. The loop terminates early the moment
// the bounds prove the top-k set fixed, and unconditionally once every
// key is exhausted.
//
// Rounds come in two regimes. While any pending key's term set
// intersects a later-in-cover-order found key (mustDrainLocked), its
// tail can reshuffle the aggregator's greedy cover — a late reveal can
// displace contributions the current ranking already counts, so no
// score bound is trustworthy; those keys are drained to exhaustion
// first (the other keys' streams stay parked, their cursors untouched).
// Once every remaining pending key is *additive* — each of its
// intersecting partners fully fetched and earlier in cover order, so a
// tail reveal can only add that key's own bounded score or be blocked —
// the improvement test applies: a document's upper bound adds the
// bounds of every pending key that has not shown it, ignoring the
// disjointness rule, so it only ever overestimates. In that regime the
// loop may fetch an extra round, never terminate unsoundly.
func (s *TopKSession) Refine(ctx context.Context, rank RankFn) error {
	_, span := telemetry.StartSpan(ctx, "topk-refine")
	defer span.Finish()
	chunk := s.chunk
	rounds := 0
	defer func() {
		span.SetAttr("rounds", fmt.Sprint(rounds))
		s.finish()
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		var pending []*topkKeyState
		for _, key := range s.order {
			if st := s.states[key]; st.pending() {
				pending = append(pending, st)
			}
		}
		drain := s.mustDrainLocked(pending)
		s.mu.Unlock()
		if len(pending) == 0 {
			return nil // every stream exhausted: the ranking is exact
		}
		target := pending
		if len(drain) > 0 {
			// Cover-reshuffling tails outstanding: no early termination
			// can be proven; drain those keys and re-evaluate.
			target = drain
		} else {
			ranked := rank(s.Lists())
			if !s.couldImprove(ranked, pending) {
				s.ix.topkEarly.Add(1)
				return nil
			}
		}
		chunk *= 2
		if err := s.continueRound(ctx, target, chunk); err != nil {
			return err
		}
		rounds++
		s.ix.topkRounds.Add(1)
	}
}

// couldImprove applies the threshold test to the current ranking: true
// while a document outside the current top k — unseen anywhere, or seen
// with unfetched postings pending — could still reach the k-th score.
// Ties continue the loop (>=): an equal-scoring late arrival can win the
// deterministic DocRef tie-break and change the result set.
//
// Callers must only trust a false return in the additive regime (every
// pending key additive per mustDrainLocked). There a tail reveal can
// only add the revealing key's score — bounded by st.bound — to a
// document, so current scores are lower bounds of final scores (the
// final k-th is at least sk) and cur + Σ bounds(pending keys not
// showing the doc) upper-bounds any outside document's final score;
// both together prove the set fixed. Outside that regime the greedy
// cover can reshuffle and neither bound holds.
func (s *TopKSession) couldImprove(ranked []postings.Posting, pending []*topkKeyState) bool {
	if len(ranked) < s.k {
		return true // the top k is not even full yet
	}
	sk := ranked[s.k-1].Score
	s.mu.Lock()
	defer s.mu.Unlock()
	unseenSum := 0.0
	for _, st := range pending {
		unseenSum += st.bound
	}
	if unseenSum >= sk {
		return true // a completely unseen document could enter
	}
	for _, p := range ranked[s.k:] {
		upper := p.Score
		for _, st := range pending {
			if !st.seen[p.Ref] {
				upper += st.bound
			}
		}
		if upper >= sk {
			return true // a seen trailing document could still climb past k
		}
	}
	return false
}

// continueRound fetches the next chunk of every pending key, grouped per
// serving peer into MsgGetMore frames. A group that fails or sheds
// degrades its items to classic full reads, as does a continuation whose
// copy no longer holds the key — all of a round's degraded items in one
// fullPullReplace.
func (s *TopKSession) continueRound(ctx context.Context, pending []*topkKeyState, chunk int) error {
	byPeer := make(map[transport.Addr][]*topkKeyState)
	var peers []transport.Addr
	for _, st := range pending {
		if _, ok := byPeer[st.peer]; !ok {
			peers = append(peers, st.peer)
		}
		byPeer[st.peer] = append(byPeer[st.peer], st)
	}
	type gr struct {
		addr  transport.Addr
		items []*topkKeyState
	}
	var groups []gr
	for _, p := range peers {
		items := byPeer[p]
		for len(items) > MaxBatchItems {
			groups = append(groups, gr{p, items[:MaxBatchItems]})
			items = items[MaxBatchItems:]
		}
		groups = append(groups, gr{p, items})
	}
	// retry collects the items a failed or short group degrades to full
	// reads (a continuation records no probe and reads only, so redriving
	// is always safe); errs records failures that cannot be degraded
	// because the caller's context died.
	retry := make([][]*topkKeyState, len(groups))
	errs := make([]error, len(groups))
	stopped := dht.RunBounded(ctx, len(groups), s.workers, func(gi int) {
		g := groups[gi]
		w := wire.NewWriter(32 * len(g.items))
		w.Uvarint(uint64(len(g.items)))
		s.mu.Lock()
		for _, st := range g.items {
			w.String(st.key)
			w.Uvarint(uint64(st.cursor))
			w.Uvarint(uint64(chunk))
		}
		s.mu.Unlock()
		_, resp, err := s.ix.timedCall(ctx, g.addr, MsgGetMore, w.Bytes())
		if err != nil {
			if ctx.Err() != nil {
				errs[gi] = err
				return
			}
			// The serving copy is gone or overloaded: stop routing there
			// and degrade the whole group to fresh full reads.
			s.ix.resolver.Invalidate(g.addr)
			retry[gi] = g.items
			return
		}
		r := wire.NewReader(resp)
		count := int(r.Uvarint())
		if r.Err() != nil || count > len(g.items) {
			retry[gi] = g.items
			return
		}
		for idx, st := range g.items[:count] {
			a, derr := readTopKAnswer(r)
			if derr != nil {
				// Garbled from here on: degrade the undecoded remainder.
				retry[gi] = append(retry[gi], g.items[idx:count]...)
				break
			}
			if !a.found {
				// The copy lost the key (restart, eviction): degrade to a
				// fresh full read.
				retry[gi] = append(retry[gi], st)
				continue
			}
			s.mu.Lock()
			st.fetched = true
			st.absorb(a)
			s.mu.Unlock()
		}
		if count < len(g.items) {
			// Item-granular shed: the suffix provably was not served;
			// degrade it too.
			retry[gi] = append(retry[gi], g.items[count:]...)
		}
	})
	if stopped != nil {
		return stopped
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	var degraded []*topkKeyState
	for _, items := range retry {
		degraded = append(degraded, items...)
	}
	return s.fullPullReplace(ctx, degraded)
}

// finish prices the stored tails the session never shipped into the
// bytes-saved counter, and re-fills the posting-prefix cache with the
// session's final (refined, possibly longer) prefixes — the replayed
// bound stays sound because it is the serving store's bound for exactly
// this cursor position. Only states that absorbed a network answer this
// session refill: a Put resets the entry's fill time, so re-Putting a
// pure cache replay would let a key queried more often than the TTL
// never expire, defeating rule 3's staleness bound against remote
// writes for exactly the hot keys. The stamp is the epoch captured at
// session open, so a mid-session ring change makes the refill dead on
// arrival instead of laundering old-ring data under the new epoch.
func (s *TopKSession) finish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var saved int64
	for _, st := range s.states {
		if st.found && st.total > st.cursor {
			saved += int64(st.total-st.cursor) * approxFullPostingBytes
		}
		if s.ix.pcache != nil && st.found && st.fetched && s.epochOK {
			s.ix.pcache.Put(st.key, s.epoch, cachedPrefixOf(st))
		}
	}
	if saved > 0 {
		s.ix.topkSaved.Add(saved)
	}
}

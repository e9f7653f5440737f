package globalindex

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the one posting-list read. A read names, per key,
// a cursor into the stored score-sorted list and a chunk size; the answer
// is that chunk plus an upper bound on the scores it did not ship. A
// whole-list fetch is the degenerate read with no bound (chunk 0); the
// score-bounded streamed path (the threshold-algorithm family of
// Akbarinia et al.) opens with a short chunk per key and requests
// continuation chunks only while the k-th best aggregate could still
// change.

// MsgRead reads posting lists: (mode, n, n×(key, cursor, chunk)) ->
// (n, n×answer). cursor is 0 on an open and a stored-list offset on a
// continuation; chunk 0 reads to the end of the list. Each answer carries
// the continuation cursor, the stored-list total and the exact score
// bound on unserved entries; its entries are one list frame, exact when
// chunk == 0 and quantized otherwise. The answer names no peer: the
// caller knows which copy it asked. Like every batch frame it is served
// whole or refused whole. 0x1D, 0x1E and 0x27 carried the retired
// continuation, replica and soft-copy variants of this frame and stay
// unassigned.
const MsgRead uint8 = 0x1C

// The read modes — the leading byte of a MsgRead request — say which
// copy may answer.
const (
	// readOwner: the receiver must be responsible for every key of the
	// frame, else it rejects it — how a stale cached route is detected.
	readOwner uint8 = iota
	// readAny: serve the stored copy whoever owns the key (a replica
	// read, a continuation at the copy that served the prefix, a
	// redrive), else a live soft copy, else found=false.
	readAny
	// readSoft: live soft copies only; a miss on any key fails the whole
	// frame, so a cache miss makes the hedged caller escalate to an
	// authoritative copy instead of reading a false absence.
	readSoft
)

// approxFullPostingBytes estimates the exact-encoding wire cost of one
// posting (delta-gap uvarint + Float64 score); the bytes-saved counter
// prices the stored tail entries a streamed read never shipped.
const approxFullPostingBytes = 9

// TopKStats are the cumulative read-session counters of one Index,
// exported as the alvis_index_topk_* and alvis_index_hedges_* telemetry
// families.
type TopKStats struct {
	Rounds            int64 // continuation rounds issued
	EarlyTerminations int64 // sessions ended by the threshold test with unread tail remaining
	BytesSaved        int64 // estimated bytes of stored tails never shipped
	HedgesLaunched    int64 // read attempts fired because the hedge delay passed without an answer
	HedgesWon         int64 // reads whose answer came from such an attempt
}

// TopKStats returns the index's cumulative read-session counters.
func (ix *Index) TopKStats() TopKStats {
	return TopKStats{
		Rounds:            ix.topkRounds.Load(),
		EarlyTerminations: ix.topkEarly.Load(),
		BytesSaved:        ix.topkSaved.Load(),
		HedgesLaunched:    ix.hedgesLaunched.Load(),
		HedgesWon:         ix.hedgesWon.Load(),
	}
}

// handleRead serves MsgRead in all three modes.
func (ix *Index) handleRead(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	mode := r.Byte()
	count, err := readBatchCount(r)
	if err != nil || mode > readSoft {
		return 0, nil, wire.ErrCorrupt
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
	if mode == readOwner {
		if err := ix.checkResponsible(keys); err != nil {
			return 0, nil, err
		}
	}
	w := wire.NewWriter(64 * count)
	w.Uvarint(uint64(count))
	epoch := ix.node.RingEpoch()
	for i := 0; i < count; i++ {
		var res PrefixResult
		if mode != readSoft {
			if cursors[i] == 0 {
				ix.observeRead(keys[i])
			}
			res = ix.store.GetPrefix(keys[i], cursors[i], chunks[i])
			if cursors[i] == 0 && ix.probeHook != nil && ix.probeHook(keys[i], res.Found) && !res.Found {
				res.WantIndex = true
			}
		}
		if !res.Found && mode != readOwner {
			if sres, ok := ix.hot.getPrefix(keys[i], cursors[i], chunks[i], epoch); ok {
				res = sres
				ix.hot.servedN.Add(1)
			} else if mode == readSoft {
				return 0, nil, fmt.Errorf("globalindex: no soft copy of %q", keys[i])
			}
		}
		writeTopKAnswer(w, cursors[i], chunks[i] == 0, res)
	}
	return MsgRead, w.Bytes(), nil
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

// writeTopKAnswer encodes one read item answer:
//
//	found bool; wantIndex bool;
//	if found: total uvarint; cursor uvarint;
//	          if cursor < total: bound Float64;
//	          chunk (postings list frame, exact or quantized)
//
// The chunk frame's truncation flag is the STORED list's truncation mark
// — the retrieval layer's pruning must decide exactly as a whole-list
// read would; the chunk horizon travels separately as (cursor, total).
// bound is the exact stored score of the last served entry: every
// unserved entry scores at most that, and because the quantized frame
// floors its scores, every *decoded* score respects the same bound.
func writeTopKAnswer(w *wire.Writer, offset int, exact bool, res PrefixResult) {
	w.Bool(res.Found)
	w.Bool(res.WantIndex)
	if !res.Found {
		return
	}
	cursor := offset + len(res.Entries)
	if cursor > res.Total {
		cursor = res.Total
	}
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
	if exact {
		chunk.Encode(w)
	} else {
		chunk.EncodeCompressed(w)
	}
}

// topKAnswer is one decoded read item answer.
type topKAnswer struct {
	found     bool
	wantIndex bool
	peer      transport.Addr // the copy that answered
	truncated bool
	total     int
	cursor    int
	bound     float64
	entries   []postings.Posting
}

// readTopKAnswer decodes one read item answer from the copy at from.
func readTopKAnswer(r *wire.Reader, from transport.Addr) (topKAnswer, error) {
	a := topKAnswer{peer: from}
	a.found = r.Bool()
	a.wantIndex = r.Bool()
	if err := r.Err(); err != nil {
		return a, err
	}
	if !a.found {
		return a, nil
	}
	// Compared as uint64: values in [2^63, 2^64) would wrap negative
	// through int() and pass a signed check as a pair.
	total, cursor := r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return a, err
	}
	if cursor > total || total > HardCap {
		return a, wire.ErrCorrupt
	}
	a.total, a.cursor = int(total), int(cursor)
	if a.cursor < a.total {
		a.bound = r.Float64()
	}
	chunk, err := postings.Decode(r, nil)
	if err != nil {
		return a, err
	}
	a.truncated, a.entries = chunk.Truncated, chunk.Entries
	return a, nil
}

// topkKeyState tracks one probed key through a read session.
type topkKeyState struct {
	key       string
	terms     []string
	peer      transport.Addr      // copy that served the last chunk; continuation target
	list      *postings.List      // fetched prefix so far, canonical order
	seen      map[uint64]struct{} // refIDs of list's entries; nil until a chunk could repeat one
	found     bool
	wantIndex bool
	cursor    int // stored-list offset of the next unfetched entry
	total     int // stored-list length at the serving copy
	bound     float64
	done      bool // every stored entry fetched (or key absent)
	fetched   bool // a network answer was absorbed this session (vs. pure cache replay)
}

func (st *topkKeyState) pending() bool { return st.found && !st.done }

// absorb merges one chunk answer into the state and takes ownership of
// a.entries. Chunks are consecutive slices of the serving copy's
// canonical-order list, so appending keeps the fetched prefix in
// canonical order. The first chunk is a slice of one normalized stored
// list and cannot repeat a ref, so it becomes the prefix as it is; only
// a later chunk — a continuation, or the re-open after a lost one that
// serves the top again — builds the seen set (ids from refIDs) that
// drops the entries already held.
func (st *topkKeyState) absorb(a topKAnswer, refIDs *postings.RefIDs) {
	st.found, st.peer = true, a.peer
	st.list.Truncated = a.truncated
	if st.seen == nil && len(st.list.Entries) == 0 {
		st.list.Entries = a.entries
	} else {
		if st.seen == nil {
			st.seen = make(map[uint64]struct{}, len(st.list.Entries)+len(a.entries))
			for _, p := range st.list.Entries {
				st.seen[refIDs.ID(p.Ref)] = struct{}{}
			}
		}
		for _, p := range a.entries {
			id := refIDs.ID(p.Ref)
			if _, dup := st.seen[id]; !dup {
				st.seen[id] = struct{}{}
				st.list.Entries = append(st.list.Entries, p)
			}
		}
	}
	st.cursor, st.total, st.bound = a.cursor, a.total, a.bound
	st.done = a.cursor >= a.total
}

// capped shapes a one-shot answer: at most max entries (0 = all), marked
// truncated whenever stored entries were left out — no refinement will
// fetch them, so the retrieval layer must prune as on a truncated list.
func (st *topkKeyState) capped(max int) *postings.List {
	entries, cut := st.list.Entries, st.cursor < st.total
	if max > 0 && len(entries) > max {
		entries, cut = entries[:max], true
	}
	if !cut {
		return st.list
	}
	return &postings.List{Entries: entries, Truncated: true}
}

// TopKSession is the coordinator side of one read: it opens every probed
// key's list (FetchPrefixes, one call per lattice generation) and — when
// streaming — runs the threshold loop (Refine), requesting continuation
// chunks only from keys whose unseen scores could still lift a document
// into the aggregate top k.
type TopKSession struct {
	ix     *Index
	k      int
	chunk  int // first chunk per key; 0 = one shot, the item's MaxResults
	policy ReadPolicy
	ro     readOpts

	mu     sync.Mutex
	states map[string]*topkKeyState
	order  []string        // insertion order, for deterministic iteration
	refIDs postings.RefIDs // one numbering for every key's seen set

	// epoch is the ring epoch captured before the session's first
	// fan-out; every cache refill is stamped with it, so a mid-session
	// ring change makes the refill dead on arrival at the epoch check
	// instead of laundering old-ring data as current.
	epoch   uint64
	epochOK bool
}

// DefaultChunk is the streamed first-chunk size for a top-k target: 2k,
// floored at 8. Continuation rounds double it.
func DefaultChunk(k int) int {
	if k < 4 {
		return 8
	}
	return 2 * k
}

// NewTopKSession starts a read session targeting the best k aggregate
// results. chunk selects the shape of the read, not a protocol: chunk > 0
// streams — every key opens with that many entries in the compressed
// encoding and Refine fetches more while the top k could still change —
// and chunk 0 reads in one shot: every key opens with its item's
// MaxResults (0 = the whole list, exact scores) and Refine is not run.
// Under ReadAnyReplica the opens spread over the replica set: hedged
// across each primary's copies under WithHedge, else retargeted per key
// to a hash-chosen copy.
func (ix *Index) NewTopKSession(k, chunk int, policy ReadPolicy, opts ...ReadOption) *TopKSession {
	if k <= 0 {
		k = 1
	}
	if chunk < 0 {
		chunk = 0
	}
	return &TopKSession{
		ix:     ix,
		k:      k,
		chunk:  chunk,
		policy: policy,
		ro:     resolveReadOpts(opts),
		states: make(map[string]*topkKeyState),
	}
}

func (s *TopKSession) state(key string, terms []string) *topkKeyState {
	st, ok := s.states[key]
	if !ok {
		st = &topkKeyState{key: key, terms: terms, list: &postings.List{}}
		s.states[key] = st
		s.order = append(s.order, key)
	}
	return st
}

// cachedPrefixOf snapshots a key state as a posting-prefix cache entry:
// the chunk answer that replays the state into a fresh session. Its
// entries are a fresh copy, immutable once cached — a replay hands absorb
// another copy. Callers hold s.mu.
func cachedPrefixOf(st *topkKeyState) *topKAnswer {
	return &topKAnswer{
		found:     true,
		wantIndex: st.wantIndex,
		peer:      st.peer,
		truncated: st.list.Truncated,
		total:     st.total,
		cursor:    st.cursor,
		bound:     st.bound,
		entries:   slices.Clone(st.list.Entries),
	}
}

// readOp is the batch op of one read round over sts: item i asks for
// chunkOf(i) entries of sts[i]'s list — from the top (an open; lost ==
// nil) or from the state's cursor (a continuation). An answer that finds
// the key is absorbed into its state. One that does not ends an opened
// key as absent; on a continuation it means the serving copy lost the
// list (restart, eviction) and is only flagged in lost, for the caller
// to re-open.
func (s *TopKSession) readOp(sts []*topkKeyState, chunkOf func(i int) int, lost []bool) batchOp {
	return batchOp{
		msg:   MsgRead,
		moded: true,
		encode: eachItem(func(w *wire.Writer, i int) {
			cursor := 0
			if lost != nil {
				s.mu.Lock()
				cursor = sts[i].cursor
				s.mu.Unlock()
			}
			w.String(sts[i].key)
			w.Uvarint(uint64(cursor))
			w.Uvarint(uint64(chunkOf(i)))
		}),
		decode: func(r *wire.Reader, i int, from transport.Addr) error {
			a, err := readTopKAnswer(r, from)
			if err != nil {
				return err
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			st := sts[i]
			if !a.found && lost != nil {
				lost[i] = true
				return nil
			}
			st.fetched = true
			st.wantIndex = st.wantIndex || a.wantIndex
			if a.found {
				st.absorb(a, &s.refIDs)
			} else {
				st.found, st.done = false, true
			}
			return nil
		},
	}
}

// open reads the opening chunk of every state through the batch engine:
// fresh resolution, the caller's policy and hedging, and the engine's
// recovery ladder for groups that fail or shed.
func (s *TopKSession) open(ctx context.Context, sts []*topkKeyState, chunkOf func(i int) int) error {
	keys := make([]string, len(sts))
	for i, st := range sts {
		keys[i] = st.key
	}
	op := s.readOp(sts, chunkOf, nil)
	s.ix.planReplicaRead(&op, s.policy, s.ro.hedge)
	return s.ix.runBatch(ctx, keys, op)
}

// FetchPrefixes opens the read for one batch of probed keys. In a
// streamed session List is the fetched prefix carrying the STORED list's
// truncation mark (the lattice must prune exactly as it would on a whole
// list; Refine extends the prefix in place); in a one-shot session it is
// the item's capped list, marked truncated when the cap cut it. Found and
// WantIndex are the probe semantics either way: the serving peer reports
// the probe to its probe hook on the opening chunk only. Keys group per
// serving peer into MsgRead frames (see runBatch for modes and recovery).
//
// With the hot-key path armed, two things short-circuit the fan-out:
// a fresh item whose key has a live posting-prefix cache entry (same
// ring epoch, younger than the TTL, no intervening local write) absorbs
// the cached chunk and skips the network entirely — no probe is
// recorded at the store, the accepted cost of serving from cache — and
// a single-key hedged group whose key is locally hot interleaves the
// key's soft replicas into the hedge chain (hedgedRead).
func (s *TopKSession) FetchPrefixes(ctx context.Context, items []GetItem) ([]GetResult, error) {
	// Cache consult: a hit replays the cached answer into the session
	// state; only the misses go to the network. Items that already
	// carry session state (a repeated key within one session) keep the
	// pre-cache behaviour of re-fetching, so the absorb dedup — not the
	// cache — stays the arbiter of their contents.
	epoch := s.ix.node.RingEpoch()
	sts := make([]*topkKeyState, len(items))
	var fetch []*topkKeyState
	var chunks []int
	s.mu.Lock()
	if !s.epochOK {
		s.epoch, s.epochOK = epoch, true
	}
	for i, it := range items {
		key := ids.KeyString(it.Terms)
		st := s.state(key, it.Terms)
		sts[i] = st
		s.ix.observeRead(key)
		want := s.chunk
		if want == 0 {
			want = it.MaxResults
		}
		if !st.found && !st.done && st.list.Len() == 0 {
			if v, ok := s.ix.pcache.Get(key, epoch); ok {
				// A one-shot read can only use an entry that covers its
				// cap: nothing will fetch the rest.
				cp := *v.(*topKAnswer)
				if s.chunk > 0 || cp.cursor >= cp.total || (want > 0 && cp.cursor >= want) {
					cp.entries = slices.Clone(cp.entries)
					st.absorb(cp, &s.refIDs)
					st.wantIndex = st.wantIndex || cp.wantIndex
					continue
				}
			}
		}
		fetch = append(fetch, st)
		chunks = append(chunks, want)
	}
	s.mu.Unlock()

	if err := s.open(ctx, fetch, func(i int) int { return chunks[i] }); err != nil {
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
		for _, st := range fetch {
			if st.found {
				s.ix.pcache.Put(st.key, s.epoch, cachedPrefixOf(st))
			}
		}
	}
	out := make([]GetResult, len(items))
	for i, st := range sts {
		out[i] = GetResult{Found: st.found, WantIndex: st.wantIndex}
		if st.found {
			out[i].List = st.list
			if s.chunk == 0 {
				out[i].List = st.capped(items[i].MaxResults)
			}
		}
	}
	return out, nil
}

// Lists returns the per-key fetched lists of every found key — the same
// shape rankUnion consumes after an exploration. The lists are
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
	// shows[i*len(pending)+j]: pending key j has fetched trailing document
	// i. One lookup over the trailing documents, one pass over each
	// pending prefix — no per-key set.
	trailing := ranked[s.k:]
	pos := make(map[uint64]int32, len(trailing))
	for i, p := range trailing {
		pos[s.refIDs.ID(p.Ref)] = int32(i)
	}
	shows := make([]bool, len(trailing)*len(pending))
	for j, st := range pending {
		for _, p := range st.list.Entries {
			if i, ok := pos[s.refIDs.ID(p.Ref)]; ok {
				shows[int(i)*len(pending)+j] = true
			}
		}
	}
	for i, p := range trailing {
		upper := p.Score
		for j, st := range pending {
			if !shows[i*len(pending)+j] {
				upper += st.bound
			}
		}
		if upper >= sk {
			return true // a seen trailing document could still climb past k
		}
	}
	return false
}

// continueRound fetches the next chunk of every pending key from the
// copy that served its prefix, one readAny frame per serving peer (the
// copy may legitimately not own the key anymore). The keys of a group
// whose call failed — a shed included — and the keys a copy lost are
// re-opened whole in one batch: they end the session exhausted, so the
// threshold loop stays sound, and the extra probe the re-open records is
// the same soft-state cost a one-shot read pays.
func (s *TopKSession) continueRound(ctx context.Context, pending []*topkKeyState, chunk int) error {
	keys := make([]string, len(pending))
	peers := make([]dht.Remote, len(pending))
	s.mu.Lock()
	for i, st := range pending {
		keys[i], peers[i] = st.key, dht.Remote{Addr: st.peer}
	}
	s.mu.Unlock()
	groups := chunkGroups(groupByPeer(peers), MaxBatchItems)
	lost := make([]bool, len(pending))
	op := s.readOp(pending, func(int) int { return chunk }, lost)
	op.mode = readAny
	errs := make([]error, len(groups))
	stopped := dht.RunBounded(ctx, len(groups), func(gi int) {
		errs[gi] = s.ix.sendGroup(ctx, groups[gi].peer, keys, groups[gi].items, op)
	})
	if stopped != nil {
		return stopped
	}
	var reopen []*topkKeyState
	for gi, g := range groups {
		failed := errs[gi] != nil
		if failed {
			if ctx.Err() != nil {
				return errs[gi]
			}
			// The serving copy is gone, overloaded or garbling: stop
			// routing there and re-open the whole group (a read is always
			// safe to redrive; absorb drops what was already decoded).
			s.ix.resolver.Invalidate(g.peer.Addr)
		}
		for _, i := range g.items {
			if failed || lost[i] {
				reopen = append(reopen, pending[i])
			}
		}
	}
	return s.open(ctx, reopen, func(int) int { return 0 })
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

package globalindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/wire"
)

func keyOf(terms []string) string { return ids.KeyString(terms) }

func TestGetPrefixSemantics(t *testing.T) {
	s := NewStore()
	l := &postings.List{}
	for i := 0; i < 20; i++ {
		l.Add(post("a", uint32(i), float64(100-i)))
	}
	s.Put("k", l, 10) // stored: 10 entries, truncated

	res := s.GetPrefix("k", 0, 4)
	if !res.Found || res.Total != 10 || !res.Truncated || len(res.Entries) != 4 {
		t.Fatalf("first chunk: %+v", res)
	}
	if res.Entries[0].Score != 100 || res.Entries[3].Score != 97 {
		t.Fatalf("chunk entries: %v", res.Entries)
	}
	res = s.GetPrefix("k", 4, 100)
	if len(res.Entries) != 6 || res.Entries[0].Score != 96 {
		t.Fatalf("continuation chunk: %v", res.Entries)
	}
	// Past the end: empty chunk, metadata intact.
	res = s.GetPrefix("k", 10, 5)
	if len(res.Entries) != 0 || res.Total != 10 || !res.Found {
		t.Fatalf("past-end chunk: %+v", res)
	}
	for _, off := range []int{0, 3} {
		if res := s.GetPrefix("absent", off, 5); res.Found || res.WantIndex {
			t.Fatalf("absent key at offset %d: %+v", off, res)
		}
	}
}

// rankSumRefs is the test aggregation: single-term keys are pairwise
// disjoint, so a document's aggregate is the plain sum of its per-key
// scores (what core's rankUnion computes for such keys).
func rankSumRefs(perKey map[string]*postings.List) []postings.Posting {
	sums := map[postings.DocRef]float64{}
	for _, l := range perKey {
		for _, p := range l.Entries {
			sums[p.Ref] += p.Score
		}
	}
	out := make([]postings.Posting, 0, len(sums))
	for ref, sc := range sums {
		out = append(out, postings.Posting{Ref: ref, Score: sc})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ref.Less(out[j].Ref)
	})
	return out
}

func topRefs(ranked []postings.Posting, k int) map[postings.DocRef]bool {
	if len(ranked) > k {
		ranked = ranked[:k]
	}
	out := make(map[postings.DocRef]bool, len(ranked))
	for _, p := range ranked {
		out[p.Ref] = true
	}
	return out
}

// publishLongLists stores `nKeys` single-term keys, each with a long
// descending-score list, and returns the items to probe.
func publishLongLists(t *testing.T, ix *Index, nKeys, listLen int, seed int64) []GetItem {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	items := make([]GetItem, nKeys)
	for ki := 0; ki < nKeys; ki++ {
		terms := []string{fmt.Sprintf("term%02d", ki)}
		l := &postings.List{}
		for i := 0; i < listLen; i++ {
			// Geometric decay, like a real ranked list's tail: the per-key
			// bounds fall fast, so the threshold test can bite. The noise
			// and the quantization error (~2^-21 relative) are both far
			// below the separation near the top ranks.
			score := 1000*math.Pow(0.95, float64(i)) + rng.Float64()*0.01
			l.Add(post(fmt.Sprintf("host%d", rng.Intn(8)), uint32(ki*100000+i), score))
		}
		l.Normalize()
		if _, err := putOne(context.Background(), ix, terms, l, 0); err != nil {
			t.Fatal(err)
		}
		items[ki] = GetItem{Terms: terms}
	}
	return items
}

func TestTopKSessionMatchesFullPullAndSavesBytes(t *testing.T) {
	_, idxs, _ := ring(t, 10)
	ix := idxs[0]
	const k, listLen = 10, 400
	items := publishLongLists(t, ix, 5, listLen, 42)

	// Ground truth: one-shot whole-list reads.
	full := map[string]*postings.List{}
	for _, it := range items {
		l, found, _, err := getOne(context.Background(), ix, it.Terms, 0, ReadPrimary)
		if err != nil || !found {
			t.Fatalf("full pull: %v found=%v", err, found)
		}
		full[it.Terms[0]] = l
	}
	wantTop := topRefs(rankSumRefs(full), k)

	sess := ix.NewTopKSession(k, DefaultChunk(k), ReadPrimary)
	res, err := sess.FetchPrefixes(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if !r.Found {
			t.Fatalf("item %d not found", i)
		}
		if r.List.Len() >= listLen {
			t.Fatalf("prefix fetched the whole list (%d entries) — not streaming", r.List.Len())
		}
	}
	if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	gotTop := topRefs(rankSumRefs(sess.Lists()), k)
	if len(gotTop) != len(wantTop) {
		t.Fatalf("top-%d size mismatch: %d vs %d", k, len(gotTop), len(wantTop))
	}
	for ref := range wantTop {
		if !gotTop[ref] {
			t.Fatalf("streamed top-%d missing %v", k, ref)
		}
	}
	// The session must have left most of the stored tails unread.
	fetched := 0
	for _, l := range sess.Lists() {
		fetched += l.Len()
	}
	if fetched >= 5*listLen/2 {
		t.Fatalf("fetched %d of %d stored postings — no early termination", fetched, 5*listLen)
	}
	st := ix.TopKStats()
	if st.EarlyTerminations == 0 {
		t.Fatalf("expected an early termination, stats %+v", st)
	}
	if st.BytesSaved <= 0 {
		t.Fatalf("expected bytes saved, stats %+v", st)
	}
}

func TestTopKSessionExhaustsShortLists(t *testing.T) {
	// Lists shorter than k: the session must drain them fully and return
	// the exact union without early-terminating on bogus bounds.
	_, idxs, _ := ring(t, 8)
	ix := idxs[2]
	items := publishLongLists(t, ix, 3, 4, 7)
	sess := ix.NewTopKSession(10, DefaultChunk(10), ReadPrimary)
	if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	ranked := rankSumRefs(sess.Lists())
	if len(ranked) != 12 {
		t.Fatalf("want all 12 postings fetched, got %d", len(ranked))
	}
}

func TestTopKSessionRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		// A fresh ring per trial: the trials reuse key names, and appends
		// accumulate.
		_, idxs, _ := ring(t, 12)
		ix := idxs[0]
		nKeys := 2 + rng.Intn(4)
		listLen := 20 + rng.Intn(200)
		k := 1 + rng.Intn(15)
		items := publishLongLists(t, ix, nKeys, listLen, int64(1000+trial))
		full := map[string]*postings.List{}
		for _, it := range items {
			l, found, _, err := getOne(context.Background(), ix, it.Terms, 0, ReadPrimary)
			if err != nil || !found {
				t.Fatal(err)
			}
			full[it.Terms[0]] = l
		}
		wantTop := topRefs(rankSumRefs(full), k)
		sess := ix.NewTopKSession(k, 1+rng.Intn(40), ReadPrimary)
		if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
			t.Fatal(err)
		}
		if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
			t.Fatal(err)
		}
		gotTop := topRefs(rankSumRefs(sess.Lists()), k)
		for ref := range wantTop {
			if !gotTop[ref] {
				t.Fatalf("trial %d (keys=%d len=%d k=%d): missing %v",
					trial, nKeys, listLen, k, ref)
			}
		}
	}
}

func TestTopKContinuationSurvivesLostKey(t *testing.T) {
	// A serving copy that loses a key mid-stream (restart, eviction)
	// degrades that item to a fresh whole-list open instead of failing
	// or silently under-reporting.
	nodes, idxs, _ := ring(t, 8)
	ix := idxs[1]
	items := publishLongLists(t, ix, 2, 300, 5)
	sess := ix.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	// Drop one key from its responsible store between rounds.
	victim := items[0].Terms
	removed := false
	for i := range idxs {
		if l, ok := idxs[i].Store().Peek(keyOf(victim)); ok && l != nil {
			idxs[i].Store().Remove(keyOf(victim))
			removed = true
		}
	}
	if !removed {
		t.Fatal("victim key not stored anywhere")
	}
	_ = nodes
	if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	// The victim key is gone everywhere, so only the surviving key's
	// postings rank; the session must still have drained it correctly.
	for key, l := range sess.Lists() {
		if key == keyOf(victim) {
			continue
		}
		if l.Len() == 0 {
			t.Fatalf("surviving key %q has no postings", key)
		}
	}
}

// TestTopKContinuationDegradesLostKeysInOneFrame: when the copy serving
// a continuation round (cursor > 0, readAny) has lost K of its keys, the
// K items degrade to whole-list opens (cursor 0, chunk 0, routed afresh:
// readOwner under this policy) through ONE frame at that peer — not K
// reads — while the keys it still holds keep streaming.
func TestTopKContinuationDegradesLostKeysInOneFrame(t *testing.T) {
	nodes, idxs, net := ring(t, 8)
	server := nodes[3]
	client := idxs[0]
	const lost, listLen = 6, 200
	terms := termsOwnedBy(t, server, lost+1, "lostkey")
	var items []GetItem
	for ki, ts := range terms {
		l := &postings.List{}
		for i := 0; i < listLen; i++ {
			l.Add(post("host", uint32(ki*1000+i), 1000*math.Pow(0.97, float64(i))))
		}
		l.Normalize()
		if _, err := putOne(context.Background(), client, ts, l, 0); err != nil {
			t.Fatal(err)
		}
		items = append(items, GetItem{Terms: ts})
	}
	sess := client.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	for _, ts := range terms[:lost] {
		if !idxs[3].Store().Remove(keyOf(ts)) {
			t.Fatalf("key %v not at its owner", ts)
		}
	}
	opens := func() int64 { return readFrames(net, readOwner, addrsOf(nodes)...) }
	ringWide, atServer := opens(), readFrames(net, readOwner, server.Self().Addr)
	if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	if n := readFrames(net, readOwner, server.Self().Addr) - atServer; n != 1 {
		t.Errorf("%d lost keys degraded through %d re-open frames at their peer, want 1", lost, n)
	}
	if n := opens() - ringWide; n != 1 {
		t.Errorf("degrade cost %d re-open frames ring-wide, want 1", n)
	}
	lists := sess.Lists()
	for _, ts := range terms[:lost] {
		if _, ok := lists[keyOf(ts)]; ok {
			t.Errorf("key %v is gone everywhere but still reported found", ts)
		}
	}
	if l := lists[keyOf(terms[lost])]; l == nil || l.Len() <= 4 {
		t.Errorf("surviving key did not keep streaming: %v", l)
	}
}

// rankGreedyCover mirrors core's rankUnion: walk each document's keys
// in cover order (more terms first, ties by key string) and add a key's
// score iff its term set is disjoint from the terms already covered —
// the aggregation whose non-monotonicity the session's drain regime
// guards against.
func rankGreedyCover(perKey map[string]*postings.List) []postings.Posting {
	type keyList struct {
		terms []string
		list  *postings.List
	}
	kls := make([]keyList, 0, len(perKey))
	for k, l := range perKey {
		kls = append(kls, keyList{terms: strings.Fields(k), list: l})
	}
	sort.Slice(kls, func(i, j int) bool {
		if len(kls[i].terms) != len(kls[j].terms) {
			return len(kls[i].terms) > len(kls[j].terms)
		}
		return strings.Join(kls[i].terms, " ") < strings.Join(kls[j].terms, " ")
	})
	type docState struct {
		score   float64
		covered map[string]bool
	}
	states := map[postings.DocRef]*docState{}
	for _, kl := range kls {
		for _, p := range kl.list.Entries {
			st := states[p.Ref]
			if st == nil {
				st = &docState{covered: map[string]bool{}}
				states[p.Ref] = st
			}
			free := true
			for _, tm := range kl.terms {
				if st.covered[tm] {
					free = false
					break
				}
			}
			if !free {
				continue
			}
			st.score += p.Score
			for _, tm := range kl.terms {
				st.covered[tm] = true
			}
		}
	}
	out := make([]postings.Posting, 0, len(states))
	for ref, st := range states {
		out = append(out, postings.Posting{Ref: ref, Score: st.score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Ref.Less(out[j].Ref)
	})
	return out
}

// TestTopKRefineCoverReshuffle reproduces the case where the greedy
// disjoint-cover aggregate is non-monotone in the fetched prefixes:
// docX currently scores 1.0 via its shown "a b" posting, which blocks
// its much larger "b c" posting (30.0); the unread "a d e" tail hides a
// docX entry (0.05) that, once revealed, is covered first, blocks
// "a b", unblocks "b c" and lifts docX to 30.05 — far beyond the naive
// upper bound of 1.0 + bound("a d e") ≈ 3. A threshold test trusting
// that bound would early-terminate and drop the true top document; the
// session must drain the cover-intersecting key and return the exact
// top-k set.
func TestTopKRefineCoverReshuffle(t *testing.T) {
	_, idxs, _ := ring(t, 10)
	ix := idxs[0]
	ctx := context.Background()
	put := func(terms []string, l *postings.List) {
		l.Normalize()
		if _, err := putOne(ctx, ix, terms, l, 0); err != nil {
			t.Fatal(err)
		}
	}

	docX := postings.DocRef{Peer: "h", Doc: 1}

	// "a d e": long list whose tail hides docX at a tiny score; the
	// first chunk's bound (~1.97) is far below the current k-th score.
	ade := &postings.List{}
	for i := 0; i < 40; i++ {
		ade.Add(post("h", uint32(100+i), 2.0-float64(i)*0.01))
	}
	ade.Add(post("h", 1, 0.05))
	put([]string{"a", "d", "e"}, ade)

	// "a b": docX's current cover, blocking "b c".
	put([]string{"a", "b"}, &postings.List{Entries: []postings.Posting{post("h", 1, 1.0)}})

	// "b c": docX's dominant posting plus the current top documents.
	put([]string{"b", "c"}, &postings.List{Entries: []postings.Posting{
		post("h", 1, 30.0), post("h", 2, 20.0), post("h", 3, 19.0),
	}})

	items := []GetItem{
		{Terms: []string{"a", "d", "e"}},
		{Terms: []string{"a", "b"}},
		{Terms: []string{"b", "c"}},
	}
	full := map[string]*postings.List{}
	for _, it := range items {
		l, found, _, err := getOne(ctx, ix, it.Terms, 0, ReadPrimary)
		if err != nil || !found {
			t.Fatalf("full pull %v: %v found=%v", it.Terms, err, found)
		}
		full[keyOf(it.Terms)] = l
	}
	const k = 2
	want := rankGreedyCover(full)
	if want[0].Ref != docX || math.Abs(want[0].Score-30.05) > 1e-9 {
		t.Fatalf("ground truth top-1 = %+v, want docX at 30.05", want[0])
	}

	sess := ix.NewTopKSession(k, 4, ReadPrimary)
	if _, err := sess.FetchPrefixes(ctx, items); err != nil {
		t.Fatal(err)
	}
	if err := sess.Refine(ctx, rankGreedyCover); err != nil {
		t.Fatal(err)
	}
	got := rankGreedyCover(sess.Lists())
	for i := 0; i < k; i++ {
		if got[i].Ref != want[i].Ref {
			t.Fatalf("rank %d: streamed %v (%.3f), full pull %v (%.3f)",
				i, got[i].Ref, got[i].Score, want[i].Ref, want[i].Score)
		}
		if rel := math.Abs(got[i].Score-want[i].Score) / want[i].Score; rel > 1e-5 {
			t.Fatalf("rank %d score: streamed %.6f vs exact %.6f (rel %.2g)",
				i, got[i].Score, want[i].Score, rel)
		}
	}
}

// TestHandleReadHostileCursorChunk feeds the read handler
// cursor/chunk values near MaxUint64. The handler must clamp them (as
// the postings codec clamps its counts) instead of letting offset+limit
// wrap negative and panic on the stored-list slice — a crafted frame
// must never crash the serving peer.
func TestHandleReadHostileCursorChunk(t *testing.T) {
	_, idxs, _ := ring(t, 4)
	ix := idxs[0]
	l := &postings.List{}
	for i := 0; i < 8; i++ {
		l.Add(post("h", uint32(i), float64(8-i)))
	}
	l.Normalize()
	ix.Store().Put("k", l, 0)

	cases := [][2]uint64{
		{math.MaxUint64, math.MaxUint64},
		{1, math.MaxUint64 - 1},
		{math.MaxUint64 / 2, math.MaxUint64 / 2},
		{uint64(HardCap) + 1, 3},
	}
	for _, c := range cases {
		// readAny skips the responsibility check, so the handler runs
		// regardless of which ring slice owns "k".
		_, resp, err := ix.handleRead(context.Background(), "attacker", MsgRead, readRequest(readAny, readItem{"k", c[0], c[1]}))
		if err != nil {
			t.Fatalf("cursor=%d chunk=%d: %v", c[0], c[1], err)
		}
		r := wire.NewReader(resp)
		if n := r.Uvarint(); n != 1 {
			t.Fatalf("cursor=%d chunk=%d: served %d items", c[0], c[1], n)
		}
		a, err := readTopKAnswer(r, ix.node.Self().Addr)
		if err != nil {
			t.Fatalf("cursor=%d chunk=%d: decode: %v", c[0], c[1], err)
		}
		if !a.found || a.total != 8 {
			t.Fatalf("cursor=%d chunk=%d: answer %+v", c[0], c[1], a)
		}
	}
}

// TestGetPrefixOverflowArgs drives the store directly with arguments
// whose sum overflows int: the end index must be computed by
// subtraction, never offset+limit.
func TestGetPrefixOverflowArgs(t *testing.T) {
	s := NewStore()
	l := &postings.List{}
	for i := 0; i < 6; i++ {
		l.Add(post("a", uint32(i), float64(6-i)))
	}
	s.Put("k", l, 0)
	res := s.GetPrefix("k", 1, math.MaxInt)
	if len(res.Entries) != 5 || res.Total != 6 {
		t.Fatalf("offset=1 limit=MaxInt: %d entries, total %d", len(res.Entries), res.Total)
	}
	res = s.GetPrefix("k", math.MaxInt, math.MaxInt)
	if len(res.Entries) != 0 || res.Total != 6 || !res.Found {
		t.Fatalf("offset=MaxInt: %+v", res)
	}
}

// TestReadTopKAnswerRejectsHostileHorizon: the coordinator-side decoder
// refuses answers whose claimed stored length exceeds the store hard
// cap — no honest peer stores more, and the value feeds cursor echo and
// byte accounting — including totals and cursors in [2^63, 2^64), which
// wrap negative through int() and would pass a signed comparison as a
// pair (−1/−2).
func TestReadTopKAnswerRejectsHostileHorizon(t *testing.T) {
	for _, c := range []struct{ total, cursor uint64 }{
		{uint64(HardCap) + 1, 0},
		{math.MaxUint64, math.MaxUint64 - 1}, // −1 / −2 as ints
		{1 << 63, 1 << 63},
		{10, 1 << 63}, // negative cursor under a sane total
		{5, 6},
	} {
		w := wire.NewWriter(64)
		w.Bool(true)  // found
		w.Bool(false) // wantIndex
		w.Uvarint(c.total)
		w.Uvarint(c.cursor)
		w.Float64(1) // bound
		(&postings.List{}).EncodeCompressed(w)
		if _, err := readTopKAnswer(wire.NewReader(w.Bytes()), "peer"); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("total=%d cursor=%d: got %v, want ErrCorrupt", c.total, c.cursor, err)
		}
	}
}

func TestTopKAnswerRoundTrip(t *testing.T) {
	l := &postings.List{}
	for i := 0; i < 12; i++ {
		l.Add(post("h", uint32(i), float64(50-i)))
	}
	l.Normalize()
	// The decoder takes either chunk encoding; only the exact one (what a
	// chunk-0 request gets) is guaranteed to round-trip scores bit for bit.
	for _, exact := range []bool{false, true} {
		for _, truncated := range []bool{false, true} {
			res := PrefixResult{Entries: l.Entries[:5], Total: 12, Truncated: truncated, Found: true}
			w := wire.NewWriter(256)
			writeTopKAnswer(w, 0, exact, res)
			// The answer says each thing once: no peer address, and the
			// stored list's truncation mark only in the chunk frame.
			want := wire.NewWriter(256)
			want.Bool(true)  // found
			want.Bool(false) // wantIndex
			want.Uvarint(12)
			want.Uvarint(5)
			want.Float64(l.Entries[4].Score)
			chunk := postings.List{Entries: res.Entries, Truncated: truncated}
			if exact {
				chunk.Encode(want)
			} else {
				chunk.EncodeCompressed(want)
			}
			if !bytes.Equal(w.Bytes(), want.Bytes()) {
				t.Fatalf("exact=%v truncated=%v layout:\n got % x\nwant % x", exact, truncated, w.Bytes(), want.Bytes())
			}
			// The serving peer is whoever the decoder was told answered.
			a, err := readTopKAnswer(wire.NewReader(w.Bytes()), "peer-x:1")
			if err != nil {
				t.Fatal(err)
			}
			if !a.found || a.peer != "peer-x:1" || a.truncated != truncated || a.total != 12 || a.cursor != 5 {
				t.Fatalf("exact=%v answer: %+v", exact, a)
			}
			if a.bound != l.Entries[4].Score {
				t.Fatalf("exact=%v bound %v, want last served score %v", exact, a.bound, l.Entries[4].Score)
			}
			if len(a.entries) != 5 || (exact && a.entries[4] != l.Entries[4]) {
				t.Fatalf("exact=%v entries: %v", exact, a.entries)
			}
		}
	}
	// Exhausted answers omit the bound.
	w := wire.NewWriter(256)
	writeTopKAnswer(w, 7, false, PrefixResult{Entries: l.Entries[7:], Total: 12, Found: true})
	a, err := readTopKAnswer(wire.NewReader(w.Bytes()), "peer-x:1")
	if err != nil || !a.found || a.cursor != 12 || a.bound != 0 {
		t.Fatalf("exhausted answer: %+v err=%v", a, err)
	}
}

// chunkAnswer is the read answer serving entries[from:to] of a stored
// list of len(entries).
func chunkAnswer(entries []postings.Posting, from, to int) topKAnswer {
	a := topKAnswer{found: true, peer: "s", total: len(entries), cursor: to,
		entries: append([]postings.Posting(nil), entries[from:to]...)}
	if to < len(entries) {
		a.bound = entries[to-1].Score
	}
	return a
}

func storedEntries(n int) []postings.Posting {
	out := make([]postings.Posting, n)
	for i := range out {
		out[i] = postings.Posting{Ref: postings.DocRef{Peer: "p", Doc: uint32(i)}, Score: float64(n - i)}
	}
	return out
}

// TestAbsorbDedupsOnlyLaterChunks: an opening chunk becomes the prefix
// as it is, with no seen set; a continuation and then a re-open that
// serves the top again extend it without repeating a ref.
func TestAbsorbDedupsOnlyLaterChunks(t *testing.T) {
	stored := storedEntries(12)
	var refIDs postings.RefIDs
	st := &topkKeyState{list: &postings.List{}}
	st.absorb(chunkAnswer(stored, 0, 4), &refIDs)
	if st.seen != nil {
		t.Fatal("an opening chunk built a seen set")
	}
	st.absorb(chunkAnswer(stored, 4, 8), &refIDs)
	st.absorb(chunkAnswer(stored, 0, 12), &refIDs) // re-open after a lost continuation
	if got := st.list.Entries; len(got) != len(stored) {
		t.Fatalf("prefix has %d entries, want %d", len(got), len(stored))
	}
	for i, p := range st.list.Entries {
		if p != stored[i] {
			t.Fatalf("entry %d = %v, want %v", i, p, stored[i])
		}
	}
	if !st.done {
		t.Fatal("a whole-list re-open must end the stream")
	}
}

// TestAbsorbOpenAllocatesNothing pins that absorbing an opening chunk
// builds no dedup set: the chunk's entries become the prefix.
func TestAbsorbOpenAllocatesNothing(t *testing.T) {
	a := chunkAnswer(storedEntries(40), 0, 20)
	var refIDs postings.RefIDs
	st := &topkKeyState{list: &postings.List{}}
	allocs := testing.AllocsPerRun(50, func() {
		st.list.Entries, st.seen = nil, nil
		st.absorb(a, &refIDs)
	})
	if allocs != 0 {
		t.Fatalf("absorbing an opening chunk made %v allocations, want 0", allocs)
	}
}

func BenchmarkAbsorbOpen(b *testing.B) {
	a := chunkAnswer(storedEntries(40), 0, 20)
	var refIDs postings.RefIDs
	st := &topkKeyState{list: &postings.List{}}
	b.ReportAllocs()
	for b.Loop() {
		st.list.Entries, st.seen = nil, nil
		st.absorb(a, &refIDs)
	}
}

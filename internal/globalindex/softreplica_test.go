package globalindex

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ownerOf returns the index of the peer responsible for key.
func ownerOf(t *testing.T, idxs []*Index, key string) int {
	t.Helper()
	for i, ix := range idxs {
		if ix.node.Responsible(ids.HashString(key)) {
			return i
		}
	}
	t.Fatalf("no peer responsible for %q", key)
	return -1
}

func TestPromoteHotKeysInstallsSoftCopies(t *testing.T) {
	_, idxs, _ := ring(t, 10)
	for _, ix := range idxs {
		ix.EnableHotKeyPath(HotKeyConfig{HotThreshold: 3, SoftReplicas: 2, SoftReplicaTTL: time.Minute})
	}
	terms := []string{"hotterm"}
	list := &postings.List{Entries: []postings.Posting{post("a", 1, 3), post("b", 2, 2), post("c", 3, 1)}}
	if _, err := putOne(context.Background(), idxs[0], terms, list, 100); err != nil {
		t.Fatal(err)
	}
	key := ids.KeyString(terms)
	owner := ownerOf(t, idxs, key)

	// Cold key: no promotion.
	if n := idxs[owner].PromoteHotKeys(context.Background()); n != 0 {
		t.Fatalf("promoted %d cold keys", n)
	}

	// Heat the key at the owner (server-side observes happen in handlers;
	// here we drive the tracker directly) and promote.
	for i := 0; i < 10; i++ {
		idxs[owner].observeRead(key)
	}
	if n := idxs[owner].PromoteHotKeys(context.Background()); n != 1 {
		t.Fatalf("promoted %d, want 1", n)
	}
	if st := idxs[owner].SoftReplicaStats(); st.Announced != 2 {
		t.Fatalf("announced = %d, want 2", st.Announced)
	}

	// Exactly the derived targets hold copies, and never the owner.
	targets := idxs[owner].softTargets(context.Background(), key, idxs[owner].node.Self().Addr)
	if len(targets) != 2 {
		t.Fatalf("derived %d soft targets, want 2", len(targets))
	}
	holders := map[transport.Addr]bool{}
	for _, ix := range idxs {
		for _, k := range ix.SoftCopyKeys() {
			if k == key {
				holders[ix.node.Self().Addr] = true
			}
		}
	}
	if len(holders) != 2 {
		t.Fatalf("%d peers hold soft copies, want 2", len(holders))
	}
	for _, tgt := range targets {
		if !holders[tgt] {
			t.Fatalf("derived target %s holds no copy", tgt)
		}
	}
	if holders[idxs[owner].node.Self().Addr] {
		t.Fatal("owner must not hold a soft copy of its own key")
	}

	// A non-owner never promotes someone else's key.
	other := (owner + 1) % len(idxs)
	for i := 0; i < 10; i++ {
		idxs[other].observeRead(key)
	}
	if n := idxs[other].PromoteHotKeys(context.Background()); n != 0 {
		t.Fatalf("non-owner promoted %d keys", n)
	}

	// Re-promoting within the suppression window is a no-op.
	if n := idxs[owner].PromoteHotKeys(context.Background()); n != 0 {
		t.Fatalf("re-promoted %d inside suppression window", n)
	}
}

// TestSoftCopyReadModes reads one holder's soft copy in every mode: soft
// and any serve it with the answer layout of a stored list, owner never
// consults it; a key with no live copy fails a soft frame whole — a
// cache miss must escalate, never read as authoritative absence — and
// reads as plain found=false in any mode.
func TestSoftCopyReadModes(t *testing.T) {
	_, idxs, _ := ring(t, 8)
	for _, ix := range idxs {
		ix.EnableHotKeyPath(HotKeyConfig{HotThreshold: 1, SoftReplicas: 2, SoftReplicaTTL: time.Minute})
	}
	terms := []string{"served"}
	list := &postings.List{Entries: []postings.Posting{post("a", 1, 9), post("b", 2, 8), post("c", 3, 7), post("d", 4, 6)}}
	if _, err := putOne(context.Background(), idxs[0], terms, list, 100); err != nil {
		t.Fatal(err)
	}
	key := ids.KeyString(terms)
	owner := ownerOf(t, idxs, key)
	for i := 0; i < 5; i++ {
		idxs[owner].observeRead(key)
	}
	if n := idxs[owner].PromoteHotKeys(context.Background()); n != 1 {
		t.Fatalf("promoted %d, want 1", n)
	}
	holder := idxs[owner].softTargets(context.Background(), key, idxs[owner].node.Self().Addr)[0]
	var holderIx *Index
	for _, ix := range idxs {
		if ix.node.Self().Addr == holder {
			holderIx = ix
		}
	}
	// call sends one MsgRead frame to the holder through the batch
	// engine's sendGroup, whose decoder learns the serving peer.
	call := func(mode uint8, items ...readItem) ([]topKAnswer, error) {
		keys := make([]string, len(items))
		order := make([]int, len(items))
		for i, it := range items {
			keys[i], order[i] = it.key, i
		}
		out := make([]topKAnswer, len(items))
		op := batchOp{msg: MsgRead, moded: true, mode: mode,
			encode: eachItem(func(w *wire.Writer, i int) {
				w.String(items[i].key)
				w.Uvarint(items[i].cursor)
				w.Uvarint(items[i].chunk)
			}),
			decode: func(r *wire.Reader, i int, from transport.Addr) (err error) {
				out[i], err = readTopKAnswer(r, from)
				return err
			},
		}
		err := idxs[0].sendGroup(context.Background(), dht.Remote{Addr: holder}, keys, order, op)
		return out, err
	}

	for _, tc := range []struct {
		name   string
		mode   uint8
		cursor uint64
	}{{"soft open", readSoft, 0}, {"soft continuation", readSoft, 1}, {"any open", readAny, 0}, {"any continuation", readAny, 1}} {
		served := holderIx.SoftReplicaStats().Served
		as, err := call(tc.mode, readItem{key, tc.cursor, 2})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		a := as[0]
		if !a.found || len(a.entries) != 2 || a.total != 4 || a.entries[0] != list.Entries[tc.cursor] || a.cursor != int(tc.cursor)+2 {
			t.Fatalf("%s: answer %+v", tc.name, a)
		}
		if a.peer != holder {
			t.Fatalf("%s: served by %s, want %s", tc.name, a.peer, holder)
		}
		if got := holderIx.SoftReplicaStats().Served - served; got != 1 {
			t.Fatalf("%s: soft-served counter moved by %d, want 1", tc.name, got)
		}
	}

	// Owner mode is about the stored index only: the holder does not own
	// the key and rejects the frame instead of serving its cache.
	if _, err := call(readOwner, readItem{key, 0, 2}); err == nil {
		t.Fatal("owner-mode read of a soft copy at a non-owner must be rejected")
	}
	// A soft frame touching any key without a live copy fails whole...
	if _, err := call(readSoft, readItem{key, 0, 2}, readItem{"never-announced", 0, 2}); err == nil {
		t.Fatal("soft read of a missing copy must fail the request")
	}
	// ...while any mode answers the same pair item by item.
	as, err := call(readAny, readItem{key, 0, 2}, readItem{"never-announced", 0, 2})
	if err != nil || !as[0].found || as[1].found {
		t.Fatalf("any-mode read: %+v, %v", as, err)
	}
}

func TestSoftCopyExpiry(t *testing.T) {
	h := &hotKeyState{}
	now := time.Unix(1000, 0)
	h.clock = func() time.Time { return now }
	l := &postings.List{Entries: []postings.Posting{post("a", 1, 1)}}
	h.install("k", 1, l, 10*time.Second, 5)

	// Live: same epoch, inside TTL.
	if _, ok := h.getPrefix("k", 0, 10, 5); !ok {
		t.Fatal("live copy not served")
	}
	// The holder's ring moved: the copy is dead even inside its TTL.
	if _, ok := h.getPrefix("k", 0, 10, 6); ok {
		t.Fatal("epoch-stale copy served")
	}
	if h.expiredN.Load() != 1 {
		t.Fatalf("expired = %d, want 1", h.expiredN.Load())
	}

	// TTL expiry via the sweep.
	h.install("k", 1, l, 10*time.Second, 6)
	now = now.Add(11 * time.Second)
	if n := h.sweep(6); n != 1 {
		t.Fatalf("sweep dropped %d, want 1", n)
	}
	if _, ok := h.getPrefix("k", 0, 10, 6); ok {
		t.Fatal("TTL-expired copy served")
	}
}

func TestSoftCopyBoundEvictsEarliestExpiring(t *testing.T) {
	h := &hotKeyState{}
	now := time.Unix(1000, 0)
	h.clock = func() time.Time { return now }
	l := &postings.List{Entries: []postings.Posting{post("a", 1, 1)}}
	for i := 0; i < maxSoftCopies; i++ {
		h.install(string(rune('a'+i%26))+string(rune('0'+i/26)), 1, l, time.Duration(i+1)*time.Minute, 1)
	}
	h.install("overflow", 1, l, time.Hour, 1)
	if len(h.copies) != maxSoftCopies {
		t.Fatalf("holder grew to %d copies, bound is %d", len(h.copies), maxSoftCopies)
	}
	if _, ok := h.copies["a0"]; ok {
		t.Fatal("earliest-expiring copy survived the eviction")
	}
	if _, ok := h.copies["overflow"]; !ok {
		t.Fatal("new copy was not installed")
	}
}

// TestAnnounceMarkBoundEvictsOldest pins the suppression-table bound:
// when every existing mark is still fresh (inside ttl/2), an insert past
// maxAnnounceMarks must evict the oldest mark, not grow the table.
func TestAnnounceMarkBoundEvictsOldest(t *testing.T) {
	h := &hotKeyState{ttl: time.Minute}
	base := time.Unix(1000, 0)
	for i := 0; i < maxAnnounceMarks; i++ {
		h.markAnnounced(fmt.Sprintf("k%04d", i), base.Add(time.Duration(i)*time.Millisecond))
	}
	h.markAnnounced("overflow", base.Add(time.Second))
	if len(h.announced) > maxAnnounceMarks {
		t.Fatalf("announce table grew to %d, bound is %d", len(h.announced), maxAnnounceMarks)
	}
	if _, ok := h.announced["k0000"]; ok {
		t.Fatal("oldest mark survived the over-bound insert")
	}
	if _, ok := h.announced["overflow"]; !ok {
		t.Fatal("new mark was not recorded")
	}
	// Re-marking an existing key never evicts: the map does not grow.
	h.markAnnounced("overflow", base.Add(2*time.Second))
	if len(h.announced) > maxAnnounceMarks {
		t.Fatalf("re-mark grew the table to %d", len(h.announced))
	}
}

func TestPrefixCacheServesRepeatOpens(t *testing.T) {
	_, idxs, net := ring(t, 8)
	reader := idxs[2]
	reader.EnableHotKeyPath(HotKeyConfig{PrefixCache: 32, PrefixCacheTTL: time.Minute})
	items := publishLongLists(t, idxs[0], 3, 40, 11)

	sess := reader.NewTopKSession(5, 4, ReadPrimary)
	res1, err := sess.FetchPrefixes(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}

	// The repeat open is served entirely from the cache: zero messages.
	before := net.Meter().Snapshot().Messages
	sess2 := reader.NewTopKSession(5, 4, ReadPrimary)
	res2, err := sess2.FetchPrefixes(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Meter().Snapshot().Messages - before; got != 0 {
		t.Fatalf("cached open cost %d messages, want 0", got)
	}
	for i := range res1 {
		if !res2[i].Found || res2[i].List.Len() != res1[i].List.Len() {
			t.Fatalf("item %d: cached prefix %+v differs from fetched %+v", i, res2[i], res1[i])
		}
		for j := range res1[i].List.Entries {
			if res2[i].List.Entries[j] != res1[i].List.Entries[j] {
				t.Fatalf("item %d entry %d differs", i, j)
			}
		}
	}
	if st := reader.PrefixCacheStats(); st.Hits < 3 {
		t.Fatalf("cache stats %+v, want >=3 hits", st)
	}

	// A refined session must still end with the exact streamed top-k.
	if err := sess2.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}

	// A local write to one key invalidates exactly that entry.
	extra := &postings.List{Entries: []postings.Posting{post("zz", 99, 5000)}}
	if _, err := appendOne(context.Background(), reader, items[0].Terms, extra, 100, 1); err != nil {
		t.Fatal(err)
	}
	before = net.Meter().Snapshot().Messages
	sess3 := reader.NewTopKSession(5, 4, ReadPrimary)
	res3, err := sess3.FetchPrefixes(context.Background(), items)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Meter().Snapshot().Messages - before; got == 0 {
		t.Fatal("post-write open served stale cache, wanted a network fetch")
	}
	if res3[0].List.Entries[0] != post("zz", 99, 5000) {
		t.Fatalf("post-write prefix misses the new top posting: %+v", res3[0].List.Entries)
	}
}

// TestPrefixCacheHitDoesNotResetTTL pins the rule-3 staleness bound for
// hot keys: a session served purely from the cache must not re-Put the
// entry at finish — a Put resets the fill time, so a key queried more
// often than the TTL would never expire and could serve unboundedly
// stale postings against writes this peer never observed.
func TestPrefixCacheHitDoesNotResetTTL(t *testing.T) {
	_, idxs, _ := ring(t, 8)
	reader := idxs[2]
	reader.EnableHotKeyPath(HotKeyConfig{PrefixCache: 32, PrefixCacheTTL: time.Minute})
	// Lists short enough that the opening chunk exhausts them: the
	// cached replay is complete and the refined session never needs a
	// continuation, i.e. it advances purely from the cache.
	items := publishLongLists(t, idxs[0], 2, 3, 11)

	sess := reader.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	key := ids.KeyString(items[0].Terms)
	epoch := reader.node.RingEpoch()
	v1, ok := reader.pcache.Get(key, epoch)
	if !ok {
		t.Fatal("fetched session did not fill the prefix cache")
	}

	sess2 := reader.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess2.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if err := sess2.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	v2, ok := reader.pcache.Get(key, epoch)
	if !ok {
		t.Fatal("cache entry vanished after the cache-hit session")
	}
	// Put always stores a fresh cache entry, so pointer identity
	// distinguishes "entry untouched" from "entry re-filled".
	if v1 != v2 {
		t.Fatal("pure cache-hit session re-filled the entry, resetting its TTL clock")
	}
}

// TestFinishStampsSessionEpoch pins finish()'s epoch stamp: data fetched
// under the session-open ring must not re-enter the cache under a newer
// epoch after a mid-session ring change — the refill has to be dead on
// arrival at the epoch check, exactly like FetchPrefixes' own fills.
func TestFinishStampsSessionEpoch(t *testing.T) {
	nodes, idxs, _ := ring(t, 8)
	reader := idxs[2]
	reader.EnableHotKeyPath(HotKeyConfig{PrefixCache: 32, PrefixCacheTTL: time.Minute})
	// Long lists: Refine runs continuation rounds, so states absorb
	// network answers after the ring change and finish() wants to refill.
	items := publishLongLists(t, idxs[0], 2, 40, 11)

	sess := reader.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}

	// Flip the reader's predecessor pointer: the epoch bumps and the
	// eager ring-change callback clears the cache. Continuations are
	// unaffected — they go straight to the serving copies.
	epoch0 := reader.node.RingEpoch()
	oldPred := reader.node.Predecessor()
	var newPred dht.Remote
	for _, n := range nodes {
		if r := n.Self(); r.Addr != oldPred.Addr && r.Addr != reader.node.Self().Addr {
			newPred = r
			break
		}
	}
	reader.node.InstallRing(newPred, reader.node.Successors(), reader.node.Fingers())
	if reader.node.RingEpoch() == epoch0 {
		t.Fatal("predecessor flip did not bump the ring epoch")
	}

	if err := sess.Refine(context.Background(), rankSumRefs); err != nil {
		t.Fatal(err)
	}
	for _, it := range items {
		if _, ok := reader.pcache.Get(ids.KeyString(it.Terms), reader.node.RingEpoch()); ok {
			t.Fatal("finish() laundered old-ring data under the post-change epoch")
		}
	}
}

func TestPrefixCacheDisabledByDefault(t *testing.T) {
	_, idxs, net := ring(t, 6)
	items := publishLongLists(t, idxs[0], 2, 20, 3)
	// Both keys live on peer 1 (fixed seeds): read from a peer that owns
	// neither, so every fetch is a metered network call.
	reader := idxs[3]
	sess := reader.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	before := net.Meter().Snapshot().Messages
	sess2 := reader.NewTopKSession(5, 4, ReadPrimary)
	if _, err := sess2.FetchPrefixes(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	if got := net.Meter().Snapshot().Messages - before; got == 0 {
		t.Fatal("without a cache, the repeat open must hit the network")
	}
	if st := reader.PrefixCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("disabled cache counted traffic: %+v", st)
	}
}

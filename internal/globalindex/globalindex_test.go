package globalindex

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

func post(peer string, doc uint32, score float64) postings.Posting {
	return postings.Posting{Ref: postings.DocRef{Peer: transport.Addr(peer), Doc: doc}, Score: score}
}

// write replaces the share of the peer list's first entry names under
// key, as that peer's newest write, announcing df.
func write(s StorageEngine, key string, list *postings.List, bound, df int) int {
	var origin transport.Addr
	if list.Len() > 0 {
		origin = list.Entries[0].Ref.Peer
	}
	return s.Write(Write{Origin: origin, Seq: frameSeq.Add(1), Keys: []string{key},
		Items: []AppendItem{{List: list, Bound: bound, AnnouncedDF: df}}})[0]
}

func TestStorePutGetRemove(t *testing.T) {
	s := NewStore()
	l := &postings.List{Entries: []postings.Posting{post("a", 1, 2), post("a", 2, 1)}}
	if n := s.Put("k", l, 10); n != 2 {
		t.Fatalf("put stored %d", n)
	}
	got, ok, _ := s.Get("k", 0)
	if !ok || got.Len() != 2 || got.Truncated {
		t.Fatalf("get = (%v, %v)", got, ok)
	}
	if _, ok, _ := s.Get("missing", 0); ok {
		t.Fatal("missing key must not be found")
	}
	if !s.Remove("k") || s.Remove("k") {
		t.Fatal("remove semantics")
	}
}

func TestStorePutTruncates(t *testing.T) {
	s := NewStore()
	l := &postings.List{}
	for i := 0; i < 100; i++ {
		l.Add(post("a", uint32(i), float64(100-i)))
	}
	if n := s.Put("k", l, 10); n != 10 {
		t.Fatalf("stored %d, want 10", n)
	}
	got, _, _ := s.Get("k", 0)
	if !got.Truncated || got.Len() != 10 {
		t.Fatalf("stored list: len=%d trunc=%v", got.Len(), got.Truncated)
	}
	// The top-scored entries survive.
	if got.Entries[0].Score != 100 || got.Entries[9].Score != 91 {
		t.Fatalf("wrong survivors: %v..%v", got.Entries[0], got.Entries[9])
	}
}

// TestStoreAppendMergesAndBounds pins a key written by three origins:
// their shares merge into one list cut to the bound, and the DF is the
// sum of theirs.
func TestStoreAppendMergesAndBounds(t *testing.T) {
	s := NewStore()
	a := &postings.List{Entries: []postings.Posting{post("a", 1, 5), post("a", 2, 4)}}
	b := &postings.List{Entries: []postings.Posting{post("b", 1, 6)}}
	if n := write(s, "k", a, 3, 0); n != 2 {
		t.Fatalf("first append len = %d", n)
	}
	if n := write(s, "k", b, 3, 0); n != 3 {
		t.Fatalf("merged len = %d", n)
	}
	got, _, _ := s.Get("k", 0)
	if got.Entries[0] != post("b", 1, 6) || got.Entries[1] != post("a", 1, 5) || got.Entries[2] != post("a", 2, 4) {
		t.Fatalf("merge result: %v", got.Entries)
	}
	if got.Truncated {
		t.Fatal("append within bound must not mark truncation")
	}
	if df, present := s.ApproxDF("k"); df != 3 || !present {
		t.Fatalf("approx df = %d, %v", df, present)
	}
	// A fourth distinct ref pushes the list over the bound.
	c := &postings.List{Entries: []postings.Posting{post("c", 9, 7)}}
	if n := write(s, "k", c, 3, 0); n != 3 {
		t.Fatalf("post-overflow len = %d", n)
	}
	got, _, _ = s.Get("k", 0)
	if !got.Truncated {
		t.Fatal("append past the bound must mark truncation")
	}
	if got.Entries[0].Score != 7 || got.Entries[1].Score != 6 || got.Entries[2].Score != 5 {
		t.Fatalf("kept wrong survivors: %v", got.Entries)
	}
	if df, _ := s.ApproxDF("k"); df != 4 {
		t.Fatalf("approx df = %d, want 4", df)
	}
}

func TestStorePutUpgradesScore(t *testing.T) {
	s := NewStore()
	s.Put("k", &postings.List{Entries: []postings.Posting{post("a", 2, 4)}}, 10)
	s.Put("k", &postings.List{Entries: []postings.Posting{post("a", 2, 9)}}, 10)
	got, _, _ := s.Get("k", 0)
	if got.Len() != 1 || got.Entries[0].Score != 9 {
		t.Fatalf("replace semantics broken: %v", got.Entries)
	}
}

func TestStoreGetCapMarksTruncated(t *testing.T) {
	s := NewStore()
	l := &postings.List{Entries: []postings.Posting{post("a", 1, 3), post("a", 2, 2), post("a", 3, 1)}}
	s.Put("k", l, 100)
	got, _, _ := s.Get("k", 2)
	if got.Len() != 2 || !got.Truncated {
		t.Fatalf("capped get: len=%d trunc=%v", got.Len(), got.Truncated)
	}
	full, _, _ := s.Get("k", 0)
	if full.Len() != 3 || full.Truncated {
		t.Fatalf("full get altered: len=%d trunc=%v", full.Len(), full.Truncated)
	}
}

// TestStoreProbeStats checks the usage statistics a probe feeds: every
// one-shot read, hit or miss, reaches the index's probe hook once with
// the key's presence, and Peek reaches it not at all.
func TestStoreProbeStats(t *testing.T) {
	ix := selfIndex(t)
	probes := newProbeCounter()
	ix.SetProbeHook(probes.hook)
	ix.Store().Put("present", &postings.List{Entries: []postings.Posting{post("a", 1, 1)}}, 10)
	for _, key := range []string{"present", "absent", "absent"} {
		if _, _, _, err := getOne(context.Background(), ix, []string{key}, 0, ReadPrimary); err != nil {
			t.Fatal(err)
		}
	}
	if n, found := probes.get("present"); n != 1 || !found {
		t.Fatalf("present: %d probes, found=%v", n, found)
	}
	if n, found := probes.get("absent"); n != 2 || found {
		t.Fatalf("absent: %d probes, found=%v", n, found)
	}
	if n, _ := probes.get("never"); n != 0 {
		t.Fatalf("never: %d probes", n)
	}
	ix.Store().Peek("present")
	if n, _ := probes.get("present"); n != 1 {
		t.Fatal("Peek must not record a probe")
	}
}

func TestStoreStats(t *testing.T) {
	s := NewStore()
	l := &postings.List{Entries: []postings.Posting{post("a", 1, 1), post("a", 2, 1)}}
	s.Put("k1", l, 10)
	s.Put("k2", l, 10)
	st := s.Stats()
	if st.Keys != 2 || st.Postings != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes <= 0 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

// ring builds n peers with oracle tables and a global-index component each.
func ring(t *testing.T, n int) ([]*dht.Node, []*Index, *transport.Mem) {
	t.Helper()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(4))
	nodes := make([]*dht.Node, n)
	idxs := make([]*Index, n)
	for i := 0; i < n; i++ {
		d := transport.NewDispatcher()
		ep := tapped(net, fmt.Sprintf("p%d", i), d)
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		idxs[i] = New(nodes[i], d)
	}
	dht.BuildOracleTables(nodes)
	return nodes, idxs, net
}

func TestDistributedPutGet(t *testing.T) {
	nodes, idxs, _ := ring(t, 12)
	terms := []string{"peer", "retrieval"}
	list := &postings.List{Entries: []postings.Posting{post("p3", 7, 1.5), post("p3", 1, 0.5)}}
	if _, err := putOne(context.Background(), idxs[0], terms, list, 100); err != nil {
		t.Fatal(err)
	}
	// Any peer can fetch it.
	got, found, _, err := getOne(context.Background(), idxs[7], []string{"retrieval", "peer"}, 0, ReadPrimary) // order independent
	if err != nil || !found {
		t.Fatalf("get: %v found=%v", err, found)
	}
	if got.Len() != 2 || got.Entries[0] != post("p3", 7, 1.5) {
		t.Fatalf("got %v", got.Entries)
	}
	// The entry lives at exactly the responsible peer.
	key := ids.KeyString(terms)
	resp, _, err := nodes[0].Lookup(context.Background(), ids.HashString(key))
	if err != nil {
		t.Fatal(err)
	}
	holders := 0
	for i, ix := range idxs {
		if _, ok := ix.Store().Peek(key); ok {
			holders++
			if nodes[i].Self().Addr != resp.Addr {
				t.Fatalf("key stored at %s, responsible is %s", nodes[i].Self().Addr, resp.Addr)
			}
		}
	}
	if holders != 1 {
		t.Fatalf("key stored at %d peers", holders)
	}
}

func TestDistributedAppendAccumulates(t *testing.T) {
	_, idxs, _ := ring(t, 8)
	terms := []string{"shared"}
	for i := 0; i < 5; i++ {
		l := &postings.List{Entries: []postings.Posting{post(fmt.Sprintf("pub%d", i), 1, float64(i))}}
		if _, err := appendOne(context.Background(), idxs[i], terms, l, 100, 0); err != nil {
			t.Fatal(err)
		}
	}
	got, found, _, err := getOne(context.Background(), idxs[6], terms, 0, ReadPrimary)
	if err != nil || !found {
		t.Fatal(err)
	}
	if got.Len() != 5 {
		t.Fatalf("accumulated %d entries", got.Len())
	}
}

func TestDistributedGetMiss(t *testing.T) {
	_, idxs, _ := ring(t, 8)
	if _, found, _, err := getOne(context.Background(), idxs[0], []string{"nothing"}, 0, ReadPrimary); err != nil || found {
		t.Fatalf("miss: %v %v", found, err)
	}
}

func TestGetBandwidthBoundedByCap(t *testing.T) {
	// The transferred bytes for a capped get must not grow with the
	// stored list size — the paper's core bandwidth property.
	_, idxs, net := ring(t, 8)
	big := &postings.List{}
	for i := 0; i < 5000; i++ {
		big.Add(post("pub", uint32(i), float64(i)))
	}
	if _, err := putOne(context.Background(), idxs[0], []string{"huge"}, big, 0); err != nil {
		t.Fatal(err)
	}
	before := net.Meter().Snapshot()
	if _, _, _, err := getOne(context.Background(), idxs[1], []string{"huge"}, 50, ReadPrimary); err != nil {
		t.Fatal(err)
	}
	capped := net.Meter().Snapshot().Sub(before).Bytes

	before = net.Meter().Snapshot()
	if _, _, _, err := getOne(context.Background(), idxs[1], []string{"huge"}, 0, ReadPrimary); err != nil {
		t.Fatal(err)
	}
	full := net.Meter().Snapshot().Sub(before).Bytes

	if capped*10 > full {
		t.Fatalf("capped transfer %d should be far below full %d", capped, full)
	}
}

// TestMemoryReplaceMatchesUnion checks the store's one-pass merge
// against the definition it implements: a write from an origin newer
// than its stored share is the union of the stored list without the
// origin's entries and the incoming list, cut to the bound (0 and above
// HardCap meaning HardCap), and Adopt the same at HardCap for a share
// newer than the stored one; a stale write or copy changes nothing, and
// the list is marked truncated exactly when the shares' DF exceeds its
// length. Few score values make equal scores common, a small document
// space repeats refs within one incoming list, and some incoming lists
// carry a truncation mark.
func TestMemoryReplaceMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	peers := []string{"a:1", "b:2", "c:3"}
	scores := []float64{0.5, 1, 2, 3.25}
	incoming := func(peer string) *postings.List {
		l := &postings.List{Truncated: rng.Intn(6) == 0}
		for n := rng.Intn(9); n > 0; n-- {
			l.Add(post(peer, uint32(rng.Intn(10)), scores[rng.Intn(len(scores))]))
		}
		return l
	}
	for _, bound := range []int{0, 1, 3, 8, HardCap, HardCap + 1} {
		s := NewStore()
		model := make(map[string]*postings.List)
		modelShares := make(map[string]map[transport.Addr]Share)
		for step := 0; step < 600; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(4))
			origin := peers[rng.Intn(len(peers))]
			in := incoming(origin)
			sent := in.EncodeBytes()
			cur := model[key]
			if cur == nil {
				cur = &postings.List{}
			}
			if modelShares[key] == nil {
				modelShares[key] = make(map[transport.Addr]Share)
			}
			shares := modelShares[key]
			old, held := shares[transport.Addr(origin)]
			// Half the sequence numbers are stale, some equal to the stored.
			sh := Share{Origin: transport.Addr(origin), Seq: old.Seq + uint64(rng.Intn(3)) - 1}
			if !held {
				sh.Seq = 1 + uint64(rng.Intn(3))
			}
			adopt := rng.Intn(4) == 0
			cut := HardCap
			if !adopt && bound > 0 && bound <= HardCap {
				cut = bound
			}
			var n int
			if adopt {
				sh.DF = int64(rng.Intn(24))
				n = s.Adopt(key, []Share{sh}, in)
			} else {
				sh.DF = int64(rng.Intn(12))
				n = s.Replace(key, sh, in, bound)
				sh.DF = max(sh.DF, int64(in.Len()))
			}
			want := cur
			if !held || sh.Seq > old.Seq {
				rest := cur.Clone()
				rest.Entries = slices.DeleteFunc(rest.Entries, func(p postings.Posting) bool { return p.Ref.Peer == sh.Origin })
				want = postings.Union(rest, in)
				want.Truncate(cut)
				shares[sh.Origin] = sh // a withdrawal stays as a tombstone
			}
			var df int64
			for _, x := range shares {
				df += x.DF
			}
			want.Truncated = df > int64(want.Len())
			model[key] = want
			got, ok := s.Peek(key)
			if !ok {
				got = &postings.List{}
				if df > 0 || want.Len() > 0 {
					t.Fatalf("bound %d, step %d, key %s: key gone, want %v", bound, step, key, want.Entries)
				}
			}
			if n != want.Len() || !slices.Equal(got.Entries, want.Entries) || got.Truncated != want.Truncated {
				t.Fatalf("bound %d, step %d, key %s: stored %d %v (truncated %v), want %v (truncated %v)",
					bound, step, key, n, got.Entries, got.Truncated, want.Entries, want.Truncated)
			}
			if got, _ := s.ApproxDF(key); got != df {
				t.Fatalf("bound %d, step %d, key %s: DF %d, want %d", bound, step, key, got, df)
			}
			if !bytes.Equal(in.EncodeBytes(), sent) {
				t.Fatalf("bound %d, step %d: the store changed the caller's list", bound, step)
			}
		}
	}
}

// BenchmarkMemoryAppend measures the store's share of a publish: one
// publisher's few postings replacing its share of a list at its bound
// that 40 other peers filled.
func BenchmarkMemoryAppend(b *testing.B) {
	const keys, bound = 64, 200
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("term%02d other%02d", k, k)
		l := &postings.List{}
		for i := 0; i < bound; i++ {
			l.Add(post(fmt.Sprintf("10.0.0.%d:7000", rng.Intn(40)), uint32(rng.Intn(1<<16)), rng.Float64()*20))
		}
		s.Put(names[k], l, bound)
	}
	adds := make([]*postings.List, 256)
	for i := range adds {
		l := &postings.List{}
		for j := 0; j < 3; j++ {
			l.Add(post("10.0.0.99:7000", uint32(3*i+j), rng.Float64()*20))
		}
		l.Normalize()
		adds[i] = l
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Replace(names[i%keys], Share{Origin: "10.0.0.99:7000", Seq: uint64(i + 1), DF: 3}, adds[i%len(adds)], bound)
	}
}

// TestRestoreStateNormalizes pins that recovery hands the one-pass merge
// the stored list it assumes: a snapshot list with a repeated ref and out
// of canonical order is stored normalized, and the next write still
// equals Union + Truncate.
func TestRestoreStateNormalizes(t *testing.T) {
	s := NewStore()
	raw := &postings.List{Entries: []postings.Posting{post("a", 1, 1), post("b", 2, 3), post("a", 1, 2)}}
	s.RestoreState([]EntryState{{Key: "k", Shares: []Share{{Origin: "b", DF: 1}, {Origin: "a", DF: 1}}, List: raw}})
	want := postings.Union(raw)
	if got, _ := s.Peek("k"); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored %v, want %v", got, want)
	}
	add := &postings.List{Entries: []postings.Posting{post("a", 1, 2.5), post("a", 3, 2)}}
	want = postings.Union(&postings.List{Entries: []postings.Posting{post("b", 2, 3)}}, add)
	want.Truncate(2)
	want.Truncated = true // approximate DF 3 exceeds the stored length
	write(s, "k", add, 2, 2)
	if got, _ := s.Peek("k"); !reflect.DeepEqual(got, want) {
		t.Fatalf("write after restore: %v, want %v", got, want)
	}
}

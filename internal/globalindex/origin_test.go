package globalindex

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestOriginReplicasMatchPrimary pins that a key's copies hold one
// per-origin state: at R=3, after write-through the primary and both
// replicas of a key written by two origins agree on the list and on
// every origin's share, sequence numbers included. A replica down while
// one origin shrinks its share holds the older, longer share until one
// anti-entropy sweep of the primary hands it the newer one — adopting by
// sequence number, not by union, so the withdrawn posting leaves it too.
// An origin that withdraws from a key altogether leaves a tombstone share:
// the primary's handoff pull from a successor that missed the withdrawal
// does not bring the withdrawn postings back, and one sweep makes that
// successor match the primary — for a key other origins still hold and
// for a key no origin holds any more, which reads as absent everywhere.
func TestOriginReplicasMatchPrimary(t *testing.T) {
	nodes, idxs, net := replRing(t, 8, 3)
	populateRing(t, idxs[0], 100, "held")
	terms := []string{"origin", "replica"}
	key := ids.KeyString(terms)
	primary, _, err := nodes[0].Lookup(context.Background(), ids.HashString(key))
	if err != nil {
		t.Fatal(err)
	}
	primaryNode, pix := findNode(t, nodes, idxs, primary.Addr)
	copies := append([]*dht.Node{primaryNode}, ringSuccessors(nodes, primaryNode, 3)...)
	agree := func(when string) {
		t.Helper()
		want, wantShares, ok := pix.Store().Export(key)
		if !ok {
			t.Fatalf("%s: the primary lost the key", when)
		}
		for _, c := range copies[1:] {
			_, cix := findNode(t, nodes, idxs, c.Self().Addr)
			got, shares, ok := cix.Store().Export(key)
			if !ok || !slices.Equal(shares, wantShares) || string(got.EncodeBytes()) != string(want.EncodeBytes()) {
				t.Fatalf("%s: replica %s holds %v %v, the primary %v %v", when, c.Self().Addr, shares, got, wantShares, want)
			}
		}
	}

	a := &postings.List{Entries: []postings.Posting{post("a", 1, 4), post("a", 2, 3)}}
	b := &postings.List{Entries: []postings.Posting{post("b", 7, 5)}}
	for _, l := range []*postings.List{a, b} {
		if _, err := putOne(context.Background(), idxs[1], terms, l, 10); err != nil {
			t.Fatal(err)
		}
	}
	agree("after write-through")
	if df, _ := pix.Store().ApproxDF(key); df != 3 {
		t.Fatalf("DF %d after two origins' writes, want 3", df)
	}

	down := copies[1].Self().Addr
	net.SetDown(down, true)
	shrunk := &postings.List{Entries: []postings.Posting{post("a", 1, 4)}}
	if _, err := putOne(context.Background(), idxs[1], terms, shrunk, 10); err != nil {
		t.Fatal(err)
	}
	net.SetDown(down, false)
	_, downIx := findNode(t, nodes, idxs, down)
	if l, _ := downIx.Store().Peek(key); l.Len() != 3 {
		t.Fatalf("fixture broken: the downed replica holds %v", l)
	}
	if pushed := pix.AntiEntropySweep(); pushed != 1 {
		t.Fatalf("sweep shipped %d entries, want the one the replica missed", pushed)
	}
	agree("after the sweep")
	if l, _ := downIx.Store().Peek(key); l.Len() != 2 || slices.Contains(l.Entries, post("a", 2, 3)) {
		t.Fatalf("the repaired replica holds %v, want a's withdrawn posting gone", l)
	}

	// A live origin o writes the shared key and a key of its own; both
	// have the same copies, so the downed successor misses the
	// withdrawal of both.
	var solo []string
	var soloKey string
	for i := 0; ; i++ {
		solo = []string{"origin", "replica", fmt.Sprintf("solo%d", i)}
		soloKey = ids.KeyString(solo)
		if p, _, err := nodes[0].Lookup(context.Background(), ids.HashString(soloKey)); err == nil && p.Addr == primary.Addr {
			break
		}
	}
	var oix *Index
	for i, n := range nodes {
		if n.Self().Addr != down {
			oix = idxs[i]
			break
		}
	}
	o := string(oix.node.Self().Addr)
	publish := func(lists ...*postings.List) {
		t.Helper()
		items := []AppendItem{{Terms: terms, List: lists[0], Bound: 10}, {Terms: solo, List: lists[1], Bound: 10}}
		if _, err := oix.MultiAppend(context.Background(), items); err != nil {
			t.Fatal(err)
		}
	}
	publish(&postings.List{Entries: []postings.Posting{post(o, 9, 6)}}, &postings.List{Entries: []postings.Posting{post(o, 9, 6)}})
	agree("after o's write")
	net.SetDown(down, true)
	publish(&postings.List{}, &postings.List{})
	net.SetDown(down, false)
	if l, _ := downIx.Store().Peek(soloKey); l.Len() != 1 {
		t.Fatalf("fixture broken: the downed replica holds %v under the solo key", l)
	}
	pix.pullOwnedRange()
	if l, _ := pix.Store().Peek(key); slices.Contains(l.Entries, post(o, 9, 6)) {
		t.Fatalf("the handoff pull brought o's withdrawn posting back: %v", l)
	}
	if l, ok := pix.Store().Peek(soloKey); ok {
		t.Fatalf("the handoff pull brought the withdrawn solo key back: %v", l)
	}
	if pushed := pix.AntiEntropySweep(); pushed != 2 {
		t.Fatalf("sweep shipped %d entries, want the two the replica missed", pushed)
	}
	agree("after the withdrawal's sweep")
	if l, _ := downIx.Store().Peek(key); l.Len() != 2 || slices.Contains(l.Entries, post(o, 9, 6)) {
		t.Fatalf("the repaired replica holds %v, want o's withdrawn posting gone", l)
	}
	if df, _ := downIx.Store().ApproxDF(key); df != 2 {
		t.Fatalf("the repaired replica's DF %d, want 2", df)
	}
	for _, c := range copies {
		_, cix := findNode(t, nodes, idxs, c.Self().Addr)
		if l, ok := cix.Store().Peek(soloKey); ok {
			t.Fatalf("%s still serves the withdrawn solo key: %v", c.Self().Addr, l)
		}
		_, soloShares, _ := cix.Store().Export(soloKey)
		if _, soloPrimary, _ := pix.Store().Export(soloKey); !slices.Equal(soloShares, soloPrimary) {
			t.Fatalf("%s holds the solo key's shares %v, the primary %v", c.Self().Addr, soloShares, soloPrimary)
		}
	}
	if pushed := pix.AntiEntropySweep(); pushed != 0 {
		t.Fatalf("a second sweep shipped %d entries, want the copies converged", pushed)
	}
}

// TestOriginFetchEntriesRefusesUnaskedKeys pins the puller's check on a
// MsgFetchEntries answer: an answer carrying an entry for a key the
// puller did not ask for — a buggy or hostile successor's — fails the
// transfer and adopts nothing, not even the entries asked for.
func TestOriginFetchEntriesRefusesUnaskedKeys(t *testing.T) {
	net := transport.NewMem()
	d := transport.NewDispatcher()
	node := dht.NewNode(1, net.Endpoint("puller", d.Serve), d, dht.Options{})
	ix := New(node, d)
	evil := func(_ context.Context, _ transport.Addr, msg uint8, _ []byte) (uint8, []byte, error) {
		l := &postings.List{Entries: []postings.Posting{post("e", 1, 1)}}
		w := wire.NewWriter(64)
		writeEntries(w, []syncItem{
			{key: "asked", shares: []Share{{Origin: "e", Seq: 1, DF: 1}}, list: l},
			{key: "unasked", shares: []Share{{Origin: "e", Seq: 1, DF: 1}}, list: l},
		})
		return msg, w.Bytes(), nil
	}
	net.Endpoint("succ", evil)
	if ix.fetchEntries(context.Background(), dht.Remote{Addr: "succ"}, []string{"asked"}) {
		t.Fatal("an answer naming an unasked key was accepted")
	}
	if keys := ix.Store().Keys(); len(keys) != 0 {
		t.Fatalf("the refused answer left keys %v", keys)
	}
}

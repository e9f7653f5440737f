package globalindex

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// fixedRing builds peers at the given ring IDs with oracle tables and
// replication factor r.
func fixedRing(t *testing.T, net *transport.Mem, ringIDs []ids.ID, opts dht.Options, r int) ([]*dht.Node, []*Index) {
	t.Helper()
	nodes := make([]*dht.Node, len(ringIDs))
	idxs := make([]*Index, len(ringIDs))
	for i, id := range ringIDs {
		d := transport.NewDispatcher()
		ep := tapped(net, fmt.Sprintf("f%d", i), d)
		nodes[i] = dht.NewNode(id, ep, d, opts)
		idxs[i] = New(nodes[i], d)
		idxs[i].EnableReplication(context.Background(), r)
	}
	dht.BuildOracleTables(nodes)
	return nodes, idxs
}

// keysHashingInto finds count distinct keys whose canonical hash lies in
// (from, to] and passes keep.
func keysHashingInto(t *testing.T, from, to ids.ID, count int, keep func(ids.ID) bool) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < count && i < 1_000_000; i++ {
		k := fmt.Sprintf("stale%06d", i)
		if h := ids.HashString(k); ids.Between(h, from, to) && keep(h) {
			out = append(out, k)
		}
	}
	if len(out) < count {
		t.Fatalf("key search exhausted: %d of %d", len(out), count)
	}
	return out
}

// staleRing is the stale-route fixture: twelve nodes evenly spread over
// the full 64-bit ring (clustering them in a corner would leave hashed
// keys nowhere near them), a client at the first one, and sixteen keys
// owned by the node at slot 10 — eight of which move to a node that
// joins at slot 9.5.
//
// The join happens more than SuccListLen positions away from the client,
// so the client's own ring pointers — and hence its RingEpoch, the only
// other cache-reset trigger — stay put; checkEpoch pins that, keeping the
// tests honest about which path they cover.
type staleRing struct {
	t              *testing.T
	net            *transport.Mem
	nodes          []*dht.Node
	idxs           []*Index
	client         *Index
	epoch          uint64
	r              int
	moved, staying []string
	oldOwner       transport.Addr
	joiner         *dht.Node
	jix            *Index
}

const staleSlot = ids.ID(1) << 60

func newStaleRing(t *testing.T, r int, keep func(ids.ID) bool) *staleRing {
	t.Helper()
	sr := &staleRing{t: t, net: transport.NewMem(), r: r}
	var ringIDs []ids.ID
	for i := 1; i <= 12; i++ {
		ringIDs = append(ringIDs, ids.ID(i)*staleSlot)
	}
	sr.nodes, sr.idxs = fixedRing(t, sr.net, ringIDs, dht.Options{SuccListLen: 4}, r)
	sr.client = sr.idxs[0] // node 1<<60
	sr.epoch = sr.nodes[0].RingEpoch()
	sr.oldOwner = sr.nodes[9].Self().Addr
	joinID := 9*staleSlot + staleSlot/2
	sr.moved = keysHashingInto(t, 9*staleSlot, joinID, 8, keep)
	sr.staying = keysHashingInto(t, joinID, 10*staleSlot, 8, keep)
	return sr
}

// items is one posting per key at the given score; republishing with a
// higher score supersedes the stored one (Union keeps the maximum).
func (sr *staleRing) items(score float64) []AppendItem {
	var out []AppendItem
	for _, k := range append(append([]string(nil), sr.moved...), sr.staying...) {
		out = append(out, AppendItem{
			Terms: []string{k},
			List:  &postings.List{Entries: []postings.Posting{post("h", 1, score)}},
			Bound: 10,
		})
	}
	return out
}

// join brings a node up midway through the old owner's range and lets
// the ring settle; it takes over the range's lower half (pulling it from
// the old owner when replication is on).
func (sr *staleRing) join() {
	sr.t.Helper()
	sr.enter()
	sr.stabilize()
}

// enter joins the new node without a stabilization round: the old owner
// has taken it as its predecessor, while the node before it still names
// the old owner as its successor.
func (sr *staleRing) enter() {
	sr.t.Helper()
	d := transport.NewDispatcher()
	ep := tapped(sr.net, "joiner", d)
	sr.joiner = dht.NewNode(9*staleSlot+staleSlot/2, ep, d, dht.Options{SuccListLen: 4})
	sr.jix = New(sr.joiner, d)
	sr.jix.EnableReplication(context.Background(), sr.r)
	if err := sr.joiner.Join(context.Background(), sr.nodes[0].Self().Addr); err != nil {
		sr.t.Fatal(err)
	}
}

// stabilize runs maintenance rounds until every pointer names the joiner.
func (sr *staleRing) stabilize() {
	sr.t.Helper()
	all := append(append([]*dht.Node(nil), sr.nodes...), sr.joiner)
	for round := 0; round < 6; round++ {
		for _, n := range all {
			_ = n.Stabilize(context.Background())
		}
	}
	sr.checkEpoch()
}

func (sr *staleRing) checkEpoch() {
	sr.t.Helper()
	if got := sr.nodes[0].RingEpoch(); got != sr.epoch {
		sr.t.Fatalf("client's own epoch moved (%d -> %d); the join must stay outside its successor list for this test to cover the remote-reject path", sr.epoch, got)
	}
}

// frames reads how many msg frames addr has received so far.
func (sr *staleRing) frames(addr transport.Addr, msg uint8) int64 {
	return sr.net.Load(addr).Snapshot().PerType[msg].Messages
}

// reads is frames for MsgRead, split by mode.
func (sr *staleRing) reads(addr transport.Addr, mode uint8) int64 {
	return readFrames(sr.net, mode, addr)
}

// TestBatchRejectionInvalidatesStaleRoute is the regression test for the
// stale-route loop: after a remote join moves responsibility, the cached
// interval still routes a batch to the old owner, which rejects it. The
// rejection must (a) redrive the batch over fresh ring walks, as batch
// frames, so the operation succeeds against the new owner, and (b) drop
// the rejecting peer's cached intervals, so the NEXT batch resolves the
// moved keys afresh instead of re-rejecting and re-driving forever.
func TestBatchRejectionInvalidatesStaleRoute(t *testing.T) {
	sr := newStaleRing(t, 1, func(ids.ID) bool { return true })
	if _, err := sr.client.MultiAppend(context.Background(), sr.items(1.0)); err != nil {
		t.Fatal(err)
	}
	sr.join()
	joinerAddr := sr.joiner.Self().Addr

	// Second batch: the stale cached route sends all sixteen keys to the
	// old owner in one frame, which rejects it whole; the redrive must
	// land the moved keys on the joiner and the staying keys back on the
	// old owner — one MsgMultiAppend frame per owner.
	oldBefore, joinBefore := sr.frames(sr.oldOwner, MsgMultiAppend), sr.frames(joinerAddr, MsgMultiAppend)
	if _, err := sr.client.MultiAppend(context.Background(), sr.items(2.0)); err != nil {
		t.Fatalf("rejected batch must self-heal: %v", err)
	}
	sr.checkEpoch()
	if n := sr.frames(joinerAddr, MsgMultiAppend) - joinBefore; n != 1 {
		t.Errorf("redrive reached the joiner in %d MsgMultiAppend frames, want 1", n)
	}
	if n := sr.frames(sr.oldOwner, MsgMultiAppend) - oldBefore; n != 2 {
		t.Errorf("old owner received %d MsgMultiAppend frames, want 2 (the rejected batch and its share of the redrive)", n)
	}
	for _, k := range sr.moved {
		l, ok := sr.jix.Store().Peek(k)
		if !ok {
			t.Fatalf("moved key %q not re-driven to the joiner", k)
		}
		if l.Entries[0].Score != 2.0 {
			t.Fatalf("moved key %q holds stale payload %v", k, l.Entries[0])
		}
	}

	// Third batch: the rejecting peer's intervals were dropped, so the
	// moved keys re-resolve to the joiner and coalesce into a clean batch
	// — one frame per owner, no rejection, no redrive.
	oldBefore, joinBefore = sr.frames(sr.oldOwner, MsgMultiAppend), sr.frames(joinerAddr, MsgMultiAppend)
	if _, err := sr.client.MultiAppend(context.Background(), sr.items(3.0)); err != nil {
		t.Fatal(err)
	}
	if o, j := sr.frames(sr.oldOwner, MsgMultiAppend)-oldBefore, sr.frames(joinerAddr, MsgMultiAppend)-joinBefore; o != 1 || j != 1 {
		t.Errorf("third batch cost %d frames at the old owner and %d at the joiner, want 1 and 1: stale route not invalidated", o, j)
	}
	for _, k := range sr.moved {
		if l, _ := sr.jix.Store().Peek(k); l == nil || l.Entries[0].Score != 3.0 {
			t.Errorf("moved key %q not updated through the clean batch", k)
		}
	}
	for _, k := range sr.staying {
		if l, _ := sr.idxs[9].Store().Peek(k); l == nil || l.Entries[0].Score != 3.0 {
			t.Errorf("staying key %q not updated at its owner", k)
		}
	}
}

// TestResolverStaleChainAfterJoin covers a route learned from a lookup
// step whose view disagrees with the owner's: right after a join, the
// node before the joiner still names the old owner as its successor,
// while the old owner already takes the joiner as its predecessor. A
// write routed by that view is refused by the old owner, redriven over
// the same view and refused again, so it fails instead of stranding its
// keys. The refused route is dropped, and once the ring stabilizes the
// next write lands the moved keys at the joiner in one clean frame.
func TestResolverStaleChainAfterJoin(t *testing.T) {
	sr := newStaleRing(t, 1, func(ids.ID) bool { return true })
	ctx := context.Background()
	if _, err := sr.client.MultiAppend(ctx, sr.items(1.0)); err != nil {
		t.Fatal(err)
	}
	sr.enter()
	joinerAddr := sr.joiner.Self().Addr
	if p, s := sr.nodes[9].Predecessor(), sr.nodes[8].Successor(); p.Addr != joinerAddr || s.Addr != sr.oldOwner {
		t.Fatalf("fixture: old owner's predecessor %v and its predecessor's successor %v, want the joiner and the old owner", p, s)
	}

	oldBefore := sr.frames(sr.oldOwner, MsgMultiAppend)
	if _, err := sr.client.MultiAppend(ctx, sr.items(2.0)); err == nil {
		t.Fatal("a write routed by the stale chain succeeded")
	}
	sr.checkEpoch()
	if n := sr.frames(sr.oldOwner, MsgMultiAppend) - oldBefore; n != 2 {
		t.Errorf("old owner received %d MsgMultiAppend frames, want the write and its redrive, both refused", n)
	}
	if n := sr.frames(joinerAddr, MsgMultiAppend); n != 0 {
		t.Errorf("joiner received %d MsgMultiAppend frames before any route named it", n)
	}
	for _, k := range append(append([]string(nil), sr.moved...), sr.staying...) {
		if l, _ := sr.idxs[9].Store().Peek(k); l == nil || l.Entries[0].Score != 1.0 {
			t.Fatalf("key %q at the old owner holds %v, want the pre-join write only", k, l)
		}
	}

	sr.stabilize()
	oldBefore, joinBefore := sr.frames(sr.oldOwner, MsgMultiAppend), sr.frames(joinerAddr, MsgMultiAppend)
	if _, err := sr.client.MultiAppend(ctx, sr.items(3.0)); err != nil {
		t.Fatalf("write after the ring stabilized: %v", err)
	}
	if o, j := sr.frames(sr.oldOwner, MsgMultiAppend)-oldBefore, sr.frames(joinerAddr, MsgMultiAppend)-joinBefore; o != 1 || j != 1 {
		t.Errorf("write after stabilization cost %d frames at the old owner and %d at the joiner, want 1 and 1: refused route not dropped", o, j)
	}
	for _, k := range sr.moved {
		if l, _ := sr.jix.Store().Peek(k); l == nil || l.Entries[0].Score != 3.0 {
			t.Errorf("moved key %q did not land at the joiner: %v", k, l)
		}
	}
	for _, k := range sr.staying {
		if l, _ := sr.idxs[9].Store().Peek(k); l == nil || l.Entries[0].Score != 3.0 {
			t.Errorf("staying key %q not updated at the old owner: %v", k, l)
		}
	}
}

// TestAnyReplicaReadDetectsStaleRoute: under an unhedged ReadAnyReplica
// policy, a group whose every key the hash keeps on its primary must go
// out in readOwner mode — not the unchecked readAny — or a stale cached
// route would keep reading the ex-owner's copy indefinitely, serving
// stale postings once the new owner takes writes. One row per read
// shape: the mode is chosen by the batch engine, whatever the chunk.
func TestAnyReplicaReadDetectsStaleRoute(t *testing.T) {
	for name, chunk := range map[string]int{"one-shot": 0, "streamed": DefaultChunk(5)} {
		t.Run(name, func(t *testing.T) {
			const r = 2
			// Keys the read-target hash keeps on the primary (index 0 of R copies).
			sr := newStaleRing(t, r, func(h ids.ID) bool { return uint64(h)%r == 0 })
			ctx := context.Background()
			if _, err := sr.client.MultiAppend(ctx, sr.items(1.0)); err != nil {
				t.Fatal(err)
			}
			var gets []GetItem
			for _, k := range sr.moved {
				gets = append(gets, GetItem{Terms: []string{k}})
			}
			read := func() {
				t.Helper()
				res, err := sr.client.NewTopKSession(5, chunk, ReadAnyReplica).FetchPrefixes(ctx, gets)
				if err != nil {
					t.Fatalf("read over a stale route: %v", err)
				}
				for i, r := range res {
					if !r.Found || r.List.Len() != 1 {
						t.Fatalf("moved key %q: %+v", sr.moved[i], r)
					}
				}
			}
			read() // warms the route and the replica-set cache
			sr.join()
			joinerAddr := sr.joiner.Self().Addr

			// The stale route delivers the owner-mode frame to the ex-owner,
			// which rejects it; the redrive reads the joiner (over a fresh
			// ring walk, hence in any mode).
			oldOwner, oldAny := sr.reads(sr.oldOwner, readOwner), sr.reads(sr.oldOwner, readAny)
			joinBefore := sr.reads(joinerAddr, readAny)
			read()
			sr.checkEpoch()
			if n := sr.reads(sr.oldOwner, readAny) - oldAny; n != 0 {
				t.Errorf("ex-owner received %d unchecked readAny frames for an all-primary group", n)
			}
			if n := sr.reads(sr.oldOwner, readOwner) - oldOwner; n != 1 {
				t.Errorf("ex-owner received %d readOwner frames, want the 1 it rejects", n)
			}
			if n := sr.reads(joinerAddr, readAny) - joinBefore; n != 1 {
				t.Errorf("redrive reached the joiner in %d readAny frames, want 1", n)
			}

			// The stale interval is gone: the next read goes straight to the
			// joiner and never touches the ex-owner.
			oldFrames := sr.reads(sr.oldOwner, readOwner) + sr.reads(sr.oldOwner, readAny)
			joinBefore = sr.reads(joinerAddr, readOwner)
			read()
			if n := sr.reads(sr.oldOwner, readOwner) + sr.reads(sr.oldOwner, readAny) - oldFrames; n != 0 {
				t.Errorf("next read still sent %d frames to the ex-owner", n)
			}
			if n := sr.reads(joinerAddr, readOwner) - joinBefore; n != 1 {
				t.Errorf("next read reached the joiner in %d readOwner frames, want 1", n)
			}
		})
	}
}

// TestMultiGetDeadOwnerAnsweredFromReplicas is the read side of the
// ladder: with the owner of a 16-key group killed under R = 3, the batch
// frame and its redrive both fail unreachable, and the group is answered
// from the owner's replicas in readAny mode — at most R−1 extra frames
// for the whole group, not a read per key.
func TestMultiGetDeadOwnerAnsweredFromReplicas(t *testing.T) {
	const r = 3
	nodes, idxs, net := replRing(t, 8, r)
	owner := nodes[4]
	terms := termsOwnedBy(t, owner, 16, "deadowner")
	var items []AppendItem
	var gets []GetItem
	for i, ts := range terms {
		items = append(items, AppendItem{
			Terms: ts,
			List:  &postings.List{Entries: []postings.Posting{post("h", uint32(i), 1)}},
			Bound: 10,
		})
		gets = append(gets, GetItem{Terms: ts})
	}
	ctx := context.Background()
	// The write-through leaves the reader knowing where the replicas live.
	if _, err := idxs[0].MultiAppend(ctx, items); err != nil {
		t.Fatal(err)
	}
	net.SetDown(owner.Self().Addr, true)

	served := func(mode uint8) int64 { return readFrames(net, mode, addrsOf(nodes)...) }
	anyBefore, ownerBefore := served(readAny), served(readOwner)
	res, err := idxs[0].MultiGet(ctx, gets, ReadPrimary)
	if err != nil {
		t.Fatalf("MultiGet with a dead owner: %v", err)
	}
	for i, r := range res {
		if !r.Found || r.List.Len() != 1 || r.List.Entries[0].Ref.Doc != uint32(i) {
			t.Fatalf("item %d (%v) not answered from a replica: %+v", i, terms[i], r)
		}
	}
	if n := served(readAny) - anyBefore; n < 1 || n > r-1 {
		t.Errorf("group answered in %d readAny frames, want 1..%d", n, r-1)
	}
	if n := served(readOwner) - ownerBefore; n != 0 {
		t.Errorf("%d readOwner frames delivered; the only owner is dead", n)
	}
}

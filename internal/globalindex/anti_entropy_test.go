package globalindex

import (
	"context"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// replSyncFrames counts the MsgReplSync frames the nodes have received.
func replSyncFrames(net *transport.Mem, nodes []*dht.Node) (n int64) {
	for _, node := range nodes {
		n += receivedFrames(net, node.Self().Addr)[MsgReplSync]
	}
	return n
}

// TestAntiEntropySweepRepairsMissedWriteThrough pins the background
// repair satellite: a write-through that a momentarily-down replica
// missed leaves the replica set divergent, and no ring change ever
// notices — one AntiEntropySweep on the primary repairs it, shipping
// that one entry and nothing the replicas already hold.
func TestAntiEntropySweepRepairsMissedWriteThrough(t *testing.T) {
	nodes, idxs, net := replRing(t, 8, 3)
	populateRing(t, idxs[0], 200, "held")

	// Find a key and its primary/replica layout.
	terms := []string{"sweep", "repair"}
	key := ids.KeyString(terms)
	primary, _, err := nodes[0].Lookup(context.Background(), ids.HashString(key))
	if err != nil {
		t.Fatal(err)
	}
	primaryNode, pix := findNode(t, nodes, idxs, primary.Addr)
	replicas := ringSuccessors(nodes, primaryNode, 3)

	// One replica is down exactly when the write goes through: the
	// best-effort replay to it is dropped on the floor.
	down := replicas[0].Self().Addr
	net.SetDown(down, true)
	list := &postings.List{Entries: []postings.Posting{post("w", 1, 4.0)}}
	if _, err := putOne(context.Background(), idxs[0], terms, list, 10); err != nil {
		t.Fatal(err)
	}
	net.SetDown(down, false)

	_, downIx := findNode(t, nodes, idxs, down)
	if _, ok := downIx.Store().Peek(key); ok {
		t.Fatal("fixture broken: the downed replica received the write anyway")
	}

	// No ring change happens. The periodic sweep alone must repair it,
	// in one ReplSync frame to the replica that missed the write.
	if owned := pix.Store().KeysInRange(primaryNode.Predecessor().ID, primaryNode.ID()); len(owned) < 2 {
		t.Fatalf("fixture too small: the primary owns %d keys", len(owned))
	}
	syncs := replSyncFrames(net, nodes)
	downSyncs := receivedFrames(net, down)[MsgReplSync]
	if pushed := pix.AntiEntropySweep(); pushed != 1 {
		t.Fatalf("sweep shipped %d entries, want exactly the missed one", pushed)
	}
	if n, d := replSyncFrames(net, nodes)-syncs, receivedFrames(net, down)[MsgReplSync]-downSyncs; n != 1 || d != 1 {
		t.Fatalf("sweep sent %d ReplSync frames (%d to the lagging replica), want 1 to it", n, d)
	}
	got, ok := downIx.Store().Peek(key)
	if !ok || got.Len() != 1 || got.Entries[0] != post("w", 1, 4.0) {
		t.Fatalf("replica not repaired by sweep: ok=%v %v", ok, got)
	}

	// A second sweep finds the replica set converged: it walks the
	// manifests and ships nothing.
	df1, _ := downIx.Store().ApproxDF(key)
	syncs = replSyncFrames(net, nodes)
	if pushed := pix.AntiEntropySweep(); pushed != 0 {
		t.Fatalf("sweep of a converged replica set shipped %d entries", pushed)
	}
	if n := replSyncFrames(net, nodes) - syncs; n != 0 {
		t.Fatalf("sweep of a converged replica set sent %d ReplSync frames", n)
	}
	if df2, _ := downIx.Store().ApproxDF(key); df2 != df1 {
		t.Fatalf("repeated sweep changed approxDF %d -> %d", df1, df2)
	}

	// With replication off the sweep is a no-op.
	_, soloIdxs, _ := replRing(t, 4, 1)
	if _, err := putOne(context.Background(), soloIdxs[0], []string{"solo"}, list, 10); err != nil {
		t.Fatal(err)
	}
	for _, ix := range soloIdxs {
		if pushed := ix.AntiEntropySweep(); pushed != 0 {
			t.Fatalf("factor-1 sweep pushed %d keys", pushed)
		}
	}
}

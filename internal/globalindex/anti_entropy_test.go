package globalindex

import (
	"context"
	"testing"

	"repro/internal/ids"
	"repro/internal/postings"
)

// TestAntiEntropySweepRepairsMissedWriteThrough pins the background
// repair satellite: a write-through that a momentarily-down replica
// missed leaves the replica set divergent, and no ring change ever
// notices — one AntiEntropySweep on the primary repairs it.
func TestAntiEntropySweepRepairsMissedWriteThrough(t *testing.T) {
	nodes, idxs, net := replRing(t, 8, 3)

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

	// No ring change happens. The periodic sweep alone must repair it.
	if pushed := pix.AntiEntropySweep(); pushed == 0 {
		t.Fatal("sweep pushed nothing from the primary")
	}
	got, ok := downIx.Store().Peek(key)
	if !ok || got.Len() != 1 || got.Entries[0] != post("w", 1, 4.0) {
		t.Fatalf("replica not repaired by sweep: ok=%v %v", ok, got)
	}

	// The sweep is idempotent (merge semantics): running it again does
	// not change the replica's entry.
	df1, _ := downIx.Store().ApproxDF(key)
	pix.AntiEntropySweep()
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

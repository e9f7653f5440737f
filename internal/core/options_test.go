package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/globalindex"
	"repro/internal/hdk"
	"repro/internal/qdi"
	"repro/internal/sim"
)

// TestWithTopKBudget: WithTopK(n) caps the result count AND the
// per-probe transfer budget, so a small-k query moves measurably fewer
// bytes than the default TruncK-bound run of the same query.
func TestWithTopKBudget(t *testing.T) {
	n := smallHDKNet(t)
	p := n.Peers[4]
	const query = "term0000 term0001"

	before := n.Net.Meter().Snapshot()
	full, err := p.Search(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	fullBytes := n.Net.Meter().Snapshot().Sub(before).Bytes

	before = n.Net.Meter().Snapshot()
	small, err := p.Search(context.Background(), query, core.WithTopK(2))
	if err != nil {
		t.Fatal(err)
	}
	smallBytes := n.Net.Meter().Snapshot().Sub(before).Bytes

	if len(full.Results) <= 2 {
		t.Skipf("fixture returned only %d results; top-k cap not observable", len(full.Results))
	}
	if len(small.Results) != 2 {
		t.Fatalf("WithTopK(2) returned %d results", len(small.Results))
	}
	// The two top hits must agree with the full ranking's prefix.
	for i := range small.Results {
		if small.Results[i].Ref != full.Results[i].Ref {
			t.Fatalf("top-k prefix diverged at %d: %+v vs %+v", i, small.Results[i].Ref, full.Results[i].Ref)
		}
	}
	if smallBytes >= fullBytes {
		t.Fatalf("WithTopK(2) moved %d bytes, full run %d — probe budget not applied", smallBytes, fullBytes)
	}
}

// TestWithTraceDisabled: WithTrace(false) sheds the trace.
func TestWithTraceDisabled(t *testing.T) {
	n := smallHDKNet(t)
	resp, err := n.Peers[0].Search(context.Background(), "term0000", core.WithTrace(false))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatalf("trace present despite WithTrace(false): %+v", resp.Trace)
	}
	resp, err = n.Peers[0].Search(context.Background(), "term0000")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatal("trace missing by default")
	}
}

// readsPerPeer snapshots how many MsgRead frames each peer has received.
func readsPerPeer(n *sim.Network) []int64 {
	out := make([]int64, len(n.Peers))
	for i, p := range n.Peers {
		out[i] = n.Net.Load(p.Addr()).Snapshot().PerType[globalindex.MsgRead].Messages
	}
	return out
}

// TestWithReadConsistencyAnyReplica: on a replicated network the
// AnyReplica knob routes index reads to replica-set members — peers that
// own none of the probed keys, so a primary-only run of the same query
// sends them no read frame — and returns the same result set the
// primary-only read does (replicas are write-through copies).
func TestWithReadConsistencyAnyReplica(t *testing.T) {
	cfg := core.Config{
		Strategy:          core.StrategyHDK,
		HDK:               hdk.Config{DFMax: 20, SMax: 3, Window: 30, TruncK: 50},
		ReplicationFactor: 3,
	}
	n := sim.NewNetwork(sim.Options{NumPeers: 8, Seed: 61, Core: cfg})
	c := corpus.Generate(corpus.Params{NumDocs: 200, VocabSize: 300, MeanDocLen: 40, Seed: 62})
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishStats(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.PublishHDK(); err != nil {
		t.Fatal(err)
	}

	p := n.Peers[0]
	const query = "term0000 term0001"

	before := readsPerPeer(n)
	primary, err := p.Search(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	atPrimary := readsPerPeer(n)
	replica, err := p.Search(context.Background(), query,
		core.WithReadConsistency(core.ReadAnyReplica))
	if err != nil {
		t.Fatal(err)
	}
	atReplica := readsPerPeer(n)
	offPrimary := false
	for i := range n.Peers {
		owner := atPrimary[i] > before[i]
		offPrimary = offPrimary || (!owner && atReplica[i] > atPrimary[i])
	}
	if !offPrimary {
		t.Fatal("AnyReplica search sent read frames only to the keys' owners")
	}
	// Owners may legitimately still be read: a batch group whose every
	// key hashed onto its primary stays there, responsibility-checked
	// (stale-route detection).

	if len(primary.Results) == 0 {
		t.Fatal("fixture query found nothing")
	}
	if len(primary.Results) != len(replica.Results) {
		t.Fatalf("result counts diverged: primary %d, replica %d", len(primary.Results), len(replica.Results))
	}
	for i := range primary.Results {
		if primary.Results[i].Ref != replica.Results[i].Ref {
			t.Fatalf("result %d diverged: %+v vs %+v", i, primary.Results[i].Ref, replica.Results[i].Ref)
		}
	}
}

// TestWithReadConsistencyDeadReplica: an AnyReplica query whose chosen
// replica is unreachable falls back to the primaries and still returns
// the full result set; the stale replica set is dropped from the cache
// so later reads stop targeting the dead peer.
func TestWithReadConsistencyDeadReplica(t *testing.T) {
	cfg := core.Config{
		Strategy:          core.StrategyHDK,
		HDK:               hdk.Config{DFMax: 20, SMax: 3, Window: 30, TruncK: 50},
		ReplicationFactor: 3,
	}
	n := sim.NewNetwork(sim.Options{NumPeers: 8, Seed: 65, Core: cfg})
	c := corpus.Generate(corpus.Params{NumDocs: 200, VocabSize: 300, MeanDocLen: 40, Seed: 66})
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishStats(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.PublishHDK(); err != nil {
		t.Fatal(err)
	}
	p := n.Peers[0]
	const query = "term0000 term0001"
	want, err := p.Search(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	// Kill an arbitrary other peer: whatever index entries it served as
	// primary or replica survive on the remaining R-1 copies. The result
	// *references* must be unchanged (only presentation data for
	// documents it hosted may degrade to placeholders).
	dead := n.Peers[7]
	n.Net.SetDown(dead.Addr(), true)
	defer n.Net.SetDown(dead.Addr(), false)
	for i := 0; i < 3; i++ {
		got, err := p.Search(context.Background(), query,
			core.WithReadConsistency(core.ReadAnyReplica))
		if err != nil {
			t.Fatalf("AnyReplica search %d with dead replica: %v", i, err)
		}
		if len(got.Results) != len(want.Results) {
			t.Fatalf("search %d: %d results with dead replica, want %d", i, len(got.Results), len(want.Results))
		}
		for j := range got.Results {
			if got.Results[j].Ref != want.Results[j].Ref {
				t.Fatalf("search %d result %d diverged: %+v vs %+v", i, j, got.Results[j].Ref, want.Results[j].Ref)
			}
		}
	}
}

// TestWithReadConsistencyUnreplicated: with replication off, AnyReplica
// degrades to the primary path (the same frames to the same peers, same
// results).
func TestWithReadConsistencyUnreplicated(t *testing.T) {
	n := smallHDKNet(t)
	before := readsPerPeer(n)
	if _, err := n.Peers[3].Search(context.Background(), "term0000"); err != nil {
		t.Fatal(err)
	}
	atPrimary := readsPerPeer(n)
	resp, err := n.Peers[3].Search(context.Background(), "term0000",
		core.WithReadConsistency(core.ReadAnyReplica))
	if err != nil {
		t.Fatal(err)
	}
	for i, after := range readsPerPeer(n) {
		if after-atPrimary[i] != atPrimary[i]-before[i] {
			t.Fatalf("peer %d received %d read frames under AnyReplica, %d under primary reads",
				i, after-atPrimary[i], atPrimary[i]-before[i])
		}
	}
	if len(resp.Results) == 0 {
		t.Fatal("query found nothing")
	}
}

// TestWithStrategyOverride: a per-query StrategyHDK override on a QDI
// network suppresses on-demand activation for that query only, while the
// plain query still activates — and the peer-level strategy is
// untouched throughout.
func TestWithStrategyOverride(t *testing.T) {
	cfg := core.Config{
		Strategy: core.StrategyQDI,
		HDK:      hdk.Config{DFMax: 10, SMax: 3, Window: 30, TruncK: 20},
		QDI:      qdi.Config{ActivateThreshold: 2, TruncK: 20},
	}
	n := sim.NewNetwork(sim.Options{NumPeers: 8, Seed: 63, Core: cfg})
	c := corpus.Generate(corpus.Params{NumDocs: 200, VocabSize: 200, MeanDocLen: 50, Seed: 64})
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishStats(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.PublishHDK(); err != nil { // level 1 only under QDI
		t.Fatal(err)
	}

	p := n.Peers[2]
	const query = "term0000 term0001"
	// Drive popularity well past the threshold, always with the HDK
	// override: activation must never fire.
	for i := 0; i < 5; i++ {
		resp, err := p.Search(context.Background(), query, core.WithStrategy(core.StrategyHDK))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Trace.Activated != 0 {
			t.Fatalf("HDK-override query %d activated %d keys", i, resp.Trace.Activated)
		}
	}
	if p.Strategy() != core.StrategyQDI {
		t.Fatalf("peer strategy changed to %s", p.Strategy())
	}
	// The plain (peer-default QDI) query now activates immediately: the
	// popularity counter is far past the threshold.
	resp, err := p.Search(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace.Activated == 0 {
		t.Fatal("default QDI query did not activate despite hot popularity")
	}
}

package ranking

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/transport"
)

// buildReplicatedStatsRing wires n peers with a GlobalStats service over
// a replication-enabled global index each — the assembly core.OpenPeer
// performs.
func buildReplicatedStatsRing(t testing.TB, n, factor int) ([]*dht.Node, []*GlobalStats, *transport.Mem) {
	t.Helper()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(77))
	nodes := make([]*dht.Node, n)
	svcs := make([]*GlobalStats, n)
	for i := 0; i < n; i++ {
		d := transport.NewDispatcher()
		ep := net.Endpoint(fmt.Sprintf("rs%d", i), d.Serve)
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		gidx := globalindex.New(nodes[i], d)
		gidx.EnableReplication(context.Background(), factor)
		svcs[i] = NewGlobalStats(gidx, d)
	}
	dht.BuildOracleTables(nodes)
	return nodes, svcs, net
}

// statsHolders counts the peers whose local df map knows term.
func statsHolders(svcs []*GlobalStats, term string) int {
	holders := 0
	for _, s := range svcs {
		s.mu.Lock()
		if s.df[term] > 0 {
			holders++
		}
		s.mu.Unlock()
	}
	return holders
}

// TestStatsWriteThroughReplicates pins the satellite's write half: a
// published document's per-term DF counters land on the responsible
// peer AND its R−1 successors.
func TestStatsWriteThroughReplicates(t *testing.T) {
	const R = 3
	_, svcs, _ := buildReplicatedStatsRing(t, 10, R)
	if err := svcs[0].PublishDocument(context.Background(), []string{"churn", "proof"}, 12); err != nil {
		t.Fatal(err)
	}
	for _, term := range []string{"churn", "proof"} {
		if got := statsHolders(svcs, term); got != R {
			t.Fatalf("df[%q] held by %d peers, want %d", term, got, R)
		}
	}

	// Factor 1 control: single-copy, exactly the old behaviour.
	_, solo, _ := buildReplicatedStatsRing(t, 10, 1)
	if err := solo[0].PublishDocument(context.Background(), []string{"churn"}, 12); err != nil {
		t.Fatal(err)
	}
	if got := statsHolders(solo, "churn"); got != 1 {
		t.Fatalf("factor-1 df held by %d peers, want 1", got)
	}
}

// TestStatsFetchFallsOverToReplica pins the read half: with the term's
// responsible peer dead, Fetch walks the successor chain and still
// returns the document frequency instead of silently zeroing BM25.
func TestStatsFetchFallsOverToReplica(t *testing.T) {
	nodes, svcs, net := buildReplicatedStatsRing(t, 10, 3)
	terms := []string{"survives", "churnkill"}
	if err := svcs[1].PublishDocument(context.Background(), terms, 20); err != nil {
		t.Fatal(err)
	}

	for _, term := range terms {
		primary, _, err := nodes[1].Lookup(context.Background(), StatsKey(term))
		if err != nil {
			t.Fatal(err)
		}
		if primary.Addr == nodes[1].Self().Addr {
			continue // the publisher owns this key itself; kill-test the other
		}
		net.SetDown(primary.Addr, true)

		// The publisher reads back its own statistics mid-churn: its
		// replica-set cache is warm from the write-through, exactly the
		// state a steady-state peer is in when a primary dies.
		stats, err := svcs[1].Fetch(context.Background(), []string{term})
		if err != nil {
			t.Fatalf("fetch %q with dead primary: %v", term, err)
		}
		if stats.DF[term] != 1 {
			t.Fatalf("df[%q] = %d after fallover, want 1", term, stats.DF[term])
		}
		net.SetDown(primary.Addr, false)
	}
}

// TestStatsFetchFactorOneStillFails pins that without replication the
// failure mode is unchanged: a dead primary fails the fetch loudly.
func TestStatsFetchFactorOneStillFails(t *testing.T) {
	nodes, svcs, net := buildReplicatedStatsRing(t, 8, 1)
	if err := svcs[0].PublishDocument(context.Background(), []string{"fragile"}, 5); err != nil {
		t.Fatal(err)
	}
	primary, _, err := nodes[0].Lookup(context.Background(), StatsKey("fragile"))
	if err != nil {
		t.Fatal(err)
	}
	net.SetDown(primary.Addr, true)
	var reader *GlobalStats
	for i, node := range nodes {
		if node.Self().Addr != primary.Addr {
			reader = svcs[i]
			break
		}
	}
	if _, err := reader.Fetch(context.Background(), []string{"fragile"}); err == nil {
		t.Fatal("factor-1 fetch with dead primary must fail")
	}
}

package cluster_test

import (
	"context"
	"sort"
	"testing"
	"time"

	alvisp2p "repro"
	"repro/internal/cluster"
	"repro/internal/corpus"
	"repro/internal/ids"
)

// widestArc returns the node owning the widest ring arc (pred, self]
// among the nodes and the other ring members' addresses (a peer's ring
// position is the hash of its address). Its rejoin walk compares the
// most (key, fingerprint) pairs, so the delta-rejoin proof has keys to
// find unchanged: a one-key range whose key the restart republished
// fetches everything it compares, recovered or not. It is also the
// outage that moves the most keys.
func widestArc(nodes []*cluster.Node, others ...string) *cluster.Node {
	owner := make(map[ids.ID]*cluster.Node)
	var ring []ids.ID
	for _, n := range nodes {
		id := ids.HashString(n.Addr)
		owner[id] = n
		ring = append(ring, id)
	}
	for _, a := range others {
		ring = append(ring, ids.HashString(a))
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i] < ring[j] })
	var best *cluster.Node
	var width uint64
	for i, id := range ring {
		pred := ring[(i+len(ring)-1)%len(ring)]
		if n := owner[id]; n != nil && (best == nil || ids.Distance(pred, id) > width) {
			best, width = n, ids.Distance(pred, id)
		}
	}
	return best
}

// TestClusterChurnDeltaRejoin is the scripted-churn end-to-end test: a
// 5-node cluster at replication 3 serves a search workload while one
// node is SIGKILLed mid-stream and later restarted on the same address
// and data directory. The assertions:
//
//   - search success stays >= 99% across the whole workload — the
//     replicas absorb the dead peer's range;
//   - the restarted node's own /metrics prove it came back the cheap
//     way: alvis_storage_recovered == 1 (the store replayed disk, not
//     an empty start) and alvis_rejoin_pulled_keys_total <
//     alvis_rejoin_manifest_keys_total (its pull walks found entries
//     already held; a walk over an empty store fetches every pair it
//     compares).
func TestClusterChurnDeltaRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a 5-node cluster with timed churn")
	}

	c := corpus.Generate(corpus.Params{NumDocs: 100, VocabSize: 200, MeanDocLen: 40, Seed: 21})
	shared := make([][]corpus.Doc, 5)
	for i, d := range c.Docs {
		shared[i%5] = append(shared[i%5], d)
	}
	cl := cluster.New(t, cluster.Options{
		N:           5,
		Replication: 3,
		Maintain:    150 * time.Millisecond,
		SharedDocs:  shared,
	})
	client := cl.NewClient(t, clusterCfg(), 150*time.Millisecond)
	//alvislint:allow sleepsync settle of cross-process background maintenance; no aggregate quiescence signal crosses the process boundary
	time.Sleep(time.Second) // let joins, pulls and replication settle

	w := corpus.GenerateWorkload(c, corpus.WorkloadParams{NumQueries: 20, MaxTerms: 2, Seed: 22})
	stream := w.Stream(160, 23)
	searchOpts := []alvisp2p.SearchOption{
		alvisp2p.WithTopK(10),
		alvisp2p.WithTimeout(5 * time.Second),
		alvisp2p.WithReadConsistency(alvisp2p.ReadAnyReplica),
		alvisp2p.WithHedging(30 * time.Millisecond),
	}
	runQueries := func(qs []corpus.Query) {
		for _, q := range qs {
			_, _ = client.Search(context.Background(), q.Text(), searchOpts...)
			//alvislint:allow sleepsync load-generator pacing: the churn scenario wants queries spread across the kill/rejoin timeline
			time.Sleep(30 * time.Millisecond)
		}
	}

	runQueries(stream[:40]) // warm-up against the full ring

	victim := widestArc(cl.Nodes, string(client.Peer.Addr()))
	victim.Kill()
	t.Logf("killed node %d (%s) mid-workload", victim.Index, victim.Addr)
	runQueries(stream[40:100]) // the ring serves through the outage

	if err := victim.Restart(); err != nil {
		t.Fatalf("restarting node %d: %v", victim.Index, err)
	}
	t.Logf("restarted node %d on %s (same data dir)", victim.Index, victim.Addr)
	runQueries(stream[100:]) // the rejoined ring serves the tail

	if ratio := client.Log.SuccessRatio(); ratio < 0.99 {
		recs := client.Log.Records()
		for i, r := range recs {
			if !r.OK {
				t.Logf("failed query %d: %q (%d results, %v)", i, r.Query, r.Results, r.Latency)
			}
		}
		t.Fatalf("search success ratio %.4f < 0.99 across churn (%d queries)", ratio, len(recs))
	}

	// The rejoin pull runs on the restarted node's first ring change;
	// poll its metrics until the proof appears.
	deadline := time.Now().Add(15 * time.Second)
	var recovered, manifest, pulled float64
	for {
		sc, err := victim.Scrape()
		if err == nil {
			recovered = sc.Sum("alvis_storage_recovered")
			manifest = sc.Sum("alvis_rejoin_manifest_keys_total")
			pulled = sc.Sum("alvis_rejoin_pulled_keys_total")
			if recovered == 1 && pulled < manifest {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delta-rejoin proof on node %d: alvis_storage_recovered=%v alvis_rejoin_manifest_keys_total=%v alvis_rejoin_pulled_keys_total=%v\nstderr:\n%s",
				victim.Index, recovered, manifest, pulled, victim.Stderr())
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Logf("delta rejoin proven: recovered=%v, manifest keys compared=%v, pulled=%v", recovered, manifest, pulled)

	if dir := cluster.ArtifactDir(); dir != "" {
		if err := cl.WriteArtifacts(dir, "BENCH_pr6", client.Log); err != nil {
			t.Logf("artifacts: %v", err)
		}
	}
}

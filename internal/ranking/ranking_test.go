package ranking

import (
	"context"

	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/transport"
)

func TestIDFMonotonicity(t *testing.T) {
	stats := &FixedStats{N: 1000, AvgLen: 10, DF: map[string]int64{"rare": 2, "mid": 100, "common": 900}}
	rare, mid, common := IDF(stats, "rare"), IDF(stats, "mid"), IDF(stats, "common")
	if !(rare > mid && mid > common) {
		t.Fatalf("IDF must decrease with DF: %v %v %v", rare, mid, common)
	}
	if common <= 0 {
		t.Fatalf("IDF must stay positive with the +1 floor: %v", common)
	}
	if got := IDF(stats, "unknown"); got != 0 {
		t.Fatalf("unknown term IDF = %v, want 0", got)
	}
}

func TestBM25TFSaturation(t *testing.T) {
	stats := &FixedStats{N: 100, AvgLen: 10, DF: map[string]int64{"x": 10}}
	s1 := DefaultBM25.Score(stats, map[string]int{"x": 1}, 10)
	s2 := DefaultBM25.Score(stats, map[string]int{"x": 2}, 10)
	s10 := DefaultBM25.Score(stats, map[string]int{"x": 10}, 10)
	if !(s2 > s1 && s10 > s2) {
		t.Fatalf("score must grow with tf: %v %v %v", s1, s2, s10)
	}
	// Saturation: the marginal gain shrinks.
	if (s2 - s1) <= (s10-s2)/8 {
		t.Fatalf("tf gain must saturate: %v %v %v", s1, s2, s10)
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	stats := &FixedStats{N: 100, AvgLen: 10, DF: map[string]int64{"x": 10}}
	short := DefaultBM25.Score(stats, map[string]int{"x": 1}, 5)
	long := DefaultBM25.Score(stats, map[string]int{"x": 1}, 50)
	if short <= long {
		t.Fatalf("shorter docs must score higher at equal tf: %v vs %v", short, long)
	}
}

func TestBM25EdgeCases(t *testing.T) {
	stats := &FixedStats{N: 0, AvgLen: 0, DF: map[string]int64{}}
	if got := DefaultBM25.Score(stats, map[string]int{"x": 1}, 10); got != 0 {
		t.Fatalf("empty collection must score 0, got %v", got)
	}
	stats2 := &FixedStats{N: 10, AvgLen: 5, DF: map[string]int64{"x": 5}}
	if got := DefaultBM25.Score(stats2, map[string]int{"x": 0}, 10); got != 0 {
		t.Fatalf("zero tf must score 0, got %v", got)
	}
	if got := DefaultBM25.Score(stats2, nil, 10); got != 0 {
		t.Fatalf("no terms must score 0, got %v", got)
	}
}

// buildStatsRing spins up n peers with oracle routing tables and a
// GlobalStats service each.
func buildStatsRing(t *testing.T, n int) ([]*dht.Node, []*GlobalStats) {
	t.Helper()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(99))
	nodes := make([]*dht.Node, n)
	svcs := make([]*GlobalStats, n)
	for i := 0; i < n; i++ {
		d := transport.NewDispatcher()
		ep := net.Endpoint(fmt.Sprintf("p%d", i), d.Serve)
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		svcs[i] = NewGlobalStats(globalindex.New(nodes[i], d), d)
	}
	dht.BuildOracleTables(nodes)
	return nodes, svcs
}

func TestGlobalStatsPublishAndFetch(t *testing.T) {
	_, svcs := buildStatsRing(t, 16)

	// Three peers publish overlapping documents.
	if err := svcs[0].PublishDocument(context.Background(), []string{"peer", "network"}, 10); err != nil {
		t.Fatal(err)
	}
	if err := svcs[1].PublishDocument(context.Background(), []string{"peer", "index"}, 20); err != nil {
		t.Fatal(err)
	}
	if err := svcs[2].PublishDocument(context.Background(), []string{"peer"}, 30); err != nil {
		t.Fatal(err)
	}

	stats, err := svcs[5].Fetch(context.Background(), []string{"peer", "network", "index", "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 3 {
		t.Fatalf("N = %d, want 3", stats.N)
	}
	if got := stats.AvgDocLen(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("avgdl = %v, want 20", got)
	}
	if stats.DF["peer"] != 3 || stats.DF["network"] != 1 || stats.DF["index"] != 1 {
		t.Fatalf("DF = %v", stats.DF)
	}
	if stats.DF["absent"] != 0 {
		t.Fatalf("absent DF = %d", stats.DF["absent"])
	}
}

func TestGlobalStatsUnpublish(t *testing.T) {
	_, svcs := buildStatsRing(t, 8)
	if err := svcs[0].PublishDocument(context.Background(), []string{"alpha", "beta"}, 12); err != nil {
		t.Fatal(err)
	}
	if err := svcs[0].UnpublishDocument(context.Background(), []string{"alpha", "beta"}, 12); err != nil {
		t.Fatal(err)
	}
	stats, err := svcs[3].Fetch(context.Background(), []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.N != 0 || stats.DF["alpha"] != 0 || stats.DF["beta"] != 0 {
		t.Fatalf("unpublish left residue: %+v", stats)
	}
}

func TestGlobalStatsDistribution(t *testing.T) {
	// Statistics must actually be spread over responsible peers, not
	// accumulate at the publisher.
	nodes, svcs := buildStatsRing(t, 16)
	terms := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}
	if err := svcs[0].PublishDocument(context.Background(), terms, 8); err != nil {
		t.Fatal(err)
	}
	holders := 0
	for i := range svcs {
		if n, _, _ := svcs[i].LocalCounters(); n > 0 {
			holders++
		}
	}
	if holders < 2 {
		t.Fatalf("stats concentrated on %d peer(s); expected distribution", holders)
	}
	// Each term's counter must live at the responsible peer.
	for _, term := range terms {
		r, _, err := nodes[0].Lookup(context.Background(), StatsKey(term))
		if err != nil {
			t.Fatal(err)
		}
		var holder *GlobalStats
		for i, n := range nodes {
			if n.Self().Addr == r.Addr {
				holder = svcs[i]
			}
		}
		if holder == nil {
			t.Fatalf("no node for addr %s", r.Addr)
		}
		stats, err := holder.Fetch(context.Background(), []string{term})
		if err != nil {
			t.Fatal(err)
		}
		if stats.DF[term] != 1 {
			t.Fatalf("responsible peer missing DF for %q", term)
		}
	}
}

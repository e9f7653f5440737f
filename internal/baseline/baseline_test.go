package baseline

import (
	"context"

	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/localindex"
	"repro/internal/ranking"
	"repro/internal/textproc"
	"repro/internal/transport"
)

type fleet struct {
	net    *transport.Mem
	nodes  []*dht.Node
	gidx   []*globalindex.Index
	svcs   []*Service
	locals []*localindex.Index
}

func plain() *textproc.Analyzer {
	return textproc.NewAnalyzer(textproc.AnalyzerConfig{DisableStemming: true, NoStopwords: true})
}

func newFleet(t *testing.T, n int) *fleet {
	t.Helper()
	f := &fleet{net: transport.NewMem()}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		d := transport.NewDispatcher()
		ep := f.net.Endpoint(fmt.Sprintf("b%d", i), d.Serve)
		node := dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		gi := globalindex.New(node, d)
		f.nodes = append(f.nodes, node)
		f.gidx = append(f.gidx, gi)
		f.svcs = append(f.svcs, NewService(gi, d))
		f.locals = append(f.locals, localindex.New(plain()))
	}
	dht.BuildOracleTables(f.nodes)
	return f
}

// seed distributes documents round-robin and publishes full lists.
func seed(t *testing.T, f *fleet, docs []string) {
	t.Helper()
	stats := &ranking.FixedStats{N: int64(len(docs)), AvgLen: 4, DF: map[string]int64{}}
	for i, text := range docs {
		for _, term := range strings.Fields(text) {
			stats.DF[term]++ // over-counts duplicates; fine for scoring
		}
		f.locals[i%len(f.locals)].Add(uint32(i), text)
	}
	for i := range f.svcs {
		if _, _, err := f.svcs[i].PublishLocal(context.Background(), f.locals[i], stats, f.nodes[i].Self().Addr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublishLocalStoresFullLists(t *testing.T) {
	f := newFleet(t, 4)
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = "common unique" + fmt.Sprint(i)
	}
	seed(t, f, docs)
	// "common" appears in all 40 documents and must be stored complete.
	got, err := getOne(f.gidx[0], []string{"common"})
	if err != nil || !got.Found {
		t.Fatalf("get: %v %v", got.Found, err)
	}
	if list := got.List; list.Len() != 40 || list.Truncated {
		t.Fatalf("full list: len=%d trunc=%v", list.Len(), list.Truncated)
	}
}

func TestQueryIntersection(t *testing.T) {
	f := newFleet(t, 4)
	seed(t, f, []string{
		"alpha beta gamma",
		"alpha beta",
		"alpha delta",
		"beta epsilon",
	})
	result, cost, err := f.svcs[1].Query(context.Background(), []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 2 {
		t.Fatalf("intersection = %v", result.Entries)
	}
	if cost.ListFetched == 0 || cost.Shipped < cost.ListFetched {
		t.Fatalf("cost = %+v", cost)
	}
}

func TestQueryRarestFirst(t *testing.T) {
	f := newFleet(t, 4)
	// "rare" in 1 doc, "common" in 30: the pipeline must fetch the rare
	// list first (1 entry), not the common one.
	docs := []string{"rare common"}
	for i := 0; i < 29; i++ {
		docs = append(docs, "common filler"+fmt.Sprint(i))
	}
	seed(t, f, docs)
	result, cost, err := f.svcs[0].Query(context.Background(), []string{"common", "rare"})
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 1 {
		t.Fatalf("result = %v", result.Entries)
	}
	if cost.ListFetched != 1 {
		t.Fatalf("pipeline fetched %d postings first; rarest-first ordering broken", cost.ListFetched)
	}
}

func TestQueryMissingTerm(t *testing.T) {
	f := newFleet(t, 4)
	seed(t, f, []string{"alpha beta"})
	result, _, err := f.svcs[0].Query(context.Background(), []string{"alpha", "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 0 {
		t.Fatalf("AND with unindexed term must be empty: %v", result.Entries)
	}
	// Empty query.
	result, _, err = f.svcs[0].Query(context.Background(), nil)
	if err != nil || result.Len() != 0 {
		t.Fatalf("empty query: %v %v", result, err)
	}
}

func TestQueryEmptyIntersectionStopsEarly(t *testing.T) {
	f := newFleet(t, 4)
	seed(t, f, []string{
		"alpha one",
		"beta two",
		"gamma three",
	})
	result, cost, err := f.svcs[2].Query(context.Background(), []string{"alpha", "beta", "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 0 {
		t.Fatalf("disjoint terms must intersect empty: %v", result.Entries)
	}
	// After the first empty intersection the pipeline stops shipping.
	if cost.Shipped > cost.ListFetched {
		t.Fatalf("pipeline kept shipping after empty intersection: %+v", cost)
	}
}

func TestQueryScoresAreSummed(t *testing.T) {
	f := newFleet(t, 3)
	seed(t, f, []string{"alpha beta", "alpha other", "beta other"})
	result, _, err := f.svcs[0].Query(context.Background(), []string{"alpha", "beta"})
	if err != nil {
		t.Fatal(err)
	}
	if result.Len() != 1 {
		t.Fatalf("result = %v", result.Entries)
	}
	// The survivor's score must exceed either single-term score (it is
	// the sum of both BM25 contributions).
	a, err := getOne(f.gidx[0], []string{"alpha"})
	if err != nil {
		t.Fatal(err)
	}
	var alphaScore float64
	for _, p := range a.List.Entries {
		if p.Ref == result.Entries[0].Ref {
			alphaScore = p.Score
		}
	}
	if result.Entries[0].Score <= alphaScore {
		t.Fatalf("summed score %v not above single-term %v", result.Entries[0].Score, alphaScore)
	}
}

func TestBaselineCostGrowsWithCollection(t *testing.T) {
	// The defining property: per-query shipped postings grow with the
	// collection when terms are frequent.
	cost := func(n int) int {
		f := newFleet(t, 4)
		docs := make([]string, n)
		for i := range docs {
			docs[i] = "alpha beta pad" + fmt.Sprint(i%7)
		}
		seed(t, f, docs)
		_, c, err := f.svcs[0].Query(context.Background(), []string{"alpha", "beta"})
		if err != nil {
			t.Fatal(err)
		}
		return c.Shipped
	}
	small, large := cost(20), cost(200)
	if large < small*5 {
		t.Fatalf("shipped postings should scale ~linearly: %d -> %d", small, large)
	}
}

func TestCentralizedSearch(t *testing.T) {
	ix := localindex.New(plain())
	ix.Add(0, "alpha beta common")
	ix.Add(1, "alpha common")
	ix.Add(2, "unrelated words")
	c := NewCentralized(ix)
	res := c.Search("alpha beta", 10)
	if len(res) != 2 || res[0].Doc != 0 {
		t.Fatalf("centralized results = %v", res)
	}
	res2 := c.SearchTerms([]string{"alpha", "beta"}, 10)
	if len(res2) != len(res) || res2[0] != res[0] {
		t.Fatalf("SearchTerms mismatch: %v vs %v", res2, res)
	}
}

// getOne reads one key as a batch of one.
func getOne(ix *globalindex.Index, terms []string) (globalindex.GetResult, error) {
	res, err := ix.MultiGet(context.Background(), []globalindex.GetItem{{Terms: terms}}, globalindex.ReadPrimary)
	return res[0], err
}

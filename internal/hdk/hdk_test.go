package hdk

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

func plainIndex() *localindex.Index {
	return localindex.New(textproc.NewAnalyzer(textproc.AnalyzerConfig{DisableStemming: true, NoStopwords: true}))
}

// buildCollection fills ix with documents constructed so that document
// frequencies are exactly controlled.
func buildCollection(ix *localindex.Index) {
	// aa and bb appear together (adjacent) in docs 0..2; aa alone in 3,
	// bb alone in 4; cc appears once (doc 0, far from aa/bb).
	docs := []string{
		"aa bb filler01 filler02 filler03 filler04 filler05 filler06 filler07 filler08 filler09 filler10 filler11 filler12 filler13 filler14 filler15 filler16 filler17 filler18 filler19 filler20 cc",
		"aa bb other words",
		"aa bb more words",
		"aa alone here",
		"bb alone there",
	}
	for i, d := range docs {
		ix.Add(uint32(i), d)
	}
}

func TestGenerateKeysBasic(t *testing.T) {
	ix := plainIndex()
	buildCollection(ix)
	cfg := Config{DFMax: 2, SMax: 3, Window: 5, TruncK: 10}
	keys := GenerateKeys(ix, cfg)

	// Every single term is indexed.
	for _, term := range []string{"aa", "bb", "cc", "alone"} {
		if _, ok := keys[term]; !ok {
			t.Errorf("single term %q missing", term)
		}
	}
	// aa (df 4) and bb (df 4) are frequent; they co-occur adjacently in 3
	// docs, so "aa bb" is generated with df 3.
	if df, ok := keys["aa bb"]; !ok || df != 3 {
		t.Errorf(`keys["aa bb"] = %d, %v; want 3, true`, df, ok)
	}
	// cc is rare (df 1): no key contains it beyond the single term.
	for k := range keys {
		if strings.Contains(k, "cc") && k != "cc" {
			t.Errorf("rare term expanded: %q", k)
		}
	}
	// "aa bb" has df 3 > DFmax 2 but no third frequent term co-occurs, so
	// no level-3 key exists.
	for k := range keys {
		if len(strings.Fields(k)) > 2 {
			t.Errorf("unexpected level-3 key %q", k)
		}
	}
}

func TestGenerateKeysWindowRestricts(t *testing.T) {
	ix := plainIndex()
	// aa and dd are both frequent (df 4 > DFmax 2) but always 21 tokens
	// apart.
	fillers := strings.Repeat("filler ", 20)
	for i := 0; i < 3; i++ {
		ix.Add(uint32(i), "aa "+fillers+"dd")
	}
	ix.Add(3, "aa solo")
	ix.Add(4, "dd solo")
	cfg := Config{DFMax: 2, SMax: 2, Window: 5, TruncK: 10}
	keys := GenerateKeys(ix, cfg)
	if _, ok := keys["aa dd"]; ok {
		t.Error(`"aa dd" must be excluded by the proximity window`)
	}
	// A wide window admits it.
	cfg.Window = 30
	keys = GenerateKeys(ix, cfg)
	if df, ok := keys["aa dd"]; !ok || df != 3 {
		t.Errorf(`wide window: keys["aa dd"] = %d, %v; want 3`, df, ok)
	}
}

func TestGenerateKeysLevel3(t *testing.T) {
	ix := plainIndex()
	// Three frequent terms co-occurring in 3 docs; DFmax 2 forces
	// expansion to the full triple.
	for i := 0; i < 3; i++ {
		ix.Add(uint32(i), "xx yy zz together")
	}
	ix.Add(3, "xx yy only")
	ix.Add(4, "xx zz only")
	ix.Add(5, "yy zz only")
	cfg := Config{DFMax: 2, SMax: 3, Window: 5, TruncK: 10}
	keys := GenerateKeys(ix, cfg)
	if df := keys["xx yy"]; df != 4 {
		t.Errorf(`df("xx yy") = %d, want 4`, df)
	}
	if df, ok := keys["xx yy zz"]; !ok || df != 3 {
		t.Errorf(`keys["xx yy zz"] = %d, %v; want 3`, df, ok)
	}
	// SMax stops expansion.
	cfg.SMax = 2
	keys = GenerateKeys(ix, cfg)
	if _, ok := keys["xx yy zz"]; ok {
		t.Error("SMax=2 must prevent level-3 keys")
	}
}

func TestGenerateKeysDFMonotone(t *testing.T) {
	// Superset keys never have higher df than their subsets.
	ix := plainIndex()
	rng := rand.New(rand.NewSource(8))
	vocab := []string{"t0", "t1", "t2", "t3", "t4"}
	for d := uint32(0); d < 60; d++ {
		var sb strings.Builder
		for w := 0; w < 8; w++ {
			sb.WriteString(vocab[rng.Intn(len(vocab))])
			sb.WriteByte(' ')
		}
		ix.Add(d, sb.String())
	}
	keys := GenerateKeys(ix, Config{DFMax: 5, SMax: 3, Window: 8, TruncK: 10})
	for k, df := range keys {
		terms := strings.Fields(k)
		if len(terms) < 2 {
			continue
		}
		for drop := range terms {
			sub := append(append([]string{}, terms[:drop]...), terms[drop+1:]...)
			subKey := strings.Join(sub, " ")
			if subDF, ok := keys[subKey]; ok && subDF < df {
				t.Fatalf("df(%q)=%d < df(%q)=%d violates monotonicity", subKey, subDF, k, df)
			}
		}
	}
}

// fleet wires count peers, each with a DHT node, a global index and a
// stats service, and returns everything plus a helper to finish stats.
type fleet struct {
	net    *transport.Mem
	nodes  []*dht.Node
	gidx   []*globalindex.Index
	stats  []*ranking.GlobalStats
	locals []*localindex.Index
}

func newFleet(t *testing.T, count int) *fleet { return newFleetWrapped(t, count, nil) }

// newFleetWrapped is newFleet with every peer's endpoint passed through
// wrap (nil = used as is).
func newFleetWrapped(t *testing.T, count int, wrap func(transport.Endpoint) transport.Endpoint) *fleet {
	t.Helper()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(77))
	f := &fleet{net: net}
	for i := 0; i < count; i++ {
		d := transport.NewDispatcher()
		ep := net.Endpoint(fmt.Sprintf("peer%d", i), d.Serve)
		if wrap != nil {
			ep = wrap(ep)
		}
		node := dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		f.nodes = append(f.nodes, node)
		gidx := globalindex.New(node, d)
		f.gidx = append(f.gidx, gidx)
		f.stats = append(f.stats, ranking.NewGlobalStats(gidx, d))
		f.locals = append(f.locals, plainIndex())
	}
	dht.BuildOracleTables(f.nodes)
	return f
}

func TestDistributedMatchesOracle(t *testing.T) {
	const peers = 4
	f := newFleet(t, peers)

	// A synthetic collection with enough co-occurrence to force
	// expansions; split round-robin over peers.
	rng := rand.New(rand.NewSource(5))
	vocab := []string{"p2p", "index", "query", "peer", "rank", "store", "rare1", "rare2"}
	merged := plainIndex()
	var texts []string
	for d := 0; d < 80; d++ {
		var sb strings.Builder
		for w := 0; w < 6; w++ {
			// The first 5 vocab entries are common, the rest rare.
			var term string
			if rng.Float64() < 0.9 {
				term = vocab[rng.Intn(5)]
			} else {
				term = vocab[5+rng.Intn(3)]
			}
			sb.WriteString(term)
			sb.WriteByte(' ')
		}
		texts = append(texts, sb.String())
	}
	for d, text := range texts {
		merged.Add(uint32(d), text)
		f.locals[d%peers].Add(uint32(d), text)
	}

	cfg := Config{DFMax: 10, SMax: 3, Window: 6, TruncK: 100}
	oracle := GenerateKeys(merged, cfg)

	// Publish statistics first (every peer, every doc).
	for i := 0; i < peers; i++ {
		for _, doc := range f.locals[i].Docs() {
			terms := f.locals[i].DocTerms(doc)
			if err := f.stats[i].PublishDocument(context.Background(), terms, f.locals[i].DocLen(doc)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Lockstep HDK rounds.
	pubs := make([]*Publisher, peers)
	for i := 0; i < peers; i++ {
		gs, err := f.stats[i].Fetch(context.Background(), f.locals[i].Terms())
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = NewPublisher(cfg, f.locals[i], f.gidx[i], gs, f.nodes[i].Self().Addr, nil)
		if err := pubs[i].PublishTerms(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < cfg.SMax-1; round++ {
		for i := 0; i < peers; i++ {
			if _, err := pubs[i].ExpandRound(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Collect the distributed index: every stored key with its approx DF.
	got := map[string]int{}
	for i := 0; i < peers; i++ {
		for _, k := range f.gidx[i].Store().Keys() {
			df, _ := f.gidx[i].Store().ApproxDF(k)
			got[k] += int(df)
		}
	}

	// Every oracle key with df > 0 must exist with the same df, and no
	// extra multi-term keys may appear.
	for k, df := range oracle {
		if got[k] != df {
			t.Errorf("key %q: distributed df %d, oracle %d", k, got[k], df)
		}
	}
	for k := range got {
		if _, ok := oracle[k]; !ok {
			t.Errorf("distributed index has unexpected key %q", k)
		}
	}
}

func TestPublisherTruncationAtStore(t *testing.T) {
	f := newFleet(t, 3)
	// One peer with many docs sharing one term; TruncK=5 must bound the
	// stored list while ApproxDF keeps the true count.
	for d := uint32(0); d < 20; d++ {
		f.locals[0].Add(d, fmt.Sprintf("common unique%d", d))
	}
	for _, doc := range f.locals[0].Docs() {
		if err := f.stats[0].PublishDocument(context.Background(), f.locals[0].DocTerms(doc), f.locals[0].DocLen(doc)); err != nil {
			t.Fatal(err)
		}
	}
	gs, err := f.stats[0].Fetch(context.Background(), f.locals[0].Terms())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{DFMax: 3, SMax: 2, Window: 5, TruncK: 5}
	pub := NewPublisher(cfg, f.locals[0], f.gidx[0], gs, f.nodes[0].Self().Addr, nil)
	if _, err := pub.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := getOne(f.gidx[1], []string{"common"})
	if err != nil || !got.Found {
		t.Fatalf("get common: %v %v", got.Found, err)
	}
	if list := got.List; list.Len() != 5 || !list.Truncated {
		t.Fatalf("stored list len=%d trunc=%v, want 5/true", list.Len(), list.Truncated)
	}
	info, err := f.gidx[1].MultiKeyInfo(context.Background(), []globalindex.KeyInfoItem{{Terms: []string{"common"}}})
	if err != nil {
		t.Fatal(err)
	}
	if df := info[0].DF; df != 20 {
		t.Fatalf("approx df = %d, want 20", df)
	}
}

func TestExpandRoundBeforePublishFails(t *testing.T) {
	f := newFleet(t, 2)
	pub := NewPublisher(Config{}, f.locals[0], f.gidx[0], &ranking.FixedStats{}, f.nodes[0].Self().Addr, nil)
	if _, err := pub.ExpandRound(context.Background()); err == nil {
		t.Fatal("ExpandRound before PublishTerms must fail")
	}
}

func TestPublishCapBoundsShippedPostings(t *testing.T) {
	f := newFleet(t, 2)
	for d := uint32(0); d < 50; d++ {
		f.locals[0].Add(d, "shared term")
	}
	gs := &ranking.FixedStats{N: 50, AvgLen: 2, DF: map[string]int64{"shared": 50, "term": 50}}
	cfg := Config{DFMax: 100, SMax: 2, Window: 5, TruncK: 10} // a peer ships at most TruncK per key
	pub := NewPublisher(cfg, f.locals[0], f.gidx[0], gs, f.nodes[0].Self().Addr, nil)
	if err := pub.PublishTerms(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := pub.Result()
	// 2 terms, each capped at 10 shipped postings.
	if res.PostingsPublished != 20 {
		t.Fatalf("shipped %d postings, want 20", res.PostingsPublished)
	}
}

// getOne reads one key as a batch of one.
func getOne(ix *globalindex.Index, terms []string) (globalindex.GetResult, error) {
	res, err := ix.MultiGet(context.Background(), []globalindex.GetItem{{Terms: terms}}, globalindex.ReadPrimary)
	return res[0], err
}

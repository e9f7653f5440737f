package sim

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/docs"
	"repro/internal/hdk"
	"repro/internal/localindex"
	"repro/internal/textproc"
)

// originHDK is the HDK setting of the per-origin tests: 120 documents
// over a 400-term vocabulary make a few dozen terms frequent.
var originHDK = hdk.Config{DFMax: 40, SMax: 3, Window: 10, TruncK: 300}

func originCollection() *corpus.Collection {
	return corpus.Generate(corpus.Params{NumDocs: 120, VocabSize: 400, Seed: 7})
}

// publishRound runs PublishIndex on every peer in turn.
func publishRound(t *testing.T, n *Network) {
	t.Helper()
	for i, p := range n.Peers {
		if _, err := p.PublishIndex(context.Background()); err != nil {
			t.Fatalf("peer %d publish: %v", i, err)
		}
	}
}

// indexState renders every store's content — each key's list bytes and
// its origins' DFs — as one string per peer. Sequence numbers are left
// out: every write advances them.
func indexState(n *Network) []string {
	out := make([]string, len(n.Peers))
	for i, p := range n.Peers {
		var b strings.Builder
		st := p.GlobalIndex().Store()
		for _, k := range st.Keys() {
			list, shares, _ := st.Export(k)
			fmt.Fprintf(&b, "%s:", k)
			for _, sh := range shares {
				fmt.Fprintf(&b, " %s=%d", sh.Origin, sh.DF)
			}
			fmt.Fprintf(&b, " %x\n", list.EncodeBytes())
		}
		out[i] = b.String()
	}
	return out
}

// storedKeys returns the distinct keys the network's stores hold.
func storedKeys(n *Network) []string {
	seen := make(map[string]bool)
	for _, p := range n.Peers {
		for _, k := range p.GlobalIndex().Store().Keys() {
			seen[k] = true
		}
	}
	return slices.Sorted(maps.Keys(seen))
}

// generatedKeys returns hdk.GenerateKeys's key set over ix.
func generatedKeys(ix *localindex.Index) []string {
	return slices.Sorted(maps.Keys(hdk.GenerateKeys(ix, originHDK)))
}

// TestOriginRepublishConverges pins that republishing an unchanged
// collection leaves the index as it is: 4 peers publishing 120
// documents one after another, round after round. A peer tests
// frequency against what is published when it runs — in round 1 the
// statistics of the peers before it, in round 2 the expansions they
// made from those — so each of the first rounds completes one more HDK
// level, and with SMax 3 the stores are a fixpoint from round 3 on:
// hdk.GenerateKeys's key set, byte for byte the same after round 4.
// Adding each announced DF instead grew the index every round.
func TestOriginRepublishConverges(t *testing.T) {
	n := NewNetwork(Options{NumPeers: 4, Seed: 7, Core: core.Config{HDK: originHDK}})
	c := originCollection()
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	var states [][]string
	for round := 1; round <= 4; round++ {
		publishRound(t, n)
		keys, post, _ := n.IndexStorage()
		t.Logf("round %d: %d keys, %d postings", round, keys, post)
		states = append(states, indexState(n))
	}
	for i := range n.Peers {
		if states[3][i] != states[2][i] {
			t.Fatalf("peer %d: round 4 of an unchanged collection changed its store", i)
		}
	}
	central := localindex.New(n.Peers[0].LocalIndex().Analyzer())
	for i, d := range c.Docs {
		central.Add(uint32(i), d.Title+"\n"+d.Body)
	}
	if got, want := storedKeys(n), generatedKeys(central); !slices.Equal(got, want) {
		t.Fatalf("the index holds %d keys, hdk.GenerateKeys %d", len(got), len(want))
	}
}

// TestOriginBatchedPublishMatchesGenerateKeys publishes one peer's
// collection in four batches, the way a writer adds documents: after
// each PublishIndex the index holds exactly hdk.GenerateKeys's key set
// over the documents so far.
func TestOriginBatchedPublishMatchesGenerateKeys(t *testing.T) {
	n := NewNetwork(Options{NumPeers: 4, Seed: 7, Core: core.Config{HDK: originHDK}})
	writer := n.Peers[0]
	c := originCollection()
	for batch := 0; batch < 4; batch++ {
		for _, d := range c.Docs[30*batch : 30*(batch+1)] {
			if _, err := writer.AddDocument(docFromCorpus(d)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := writer.PublishIndex(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := storedKeys(n), generatedKeys(writer.LocalIndex()); !slices.Equal(got, want) {
			t.Fatalf("batch %d: the index holds %d keys, hdk.GenerateKeys %d", batch+1, len(got), len(want))
		}
	}
}

// TestOriginRemovedDocumentLeavesIndex pins withdrawal: after
// RemoveDocument and one PublishIndex of its peer, no store holds a
// posting of the document and no search names it — including the
// single-term searches that found it before.
func TestOriginRemovedDocumentLeavesIndex(t *testing.T) {
	n := NewNetwork(Options{NumPeers: 4, Seed: 7, Core: core.Config{HDK: originHDK}})
	c := originCollection()
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	publishRound(t, n)
	publishRound(t, n)
	const victim = 5
	ref := n.RefOf[victim]
	host := n.Peers[victim%len(n.Peers)]
	queries := textproc.Default.UniqueTerms(c.Docs[victim].Body)
	names := func() (hits int) {
		for _, q := range queries {
			resp, err := n.Peers[2].Search(context.Background(), q, core.WithTopK(300))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range resp.Results {
				if r.Ref == ref {
					hits++
				}
			}
		}
		return hits
	}
	if names() == 0 {
		t.Fatal("fixture broken: no search of the document's terms finds it")
	}
	if err := host.RemoveDocument(context.Background(), ref.Doc); err != nil {
		t.Fatal(err)
	}
	if _, err := host.PublishIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, p := range n.Peers {
		st := p.GlobalIndex().Store()
		for _, k := range st.Keys() {
			l, _ := st.Peek(k)
			for _, e := range l.Entries {
				if e.Ref == ref {
					t.Fatalf("key %q still holds the removed document", k)
				}
			}
		}
	}
	if hits := names(); hits != 0 {
		t.Fatalf("%d searches still name the removed document", hits)
	}
}

// TestOriginStaleScoreComesDown pins that a republished posting carries
// its current score: a document published while it was the only one
// with its term scores high; once other documents share the term, its
// BM25 score falls, and its peer's next publish replaces the stored
// score with the lower one instead of keeping the higher.
func TestOriginStaleScoreComesDown(t *testing.T) {
	ctx := context.Background()
	n := NewNetwork(Options{NumPeers: 4, Seed: 7, Core: core.Config{HDK: originHDK}})
	doc := func(p *core.Peer, body string) uint32 {
		t.Helper()
		d, err := p.AddDocument(&docs.Document{Name: body, Body: body, Access: docs.Access{Public: true}})
		if err != nil {
			t.Fatal(err)
		}
		return d.ID
	}
	first := n.Peers[0]
	id := doc(first, "zebra quilt marble")
	key := textproc.Default.UniqueTerms("zebra")[0]
	stored := func() float64 {
		t.Helper()
		for _, p := range n.Peers {
			if l, ok := p.GlobalIndex().Store().Peek(key); ok {
				for _, e := range l.Entries {
					if e.Ref.Peer == first.Addr() && e.Ref.Doc == id {
						return e.Score
					}
				}
			}
		}
		t.Fatalf("no store holds the document under %q", key)
		return 0
	}
	if _, err := first.PublishIndex(ctx); err != nil {
		t.Fatal(err)
	}
	before := stored()
	for i := 0; i < 10; i++ {
		doc(n.Peers[1], fmt.Sprintf("zebra lantern river%d", i))
	}
	if _, err := n.Peers[1].PublishIndex(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := first.PublishIndex(ctx); err != nil {
		t.Fatal(err)
	}
	stats, err := first.GlobalStats().Fetch(ctx, []string{key})
	if err != nil {
		t.Fatal(err)
	}
	want := first.LocalIndex().ScoreDoc(id, []string{key}, stats)
	if after := stored(); after != want || !(after < before) {
		t.Fatalf("stored score %v after the statistics moved, want the current %v (below the first %v)", after, want, before)
	}
}

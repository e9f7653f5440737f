package alvisp2p_test

// Determinism regressions for the concurrent publish/search pipeline:
// with identical inputs, a network fanning its batch frames out eight
// wide (Config.Concurrency 8) must be indistinguishable — global index
// state, ranked results, traces — from one sending the same frames one
// at a time (Concurrency 1).

import (
	"context"

	"fmt"
	"reflect"
	"testing"

	alvisp2p "repro"
	"repro/internal/corpus"
)

// publishCorpusNetwork builds a fresh ring of nPeers, spreads a
// deterministic synthetic collection over them round-robin, and
// publishes every peer's index.
func publishCorpusNetwork(t *testing.T, nPeers int, cfg alvisp2p.Config) []*alvisp2p.Peer {
	t.Helper()
	peers := buildNetwork(t, nPeers, cfg)
	coll := corpus.Generate(corpus.Params{NumDocs: 60, VocabSize: 300, MeanDocLen: 30, Seed: 42})
	for i, d := range coll.Docs {
		if _, err := peers[i%nPeers].AddFile(d.Name+".txt", []byte(d.Title+"\n"+d.Body)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		if err := p.PublishIndex(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// globalIndexFingerprint renders the whole network's global index state
// (per peer: stored keys, lengths, truncation marks) as one string.
func globalIndexFingerprint(peers []*alvisp2p.Peer) string {
	out := ""
	for _, p := range peers {
		store := p.Core().GlobalIndex().Store()
		for _, k := range store.Keys() {
			l, _ := store.Peek(k)
			df, _ := store.ApproxDF(k)
			out += fmt.Sprintf("%s|%s|len=%d|trunc=%v|df=%d\n", p.Addr(), k, l.Len(), l.Truncated, df)
		}
	}
	return out
}

func determinismConfig(concurrency int) alvisp2p.Config {
	return alvisp2p.Config{
		HDK:         alvisp2p.HDKConfig{DFMax: 8, SMax: 3, Window: 12, TruncK: 15},
		Concurrency: concurrency,
	}
}

// TestRepublishAfterJoinReachesNewResponsiblePeer pins a staleness bug
// found driving the TCP binary: a peer that published as a single-node
// ring had warmed its batch-resolver cache with "I own everything"; when
// a second peer joined, republishing kept storing every key at the first
// peer (the cached route still answered), so searches from the joiner
// missed keys the joiner now owned. The resolver must notice the ring
// change and re-resolve.
func TestRepublishAfterJoinReachesNewResponsiblePeer(t *testing.T) {
	net := alvisp2p.NewInMemoryNetwork()
	cfg := alvisp2p.Config{HDK: alvisp2p.HDKConfig{DFMax: 3, SMax: 2, TruncK: 20}}
	a, err := net.NewPeer("first", cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Publish a spread of distinct terms while alone in the ring.
	for i := 0; i < 12; i++ {
		text := fmt.Sprintf("uniqueterm%02d appears in this document about overlays", i)
		if _, err := a.AddFile(fmt.Sprintf("d%02d.txt", i), []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.PublishIndex(context.Background()); err != nil {
		t.Fatal(err)
	}

	b, err := net.NewPeer("second", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Join(context.Background(), a.Addr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		a.Maintain(context.Background())
		b.Maintain(context.Background())
	}
	// Republish now that responsibility is split between two peers.
	if err := a.PublishIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Every term must be findable from the joiner, and the joiner must
	// actually own part of the index (the migrated keys).
	for i := 0; i < 12; i++ {
		q := fmt.Sprintf("uniqueterm%02d", i)
		bresp, err := b.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(bresp.Results) == 0 {
			t.Fatalf("query %q found nothing after republish", q)
		}
	}
	if b.Stats().GlobalKeys == 0 {
		t.Fatal("no keys migrated to the joiner; fixture proves nothing")
	}
}

func TestParallelPublishIndexStateMatchesSequential(t *testing.T) {
	seq := publishCorpusNetwork(t, 6, determinismConfig(1))
	par := publishCorpusNetwork(t, 6, determinismConfig(8))
	seqFP, parFP := globalIndexFingerprint(seq), globalIndexFingerprint(par)
	if seqFP != parFP {
		t.Fatalf("global index state diverged:\n--- sequential ---\n%s--- parallel ---\n%s", seqFP, parFP)
	}
	if seqFP == "" {
		t.Fatal("fixture published nothing")
	}
}

func TestParallelSearchMatchesSequential(t *testing.T) {
	seq := publishCorpusNetwork(t, 6, determinismConfig(1))
	par := publishCorpusNetwork(t, 6, determinismConfig(8))

	queries := []string{
		"term0001 term0002",
		"term0003 term0010 term0025",
		"term0000 term0001 term0002 term0004",
		"term0042",
		"term0005 nosuchterm",
	}
	sawResults := false
	for qi, q := range queries {
		for pi := range seq {
			seqResp, err := seq[pi].Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			parResp, err := par[pi].Search(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			seqRes, seqTrace := seqResp.Results, seqResp.Trace
			parRes, parTrace := parResp.Results, parResp.Trace
			if !reflect.DeepEqual(seqRes, parRes) {
				t.Fatalf("query %d from peer %d: results diverged:\nseq: %+v\npar: %+v", qi, pi, seqRes, parRes)
			}
			// Span trees carry wall-clock timings, so the determinism
			// contract covers the counters only.
			seqCounters, parCounters := *seqTrace, *parTrace
			seqCounters.Spans, parCounters.Spans = nil, nil
			if !reflect.DeepEqual(seqCounters, parCounters) {
				t.Fatalf("query %d from peer %d: traces diverged:\nseq: %+v\npar: %+v", qi, pi, seqCounters, parCounters)
			}
			if len(seqRes) > 0 {
				sawResults = true
			}
		}
	}
	if !sawResults {
		t.Fatal("fixture too small: no query returned results")
	}
}

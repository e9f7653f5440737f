package alvisp2p_test

// Determinism regressions for the concurrent publish/search pipeline:
// with identical inputs, a network fanning its batch frames out
// concurrently must be indistinguishable — global index state, ranked
// results, traces — from one whose peers send the same frames one at a
// time, and from a second independent concurrent run.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	alvisp2p "repro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ids"
	"repro/internal/transport"
)

// serialEndpoint lets its peer have at most one call in flight: each
// Call waits until the previous one has returned.
type serialEndpoint struct {
	transport.Endpoint
	mu sync.Mutex
}

func (e *serialEndpoint) Call(ctx context.Context, to transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Endpoint.Call(ctx, to, msgType, body)
}

// buildSerialNetwork is buildNetwork over endpoints that send one frame
// at a time. Peers get the same generated addresses, hence the same
// ring positions, as buildNetwork's.
func buildSerialNetwork(t *testing.T, count int, cfg alvisp2p.Config) []*core.Peer {
	t.Helper()
	mem := transport.NewMem()
	peers := make([]*core.Peer, count)
	for i := range peers {
		d := transport.NewDispatcher()
		ep := &serialEndpoint{Endpoint: mem.Endpoint("", d.Serve)}
		p, err := core.OpenPeer(ids.HashString(string(ep.Addr())), ep, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		if i > 0 {
			if err := p.Join(context.Background(), peers[0].Addr()); err != nil {
				t.Fatal(err)
			}
			for _, q := range peers[:i+1] {
				q.Maintain(context.Background())
			}
		}
	}
	for round := 0; round < 8; round++ {
		for _, p := range peers {
			p.Maintain(context.Background())
		}
	}
	return peers
}

// publishCorpusNetwork builds a fresh ring of nPeers (with serial set,
// one whose peers send one frame at a time), spreads a deterministic
// synthetic collection over them round-robin, and publishes every
// peer's index.
func publishCorpusNetwork(t *testing.T, nPeers int, cfg alvisp2p.Config, serial bool) []*core.Peer {
	t.Helper()
	var peers []*core.Peer
	if serial {
		peers = buildSerialNetwork(t, nPeers, cfg)
	} else {
		for _, p := range buildNetwork(t, nPeers, cfg) {
			peers = append(peers, p.Core())
		}
	}
	coll := corpus.Generate(corpus.Params{NumDocs: 60, VocabSize: 300, MeanDocLen: 30, Seed: 42})
	for i, d := range coll.Docs {
		if _, err := peers[i%nPeers].AddFile(d.Name+".txt", []byte(d.Title+"\n"+d.Body)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		if _, err := p.PublishIndex(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

// globalIndexFingerprint renders the whole network's global index state
// (per peer: stored keys, lengths, truncation marks) as one string.
func globalIndexFingerprint(peers []*core.Peer) string {
	out := ""
	for _, p := range peers {
		store := p.GlobalIndex().Store()
		for _, k := range store.Keys() {
			l, _ := store.Peek(k)
			df, _ := store.ApproxDF(k)
			out += fmt.Sprintf("%s|%s|len=%d|trunc=%v|df=%d\n", p.Addr(), k, l.Len(), l.Truncated, df)
		}
	}
	return out
}

var determinismConfig = alvisp2p.Config{HDK: alvisp2p.HDKConfig{DFMax: 8, SMax: 3, Window: 12, TruncK: 15}}

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
	seq := publishCorpusNetwork(t, 6, determinismConfig, true)
	seqFP := globalIndexFingerprint(seq)
	if seqFP == "" {
		t.Fatal("fixture published nothing")
	}
	for run := 1; run <= 2; run++ {
		par := publishCorpusNetwork(t, 6, determinismConfig, false)
		if parFP := globalIndexFingerprint(par); seqFP != parFP {
			t.Fatalf("run %d: global index state diverged:\n--- sequential ---\n%s--- parallel ---\n%s", run, seqFP, parFP)
		}
	}
}

func TestParallelSearchMatchesSequential(t *testing.T) {
	seq := publishCorpusNetwork(t, 6, determinismConfig, true)
	parA := publishCorpusNetwork(t, 6, determinismConfig, false)
	parB := publishCorpusNetwork(t, 6, determinismConfig, false)

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
			// Span trees carry wall-clock timings, so the determinism
			// contract covers the counters only.
			seqCounters := *seqResp.Trace
			seqCounters.Spans = nil
			for run, par := range [][]*core.Peer{parA, parB} {
				parResp, err := par[pi].Search(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seqResp.Results, parResp.Results) {
					t.Fatalf("query %d from peer %d, run %d: results diverged:\nseq: %+v\npar: %+v", qi, pi, run+1, seqResp.Results, parResp.Results)
				}
				parCounters := *parResp.Trace
				parCounters.Spans = nil
				if !reflect.DeepEqual(seqCounters, parCounters) {
					t.Fatalf("query %d from peer %d, run %d: traces diverged:\nseq: %+v\npar: %+v", qi, pi, run+1, seqCounters, parCounters)
				}
			}
			if len(seqResp.Results) > 0 {
				sawResults = true
			}
		}
	}
	if !sawResults {
		t.Fatal("fixture too small: no query returned results")
	}
}

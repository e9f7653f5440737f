package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/globalindex"
	"repro/internal/postings"
)

// Streamed searches carry the threshold algorithm's contract: the
// returned top-k result SET equals a one-shot whole-list search's (modulo
// documents tied at the k-th score, where either resolution is valid),
// and every reported score is a sound lower bound of the document's
// exact aggregate — a streamed score never exceeds the exact one beyond
// the chunks' quantization error (~2^-21 relative, floored). In-set rank
// order may differ for near-tied documents: scores inside the top k stop
// refining once the set is proven fixed.
func TestStreamingSearchMatchesDefault(t *testing.T) {
	n := smallHDKNet(t)
	w := corpus.GenerateWorkload(n.Collection, corpus.WorkloadParams{NumQueries: 25, MaxTerms: 3, Seed: 31})
	peer := n.Peers[1]
	tol := func(s float64) float64 { return 1e-4 * math.Max(1, s) }
	for qi, q := range w.Queries {
		// A one-shot search with a cap no list reaches yields every
		// candidate's score (capped reads travel compressed: exact to
		// within the codec's 2^-21, far inside tol).
		all, err := peer.Search(context.Background(), q.Text(), core.WithTopK(100000))
		if err != nil {
			t.Fatalf("query %d classic: %v", qi, err)
		}
		streamed, err := peer.Search(context.Background(), q.Text(), core.WithStreaming(true))
		if err != nil {
			t.Fatalf("query %d streamed: %v", qi, err)
		}
		k := 20 // the fixture's configured TopK
		classicTop := all.Results
		if len(classicTop) > k {
			classicTop = classicTop[:k]
		}
		if len(streamed.Results) != len(classicTop) {
			t.Fatalf("query %d (%q): %d streamed results vs %d classic",
				qi, q.Text(), len(streamed.Results), len(classicTop))
		}
		if len(classicTop) == 0 {
			continue
		}
		exact := map[postings.DocRef]float64{}
		for _, r := range all.Results {
			exact[r.Ref] = r.Score
		}
		boundary := classicTop[len(classicTop)-1].Score
		inStreamed := map[postings.DocRef]bool{}
		for i, r := range streamed.Results {
			inStreamed[r.Ref] = true
			want, ok := exact[r.Ref]
			if !ok {
				t.Fatalf("query %d (%q): streamed result %v not a classic candidate", qi, q.Text(), r.Ref)
			}
			if r.Score > want+tol(want) {
				t.Fatalf("query %d (%q) rank %d: streamed score %.9f exceeds exact %.9f",
					qi, q.Text(), i, r.Score, want)
			}
			// Set membership: every streamed hit must truly belong in the
			// top k — its exact score reaches the classic k-th score.
			if want < boundary-tol(boundary) {
				t.Fatalf("query %d (%q): streamed %v exact score %.6f below boundary %.6f",
					qi, q.Text(), r.Ref, want, boundary)
			}
		}
		for _, c := range classicTop {
			if !inStreamed[c.Ref] && c.Score > boundary+tol(boundary) {
				t.Fatalf("query %d (%q): %v (%.6f) above the boundary %.6f missing from streamed results",
					qi, q.Text(), c.Ref, c.Score, boundary)
			}
		}
	}
}

// topkFamily sums one alvis_index_topk_* family on a peer's registry.
func topkFamily(t *testing.T, p *core.Peer, name string) float64 {
	t.Helper()
	for _, f := range p.Telemetry().Gather() {
		if f.Name == name {
			var sum float64
			for _, s := range f.Samples {
				sum += s.Value
			}
			return sum
		}
	}
	t.Fatalf("family %q not registered", name)
	return 0
}

// Config.StreamTopK flips the default read shape — observable through
// the coordinator-side topk counters — and WithStreaming(false) opts a
// single query back out.
func TestStreamingConfigDefaultAndOverride(t *testing.T) {
	cfg := hdkTestCfg
	cfg.StreamTopK = true
	n := publishedNet(t, 6, cfg)
	peer := n.Peers[0]

	if _, err := peer.Search(context.Background(), "term0000 term0001", core.WithTopK(5)); err != nil {
		t.Fatal(err)
	}
	saved := topkFamily(t, peer, "alvis_index_topk_bytes_saved_total")
	if saved <= 0 {
		t.Fatalf("StreamTopK default did not stream: bytes saved %v", saved)
	}

	// Opting the query out must leave the streamed-read counters alone.
	if _, err := peer.Search(context.Background(), "term0000 term0001",
		core.WithTopK(5), core.WithStreaming(false)); err != nil {
		t.Fatal(err)
	}
	if after := topkFamily(t, peer, "alvis_index_topk_bytes_saved_total"); after != saved {
		t.Fatalf("WithStreaming(false) still streamed: %v -> %v", saved, after)
	}
}

// A non-streamed search goes through the same session as a streamed one,
// so the posting-prefix cache works for it: with the result cache
// bypassed, a repeated query is served from cached prefixes and sends no
// index read frame at all.
func TestOneShotSearchUsesPrefixCache(t *testing.T) {
	cfg := hdkTestCfg
	cfg.PrefixCache = 64 // StreamTopK stays off
	n := publishedNet(t, 6, cfg)
	peer := n.Peers[0]
	const query = "term0000 term0001"

	first, err := peer.Search(context.Background(), query, core.WithResultCache(false))
	if err != nil || len(first.Results) == 0 {
		t.Fatalf("first search: %d results, %v", len(first.Results), err)
	}
	hits := peer.GlobalIndex().PrefixCacheStats().Hits
	before := n.Net.Meter().Snapshot()
	again, err := peer.Search(context.Background(), query, core.WithResultCache(false))
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Net.Meter().Snapshot().Sub(before).PerType[globalindex.MsgRead].Messages; got != 0 {
		t.Fatalf("repeated one-shot search sent %d read messages, want 0", got)
	}
	if got := peer.GlobalIndex().PrefixCacheStats().Hits - hits; got == 0 {
		t.Fatal("repeated one-shot search recorded no prefix-cache hit")
	}
	if len(again.Results) != len(first.Results) {
		t.Fatalf("cached search returned %d results, fetched %d", len(again.Results), len(first.Results))
	}
	for i := range first.Results {
		if again.Results[i].Ref != first.Results[i].Ref || again.Results[i].Score != first.Results[i].Score {
			t.Fatalf("result %d: cached %+v, fetched %+v", i, again.Results[i], first.Results[i])
		}
	}
}

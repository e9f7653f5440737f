package hdk

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/globalindex"
)

// publishFleet runs the full lockstep HDK publication over a fresh fleet
// holding the given texts (round-robin over peers) with the given config,
// and returns the fleet plus per-peer publisher results.
func publishFleet(t *testing.T, peers int, texts []string, cfg Config) (*fleet, []Result) {
	t.Helper()
	f := newFleet(t, peers)
	for d, text := range texts {
		f.locals[d%peers].Add(uint32(d), text)
	}
	for i := 0; i < peers; i++ {
		for _, doc := range f.locals[i].Docs() {
			if err := f.stats[i].PublishDocument(context.Background(), f.locals[i].DocTerms(doc), f.locals[i].DocLen(doc)); err != nil {
				t.Fatal(err)
			}
		}
	}
	pubs := make([]*Publisher, peers)
	for i := 0; i < peers; i++ {
		gs, err := f.stats[i].Fetch(context.Background(), f.locals[i].Terms())
		if err != nil {
			t.Fatal(err)
		}
		pubs[i] = NewPublisher(cfg, f.locals[i], f.gidx[i], gs, f.nodes[i].Self().Addr)
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
	results := make([]Result, peers)
	for i := range pubs {
		results[i] = pubs[i].Result()
	}
	return f, results
}

// indexFingerprint renders every peer's store content (keys, stored
// lengths, truncation marks, approximate DFs) as one comparable string.
func indexFingerprint(f *fleet) string {
	var sb strings.Builder
	for i, ix := range f.gidx {
		for _, k := range ix.Store().Keys() {
			l, _ := ix.Store().Peek(k)
			df, _ := ix.Store().ApproxDF(k)
			fmt.Fprintf(&sb, "peer%d|%s|len=%d|trunc=%v|df=%d\n", i, k, l.Len(), l.Truncated, df)
		}
	}
	return sb.String()
}

// corpusTexts generates a synthetic collection with enough co-occurrence
// to force multi-level expansions.
func corpusTexts(docs int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"p2p", "index", "query", "peer", "rank", "store", "rare1", "rare2", "rare3"}
	texts := make([]string, docs)
	for d := range texts {
		var sb strings.Builder
		for w := 0; w < 7; w++ {
			var term string
			if rng.Float64() < 0.85 {
				term = vocab[rng.Intn(5)]
			} else {
				term = vocab[5+rng.Intn(4)]
			}
			sb.WriteString(term)
			sb.WriteByte(' ')
		}
		texts[d] = sb.String()
	}
	return texts
}

// TestParallelPublishMatchesSequential is the publication determinism
// regression: fan-out width eight must leave byte-identical global index
// state and identical publisher counters to width one.
func TestParallelPublishMatchesSequential(t *testing.T) {
	texts := corpusTexts(90, 11)
	cfg := Config{DFMax: 10, SMax: 3, Window: 7, TruncK: 20}

	seqCfg := cfg
	seqCfg.Concurrency = 1
	seqFleet, seqRes := publishFleet(t, 5, texts, seqCfg)

	parCfg := cfg
	parCfg.Concurrency = 8
	parFleet, parRes := publishFleet(t, 5, texts, parCfg)

	for i := range seqRes {
		if seqRes[i] != parRes[i] {
			t.Errorf("peer %d result: sequential %+v parallel %+v", i, seqRes[i], parRes[i])
		}
	}
	seqFP, parFP := indexFingerprint(seqFleet), indexFingerprint(parFleet)
	if seqFP != parFP {
		t.Fatalf("global index state diverged:\n--- sequential ---\n%s--- parallel ---\n%s", seqFP, parFP)
	}
	if !strings.Contains(seqFP, "trunc=true") {
		t.Fatal("fixture too small: no truncated list exercised")
	}
}

// TestPublishWidthSendsSameFrames pins what Concurrency = 1 means: the
// same batch frames as any other width, one at a time — not a per-key
// protocol of its own.
func TestPublishWidthSendsSameFrames(t *testing.T) {
	texts := corpusTexts(90, 12)
	cfg := Config{DFMax: 10, SMax: 3, Window: 7, TruncK: 20}
	frames := func(width int) (appends, probes int64) {
		wcfg := cfg
		wcfg.Concurrency = width
		f, _ := publishFleet(t, 5, texts, wcfg)
		per := f.net.Meter().Snapshot().PerType
		return per[globalindex.MsgMultiAppend].Messages, per[globalindex.MsgMultiKeyInfo].Messages
	}
	a1, p1 := frames(1)
	a8, p8 := frames(8)
	if a1 == 0 || p1 == 0 {
		t.Fatalf("fixture too small: %d append and %d probe frames", a1, p1)
	}
	if a1 != a8 || p1 != p8 {
		t.Fatalf("width 1 sent %d MultiAppend / %d MultiKeyInfo messages, width 8 sent %d / %d", a1, p1, a8, p8)
	}
}

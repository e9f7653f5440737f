package hdk

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/globalindex"
	"repro/internal/transport"
)

// serialEndpoint lets its peer have at most one call in flight: each
// Call waits until the previous one has returned. Under it a batch
// fan-out sends the same frames one at a time — the sequential
// reference the concurrent fan-out must be indistinguishable from.
type serialEndpoint struct {
	transport.Endpoint
	mu sync.Mutex
}

func (e *serialEndpoint) Call(ctx context.Context, to transport.Addr, msgType uint8, body []byte) (uint8, []byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Endpoint.Call(ctx, to, msgType, body)
}

func serialize(ep transport.Endpoint) transport.Endpoint { return &serialEndpoint{Endpoint: ep} }

// publishFleet runs the full lockstep HDK publication over a fresh fleet
// holding the given texts (round-robin over peers) with the given config,
// and returns the fleet plus per-peer publisher results. With serial set
// every peer sends one frame at a time.
func publishFleet(t *testing.T, peers int, texts []string, cfg Config, serial bool) (*fleet, []Result) {
	t.Helper()
	var wrap func(transport.Endpoint) transport.Endpoint
	if serial {
		wrap = serialize
	}
	f := newFleetWrapped(t, peers, wrap)
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

// publishFrames counts the batch frames a fleet's publication sent.
func publishFrames(f *fleet) (appends, probes int64) {
	per := f.net.Meter().Snapshot().PerType
	return per[globalindex.MsgMultiAppend].Messages, per[globalindex.MsgMultiKeyInfo].Messages
}

// TestParallelPublishMatchesSequential is the publication determinism
// regression: a lockstep publication fanning its batch frames out
// concurrently must leave byte-identical global index state and
// identical publisher counters to one whose peers send every frame one
// at a time, and to a second independent concurrent run.
func TestParallelPublishMatchesSequential(t *testing.T) {
	texts := corpusTexts(90, 11)
	cfg := Config{DFMax: 10, SMax: 3, Window: 7, TruncK: 20}
	seqFleet, seqRes := publishFleet(t, 5, texts, cfg, true)
	seqFP := indexFingerprint(seqFleet)
	if !strings.Contains(seqFP, "trunc=true") {
		t.Fatal("fixture too small: no truncated list exercised")
	}
	for run := 1; run <= 2; run++ {
		parFleet, parRes := publishFleet(t, 5, texts, cfg, false)
		for i := range seqRes {
			if seqRes[i] != parRes[i] {
				t.Errorf("run %d, peer %d result: sequential %+v parallel %+v", run, i, seqRes[i], parRes[i])
			}
		}
		if parFP := indexFingerprint(parFleet); seqFP != parFP {
			t.Fatalf("run %d: global index state diverged:\n--- sequential ---\n%s--- parallel ---\n%s", run, seqFP, parFP)
		}
	}
}

// TestPublishWidthSendsSameFrames pins that the fan-out changes only
// when frames leave, never which: a publication whose peers send one
// frame at a time and two concurrent runs send the same numbers of
// MsgMultiAppend and MsgMultiKeyInfo frames — not a per-key protocol of
// their own.
func TestPublishWidthSendsSameFrames(t *testing.T) {
	texts := corpusTexts(90, 12)
	cfg := Config{DFMax: 10, SMax: 3, Window: 7, TruncK: 20}
	seqFleet, _ := publishFleet(t, 5, texts, cfg, true)
	a1, p1 := publishFrames(seqFleet)
	if a1 == 0 || p1 == 0 {
		t.Fatalf("fixture too small: %d append and %d probe frames", a1, p1)
	}
	for run := 1; run <= 2; run++ {
		parFleet, _ := publishFleet(t, 5, texts, cfg, false)
		if a, p := publishFrames(parFleet); a1 != a || p1 != p {
			t.Fatalf("sequential sent %d MultiAppend / %d MultiKeyInfo messages, parallel run %d sent %d / %d", a1, p1, run, a, p)
		}
	}
}

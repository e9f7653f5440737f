package core_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hdk"
	"repro/internal/leakcheck"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/transport"
)

// presentNet builds a private published 8-peer network whose index keys
// live on three copies, so a search still reads every key with one
// peer down; documents spread round-robin, so a top-20 answer is hosted
// on most peers.
func presentNet(t *testing.T) *sim.Network {
	t.Helper()
	n := sim.NewNetwork(sim.Options{NumPeers: 8, Seed: 91, Core: core.Config{
		Strategy:          core.StrategyHDK,
		HDK:               hdk.Config{DFMax: 20, SMax: 3, Window: 30, TruncK: 50},
		TopK:              20,
		ReplicationFactor: 3,
	}})
	c := corpus.Generate(corpus.Params{NumDocs: 200, VocabSize: 300, MeanDocLen: 40, Seed: 92})
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishStats(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.PublishHDK(); err != nil {
		t.Fatal(err)
	}
	return n
}

const presentQuery = "term0000 term0001"

// remoteHosts counts the peers other than self hosting the results.
func remoteHosts(results []core.Result, self transport.Addr) int {
	hosts := map[transport.Addr]bool{}
	for _, r := range results {
		if r.Ref.Peer != self {
			hosts[r.Ref.Peer] = true
		}
	}
	return len(hosts)
}

// checkPresented compares a presented answer with the unpresented
// ranking want (same refs, bit-identical scores, same order) and each
// title with the hosting peer's stored document.
func checkPresented(t *testing.T, n *sim.Network, got, want []core.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	byAddr := map[transport.Addr]*core.Peer{}
	for _, p := range n.Peers {
		byAddr[p.Addr()] = p
	}
	for i, r := range got {
		if r.Ref != want[i].Ref || math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("result %d: %v %v, want %v %v", i, r.Ref, r.Score, want[i].Ref, want[i].Score)
		}
		doc := byAddr[r.Ref.Peer].Documents().Get(r.Ref.Doc)
		if doc == nil || r.Title != doc.Title || r.Snippet == "" || r.URL == "" {
			t.Fatalf("result %d (%v) presented as %+v", i, r.Ref, r)
		}
	}
}

// TestPresentationIsOneRound: with every call paying latency L and the
// results hosted on N ≥ 4 other peers, presentation costs about one L,
// not N of them, and presents exactly the ranking the search computed.
func TestPresentationIsOneRound(t *testing.T) {
	n := presentNet(t)
	p := n.Peers[0]
	ranking, err := p.Search(context.Background(), presentQuery)
	if err != nil {
		t.Fatal(err)
	}
	hosts := remoteHosts(ranking.Results, p.Addr())
	if hosts < 4 {
		t.Fatalf("results hosted on %d other peers, want at least 4", hosts)
	}
	checkPresented(t, n, ranking.Results, ranking.Results)

	const latency = 40 * time.Millisecond
	n.Net.SetLatency(latency)
	defer n.Net.SetLatency(0)
	resp, err := p.Search(context.Background(), presentQuery)
	if err != nil {
		t.Fatal(err)
	}
	present := resp.Trace.Spans.Find("present").Duration()
	if present >= 2*latency {
		t.Fatalf("presentation over %d hosting peers took %s, want one round of %s (one call each in turn: %s)",
			hosts, present, latency, time.Duration(hosts)*latency)
	}
	checkPresented(t, n, resp.Results, ranking.Results)
}

// TestPresentationDegradesPerPeer: a hosting peer that is down presents
// its references as "(peer unavailable)" while every other peer's
// results keep their titles, and a document withdrawn from its host
// after publication presents as "(document withdrawn)". Refs, scores
// and order stay those of the ranking.
func TestPresentationDegradesPerPeer(t *testing.T) {
	n := presentNet(t)
	p := n.Peers[0]
	ranking, err := p.Search(context.Background(), presentQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := ranking.Results
	var down, host transport.Addr
	var withdrawn core.Result
	for _, r := range want {
		switch {
		case r.Ref.Peer == p.Addr():
		case down == "":
			down = r.Ref.Peer
		case r.Ref.Peer != down && host == "":
			host, withdrawn = r.Ref.Peer, r
		}
	}
	if host == "" {
		t.Fatal("results hosted on fewer than two other peers")
	}
	for _, q := range n.Peers {
		if q.Addr() == host && !q.Documents().Remove(withdrawn.Ref.Doc) {
			t.Fatalf("withdrawing %v failed", withdrawn.Ref)
		}
	}
	n.Net.SetDown(down, true)
	defer n.Net.SetDown(down, false)

	resp, err := p.Search(context.Background(), presentQuery)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Ref != want[i].Ref || math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("result %d: %v %v, want %v %v", i, r.Ref, r.Score, want[i].Ref, want[i].Score)
		}
		switch {
		case r.Ref.Peer == down:
			if r.Title != "(peer unavailable)" {
				t.Fatalf("result %d on the down peer presented as %q", i, r.Title)
			}
		case r.Ref == withdrawn.Ref:
			if r.Title != "(document withdrawn)" {
				t.Fatalf("withdrawn result %d presented as %q", i, r.Title)
			}
		default:
			if r.Title != want[i].Title || r.Snippet != want[i].Snippet || r.URL != want[i].URL {
				t.Fatalf("result %d presented as %+v, want %+v", i, r, want[i])
			}
		}
	}
}

// TestPresentationDeadlineKeepsRanking: a deadline that expires inside
// the presentation round still returns the whole ranking, refs and
// scores bit-identical, marked partial with ErrPartialResults. The one
// hosting peer that had not answered by then presents its references as
// "(peer unavailable)"; every other peer's results keep their titles.
func TestPresentationDeadlineKeepsRanking(t *testing.T) {
	defer leakcheck.Check(t)()
	n := presentNet(t)
	p := n.Peers[0]
	before := map[transport.Addr]metrics.Snapshot{}
	for _, q := range n.Peers {
		before[q.Addr()] = n.Net.Load(q.Addr()).Snapshot()
	}
	ranking, err := p.Search(context.Background(), presentQuery)
	if err != nil {
		t.Fatal(err)
	}
	want := ranking.Results
	// The slow peer hosts results but received nothing except its
	// MsgDocInfo call, so delaying it leaves exploration untouched.
	var slow transport.Addr
	for _, r := range want {
		if r.Ref.Peer == p.Addr() {
			continue
		}
		got := n.Net.Load(r.Ref.Peer).Snapshot().Sub(before[r.Ref.Peer])
		if got.Messages == got.PerType[core.MsgDocInfo].Messages {
			slow = r.Ref.Peer
			break
		}
	}
	if slow == "" {
		t.Fatal("every hosting peer also served the query's exploration")
	}
	// Exploration finishes long before the deadline; the slow peer's
	// MsgDocInfo call cannot, so the deadline lands inside presentation.
	n.Net.SetPeerDelay(slow, time.Second)
	defer n.Net.SetPeerDelay(slow, 0)
	ctx := expireAt(400*time.Millisecond, 2*time.Second)
	resp, err := p.Search(ctx, presentQuery)
	if !errors.Is(err, core.ErrPartialResults) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrPartialResults carrying DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "(presentation incomplete)") {
		t.Fatalf("err = %v, want the deadline to fall inside presentation", err)
	}
	if resp == nil || !resp.Partial {
		t.Fatalf("response should be partial: %+v", resp)
	}
	got := resp.Results
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("%d results, want the whole ranking of %d", len(got), len(want))
	}
	for i, r := range got {
		if r.Ref != want[i].Ref || math.Float64bits(r.Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("result %d: %v %v, want %v %v", i, r.Ref, r.Score, want[i].Ref, want[i].Score)
		}
		if r.Ref.Peer == slow {
			if r.Title != "(peer unavailable)" {
				t.Fatalf("result %d on the unanswered peer presented as %q", i, r.Title)
			}
		} else if r.Title != want[i].Title || r.Snippet != want[i].Snippet || r.URL != want[i].URL {
			t.Fatalf("result %d presented as %+v, want %+v", i, r, want[i])
		}
	}
}

// lateDeadline is a context that expires with DeadlineExceeded at one
// time but announces a later deadline. The budget a call ships is the
// announced one, so a slow peer sits out its whole queueing delay and
// answers only after the caller has given up: the reply can never race
// the caller's own expiry, which a real deadline — shipped as the same
// instant — leaves to the timer order of two goroutines.
type lateDeadline struct {
	context.Context
	announced time.Time
	done      chan struct{}
}

// expireAt returns a lateDeadline expiring after expire and announcing
// a deadline announce later than that.
func expireAt(expire, announce time.Duration) *lateDeadline {
	c := &lateDeadline{
		Context:   context.Background(),
		announced: time.Now().Add(expire + announce),
		done:      make(chan struct{}),
	}
	time.AfterFunc(expire, func() { close(c.done) })
	return c
}

func (c *lateDeadline) Deadline() (time.Time, bool) { return c.announced, true }
func (c *lateDeadline) Done() <-chan struct{}       { return c.done }

func (c *lateDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

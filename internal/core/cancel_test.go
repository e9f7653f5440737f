package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/globalindex"
	"repro/internal/hdk"
	"repro/internal/leakcheck"
	"repro/internal/sim"
)

// slowNet builds a private 8-peer published network whose transport pays
// a per-message latency, so deadlines and cancellation have something
// real to cut short. Not shared: latency would slow every other test.
func slowNet(t *testing.T, latency time.Duration, cfg core.Config) *sim.Network {
	t.Helper()
	if cfg.HDK.DFMax == 0 {
		cfg.HDK = hdk.Config{DFMax: 20, SMax: 3, Window: 30, TruncK: 50}
	}
	n := sim.NewNetwork(sim.Options{NumPeers: 8, Seed: 71, Core: cfg})
	c := corpus.Generate(corpus.Params{NumDocs: 200, VocabSize: 300, MeanDocLen: 40, Seed: 72})
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishStats(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.PublishHDK(); err != nil {
		t.Fatal(err)
	}
	n.Net.SetLatency(latency)
	t.Cleanup(func() { n.Net.SetLatency(0) })
	return n
}

// indexSnapshot captures every peer's global-index key/posting counts.
func indexSnapshot(n *sim.Network) []globalindex.Stats {
	out := make([]globalindex.Stats, len(n.Peers))
	for i, p := range n.Peers {
		out[i] = p.GlobalIndex().Store().Stats()
	}
	return out
}

// TestSearchCancelMidFlight is the tentpole's acceptance test: a search
// cancelled mid-fan-out returns promptly (<100ms after the cancel) with
// ErrQueryCancelled, leaks no goroutines, and leaves the global index
// byte-for-byte unchanged.
func TestSearchCancelMidFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	n := slowNet(t, 30*time.Millisecond, core.Config{Strategy: core.StrategyHDK})
	before := indexSnapshot(n)

	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		resp *core.SearchResponse
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := n.Peers[0].Search(ctx, "term0000 term0001 term0002")
		done <- outcome{resp, err}
	}()
	//alvislint:allow sleepsync positions the cancel mid-exploration by wall clock; waves advance on real 30ms delays
	time.Sleep(45 * time.Millisecond) // mid-exploration (each wave costs 30ms)
	start := time.Now()
	cancel()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled search never returned")
	}
	if since := time.Since(start); since > 100*time.Millisecond {
		t.Fatalf("cancelled search took %s to return, want < 100ms", since)
	}
	if !errors.Is(out.err, core.ErrQueryCancelled) {
		t.Fatalf("err = %v, want ErrQueryCancelled", out.err)
	}
	if !errors.Is(out.err, context.Canceled) {
		t.Fatalf("err = %v should carry context.Canceled", out.err)
	}
	if out.resp == nil || !out.resp.Partial {
		t.Fatalf("response should be marked partial: %+v", out.resp)
	}

	// The global index must be exactly as before: reads mutate only
	// popularity counters, and the cancelled query must not have shipped
	// any QDI activation or stray write.
	after := indexSnapshot(n)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("peer %d index changed under a cancelled query: %+v -> %+v", i, before[i], after[i])
		}
	}
}

// TestSearchDeadlineCancelPartialResults: a deadline that expires during
// exploration surfaces ErrPartialResults with whatever was ranked before
// the cut. The query's exploration is one lattice generation and every
// call pays 20ms, so a 10ms deadline expires inside it, before any probe
// answers: the partial answer is typically empty. A deadline that lands
// inside presentation is TestPresentationDeadlineKeepsRanking's.
func TestSearchDeadlineCancelPartialResults(t *testing.T) {
	defer leakcheck.Check(t)()
	n := slowNet(t, 20*time.Millisecond, core.Config{Strategy: core.StrategyHDK})
	resp, err := n.Peers[1].Search(context.Background(), "term0000 term0001",
		core.WithTimeout(10*time.Millisecond))
	if !errors.Is(err, core.ErrPartialResults) {
		t.Fatalf("err = %v, want ErrPartialResults", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should carry DeadlineExceeded", err)
	}
	if resp == nil || !resp.Partial {
		t.Fatalf("response should be partial: %+v", resp)
	}
	// The same query without a deadline succeeds fully and returns at
	// least as many results as the partial run.
	n.Net.SetLatency(0)
	full, err := n.Peers[1].Search(context.Background(), "term0000 term0001")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) < len(resp.Results) {
		t.Fatalf("full run returned %d results, partial %d", len(full.Results), len(resp.Results))
	}
}

// TestSearchCancelledBeforeStart: an already-dead context fails fast
// with ErrQueryCancelled and zero network traffic.
func TestSearchCancelledBeforeStart(t *testing.T) {
	n := smallHDKNet(t)
	before := n.Net.Meter().Snapshot().Messages
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := n.Peers[0].Search(ctx, "term0000 term0001")
	if !errors.Is(err, core.ErrQueryCancelled) {
		t.Fatalf("err = %v, want ErrQueryCancelled", err)
	}
	if resp == nil || len(resp.Results) != 0 {
		t.Fatalf("resp = %+v, want empty partial response", resp)
	}
	if after := n.Net.Meter().Snapshot().Messages; after != before {
		t.Fatalf("pre-cancelled search issued %d RPCs", after-before)
	}
}

// TestPublishCancelMidFlight: cancelling a publication stops it between
// batches with the context's error; re-running it to completion then
// converges (the global index is merge-idempotent).
func TestPublishCancelMidFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	cfg := core.Config{Strategy: core.StrategyHDK, HDK: hdk.Config{DFMax: 20, SMax: 3, Window: 30, TruncK: 50}}
	n := sim.NewNetwork(sim.Options{NumPeers: 8, Seed: 81, Core: cfg})
	c := corpus.Generate(corpus.Params{NumDocs: 150, VocabSize: 250, MeanDocLen: 40, Seed: 82})
	if err := n.Distribute(c); err != nil {
		t.Fatal(err)
	}
	n.Net.SetLatency(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := n.Peers[0].PublishIndex(ctx)
	n.Net.SetLatency(0)
	if err == nil {
		t.Fatal("publication under a 30ms deadline over a slow net should not complete")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v should carry DeadlineExceeded", err)
	}
	// Re-run without a deadline: converges to the fully published state.
	if _, err := n.Peers[0].PublishIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := n.Peers[1].Search(context.Background(), "term0000")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("index incomplete after cancelled-then-retried publication")
	}
}

// TestPeerCloseCancelsInFlight: Close unwinds a running search (the
// peer's root context links into the query's cancellable context) and
// subsequent operations fail with ErrPeerClosed.
func TestPeerCloseCancelsInFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	n := slowNet(t, 30*time.Millisecond, core.Config{Strategy: core.StrategyHDK})
	p := n.Peers[2]

	done := make(chan error, 1)
	// Any cancellable caller context is linked to the peer's root.
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	go func() {
		_, err := p.Search(ctx, "term0000 term0001 term0002")
		done <- err
	}()
	//alvislint:allow sleepsync positions Close mid-search by wall clock; waves advance on real 30ms delays
	time.Sleep(45 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrQueryCancelled) {
			t.Fatalf("in-flight search after Close: err = %v, want ErrQueryCancelled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unwind the in-flight search")
	}
	if _, err := p.Search(context.Background(), "term0000"); !errors.Is(err, core.ErrPeerClosed) {
		t.Fatalf("search on closed peer: err = %v, want ErrPeerClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close must be idempotent: %v", err)
	}
}

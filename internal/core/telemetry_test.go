package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/globalindex"
	"repro/internal/hdk"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func publishedNet(t *testing.T, numPeers int, cfg core.Config) *sim.Network {
	t.Helper()
	n := sim.NewNetwork(sim.Options{NumPeers: numPeers, Seed: 71, Core: cfg})
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
	return n
}

var hdkTestCfg = core.Config{
	Strategy: core.StrategyHDK,
	HDK:      hdk.Config{DFMax: 20, SMax: 3, Window: 30, TruncK: 50},
}

// TestSearchSpanTreeHedgedRead pins the shape of a traced hedged read:
// the root "search" span must contain a "probe" phase whose descendants
// include the batch resolver ("resolve") and a "hedge" span with one
// "attempt" child per escalation, the winner recorded as an attribute —
// plus the "merge" and "present" phases. This is the span vocabulary
// DESIGN.md documents; renaming a span is a breaking change.
func TestSearchSpanTreeHedgedRead(t *testing.T) {
	cfg := hdkTestCfg
	cfg.ReplicationFactor = 3
	n := publishedNet(t, 8, cfg)

	// Slow one peer enough that at least one hedge escalates past its
	// first-choice replica.
	slow := n.Peers[5].Addr()
	n.Net.SetPeerDelay(slow, 60*time.Millisecond)
	defer n.Net.SetPeerDelay(slow, 0)

	resp, err := n.Peers[0].Search(context.Background(), "term0000 term0001",
		core.WithReadConsistency(core.ReadAnyReplica),
		core.WithHedging(10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.Spans == nil {
		t.Fatal("tracing on by default, but no span tree on the response")
	}
	root := resp.Trace.Spans
	if root.Name() != "search" {
		t.Fatalf("root span = %q, want search", root.Name())
	}
	probe := root.Find("probe")
	if probe == nil {
		t.Fatalf("no probe span; tree:\n%s", root.JSON())
	}
	for _, name := range []string{"resolve", "merge", "present"} {
		if root.Find(name) == nil {
			t.Fatalf("no %s span; tree:\n%s", name, root.JSON())
		}
	}
	hedge := probe.Find("hedge")
	if hedge == nil {
		t.Fatalf("no hedge span under probe; tree:\n%s", root.JSON())
	}
	attempts := 0
	for _, c := range hedge.Children() {
		if c.Name() == "attempt" {
			attempts++
			if c.Attr("peer") == "" {
				t.Fatal("attempt span missing peer attribute")
			}
		}
	}
	if attempts == 0 {
		t.Fatalf("hedge span has no attempt children; tree:\n%s", root.JSON())
	}
	if w := hedge.Attr("winner"); w == "" {
		t.Fatalf("hedge span has no winner attribute; tree:\n%s", hedge.JSON())
	}
	// The dump is valid indented JSON mentioning the phases.
	if js := root.JSON(); !strings.Contains(js, `"hedge"`) || !strings.Contains(js, `"duration_us"`) {
		t.Fatalf("JSON dump incomplete:\n%s", js)
	}

	// WithTrace(false) suppresses the whole tree.
	resp, err = n.Peers[0].Search(context.Background(), "term0000", core.WithTrace(false))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatal("WithTrace(false) still produced a trace")
	}
}

// TestTelemetryRegistryCounts proves the per-peer registry reflects the
// counters the layers maintain: searches move the search counters, the
// index gauges mirror the store, and the exposition parses back with
// the full metric vocabulary present even for families still at zero.
func TestTelemetryRegistryCounts(t *testing.T) {
	n := publishedNet(t, 4, hdkTestCfg)

	p := n.Peers[0]
	for i := 0; i < 3; i++ {
		if _, err := p.Search(context.Background(), "term0000 term0001"); err != nil {
			t.Fatal(err)
		}
	}

	var b strings.Builder
	if err := p.Telemetry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v := sc.Sum("alvis_search_total"); v != 3 {
		t.Fatalf("alvis_search_total = %v, want 3", v)
	}
	if v := sc.Sum("alvis_search_probes_total"); v <= 0 {
		t.Fatalf("alvis_search_probes_total = %v, want > 0", v)
	}
	if v := sc.Sum("alvis_transport_messages_total"); v <= 0 {
		t.Fatalf("alvis_transport_messages_total = %v, want > 0 (Mem endpoints are metered)", v)
	}
	// Gauges mirror the live store.
	stats := p.GlobalIndex().Store().Stats()
	if v, ok := sc.Value("alvis_index_keys"); !ok || v != float64(stats.Keys) {
		t.Fatalf("alvis_index_keys = %v (ok=%v), store has %d", v, ok, stats.Keys)
	}
	// Families with no activity yet still expose their headers: the
	// vocabulary is complete on every peer at every moment.
	for _, name := range []string{
		"alvis_admission_sheds_total", "alvis_storage_recovered",
		"alvis_rejoin_manifest_keys_total", "alvis_search_failed_total",
	} {
		if sc.Types[name] == "" {
			t.Fatalf("family %s missing from exposition", name)
		}
	}
}

// TestTelemetryTrackedKeysCountsProbes checks that alvis_index_tracked_keys
// reads QDI's probe tracker: after probes of N distinct absent keys at a
// peer, the gauge reads N.
func TestTelemetryTrackedKeysCountsProbes(t *testing.T) {
	n := sim.NewNetwork(sim.Options{NumPeers: 1, Seed: 71, Core: hdkTestCfg})
	p := n.Peers[0]
	const distinct = 25
	items := make([]globalindex.GetItem, 0, 2*distinct)
	for i := 0; i < distinct; i++ {
		terms := []string{fmt.Sprintf("absent%02d", i), "pair"}
		items = append(items, globalindex.GetItem{Terms: terms}, globalindex.GetItem{Terms: terms})
	}
	if _, err := p.GlobalIndex().MultiGet(context.Background(), items, globalindex.ReadPrimary); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := p.Telemetry().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	sc, err := telemetry.ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := sc.Value("alvis_index_tracked_keys"); !ok || v != distinct {
		t.Fatalf("alvis_index_tracked_keys = %v (ok=%v), want %d", v, ok, distinct)
	}
	if sc.Types["alvis_index_tracked_keys"] != "gauge" {
		t.Fatalf("alvis_index_tracked_keys type %q, want gauge", sc.Types["alvis_index_tracked_keys"])
	}
}

// TestCloseIdempotentAndConcurrentWithSearches is the regression test
// for Peer.Close's contract: many concurrent Close calls (racing with
// in-flight searches) all return the same outcome, nothing panics, and
// searches cut short by the shutdown surface closed/cancelled errors
// rather than corrupt state.
func TestCloseIdempotentAndConcurrentWithSearches(t *testing.T) {
	n := publishedNet(t, 4, hdkTestCfg)

	p := n.Peers[0]
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				_, _ = p.Search(ctx, "term0000 term0002")
				cancel()
			}
		}()
	}
	//alvislint:allow sleepsync biases the close storm to land mid-search; any interleaving is valid, this one is the interesting race
	time.Sleep(5 * time.Millisecond) // let some searches take flight
	errs := make([]error, 8)
	var cwg sync.WaitGroup
	for i := range errs {
		cwg.Add(1)
		go func(i int) {
			defer cwg.Done()
			errs[i] = p.Close()
		}(i)
	}
	cwg.Wait()
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != errs[0] {
			t.Fatalf("Close call %d returned %v, call 0 returned %v", i, err, errs[0])
		}
	}
	if err := p.Close(); err != errs[0] {
		t.Fatalf("post-hoc Close returned %v, want %v", err, errs[0])
	}
}

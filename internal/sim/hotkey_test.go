package sim

import (
	"context"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ids"
)

// TestRunE14SmallShape pins the hot-key read-path claims: under
// zipf(1.0) repeat-query traffic the caching + soft-replication arm
// answers with a p99 at most half the disabled arm's, spreads served
// load to at most half the disabled arm's max/mean imbalance, returns
// the identical top-10 set for every query, and actually exercises both
// the client caches and the promotion machinery.
func TestRunE14SmallShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment shape test skipped in -short mode")
	}
	tbl, err := RunE14(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	rows := tableRows(tbl.String())
	if len(rows) != 2 {
		t.Fatalf("E14 rows = %d, want 2\n%s", len(rows), tbl)
	}
	var off, on []string
	for _, r := range rows {
		switch r[0] {
		case "disabled":
			off = r
		case "hot-key path":
			on = r
		}
	}
	if off == nil || on == nil {
		t.Fatalf("missing arms\n%s", tbl)
	}
	p99Off, p99On := atof(t, off[1]), atof(t, on[1])
	if p99Off <= 0 {
		t.Fatalf("disabled arm p99 = %v, experiment measured nothing\n%s", p99Off, tbl)
	}
	if p99On > 0.5*p99Off {
		t.Errorf("hot-key p99 = %.3fms, want <= half of disabled %.3fms\n%s", p99On, p99Off, tbl)
	}
	varOff, varOn := atof(t, off[2]), atof(t, on[2])
	if varOff <= 1 {
		t.Fatalf("disabled arm load max/mean = %.2f, no imbalance to improve\n%s", varOff, tbl)
	}
	if varOn > 0.5*varOff {
		t.Errorf("hot-key load max/mean = %.2f, want <= half of disabled %.2f\n%s", varOn, varOff, tbl)
	}
	if ident := atof(t, on[3]); ident < 1.0 {
		t.Errorf("identical@10 = %.3f, want 1.0\n%s", ident, tbl)
	}
	if hit := atof(t, on[4]); hit <= 0 {
		t.Errorf("hot-key arm never hit a cache\n%s", tbl)
	}
	if ann := atof(t, on[5]); ann <= 0 {
		t.Errorf("hot-key arm never announced a soft replica\n%s", tbl)
	}
}

// invalidationCount sums a peer's alvis_readcache_invalidations_total
// across both cache series.
func invalidationCount(p *core.Peer) float64 {
	var sum float64
	for _, f := range p.Telemetry().Gather() {
		if f.Name != "alvis_readcache_invalidations_total" {
			continue
		}
		for _, s := range f.Samples {
			sum += s.Value
		}
	}
	return sum
}

// TestHotKeyCacheChurnInvalidation is the churn regression for the
// hot-key caches: a frontend that cached a hot key's results loses the
// key's home peer mid-workload. The frontend is the home's ring
// predecessor, so the very first repair round changes its successor
// list, bumps its ring epoch, and must invalidate its caches — the
// post-churn repeat answers from live index state (the R=3 replicas),
// never from a cache entry resolved against the dead ring.
func TestHotKeyCacheChurnInvalidation(t *testing.T) {
	if testing.Short() {
		t.Skip("churn regression skipped in -short mode")
	}
	const numDocs = 500
	cfg := core.Config{
		HDK:               hdkConfigFor(numDocs),
		TopK:              10,
		ReplicationFactor: 3,
		StreamTopK:        true,
		ResultCache:       32,
		PrefixCache:       128,
		CacheTTL:          time.Minute,
		HotKeyThreshold:   2,
		SoftReplicas:      2,
		SoftReplicaTTL:    time.Minute,
	}
	n := NewNetwork(Options{NumPeers: 16, Core: cfg, Seed: 163})
	if err := n.Distribute(corpusFor(numDocs, 161)); err != nil {
		t.Fatal(err)
	}
	if err := n.PublishStats(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := n.PublishHDK(); err != nil {
		t.Fatal(err)
	}
	w := corpus.GenerateWorkload(n.Collection, corpus.WorkloadParams{NumQueries: 30, MaxTerms: 2, Seed: 165})
	opts := []core.SearchOption{
		core.WithReadConsistency(core.ReadAnyReplica),
		core.WithHedging(2 * time.Millisecond),
	}

	// The hot query: first workload query with results whose first term's
	// home peer has a live ring predecessor among the other peers.
	var query string
	var home int
	var frontend *core.Peer
	for _, q := range w.Queries {
		key := ids.KeyString(q.Terms[:1])
		hi := -1
		for i, p := range n.Peers {
			if p.Node().Responsible(ids.HashString(key)) {
				hi = i
				break
			}
		}
		if hi < 0 {
			continue
		}
		pred := n.Peers[hi].Node().Predecessor()
		var fe *core.Peer
		for i, p := range n.Peers {
			if i != hi && p.Addr() == pred.Addr {
				fe = p
				break
			}
		}
		if fe == nil {
			continue
		}
		got, _, err := n.SearchCorpusDocs(fe, q.Text(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > 0 {
			query, home, frontend = q.Text(), hi, fe
			break
		}
	}
	if query == "" {
		t.Fatal("no workload query with results and a usable home/frontend pair")
	}

	// Reference answer, then heat the key and cache the answer at the
	// frontend (the repeat must be cache-served: zero messages).
	reference, _, err := n.SearchCorpusDocs(frontend, query, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := n.SearchCorpusDocs(frontend, query, opts...); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range n.Peers {
		if _, err := p.PromoteHotKeys(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	before := n.Net.Meter().Snapshot().Messages
	if _, _, err := n.SearchCorpusDocs(frontend, query, opts...); err != nil {
		t.Fatal(err)
	}
	if got := n.Net.Meter().Snapshot().Messages - before; got != 0 {
		t.Fatalf("pre-churn repeat cost %d messages, want cache-served 0", got)
	}

	// Kill the home peer mid-workload and repair the ring.
	deadAddr := n.Peers[home].Addr()
	epoch0 := frontend.Node().RingEpoch()
	inval0 := invalidationCount(frontend)
	n.KillPeer(home)
	live := make([]*core.Peer, 0, len(n.Peers)-1)
	for i, p := range n.Peers {
		if i != home {
			live = append(live, p)
		}
	}
	for r := 0; r < 20 && frontend.Node().RingEpoch() == epoch0; r++ {
		for _, p := range live {
			p.Maintain(context.Background())
		}
	}
	if frontend.Node().RingEpoch() == epoch0 {
		t.Fatal("frontend ring epoch never bumped after the home peer died")
	}
	if invalidationCount(frontend) <= inval0 {
		t.Fatal("ring change did not invalidate the frontend's caches")
	}

	// The post-churn repeat must re-resolve (network traffic, no stale
	// epoch-0 cache entry) and keep recall on the surviving documents.
	deadDoc := map[int]bool{}
	for di, ref := range n.RefOf {
		if ref.Peer == deadAddr {
			deadDoc[di] = true
		}
	}
	before = n.Net.Meter().Snapshot().Messages
	got, _, err := n.SearchCorpusDocs(frontend, query, opts...)
	if err != nil {
		t.Fatalf("post-churn query: %v", err)
	}
	if n.Net.Meter().Snapshot().Messages == before {
		t.Fatal("post-churn repeat was served from a stale cache")
	}
	// Postings for dead-hosted documents legitimately survive in index
	// replicas (same semantic as E9's settled pass), so recall is judged
	// on the surviving reference docs only.
	gotSet := map[int]bool{}
	for _, d := range got {
		gotSet[d] = true
	}
	wantLive := 0
	found := 0
	for _, d := range reference {
		if deadDoc[d] {
			continue
		}
		wantLive++
		if gotSet[d] {
			found++
		}
	}
	if wantLive == 0 {
		t.Fatal("reference answer was entirely hosted at the dead peer; pick a different seed")
	}
	if recall := float64(found) / float64(wantLive); recall < 0.99 {
		t.Fatalf("post-churn recall = %.3f (%d of %d surviving reference docs), want >= 0.99",
			recall, found, wantLive)
	}

	// The rest of the workload keeps succeeding against the repaired ring.
	ok := 0
	for _, q := range w.Queries {
		if _, _, err := n.SearchCorpusDocs(frontend, q.Text(), opts...); err == nil {
			ok++
		}
	}
	if frac := float64(ok) / float64(len(w.Queries)); frac < 0.99 {
		t.Fatalf("post-churn workload success = %.3f, want >= 0.99", frac)
	}
}

// BenchmarkHotKeyRead runs the E14 experiment once and reports the
// hot-key arm's headline numbers.
func BenchmarkHotKeyRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl, err := RunE14(ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		rows := tableRows(tbl.String())
		if len(rows) != 2 {
			b.Fatalf("E14 rows = %d\n%s", len(rows), tbl)
		}
		on := rows[1]
		parse := func(s string) float64 {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				b.Fatalf("parse %q: %v", s, err)
			}
			return v
		}
		b.ReportMetric(parse(on[1]), "p99-ms")
		b.ReportMetric(parse(on[2]), "load-max/mean")
		b.ReportMetric(parse(on[4]), "cache-hit-frac")
	}
}

package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/hdk"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/postings"
	"repro/internal/qdi"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Scale selects experiment sizes: ScaleFull for report-size runs,
// ScaleSmall for unit tests and the repository benchmarks.
type Scale int

const (
	// ScaleFull runs the experiment at report size.
	ScaleFull Scale = iota
	// ScaleSmall runs a reduced configuration with the same shape.
	ScaleSmall
)

func pick[T any](s Scale, full, small T) T {
	if s == ScaleSmall {
		return small
	}
	return full
}

// hdkConfigFor scales HDK parameters to a collection: DFmax well below
// the head DFs so expansion triggers, TruncK at the paper's order of
// magnitude relative to the collection.
func hdkConfigFor(numDocs int) hdk.Config {
	dfmax := numDocs / 20
	if dfmax < 10 {
		dfmax = 10
	}
	trunc := numDocs / 40
	if trunc < 10 {
		trunc = 10
	}
	return hdk.Config{DFMax: dfmax, SMax: 3, Window: 30, TruncK: trunc}
}

func corpusFor(numDocs int, seed int64) *corpus.Collection {
	return corpus.Generate(corpus.Params{
		NumDocs:    numDocs,
		VocabSize:  numDocs, // Heaps-like growth keeps the DF shape realistic
		MeanDocLen: 60,
		NumTopics:  20,
		Seed:       seed,
	})
}

// RunE1 measures per-query transferred bytes as the collection grows,
// for the single-term baseline [11], HDK, and warm QDI. The paper's
// claim: the baseline's traffic grows with the collection (its first
// shipped list is a *complete* posting list of a frequent term), while
// the key-based strategies stay bounded by the truncation constant.
// DFmax and TruncK are held constant across collection sizes — they are
// system constants, not per-collection tuning — and the workload is the
// problematic class from [11]: queries whose terms are all frequent.
// Result presentation (titles/snippets) is excluded from all systems'
// byte counts; only retrieval traffic is compared.
func RunE1(scale Scale) (*metrics.Table, error) {
	sizes := pick(scale, []int{2000, 4000, 8000, 16000}, []int{500, 1500})
	peers := pick(scale, 32, 8)
	numQueries := pick(scale, 100, 25)
	hdkCfg := hdk.Config{
		DFMax:  pick(scale, 250, 40),
		SMax:   3,
		Window: 30,
		TruncK: pick(scale, 250, 40),
	}

	t := metrics.NewTable(
		"E1: per-query retrieval traffic vs collection size (frequent-term queries)",
		"docs", "baseline B/q", "HDK B/q", "QDI warm B/q", "baseline/HDK",
	)
	// The query set is fixed across collection sizes: combinations of
	// head-of-Zipf terms, whose vocabulary ranks (and hence names) are
	// stable in the generator. This is [11]'s setting — the cost of the
	// same query as the collection grows.
	queries := headTermQueries(numQueries, pick(scale, 40, 25), 13)
	for _, size := range sizes {
		coll := corpusFor(size, 11)

		// Baseline network: full single-term lists + intersection shipping.
		baseNet := NewNetwork(Options{NumPeers: peers, Core: core.Config{HDK: hdkCfg}, Seed: 21})
		if err := baseNet.Distribute(coll); err != nil {
			return nil, err
		}
		if err := baseNet.PublishStats(); err != nil {
			return nil, err
		}
		if _, _, err := baseNet.PublishBaseline(); err != nil {
			return nil, err
		}
		baseBytes, err := measureBaselineQueries(baseNet, queries)
		if err != nil {
			return nil, err
		}

		// HDK network.
		hdkNet := NewNetwork(Options{NumPeers: peers, Core: core.Config{Strategy: core.StrategyHDK, HDK: hdkCfg}, Seed: 22})
		if err := hdkNet.Distribute(coll); err != nil {
			return nil, err
		}
		if err := hdkNet.PublishStats(); err != nil {
			return nil, err
		}
		if _, _, err := hdkNet.PublishHDK(); err != nil {
			return nil, err
		}
		hdkBytes, err := measureSearchQueries(hdkNet, queries)
		if err != nil {
			return nil, err
		}

		// QDI network, measured warm (second pass over the same queries).
		qdiNet := NewNetwork(Options{NumPeers: peers, Core: core.Config{
			Strategy: core.StrategyQDI, HDK: hdkCfg,
			QDI: qdi.Config{ActivateThreshold: 2, TruncK: hdkCfg.TruncK},
		}, Seed: 23})
		if err := qdiNet.Distribute(coll); err != nil {
			return nil, err
		}
		if err := qdiNet.PublishStats(); err != nil {
			return nil, err
		}
		if _, _, err := qdiNet.PublishHDK(); err != nil { // single terms only under QDI
			return nil, err
		}
		for pass := 0; pass < 3; pass++ { // warm-up passes trigger activation
			if _, err := measureSearchQueries(qdiNet, queries); err != nil {
				return nil, err
			}
		}
		qdiBytes, err := measureSearchQueries(qdiNet, queries)
		if err != nil {
			return nil, err
		}

		ratio := float64(baseBytes) / float64(max64(hdkBytes, 1))
		t.AddRow(size, baseBytes, hdkBytes, qdiBytes, ratio)
	}
	return t, nil
}

// headTermQueries builds 2–3-term queries from the head of the Zipf
// vocabulary (ranks < maxRank). Head terms appear in a constant fraction
// of the documents, so their posting lists grow linearly with the
// collection — the query class whose intersections make the single-term
// strategy unscalable [11]. Term names are rank-stable across generated
// collections, so the same query set is meaningful at every size.
func headTermQueries(count, maxRank int, seed int64) []corpus.Query {
	rng := rand.New(rand.NewSource(seed))
	seenQ := map[string]bool{}
	var out []corpus.Query
	for tries := 0; tries < count*100 && len(out) < count; tries++ {
		n := 2 + rng.Intn(2)
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("term%04d", rng.Intn(maxRank))] = true
		}
		terms := make([]string, 0, n)
		for t := range set {
			terms = append(terms, t)
		}
		q := corpus.Query{Terms: terms}
		key := q.Text()
		if seenQ[key] {
			continue
		}
		seenQ[key] = true
		out = append(out, q)
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// measureBaselineQueries runs the intersection-shipping baseline for each
// query from a deterministic random peer and returns mean bytes/query.
func measureBaselineQueries(n *Network, queries []corpus.Query) (int64, error) {
	rng := rand.New(rand.NewSource(31))
	before := n.Net.Meter().Snapshot()
	for _, q := range queries {
		svc := n.Base[rng.Intn(len(n.Base))]
		if _, _, err := svc.Query(context.Background(), q.Terms); err != nil {
			return 0, err
		}
	}
	delta := n.Net.Meter().Snapshot().Sub(before)
	return delta.Bytes / int64(len(queries)), nil
}

// measureSearchQueries runs full engine searches and returns mean
// retrieval bytes/query. Presentation traffic (document titles and
// snippets, message type MsgDocInfo) is excluded: the baseline's Query
// has no presentation phase, and the paper's bandwidth claims concern
// posting-list transfers.
func measureSearchQueries(n *Network, queries []corpus.Query) (int64, error) {
	rng := rand.New(rand.NewSource(32))
	before := n.Net.Meter().Snapshot()
	for _, q := range queries {
		p := n.RandomPeer(rng)
		if _, err := p.Search(context.Background(), q.Text()); err != nil {
			return 0, err
		}
	}
	delta := n.Net.Meter().Snapshot().Sub(before)
	bytes := delta.Bytes - delta.PerType[core.MsgDocInfo].Bytes
	return bytes / int64(len(queries)), nil
}

// RunE2 measures global-index storage under HDK across DFmax and smax —
// the "number of indexing term combinations remains scalable" claim.
func RunE2(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 8000, 800)
	peers := pick(scale, 32, 8)
	dfmaxes := pick(scale, []int{200, 400, 800}, []int{20, 40})
	smaxes := []int{2, 3}

	t := metrics.NewTable(
		fmt.Sprintf("E2: HDK index storage (%d docs, %d peers)", numDocs, peers),
		"DFmax", "smax", "keys", "multi-term keys", "postings", "stored bytes", "keys/doc",
	)
	coll := corpusFor(numDocs, 41)
	for _, dfmax := range dfmaxes {
		for _, smax := range smaxes {
			cfg := hdkConfigFor(numDocs)
			cfg.DFMax = dfmax
			cfg.SMax = smax
			n := NewNetwork(Options{NumPeers: peers, Core: core.Config{HDK: cfg}, Seed: 42})
			if err := n.Distribute(coll); err != nil {
				return nil, err
			}
			if err := n.PublishStats(); err != nil {
				return nil, err
			}
			if _, _, err := n.PublishHDK(); err != nil {
				return nil, err
			}
			keys, postingsStored, bytes := n.IndexStorage()
			multi := n.multiTermKeyCount()
			t.AddRow(dfmax, smax, keys, multi, postingsStored,
				metrics.HumanBytes(int64(bytes)), float64(keys)/float64(numDocs))
		}
	}
	return t, nil
}

func (n *Network) multiTermKeyCount() int {
	count := 0
	for _, p := range n.Peers {
		for _, k := range p.GlobalIndex().Store().Keys() {
			if strings.Contains(k, " ") {
				count++
			}
		}
	}
	return count
}

// RunE3 measures retrieval quality (overlap with the centralized BM25
// top-k) for HDK and warm QDI — the "retrieval quality fully comparable
// to state-of-the-art centralized search engines" claim.
func RunE3(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 8000, 800)
	peers := pick(scale, 32, 8)
	numQueries := pick(scale, 200, 40)

	hdkCfg := hdkConfigFor(numDocs)
	coll := corpusFor(numDocs, 51)
	w := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: numQueries, MaxTerms: 3, Seed: 53})

	t := metrics.NewTable(
		fmt.Sprintf("E3: retrieval quality vs centralized BM25 (%d docs, %d queries)", numDocs, len(w.Queries)),
		"system", "overlap@10", "overlap@20", "answered",
	)

	build := func(strategy core.Strategy, seed int64) (*Network, error) {
		cfg := core.Config{Strategy: strategy, HDK: hdkCfg,
			QDI: qdi.Config{ActivateThreshold: 2, TruncK: hdkCfg.TruncK}}
		n := NewNetwork(Options{NumPeers: peers, Core: cfg, Seed: seed})
		if err := n.Distribute(coll); err != nil {
			return nil, err
		}
		if err := n.PublishStats(); err != nil {
			return nil, err
		}
		if _, _, err := n.PublishHDK(); err != nil {
			return nil, err
		}
		return n, nil
	}

	evaluate := func(n *Network) (o10, o20, answered float64, err error) {
		rng := rand.New(rand.NewSource(55))
		for _, q := range w.Queries {
			got, _, err := n.SearchCorpusDocs(n.RandomPeer(rng), q.Text())
			if err != nil {
				return 0, 0, 0, err
			}
			if len(got) > 0 {
				answered++
			}
			o10 += OverlapAtK(got, n.CentralTopK(q.Text(), 10), 10)
			o20 += OverlapAtK(got, n.CentralTopK(q.Text(), 20), 20)
		}
		nq := float64(len(w.Queries))
		return o10 / nq, o20 / nq, answered / nq, nil
	}

	hdkNet, err := build(core.StrategyHDK, 61)
	if err != nil {
		return nil, err
	}
	o10, o20, ans, err := evaluate(hdkNet)
	if err != nil {
		return nil, err
	}
	t.AddRow("HDK", o10, o20, ans)

	qdiNet, err := build(core.StrategyQDI, 62)
	if err != nil {
		return nil, err
	}
	// Cold pass.
	o10c, o20c, ansc, err := evaluate(qdiNet)
	if err != nil {
		return nil, err
	}
	t.AddRow("QDI cold", o10c, o20c, ansc)
	// Two more passes let popular combinations activate; measure warm.
	if _, _, _, err := evaluate(qdiNet); err != nil {
		return nil, err
	}
	o10w, o20w, answ, err := evaluate(qdiNet)
	if err != nil {
		return nil, err
	}
	t.AddRow("QDI warm", o10w, o20w, answ)
	return t, nil
}

// RunE4 traces QDI's adaptivity over a query stream with a mid-stream
// popularity shift: index size, hit rate, activations and evictions per
// slice — "an efficient indexing structure adaptive to the current query
// popularity distribution".
func RunE4(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 600)
	peers := pick(scale, 16, 8)
	slices := 10
	sliceLen := pick(scale, 300, 80)

	hdkCfg := hdkConfigFor(numDocs)
	coll := corpusFor(numDocs, 71)
	wA := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: 60, MaxTerms: 3, Seed: 72})
	wB := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: 60, MaxTerms: 3, Seed: 973})

	n := NewNetwork(Options{NumPeers: peers, Core: core.Config{
		Strategy: core.StrategyQDI, HDK: hdkCfg,
		QDI: qdi.Config{ActivateThreshold: 3, EvictThreshold: 0.5, DecayFactor: 0.6, TruncK: hdkCfg.TruncK},
	}, Seed: 73})
	if err := n.Distribute(coll); err != nil {
		return nil, err
	}
	if err := n.PublishStats(); err != nil {
		return nil, err
	}
	if _, _, err := n.PublishHDK(); err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		fmt.Sprintf("E4: QDI adaptivity (%d-query slices; workload shift after slice %d)", sliceLen, slices/2),
		"slice", "workload", "hit rate", "multi-term keys", "activated", "evicted",
	)
	rng := rand.New(rand.NewSource(74))
	totalActivated, totalEvicted := 0, 0
	for s := 1; s <= slices; s++ {
		w := wA
		label := "A"
		if s > slices/2 {
			w = wB
			label = "B"
		}
		stream := w.Stream(sliceLen, int64(700+s))
		hits, multiQ := 0, 0
		for _, q := range stream {
			if len(q.Terms) < 2 {
				continue
			}
			multiQ++
			resp, err := n.RandomPeer(rng).Search(context.Background(), q.Text())
			if err != nil {
				return nil, err
			}
			trace := resp.Trace
			if trace.FullHit {
				hits++
			}
			totalActivated += trace.Activated
		}
		for _, p := range n.Peers {
			totalEvicted += p.QDI().MaintenanceTick()
		}
		hitRate := 0.0
		if multiQ > 0 {
			hitRate = float64(hits) / float64(multiQ)
		}
		t.AddRow(s, label, hitRate, n.multiTermKeyCount(), totalActivated, totalEvicted)
	}
	return t, nil
}

// RunE5 measures routing cost across network sizes, ID distributions and
// finger policies — the L2 claims: O(log n) hops, skew tolerance with
// hop-space tables.
func RunE5(scale Scale) (*metrics.Table, error) {
	sizes := pick(scale, []int{64, 256, 1024, 4096}, []int{64, 256})
	lookups := pick(scale, 500, 200)

	t := metrics.NewTable(
		"E5: lookup hops by network size, ID distribution and finger policy",
		"peers", "distribution", "policy", "mean hops", "p99 hops", "mean table size",
	)
	for _, size := range sizes {
		for _, skewed := range []bool{false, true} {
			for _, policy := range []dht.FingerPolicy{dht.PolicyHopSpace, dht.PolicyIDSpace} {
				mean, p99, table := routingTrial(size, skewed, policy, lookups)
				dist := "uniform"
				if skewed {
					dist = "skewed"
				}
				t.AddRow(size, dist, policy.String(), mean, p99, table)
			}
		}
	}
	return t, nil
}

func routingTrial(size int, skewed bool, policy dht.FingerPolicy, lookups int) (mean float64, p99 int, tableSize float64) {
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(81))
	nodes := make([]*dht.Node, size)
	makeID := func() ids.ID {
		if skewed {
			denseStart := uint64(float64(^uint64(0)) * 0.999)
			if rng.Float64() < 0.9 {
				return ids.ID(denseStart + rng.Uint64()%(^uint64(0)-denseStart))
			}
			return ids.ID(rng.Uint64() % denseStart)
		}
		return ids.ID(rng.Uint64())
	}
	for i := range nodes {
		d := transport.NewDispatcher()
		ep := net.Endpoint(fmt.Sprintf("r%d", i), d.Serve)
		nodes[i] = dht.NewNode(makeID(), ep, d, dht.Options{Policy: policy})
	}
	dht.BuildOracleTables(nodes)

	hist := metrics.NewHistogram()
	var tableSum int
	for _, n := range nodes {
		tableSum += len(n.Fingers())
	}
	for i := 0; i < lookups; i++ {
		var key ids.ID
		if skewed {
			key = makeID() // keys skew with the population (order-preserving hashing scenario)
		} else {
			key = ids.ID(rng.Uint64())
		}
		src := nodes[rng.Intn(size)]
		_, hops, err := src.Lookup(context.Background(), key)
		if err != nil {
			continue
		}
		hist.Add(hops)
	}
	return hist.Mean(), hist.Percentile(99), float64(tableSum) / float64(size)
}

// RunE6 runs the congestion-control load sweep — goodput with and
// without the hop-by-hop scheme, the "prevents congestion collapses"
// claim.
func RunE6(scale Scale) (*metrics.Table, error) {
	p := congestion.Params{
		NumPeers: pick(scale, 256, 64),
		Duration: pick(scale, 20.0, 5.0),
	}
	steps := pick(scale, 8, 4)
	withCC, withoutCC := congestion.Sweep(p, 0.25, 4, steps)

	t := metrics.NewTable(
		fmt.Sprintf("E6: goodput under load (%d peers, %d hops/query, capacity %.0f msg/s/peer)",
			pick(scale, 256, 64), 6, 100.0),
		"offered q/s", "goodput CC", "goodput no-CC", "shed CC", "dropped no-CC", "retries no-CC",
	)
	for i := range withCC {
		t.AddRow(
			int(withCC[i].Offered),
			int(withCC[i].Goodput),
			int(withoutCC[i].Goodput),
			fmt.Sprintf("%.1f%%", withCC[i].ShedRate*100),
			fmt.Sprintf("%.1f%%", withoutCC[i].DropRate*100),
			withoutCC[i].Retries,
		)
	}
	return t, nil
}

// RunE7 measures lattice exploration cost and quality by query length,
// with and without the truncated-hit pruning approximation — §2's
// "improve load balancing with an only marginal loss in retrieval
// precision".
func RunE7(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 600)
	peers := pick(scale, 16, 8)
	perLength := pick(scale, 40, 10)
	maxLen := pick(scale, 5, 4)

	hdkCfg := hdkConfigFor(numDocs)
	coll := corpusFor(numDocs, 91)

	build := func(pruneOff bool) (*Network, error) {
		n := NewNetwork(Options{NumPeers: peers, Core: core.Config{
			HDK: hdkCfg, PruneTruncatedOff: pruneOff,
		}, Seed: 92})
		if err := n.Distribute(coll); err != nil {
			return nil, err
		}
		if err := n.PublishStats(); err != nil {
			return nil, err
		}
		if _, _, err := n.PublishHDK(); err != nil {
			return nil, err
		}
		return n, nil
	}
	pruned, err := build(false)
	if err != nil {
		return nil, err
	}
	unpruned, err := build(true)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable(
		fmt.Sprintf("E7: lattice cost & precision by query length (%d docs)", numDocs),
		"terms", "probes (pruned)", "probes (full)", "overlap@10 (pruned)", "overlap@10 (full)",
	)
	for length := 1; length <= maxLen; length++ {
		queries := fixedLengthQueries(coll, length, perLength, int64(900+length))
		if len(queries) == 0 {
			continue
		}
		pProbes, pOver, err := latticeTrial(pruned, queries)
		if err != nil {
			return nil, err
		}
		uProbes, uOver, err := latticeTrial(unpruned, queries)
		if err != nil {
			return nil, err
		}
		t.AddRow(length, pProbes, uProbes, pOver, uOver)
	}
	return t, nil
}

// fixedLengthQueries samples queries with exactly `length` distinct terms
// co-occurring in some document.
func fixedLengthQueries(c *corpus.Collection, length, count int, seed int64) []corpus.Query {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []corpus.Query
	for tries := 0; tries < count*50 && len(out) < count; tries++ {
		doc := c.Docs[rng.Intn(len(c.Docs))]
		words := strings.Fields(doc.Body)
		set := map[string]bool{}
		for i := 0; i < 8*length && len(set) < length; i++ {
			set[words[rng.Intn(len(words))]] = true
		}
		if len(set) != length {
			continue
		}
		terms := make([]string, 0, length)
		for t := range set {
			terms = append(terms, t)
		}
		q := corpus.Query{Terms: terms}
		key := q.Text()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, q)
	}
	return out
}

func latticeTrial(n *Network, queries []corpus.Query) (meanProbes, meanOverlap float64, err error) {
	rng := rand.New(rand.NewSource(95))
	var probes, overlap float64
	for _, q := range queries {
		got, trace, err := n.SearchCorpusDocs(n.RandomPeer(rng), q.Text())
		if err != nil {
			return 0, 0, err
		}
		probes += float64(trace.Probes)
		overlap += OverlapAtK(got, n.CentralTopK(q.Text(), 10), 10)
	}
	nq := float64(len(queries))
	return probes / nq, overlap / nq, nil
}

// RunE8 measures the cost of distributed indexing itself: messages and
// bytes shipped per document for the statistics phase, the HDK key
// publishing, and the single-term baseline publishing.
func RunE8(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 600)
	peers := pick(scale, 16, 8)
	hdkCfg := hdkConfigFor(numDocs)
	coll := corpusFor(numDocs, 101)

	t := metrics.NewTable(
		fmt.Sprintf("E8: indexing cost (%d docs, %d peers)", numDocs, peers),
		"phase", "messages", "bytes", "bytes/doc", "wall time",
	)

	// HDK network: stats then keys.
	n := NewNetwork(Options{NumPeers: peers, Core: core.Config{HDK: hdkCfg}, Seed: 102})
	if err := n.Distribute(coll); err != nil {
		return nil, err
	}
	before := n.Net.Meter().Snapshot()
	start := time.Now()
	if err := n.PublishStats(); err != nil {
		return nil, err
	}
	statsDelta := n.Net.Meter().Snapshot().Sub(before)
	statsTime := time.Since(start)
	t.AddRow("statistics", statsDelta.Messages, metrics.HumanBytes(statsDelta.Bytes),
		statsDelta.Bytes/int64(numDocs), statsTime.Round(time.Millisecond).String())

	before = n.Net.Meter().Snapshot()
	start = time.Now()
	if _, _, err := n.PublishHDK(); err != nil {
		return nil, err
	}
	hdkDelta := n.Net.Meter().Snapshot().Sub(before)
	hdkTime := time.Since(start)
	t.AddRow("HDK keys", hdkDelta.Messages, metrics.HumanBytes(hdkDelta.Bytes),
		hdkDelta.Bytes/int64(numDocs), hdkTime.Round(time.Millisecond).String())

	// Baseline network for comparison.
	bn := NewNetwork(Options{NumPeers: peers, Core: core.Config{HDK: hdkCfg}, Seed: 103})
	if err := bn.Distribute(coll); err != nil {
		return nil, err
	}
	if err := bn.PublishStats(); err != nil {
		return nil, err
	}
	before = bn.Net.Meter().Snapshot()
	start = time.Now()
	if _, _, err := bn.PublishBaseline(); err != nil {
		return nil, err
	}
	baseDelta := bn.Net.Meter().Snapshot().Sub(before)
	baseTime := time.Since(start)
	t.AddRow("baseline full lists", baseDelta.Messages, metrics.HumanBytes(baseDelta.Bytes),
		baseDelta.Bytes/int64(numDocs), baseTime.Round(time.Millisecond).String())

	return t, nil
}

// RunE9 measures availability under churn: a query workload keeps
// running while 10% of the peers are killed and fresh peers join, with
// ReplicationFactor 1 (the single-copy index) vs 3. Reported per factor:
// the query success rate during the churn window (ring not yet repaired;
// reads must fall over to replicas) and after the ring settles, and the
// settled result recall against the pre-churn run. Documents hosted on
// killed peers are excluded from the recall reference — their loss is
// content going offline, not index damage, and no replication factor can
// recover them. The live-key columns count distinct index keys held by
// live peers: with R=1 a killed peer's slice vanishes and a joiner's
// range goes dark, with R=3 replicas keep every key reachable.
func RunE9(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 600)
	peers := pick(scale, 30, 10)
	numQueries := pick(scale, 150, 40)
	joins := pick(scale, 3, 1)

	hdkCfg := hdkConfigFor(numDocs)
	coll := corpusFor(numDocs, 121)
	w := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: numQueries, MaxTerms: 3, Seed: 123})

	kill := (peers + 9) / 10
	t := metrics.NewTable(
		fmt.Sprintf("E9: availability under churn (%d peers, kill %d, join %d, %d queries)",
			peers, kill, joins, len(w.Queries)),
		"factor", "success churn", "success settled", "recall settled", "live keys before", "live keys after",
	)
	for _, factor := range []int{1, 3} {
		sc, ss, rec, kb, ka, err := churnTrial(coll, w.Queries, peers, kill, joins, factor, hdkCfg)
		if err != nil {
			return nil, err
		}
		t.AddRow(factor, sc, ss, rec, kb, ka)
	}
	return t, nil
}

// churnTrial runs one E9 configuration and returns the churn-window and
// settled success rates, the settled recall, and the distinct live-key
// counts before and after the churn.
func churnTrial(coll *corpus.Collection, queries []corpus.Query, peers, kill, joins, factor int, hdkCfg hdk.Config) (succChurn, succSettled, recall float64, keysBefore, keysAfter int, err error) {
	n := NewNetwork(Options{NumPeers: peers, Core: core.Config{
		HDK: hdkCfg, ReplicationFactor: factor,
	}, Seed: 124})
	if err := n.Distribute(coll); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if err := n.PublishStats(); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if _, _, err := n.PublishHDK(); err != nil {
		return 0, 0, 0, 0, 0, err
	}

	rng := rand.New(rand.NewSource(125))
	live := append([]*core.Peer(nil), n.Peers...)
	pickPeer := func() *core.Peer { return live[rng.Intn(len(live))] }

	// Pre-churn reference pass.
	expected := make([][]int, len(queries))
	for qi, q := range queries {
		got, _, err := n.SearchCorpusDocs(pickPeer(), q.Text())
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("pre-churn query %d: %w", qi, err)
		}
		expected[qi] = got
	}
	keysBefore = distinctKeys(live)

	// Kill 10% of the peers mid-workload.
	killedIdx := map[int]bool{}
	for len(killedIdx) < kill {
		killedIdx[rng.Intn(len(n.Peers))] = true
	}
	killedAddr := map[transport.Addr]bool{}
	for i := range killedIdx {
		killedAddr[n.Peers[i].Addr()] = true
		n.Net.SetDown(n.Peers[i].Addr(), true)
	}
	live = live[:0]
	for i, p := range n.Peers {
		if !killedIdx[i] {
			live = append(live, p)
		}
	}
	deadDoc := make([]bool, len(n.RefOf))
	for i, ref := range n.RefOf {
		deadDoc[i] = killedAddr[ref.Peer]
	}

	// Churn window: the workload keeps running while periodic maintenance
	// repairs the ring in the background (one sweep every few queries).
	okChurn := 0
	for qi, q := range queries {
		if qi%4 == 0 {
			for _, p := range live {
				p.Maintain(context.Background())
			}
		}
		if _, _, err := n.SearchCorpusDocs(pickPeer(), q.Text()); err == nil {
			okChurn++
		}
	}
	succChurn = float64(okChurn) / float64(len(queries))

	// Fresh peers join mid-workload and take over key ranges.
	for j := 0; j < joins; j++ {
		p, err := n.AddPeer(fmt.Sprintf("late%d", j), ids.ID(rng.Uint64()), live[0].Addr())
		if err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("join %d: %w", j, err)
		}
		live = append(live, p)
		for r := 0; r < 4; r++ {
			for _, q := range live {
				q.Maintain(context.Background())
			}
		}
	}
	for r := 0; r < 6; r++ {
		for _, p := range live {
			p.Maintain(context.Background())
		}
	}

	// Settled pass: success and recall against the pre-churn reference
	// minus the offline documents.
	okSettled, recSum, recN := 0, 0.0, 0
	for qi, q := range queries {
		got, _, err := n.SearchCorpusDocs(pickPeer(), q.Text())
		if err == nil {
			okSettled++
		}
		var exp []int
		for _, d := range expected[qi] {
			if !deadDoc[d] {
				exp = append(exp, d)
			}
		}
		if len(exp) == 0 {
			continue
		}
		recN++
		if err != nil {
			continue // a failed query recalls nothing
		}
		gotSet := make(map[int]bool, len(got))
		for _, d := range got {
			gotSet[d] = true
		}
		hit := 0
		for _, d := range exp {
			if gotSet[d] {
				hit++
			}
		}
		recSum += float64(hit) / float64(len(exp))
	}
	succSettled = float64(okSettled) / float64(len(queries))
	if recN > 0 {
		recall = recSum / float64(recN)
	}
	keysAfter = distinctKeys(live)
	return succChurn, succSettled, recall, keysBefore, keysAfter, nil
}

// distinctKeys counts the distinct global-index keys held across peers.
func distinctKeys(peers []*core.Peer) int {
	seen := map[string]bool{}
	for _, p := range peers {
		for _, k := range p.GlobalIndex().Store().Keys() {
			seen[k] = true
		}
	}
	return len(seen)
}

// RunF1 reproduces Figure 1's worked example as a table: the probe/skip
// sequence for query {a,b,c} with bc indexed (truncated) and ab, ac
// absent.
func RunF1() (*metrics.Table, error) {
	// A minimal 4-peer network with exactly the figure's index state.
	n := NewNetwork(Options{NumPeers: 4, Seed: 111, Core: core.Config{}})
	put := func(terms []string, truncated bool, docs ...uint32) error {
		// A truncated list announces one document more than it holds.
		df := len(docs)
		if truncated {
			df++
		}
		item := globalindex.AppendItem{Terms: terms, List: figureList(truncated, docs...), AnnouncedDF: df}
		_, err := n.Peers[0].GlobalIndex().MultiAppend(context.Background(), []globalindex.AppendItem{item})
		return err
	}
	// Single terms are always indexed; b and c truncated, a complete.
	if err := put([]string{"figtermb", "figtermc"}, true, 10, 11); err != nil {
		return nil, err
	}
	if err := put([]string{"figterma"}, false, 1, 10); err != nil {
		return nil, err
	}
	if err := put([]string{"figtermb"}, true, 10, 11, 12); err != nil {
		return nil, err
	}
	if err := put([]string{"figtermc"}, true, 10, 13); err != nil {
		return nil, err
	}

	resp, err := n.Peers[1].Search(context.Background(), "figterma figtermb figtermc")
	if err != nil {
		return nil, err
	}
	results, trace := resp.Results, resp.Trace
	t := metrics.NewTable(
		"F1: lattice processing of query {a,b,c} (bc truncated-indexed; ab, ac absent)",
		"quantity", "value",
	)
	t.AddRow("probes issued", trace.Probes)
	t.AddRow("keys skipped", trace.Skipped)
	t.AddRow("result docs (union of bc and a)", len(results))
	return t, nil
}

func figureList(truncated bool, docIDs ...uint32) *postings.List {
	l := &postings.List{}
	for i, d := range docIDs {
		l.Add(postings.Posting{
			Ref:   postings.DocRef{Peer: "peer000", Doc: d},
			Score: float64(100 - i),
		})
	}
	l.Normalize()
	l.Truncated = truncated
	return l
}

// RunE10 measures the wasted-RPC reduction context cancellation buys: a
// query workload where 20% of the queries carry a 50ms deadline, over a
// network with simulated per-message latency, compared against the same
// subset running to completion. Before the context redesign a query
// could not be stopped once it left the facade, so every RPC of an
// abandoned query was paid in full; with cancellation the fan-out stops
// spawning work the moment the deadline passes.
func RunE10(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 600)
	peers := pick(scale, 16, 8)
	numQueries := pick(scale, 60, 25)
	latency := pick(scale, 20*time.Millisecond, 20*time.Millisecond)
	const deadline = 50 * time.Millisecond
	const cancelEvery = 5 // every 5th query = 20%

	// run builds a fresh network, publishes the corpus, then replays the
	// workload; queries at the cancel positions run under a deadline when
	// cancel is true. It returns the message count attributable to the
	// cancel-position queries.
	run := func(cancel bool) (subsetMsgs int64, timedOut int, err error) {
		n := NewNetwork(Options{NumPeers: peers, Seed: 91, Core: core.Config{
			Strategy: core.StrategyHDK,
			HDK:      hdkConfigFor(numDocs),
		}})
		coll := corpusFor(numDocs, 92)
		if err := n.Distribute(coll); err != nil {
			return 0, 0, err
		}
		if err := n.PublishStats(); err != nil {
			return 0, 0, err
		}
		if _, _, err := n.PublishHDK(); err != nil {
			return 0, 0, err
		}
		w := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: numQueries * 2, MaxTerms: 3, Seed: 93})
		var multi []corpus.Query
		for _, q := range w.Queries {
			if len(q.Terms) >= 2 { // single-term queries finish inside the deadline
				multi = append(multi, q)
			}
		}
		if len(multi) > numQueries {
			multi = multi[:numQueries]
		}
		// Latency starts after publication: only the query phase pays it.
		n.Net.SetLatency(latency)
		defer n.Net.SetLatency(0)
		rng := rand.New(rand.NewSource(94))
		for qi, q := range multi {
			p := n.RandomPeer(rng)
			atCancelPos := qi%cancelEvery == 0
			before := n.Net.Meter().Snapshot().Messages
			if cancel && atCancelPos {
				_, err := p.Search(context.Background(), q.Text(), core.WithTimeout(deadline))
				switch {
				case err == nil:
					// finished inside the deadline
				case errors.Is(err, core.ErrPartialResults) || errors.Is(err, core.ErrQueryCancelled):
					timedOut++
				default:
					return 0, 0, err
				}
			} else {
				if _, err := p.Search(context.Background(), q.Text()); err != nil {
					return 0, 0, err
				}
			}
			if atCancelPos {
				subsetMsgs += n.Net.Meter().Snapshot().Messages - before
			}
		}
		return subsetMsgs, timedOut, nil
	}

	fullMsgs, _, err := run(false)
	if err != nil {
		return nil, err
	}
	cancelMsgs, timedOut, err := run(true)
	if err != nil {
		return nil, err
	}
	saved := 0.0
	if fullMsgs > 0 {
		saved = 1 - float64(cancelMsgs)/float64(fullMsgs)
	}
	t := metrics.NewTable(
		fmt.Sprintf("E10: wasted RPCs under cancellation (%d peers, %s/msg latency, 20%% of queries deadlined at %s)",
			peers, latency, deadline),
		"mode", "RPCs on 20% subset", "deadlines hit", "RPCs saved",
	)
	t.AddRow("run-to-completion", fullMsgs, 0, "0%")
	t.AddRow("cancel@50ms", cancelMsgs, timedOut, fmt.Sprintf("%.0f%%", 100*saved))
	return t, nil
}

// ---------------------------------------------------------------------------
// E11: deadline-over-the-wire admission control + hedged replica reads.

// e11Params are the shared knobs of experiment E11's arms.
type e11Params struct {
	numDocs, peers, numQueries, numReads int
	slowDelay, hedgeDelay, deadline      time.Duration
}

func e11ParamsFor(scale Scale) e11Params {
	return e11Params{
		numDocs:    pick(scale, 2500, 500),
		peers:      pick(scale, 12, 8),
		numQueries: pick(scale, 50, 25),
		numReads:   pick(scale, 120, 60),
		slowDelay:  pick(scale, 120*time.Millisecond, 100*time.Millisecond),
		hedgeDelay: 15 * time.Millisecond,
		deadline:   40 * time.Millisecond,
	}
}

// buildE11Network builds a replicated (R=3) network over a published HDK
// index plus the multi-term query workload, and nominates the last peer
// as the one the arms will slow down. admission toggles server-side
// admission control on every peer (watermark 1, 2ms service floor).
func buildE11Network(p e11Params, admission bool) (*Network, transport.Addr, []corpus.Query, error) {
	cfg := core.Config{
		Strategy:          core.StrategyHDK,
		HDK:               hdkConfigFor(p.numDocs),
		ReplicationFactor: 3,
	}
	if admission {
		cfg.AdmissionWatermark = 1
	}
	n := NewNetwork(Options{NumPeers: p.peers, Seed: 111, Core: cfg})
	coll := corpusFor(p.numDocs, 112)
	if err := n.Distribute(coll); err != nil {
		return nil, "", nil, err
	}
	if err := n.PublishStats(); err != nil {
		return nil, "", nil, err
	}
	if _, _, err := n.PublishHDK(); err != nil {
		return nil, "", nil, err
	}
	w := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: p.numQueries * 3, MaxTerms: 3, Seed: 113})
	var multi []corpus.Query
	for _, q := range w.Queries {
		if len(q.Terms) >= 2 {
			multi = append(multi, q)
		}
	}
	if len(multi) > p.numQueries {
		multi = multi[:p.numQueries]
	}
	slow := n.Peers[p.peers-1].Addr()
	return n, slow, multi, nil
}

// runE11ShedArm replays the deadlined query workload (every 5th query
// carries the deadline, like E10) against the network with its slow peer
// active, and sums the admission counters over all peers: how many
// requests were shed before any work, and how many arrived with an
// already-expired budget but were executed anyway (the wasted work of a
// PR 3 style peer).
func runE11ShedArm(p e11Params, admission bool) (sheds, doomedExecuted int64, err error) {
	n, slow, queries, err := buildE11Network(p, admission)
	if err != nil {
		return 0, 0, err
	}
	n.Net.SetPeerDelay(slow, p.slowDelay)
	defer n.Net.SetPeerDelay(slow, 0)
	rng := rand.New(rand.NewSource(114))
	for qi, q := range queries {
		peer := n.RandomPeer(rng)
		if qi%5 == 0 {
			_, serr := peer.Search(context.Background(), q.Text(), core.WithTimeout(p.deadline))
			switch {
			case serr == nil,
				errors.Is(serr, core.ErrPartialResults),
				errors.Is(serr, core.ErrQueryCancelled):
				// Finished, or cut at the deadline — both expected.
			default:
				return 0, 0, serr
			}
		} else {
			if _, serr := peer.Search(context.Background(), q.Text()); serr != nil {
				return 0, 0, serr
			}
		}
	}
	for _, peer := range n.Peers {
		s, l := peer.Dispatcher().AdmissionStats()
		sheds += s
		doomedExecuted += l
	}
	return sheds, doomedExecuted, nil
}

// runE11ReadArm measures replica-read tail latency against the slow
// peer: numReads MultiGet batches of the workload's single-term keys
// under ReadAnyReplica, hedged or not, from one warm reader. Returned
// are the p99 wall time in milliseconds and the number of reads the slow
// copy won (wall time >= 0.9 x slowDelay). With numReads samples in the
// tens the p99 is the maximum, so one scheduler hiccup moves it; the
// count is the steady statistic.
func runE11ReadArm(p e11Params, hedged bool) (p99ms, slowReads int, err error) {
	n, slow, queries, err := buildE11Network(p, false)
	if err != nil {
		return 0, 0, err
	}
	reader := n.Peers[0].GlobalIndex()
	itemsFor := func(q corpus.Query) []globalindex.GetItem {
		items := make([]globalindex.GetItem, len(q.Terms))
		for i, t := range q.Terms {
			items[i] = globalindex.GetItem{Terms: []string{t}, MaxResults: 10}
		}
		return items
	}
	// Warm pass (no slow peer yet): the resolver learns every owner's
	// route and successor chain — the replica sets are read from it — as
	// it would have on any steady-state peer.
	for _, q := range queries {
		if _, err := reader.MultiGet(context.Background(), itemsFor(q), globalindex.ReadAnyReplica); err != nil {
			return 0, 0, err
		}
	}
	n.Net.SetPeerDelay(slow, p.slowDelay)
	defer n.Net.SetPeerDelay(slow, 0)
	var opts []globalindex.ReadOption
	if hedged {
		opts = append(opts, globalindex.WithHedge(p.hedgeDelay))
	}
	hist := metrics.NewHistogram()
	for i := 0; i < p.numReads; i++ {
		q := queries[i%len(queries)]
		start := time.Now()
		if _, err := reader.MultiGet(context.Background(), itemsFor(q), globalindex.ReadAnyReplica, opts...); err != nil {
			return 0, 0, err
		}
		took := time.Since(start)
		hist.Add(int(took / time.Millisecond))
		if took >= p.slowDelay*9/10 {
			slowReads++
		}
	}
	return hist.Percentile(99), slowReads, nil
}

// RunE11 measures what the deadline-over-the-wire machinery buys on a
// network with one slow, overloaded peer (the wasted-traffic-vs-latency
// tradeoff the paper motivates with hop-by-hop congestion control [2]):
//
//   - admission control: with 20% of queries deadlined at 40ms, a PR 3
//     style network (no admission) executes every request that reaches
//     the slow peer even after its budget expired — pure wasted work; an
//     admission-controlled network sheds those requests before the work,
//     so doomed executions drop (ideally to zero) while sheds > 0;
//   - hedged reads: AnyReplica reads whose hash-chosen copy is the slow
//     peer pay its full delay in the tail; hedged, load-aware reads race
//     the next-best copy after 15ms and learn to avoid the slow copy, so
//     the slow copy wins (almost) none of them.
func RunE11(scale Scale) (*metrics.Table, error) {
	p := e11ParamsFor(scale)
	shedsOff, doomedOff, err := runE11ShedArm(p, false)
	if err != nil {
		return nil, err
	}
	shedsOn, doomedOn, err := runE11ShedArm(p, true)
	if err != nil {
		return nil, err
	}
	p99Unhedged, slowUnhedged, err := runE11ReadArm(p, false)
	if err != nil {
		return nil, err
	}
	p99Hedged, slowHedged, err := runE11ReadArm(p, true)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		fmt.Sprintf("E11: admission control + hedged reads (%d peers, 1 slow peer @ %s, 20%% of queries deadlined at %s, hedge %s)",
			p.peers, p.slowDelay, p.deadline, p.hedgeDelay),
		"quantity", "value",
	)
	t.AddRow("sheds, admission off (PR3)", shedsOff)
	t.AddRow("doomed requests executed, admission off (PR3)", doomedOff)
	t.AddRow("sheds, admission on", shedsOn)
	t.AddRow("doomed requests executed, admission on", doomedOn)
	t.AddRow("read p99 ms, any-replica unhedged", p99Unhedged)
	t.AddRow("read p99 ms, any-replica hedged", p99Hedged)
	t.AddRow(fmt.Sprintf("reads won by the slow copy (of %d), any-replica unhedged", p.numReads), slowUnhedged)
	t.AddRow(fmt.Sprintf("reads won by the slow copy (of %d), any-replica hedged", p.numReads), slowHedged)
	return t, nil
}

// e12Trial runs one arm of the restart experiment: an R=3 network is
// published, a pre-kill reference pass is recorded, 20% of the peers
// are killed, the ring repairs while fresh keys keep being written into
// the dead peers' ranges, and the victims then restart — cold (memory
// engines, persistent=false) or from their durable WAL/snapshot state
// (persistent=true) — and rejoin. Returned: the full-entry transfers
// and manifest pairs the restarted peers' anti-entropy pulls moved,
// and the post-restart success and recall against the pre-kill
// reference.
func e12Trial(coll *corpus.Collection, queries []corpus.Query, peers, kill int, hdkCfg hdk.Config, persistent bool) (pulled, manifest int64, success, recall float64, err error) {
	ctx := context.Background()
	var root string
	var engines []globalindex.StorageEngine
	engineFor := func(i int) (globalindex.StorageEngine, error) {
		if !persistent {
			return nil, nil
		}
		return storage.Open(filepath.Join(root, fmt.Sprintf("peer%03d", i)), storage.Options{})
	}
	if persistent {
		root, err = os.MkdirTemp("", "alvis-e12-")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		defer os.RemoveAll(root)
		for i := 0; i < peers; i++ {
			e, eerr := engineFor(i)
			if eerr != nil {
				return 0, 0, 0, 0, eerr
			}
			engines = append(engines, e)
		}
	}
	n := NewNetwork(Options{
		NumPeers: peers,
		Core:     core.Config{HDK: hdkCfg, ReplicationFactor: 3},
		Seed:     141,
		Engines:  engines,
	})
	defer func() {
		for _, p := range n.Peers {
			_ = p.Close()
		}
	}()
	if err := n.Distribute(coll); err != nil {
		return 0, 0, 0, 0, err
	}
	if err := n.PublishStats(); err != nil {
		return 0, 0, 0, 0, err
	}
	if _, _, err := n.PublishHDK(); err != nil {
		return 0, 0, 0, 0, err
	}

	// Pre-kill reference pass, issued from the never-killed peer 0.
	expected := make([][]int, len(queries))
	for qi, q := range queries {
		got, _, err := n.SearchCorpusDocs(n.Peers[0], q.Text())
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("pre-kill query %d: %w", qi, err)
		}
		expected[qi] = got
	}

	// Kill 20% of the peers (peer 0 stays: it bootstraps the rejoins).
	rng := rand.New(rand.NewSource(142))
	victims := map[int]bool{}
	for len(victims) < kill {
		victims[1+rng.Intn(peers-1)] = true
	}
	for v := range victims {
		n.KillPeer(v)
	}
	live := n.Peers[:0:0]
	for i, p := range n.Peers {
		if !victims[i] {
			live = append(live, p)
		}
	}

	// The ring repairs around the dead peers...
	for r := 0; r < 8; r++ {
		for _, p := range live {
			p.Maintain(ctx)
		}
	}
	// ...and the workload keeps writing: fresh keys land in the dead
	// peers' old ranges (their promoted successors hold them now). These
	// are exactly the writes a restarted peer missed — what the delta
	// rejoin must transfer, and all it should transfer.
	fresh := &postings.List{}
	fresh.Add(postings.Posting{Ref: postings.DocRef{Peer: n.Peers[0].Addr(), Doc: 1}, Score: 1})
	var writes []globalindex.AppendItem
	for i := 0; i < 60; i++ {
		writes = append(writes, globalindex.AppendItem{Terms: []string{fmt.Sprintf("e12fresh%04d", i)}, List: fresh, Bound: 10})
	}
	if _, err := n.Peers[0].GlobalIndex().MultiAppend(ctx, writes); err != nil {
		return 0, 0, 0, 0, fmt.Errorf("mid-downtime writes: %w", err)
	}

	// Restart every victim and let the ring settle.
	for v := range victims {
		eng, eerr := engineFor(v)
		if eerr != nil {
			return 0, 0, 0, 0, eerr
		}
		if _, err := n.RestartPeer(ctx, v, eng, n.Peers[0].Addr()); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("restart peer %d: %w", v, err)
		}
		for r := 0; r < 4; r++ {
			for _, p := range n.Peers {
				p.Maintain(ctx)
			}
		}
	}
	for r := 0; r < 6; r++ {
		for _, p := range n.Peers {
			p.Maintain(ctx)
		}
	}
	for v := range victims {
		m, pl := n.Peers[v].GlobalIndex().PullTransferCounts()
		manifest += m
		pulled += pl
	}

	// Post-restart pass: success and recall against the pre-kill
	// reference (every document is back online, so no exclusions).
	ok, recSum, recN := 0, 0.0, 0
	for qi, q := range queries {
		got, _, err := n.SearchCorpusDocs(n.Peers[0], q.Text())
		if err == nil {
			ok++
		}
		if len(expected[qi]) == 0 {
			continue
		}
		recN++
		if err != nil {
			continue
		}
		gotSet := make(map[int]bool, len(got))
		for _, d := range got {
			gotSet[d] = true
		}
		hit := 0
		for _, d := range expected[qi] {
			if gotSet[d] {
				hit++
			}
		}
		recSum += float64(hit) / float64(len(expected[qi]))
	}
	success, recall = 1, 1 // a query-less trial (the transfer benchmark) is vacuously perfect
	if len(queries) > 0 {
		success = float64(ok) / float64(len(queries))
	}
	if recN > 0 {
		recall = recSum / float64(recN)
	}
	return pulled, manifest, success, recall, nil
}

// RunE12 measures what durable storage buys a restarting peer: 20% of
// an R=3 network is killed and restarted mid-workload, once with plain
// in-memory engines and once with WAL+snapshot persistence. Both arms
// rejoin by the same fingerprint-manifest walk of the owned range; the
// cold arm walks it against an empty store, so the whole range
// re-transfers, while the delta arm's recovered slice matches most
// pairs and only the writes missed during the downtime transfer. Retrieval quality must be unaffected
// in both arms — replication already covers the downtime window — so
// the delta column is pure bandwidth savings.
func RunE12(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 600)
	peers := pick(scale, 20, 10)
	numQueries := pick(scale, 100, 30)
	kill := (peers + 4) / 5

	hdkCfg := hdkConfigFor(numDocs)
	coll := corpusFor(numDocs, 131)
	w := corpus.GenerateWorkload(coll, corpus.WorkloadParams{NumQueries: numQueries, MaxTerms: 3, Seed: 133})

	t := metrics.NewTable(
		fmt.Sprintf("E12: restart recovery (%d peers, R=3, kill+restart %d, %d queries)",
			peers, kill, len(w.Queries)),
		"engine", "keys transferred", "manifest pairs", "success", "recall",
	)
	for _, persistent := range []bool{false, true} {
		pulled, manifest, success, recall, err := e12Trial(coll, w.Queries, peers, kill, hdkCfg, persistent)
		if err != nil {
			return nil, err
		}
		name := "memory (cold rejoin)"
		if persistent {
			name = "persistent (delta rejoin)"
		}
		t.AddRow(name, pulled, manifest, success, recall)
	}
	return t, nil
}

// e13Queries builds the E13 workload: mostly single head-of-Zipf terms
// — the queries whose stored lists are long (DF far above TruncK, so
// the index holds a full TruncK-length truncated list) and where
// full-pull transfer is dominated by the tail a top-10 query never
// needs — plus a fraction of two-term head pairs exercising the
// multi-key threshold loop.
func e13Queries(count, maxRank int, seed int64) []corpus.Query {
	rng := rand.New(rand.NewSource(seed))
	seenQ := map[string]bool{}
	// Pair terms come from the very head of the Zipf curve, where single
	// lists exceed TruncK and are stored truncated: QDI's redundancy rule
	// (an untruncated sub-combination answers the query exactly) would
	// otherwise veto activating any pair containing a mid-rank term.
	pairRank := maxRank / 4
	if pairRank < 2 {
		pairRank = 2
	}
	var out []corpus.Query
	for tries := 0; tries < count*100 && len(out) < count; tries++ {
		n, rank := 1, maxRank
		if rng.Float64() < 0.25 {
			n, rank = 2, pairRank
		}
		set := map[string]bool{}
		for len(set) < n {
			set[fmt.Sprintf("term%04d", rng.Intn(rank))] = true
		}
		terms := make([]string, 0, n)
		for t := range set {
			terms = append(terms, t)
		}
		q := corpus.Query{Terms: terms}
		if seenQ[q.Text()] {
			continue
		}
		seenQ[q.Text()] = true
		out = append(out, q)
	}
	return out
}

// e13TopSet is one query's result set as one arm saw it: the scored
// refs plus the k-th (last) score, for tie-aware comparison.
type e13TopSet struct {
	scores   map[postings.DocRef]float64
	boundary float64
}

// e13SameTop reports whether two arms' top-k sets agree modulo ties at
// the k-th score: a document present in only one set must score within
// the quantization tolerance of that arm's own boundary — exactly the
// documents where either resolution is a correct top k.
func e13SameTop(a, b e13TopSet) bool {
	tol := func(s float64) float64 {
		if s < 1 {
			s = 1
		}
		return 1e-4 * s
	}
	for ref, sc := range a.scores {
		if _, ok := b.scores[ref]; !ok && sc > a.boundary+tol(a.boundary) {
			return false
		}
	}
	for ref, sc := range b.scores {
		if _, ok := a.scores[ref]; !ok && sc > b.boundary+tol(b.boundary) {
			return false
		}
	}
	return true
}

// e13Arm runs one measured pass of the E13 queries with streaming on or
// off and returns mean retrieval bytes/query (presentation excluded, as
// in measureSearchQueries) plus each query's top-k result set. Both arms
// run with the HDK strategy override so QDI activation cannot mutate
// index state between them, and with the same query→peer assignment.
func e13Arm(n *Network, queries []corpus.Query, streaming bool) (int64, []e13TopSet, error) {
	rng := rand.New(rand.NewSource(34))
	before := n.Net.Meter().Snapshot()
	sets := make([]e13TopSet, len(queries))
	for i, q := range queries {
		p := n.RandomPeer(rng)
		resp, err := p.Search(context.Background(), q.Text(),
			core.WithStrategy(core.StrategyHDK), core.WithStreaming(streaming))
		if err != nil {
			return 0, nil, err
		}
		set := e13TopSet{scores: make(map[postings.DocRef]float64, len(resp.Results))}
		for _, r := range resp.Results {
			set.scores[r.Ref] = r.Score
		}
		if len(resp.Results) > 0 {
			set.boundary = resp.Results[len(resp.Results)-1].Score
		}
		sets[i] = set
	}
	delta := n.Net.Meter().Snapshot().Sub(before)
	bytes := delta.Bytes - delta.PerType[core.MsgDocInfo].Bytes
	return bytes / int64(len(queries)), sets, nil
}

// topkCounters sums the coordinator-side streamed-read telemetry across
// every peer of the network.
func topkCounters(n *Network) (rounds, early, saved float64) {
	for _, p := range n.Peers {
		for _, f := range p.Telemetry().Gather() {
			var sum float64
			for _, s := range f.Samples {
				sum += s.Value
			}
			switch f.Name {
			case "alvis_index_topk_rounds_total":
				rounds += sum
			case "alvis_index_topk_early_terminations_total":
				early += sum
			case "alvis_index_topk_bytes_saved_total":
				saved += sum
			}
		}
	}
	return rounds, early, saved
}

// RunE13 measures the two shapes of the one read frame against each
// other on a zipf(1.0) collection — the exponent of real web text,
// below math/rand's sampler floor, exercising the corpus package's
// inverse-CDF sampler. Each strategy arm (HDK, and QDI warmed by three
// activation passes) runs the same frequent-term query mix twice over
// identical index state: once opening every key with its whole list
// (chunk 0, exact scores, no refinement), once with a bounded chunk and
// the threshold loop (score-sorted prefixes, continuation only while
// the top k could change, compressed chunks). The claim: the bounded
// read moves a fraction of the bytes — the acceptance floor is 5x —
// while returning the same top-10 result set for every query.
func RunE13(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 6000, 700)
	peers := pick(scale, 24, 8)
	numQueries := pick(scale, 120, 25)
	const k = 10

	hdkCfg := hdkConfigFor(numDocs)
	hdkCfg.TruncK = pick(scale, 600, 300)
	coll := corpus.Generate(corpus.Params{
		NumDocs:    numDocs,
		VocabSize:  numDocs,
		ZipfS:      1.0,
		MeanDocLen: 60,
		NumTopics:  20,
		Seed:       137,
	})
	queries := e13Queries(numQueries, pick(scale, 60, 30), 139)

	t := metrics.NewTable(
		fmt.Sprintf("E13: bounded-chunk top-%d vs whole-list reads (zipf(1.0), %d docs, %d peers, %d queries)",
			k, numDocs, peers, len(queries)),
		"strategy", "whole-list B/q", "bounded B/q", "ratio", "identical@10", "rounds/q", "early-term frac",
	)
	for _, strat := range []core.Strategy{core.StrategyHDK, core.StrategyQDI} {
		cfg := core.Config{Strategy: strat, HDK: hdkCfg, TopK: k}
		if strat == core.StrategyQDI {
			cfg.QDI = qdi.Config{ActivateThreshold: 2, TruncK: hdkCfg.TruncK}
		}
		n := NewNetwork(Options{NumPeers: peers, Core: cfg, Seed: 141})
		if err := n.Distribute(coll); err != nil {
			return nil, err
		}
		if err := n.PublishStats(); err != nil {
			return nil, err
		}
		if _, _, err := n.PublishHDK(); err != nil { // single terms only under QDI
			return nil, err
		}
		if strat == core.StrategyQDI {
			for pass := 0; pass < 3; pass++ { // warm-up passes trigger activation
				if _, err := measureSearchQueries(n, queries); err != nil {
					return nil, err
				}
			}
		}
		fullBytes, fullSets, err := e13Arm(n, queries, false)
		if err != nil {
			return nil, err
		}
		rounds0, early0, _ := topkCounters(n)
		streamBytes, streamSets, err := e13Arm(n, queries, true)
		if err != nil {
			return nil, err
		}
		rounds1, early1, _ := topkCounters(n)

		identical := 0
		for i := range fullSets {
			if e13SameTop(fullSets[i], streamSets[i]) {
				identical++
			}
		}
		name := "HDK"
		if strat == core.StrategyQDI {
			name = "QDI warm"
		}
		nq := float64(len(queries))
		t.AddRow(name, fullBytes, streamBytes,
			float64(fullBytes)/float64(max64(streamBytes, 1)),
			float64(identical)/nq,
			(rounds1-rounds0)/nq,
			(early1-early0)/nq,
		)
	}
	return t, nil
}

// e14Counters sums the hot-key read-path telemetry across every peer:
// client-cache hits and misses (result + prefix series combined) and
// accepted soft-replica announces.
func e14Counters(n *Network) (hits, misses, announced float64) {
	for _, p := range n.Peers {
		for _, f := range p.Telemetry().Gather() {
			var sum float64
			for _, s := range f.Samples {
				sum += s.Value
			}
			switch f.Name {
			case "alvis_readcache_hits_total":
				hits += sum
			case "alvis_readcache_misses_total":
				misses += sum
			case "alvis_softreplica_announced_total":
				announced += sum
			}
		}
	}
	return hits, misses, announced
}

// e14LoadSnapshot reads every peer's served-load meter (requests
// received, presentation traffic excluded — the claim concerns
// posting-list serving, like the bandwidth experiments).
func e14LoadSnapshot(n *Network) []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(n.Peers))
	for i, p := range n.Peers {
		out[i] = n.Net.Load(p.Addr()).Snapshot()
	}
	return out
}

// e14LoadRatio reduces per-peer served-load deltas to the imbalance
// metric max/mean over retrieval bytes. A pass that served everything
// from client caches put zero load on every peer — zero imbalance, so
// the ratio reports the ideal 1.
func e14LoadRatio(n *Network, before, after []metrics.Snapshot) float64 {
	loads := make([]float64, len(before))
	var total float64
	for i := range before {
		d := after[i].Sub(before[i])
		b := d.Bytes - d.PerType[core.MsgDocInfo].Bytes
		loads[i] = float64(b)
		total += float64(b)
	}
	if total <= 0 {
		return 1
	}
	mean := total / float64(len(loads))
	maxv := 0.0
	for _, l := range loads {
		if l > maxv {
			maxv = l
		}
	}
	return maxv / mean
}

// RunE14 measures the hot-key read path — client-side result and
// posting-prefix caches plus popularity-triggered soft replication —
// under zipfian repeat-query traffic, the read-side counterpart of the
// paper's storage-side load-balancing concern. A fixed set of frontend
// peers first issues every pool query once (steady-state warm-up; hot
// keys get promoted to soft replicas), then a measured pass samples the
// pool zipf(1.0) — the repeat skew of real query logs. Both arms run
// identical network state, query sequence and read options (streamed,
// hedged, replica-spread reads at R=3) over a wire with non-zero
// latency; the arms differ only in the cache/soft-replica knobs. The
// claim: with the hot-key path on, repeat-heavy traffic is answered at
// the edge — p99 latency and the served-load imbalance (max/mean bytes
// across peers) both drop to at most half of the disabled arm's, while
// every query returns the identical top-10 set.
func RunE14(scale Scale) (*metrics.Table, error) {
	numDocs := pick(scale, 4000, 700)
	peers := pick(scale, 64, 24)
	numFrontends := pick(scale, 8, 4)
	poolSize := pick(scale, 24, 12)
	numQueries := pick(scale, 400, 120)
	latency := pick(scale, 2*time.Millisecond, time.Millisecond)
	const k = 10

	hdkCfg := hdkConfigFor(numDocs)
	hdkCfg.TruncK = pick(scale, 600, 300)
	coll := corpus.Generate(corpus.Params{
		NumDocs:    numDocs,
		VocabSize:  numDocs,
		ZipfS:      1.0,
		MeanDocLen: 60,
		NumTopics:  20,
		Seed:       151,
	})
	pool := e13Queries(poolSize, pick(scale, 60, 30), 153)

	// The measured sequence — (query rank, frontend) pairs — is drawn
	// once and replayed identically by both arms.
	zs := corpus.NewZipfSampler(1.0, len(pool))
	rng := rand.New(rand.NewSource(155))
	type draw struct{ rank, frontend int }
	seq := make([]draw, numQueries)
	for i := range seq {
		seq[i] = draw{rank: zs.Rank(rng), frontend: rng.Intn(numFrontends)}
	}

	t := metrics.NewTable(
		fmt.Sprintf("E14: hot-key caching + soft replication (zipf(1.0) repeats, %d docs, %d peers, %d frontends, %d queries)",
			numDocs, peers, numFrontends, len(seq)),
		"arm", "p99 ms", "load max/mean", "identical@10", "cache hit frac", "soft announced",
	)

	type armResult struct {
		p99      time.Duration
		loadVar  float64
		sets     []e13TopSet
		hitFrac  float64
		announce float64
	}
	runArm := func(enabled bool) (armResult, error) {
		cfg := core.Config{
			Strategy:          core.StrategyHDK,
			HDK:               hdkCfg,
			TopK:              k,
			ReplicationFactor: 3,
			StreamTopK:        true,
		}
		if enabled {
			cfg.ResultCache = 64
			cfg.PrefixCache = 256
			cfg.CacheTTL = time.Minute
			cfg.HotKeyThreshold = 2
			cfg.SoftReplicas = 2
			cfg.SoftReplicaTTL = time.Minute
		}
		n := NewNetwork(Options{NumPeers: peers, Core: cfg, Seed: 157})
		if err := n.Distribute(coll); err != nil {
			return armResult{}, err
		}
		if err := n.PublishStats(); err != nil {
			return armResult{}, err
		}
		if _, _, err := n.PublishHDK(); err != nil {
			return armResult{}, err
		}
		opts := []core.SearchOption{
			core.WithReadConsistency(core.ReadAnyReplica),
			core.WithHedging(2 * latency),
		}
		// Warm-up on a latency-free wire: every frontend resolves every
		// pool query once (and heats the owners' popularity trackers).
		for f := 0; f < numFrontends; f++ {
			for _, q := range pool {
				if _, err := n.Peers[f].Search(context.Background(), q.Text(), opts...); err != nil {
					return armResult{}, err
				}
			}
		}
		if enabled {
			for _, p := range n.Peers {
				if _, err := p.PromoteHotKeys(context.Background()); err != nil {
					return armResult{}, err
				}
			}
		}

		n.Net.SetLatency(latency)
		loadBefore := e14LoadSnapshot(n)
		hist := metrics.NewHistogram()
		sets := make([]e13TopSet, len(seq))
		for i, d := range seq {
			p := n.Peers[d.frontend]
			start := time.Now()
			resp, err := p.Search(context.Background(), pool[d.rank].Text(), opts...)
			if err != nil {
				return armResult{}, err
			}
			hist.Add(int(time.Since(start) / time.Microsecond))
			set := e13TopSet{scores: make(map[postings.DocRef]float64, len(resp.Results))}
			for _, r := range resp.Results {
				set.scores[r.Ref] = r.Score
			}
			if len(resp.Results) > 0 {
				set.boundary = resp.Results[len(resp.Results)-1].Score
			}
			sets[i] = set
		}
		n.Net.SetLatency(0)

		hits, misses, announced := e14Counters(n)
		hitFrac := 0.0
		if hits+misses > 0 {
			hitFrac = hits / (hits + misses)
		}
		return armResult{
			p99:      time.Duration(hist.Percentile(99)) * time.Microsecond,
			loadVar:  e14LoadRatio(n, loadBefore, e14LoadSnapshot(n)),
			sets:     sets,
			hitFrac:  hitFrac,
			announce: announced,
		}, nil
	}

	off, err := runArm(false)
	if err != nil {
		return nil, err
	}
	on, err := runArm(true)
	if err != nil {
		return nil, err
	}
	identical := 0
	for i := range off.sets {
		if e13SameTop(off.sets[i], on.sets[i]) {
			identical++
		}
	}
	nq := float64(len(seq))
	t.AddRow("disabled", float64(off.p99)/float64(time.Millisecond), off.loadVar, 1.0, off.hitFrac, off.announce)
	t.AddRow("hot-key path", float64(on.p99)/float64(time.Millisecond), on.loadVar,
		float64(identical)/nq, on.hitFrac, on.announce)
	return t, nil
}

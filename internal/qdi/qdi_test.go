package qdi

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/lattice"
	"repro/internal/loadstat"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

type fleet struct {
	nodes []*dht.Node
	gidx  []*globalindex.Index
	mgrs  []*Manager
}

func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(21))
	f := &fleet{}
	for i := 0; i < n; i++ {
		d := transport.NewDispatcher()
		ep := net.Endpoint(fmt.Sprintf("q%d", i), d.Serve)
		node := dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		gi := globalindex.New(node, d)
		f.nodes = append(f.nodes, node)
		f.gidx = append(f.gidx, gi)
		f.mgrs = append(f.mgrs, New(cfg, gi, d))
	}
	dht.BuildOracleTables(f.nodes)
	return f
}

func pl(truncated bool, peer string, docs ...uint32) *postings.List {
	l := &postings.List{}
	for i, d := range docs {
		l.Add(postings.Posting{
			Ref:   postings.DocRef{Peer: transport.Addr(peer), Doc: d},
			Score: float64(50 - i),
		})
	}
	l.Normalize()
	l.Truncated = truncated
	return l
}

// seedTerms publishes single-term lists into the fleet's global index. A
// list marked truncated announces one document more than it ships, which
// is what marks it truncated in the store.
func seedTerms(t *testing.T, f *fleet, terms map[string]*postings.List) {
	t.Helper()
	for term, list := range terms {
		df := list.Len()
		if list.Truncated {
			df++
		}
		item := globalindex.AppendItem{Terms: []string{term}, List: list, AnnouncedDF: df}
		if _, err := f.gidx[0].MultiAppend(context.Background(), []globalindex.AppendItem{item}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestActivationSignalAfterThreshold(t *testing.T) {
	f := newFleet(t, 8, Config{ActivateThreshold: 3})
	terms := []string{"alpha", "beta"}
	// Probe the missing combination repeatedly; the third probe crosses
	// the threshold and the responsible peer raises wantIndex.
	var want bool
	for i := 0; i < 3; i++ {
		var err error
		_, _, want, err = getOne(f.gidx[1], terms)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 && want {
			t.Fatalf("wantIndex raised too early (probe %d)", i+1)
		}
	}
	if !want {
		t.Fatal("wantIndex not raised at threshold")
	}
}

func TestSingleTermsNeverActivate(t *testing.T) {
	f := newFleet(t, 4, Config{ActivateThreshold: 1})
	for i := 0; i < 5; i++ {
		_, _, want, err := getOne(f.gidx[0], []string{"solo"})
		if err != nil {
			t.Fatal(err)
		}
		if want {
			t.Fatal("single-term keys must not request activation")
		}
	}
}

func TestOnDemandIndexingEndToEnd(t *testing.T) {
	f := newFleet(t, 8, Config{ActivateThreshold: 2, TruncK: 10})
	seedTerms(t, f, map[string]*postings.List{
		"alpha": pl(true, "hostA", 1, 2, 3),
		"beta":  pl(true, "hostA", 2, 3, 4),
	})

	query := []string{"alpha", "beta"}
	querier := f.mgrs[3]
	gi := f.gidx[3]

	runQuery := func() (map[string]bool, *postings.List, *lattice.Trace) {
		wantIndex := map[string]bool{}
		fetch := lattice.FetchFunc(func(ctx context.Context, terms []string, max int) (*postings.List, bool, error) {
			l, found, want, err := getOne(gi, terms)
			if want {
				wantIndex[ids.KeyString(terms)] = true
			}
			return l, found, err
		})
		lists, trace, err := lattice.Explore(context.Background(), fetch, query, lattice.Config{PruneTruncated: true})
		if err != nil {
			t.Fatal(err)
		}
		return wantIndex, postings.Union(lists...), trace
	}

	// First query: popularity 1, no activation request.
	wantIndex, _, _ := runQuery()
	if len(wantIndex) != 0 {
		t.Fatalf("unexpected early activation: %v", wantIndex)
	}
	// Second query crosses the threshold; the querying peer ships its
	// ranked union as the acquired list.
	wantIndex, union, trace := runQuery()
	if !wantIndex["alpha beta"] {
		t.Fatalf("missing activation request: %v", wantIndex)
	}
	n, err := querier.ProcessQuery(context.Background(), query, trace, wantIndex, union)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("activated %d keys, want 1", n)
	}

	// The key is now indexed with the query's top-ranked documents.
	list, found, _, err := getOne(f.gidx[5], query)
	if err != nil || !found {
		t.Fatalf("activated key not retrievable: %v %v", found, err)
	}
	if list.Len() == 0 {
		t.Fatal("acquired list empty")
	}
	if !list.Truncated {
		t.Fatal("acquired lists are bounded approximations and must be marked truncated")
	}
	// Subsequent identical queries hit the key directly: one probe.
	_, _, trace2 := runQuery()
	if trace2.Probes() != 1 {
		t.Fatalf("after activation the full query should hit: %d probes", trace2.Probes())
	}
}

func TestRedundantKeyNotActivated(t *testing.T) {
	f := newFleet(t, 6, Config{ActivateThreshold: 1, TruncK: 10})
	// "alpha" is indexed UNtruncated: any superset combination is
	// redundant.
	seedTerms(t, f, map[string]*postings.List{
		"alpha": pl(false, "hostA", 1, 2),
		"beta":  pl(false, "hostA", 2, 3),
	})
	gi := f.gidx[2]
	wantIndex := map[string]bool{}
	fetch := lattice.FetchFunc(func(ctx context.Context, terms []string, max int) (*postings.List, bool, error) {
		l, found, want, err := getOne(gi, terms)
		if want {
			wantIndex[ids.KeyString(terms)] = true
		}
		return l, found, err
	})
	// Two explorations: the second gets the wantIndex flag (threshold 1
	// is crossed at the first probe, but the flag accompanies the probe
	// that observes count >= threshold).
	var trace *lattice.Trace
	var union *postings.List
	for i := 0; i < 2; i++ {
		lists, tr, err := lattice.Explore(context.Background(), fetch, []string{"alpha", "beta"}, lattice.Config{})
		if err != nil {
			t.Fatal(err)
		}
		union, trace = postings.Union(lists...), tr
	}
	if !wantIndex["alpha beta"] {
		t.Skip("activation flag not raised; popularity semantics changed")
	}
	n, err := f.mgrs[2].ProcessQuery(context.Background(), []string{"alpha", "beta"}, trace, wantIndex, union)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("redundant key (untruncated subset indexed) must not activate")
	}
}

func TestEvictionOfColdKeys(t *testing.T) {
	f := newFleet(t, 6, Config{ActivateThreshold: 1, EvictThreshold: 0.5, DecayFactor: 0.4, TruncK: 10})
	// Manually activate a key at its responsible peer.
	if err := f.mgrs[0].Activate(context.Background(), []string{"x", "y"}, pl(true, "h", 1, 2)); err != nil {
		t.Fatal(err)
	}
	key := ids.KeyString([]string{"x", "y"})
	owner := findOwner(t, f, key)
	if owner < 0 {
		t.Fatal("activated key not stored anywhere")
	}
	// Keep it hot: probe, then tick. Count 1*0.4 < 0.5 would evict, so
	// probe twice per tick to stay above the threshold.
	for i := 0; i < 3; i++ {
		getOne(f.gidx[1], []string{"x", "y"})
		getOne(f.gidx[2], []string{"x", "y"})
		getOne(f.gidx[3], []string{"x", "y"})
		if evicted := f.mgrs[owner].MaintenanceTick(); evicted != 0 {
			t.Fatalf("hot key evicted at tick %d", i)
		}
	}
	// Now let it go cold: ticks without probes decay it to oblivion.
	evictedTotal := 0
	for i := 0; i < 6; i++ {
		evictedTotal += f.mgrs[owner].MaintenanceTick()
	}
	if evictedTotal != 1 {
		t.Fatalf("cold key evictions = %d, want 1", evictedTotal)
	}
	if _, found, _, _ := getOne(f.gidx[1], []string{"x", "y"}); found {
		t.Fatal("evicted key still retrievable")
	}
	if len(f.mgrs[owner].OwnedKeys()) != 0 {
		t.Fatal("ownership record not cleaned up")
	}
}

// TestActivationAtNonOwnerRefused: an activation is an owner write. One
// that reaches a node not responsible for its key — a stale route or a
// hostile peer — is refused and stores nothing, so the key cannot be
// stranded where no lookup finds it; the owner accepts the same frame.
func TestActivationAtNonOwnerRefused(t *testing.T) {
	f := newFleet(t, 6, Config{})
	key := ids.KeyString([]string{"stale", "route"})
	owner, _, err := f.nodes[0].Lookup(context.Background(), ids.HashString(key))
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(64)
	w.String(key)
	pl(true, "h", 1, 2).Encode(w)
	for i, n := range f.nodes {
		_, _, err := f.nodes[0].Endpoint().Call(context.Background(), n.Self().Addr, MsgActivate, w.Bytes())
		if n.Self().Addr == owner.Addr {
			if err != nil {
				t.Fatalf("owner refused the activation: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("non-owner %s accepted an activation of %q", n.Self().Addr, key)
		}
		if _, ok := f.gidx[i].Store().Peek(key); ok {
			t.Errorf("non-owner %s stores %q", n.Self().Addr, key)
		}
		if keys := f.mgrs[i].OwnedKeys(); len(keys) != 0 {
			t.Errorf("non-owner %s records %v as activated", n.Self().Addr, keys)
		}
	}
}

// TestTickDecay pins the tracker's clock: one MaintenanceTick multiplies
// every probe count by DecayFactor, as the per-round decay of the paper's
// usage statistics requires.
func TestTickDecay(t *testing.T) {
	for _, factor := range []float64{0.5, 0.6} {
		f := newFleet(t, 4, Config{DecayFactor: factor})
		key := ids.KeyString([]string{"x", "y"})
		for i := 0; i < 8; i++ {
			if _, _, _, err := getOne(f.gidx[i%4], []string{"x", "y"}); err != nil {
				t.Fatal(err)
			}
		}
		score := func() float64 {
			total := 0.0
			for _, m := range f.mgrs {
				total += m.probes.Score(key)
			}
			return total
		}
		if got := score(); got != 8 {
			t.Fatalf("factor %v: %v probes counted, want 8", factor, got)
		}
		for _, m := range f.mgrs {
			m.MaintenanceTick()
		}
		got := score()
		if factor == 0.5 && got != 4 {
			t.Fatalf("after one tick at factor 0.5: score %v, want exactly 4", got)
		}
		if math.Abs(got-8*factor) > 1e-9 {
			t.Fatalf("after one tick at factor %v: score %v, want %v", factor, got, 8*factor)
		}
	}
}

// TestConcurrentProbeHookAndMaintenanceTick races reads (each one a call
// of the probe hook, outside the store lock) against maintenance ticks,
// activations and the HDK/QDI toggle. Its value is running cleanly under
// the race detector.
func TestConcurrentProbeHookAndMaintenanceTick(t *testing.T) {
	f := newFleet(t, 4, Config{ActivateThreshold: 2, TruncK: 10})
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				terms := []string{"t" + strconv.Itoa((g+i)%6), "u" + strconv.Itoa(i%3)}
				if _, _, _, err := getOne(f.gidx[g], terms); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/4; i++ {
			m := f.mgrs[i%4]
			if err := m.Activate(context.Background(), []string{"t0", "u" + strconv.Itoa(i%3)}, pl(true, "h", 1)); err != nil {
				t.Error(err)
				return
			}
			m.SetEnabled(i%2 == 0)
			for _, mm := range f.mgrs {
				mm.MaintenanceTick()
				mm.TrackedKeys()
			}
		}
	}()
	wg.Wait()
}

func findOwner(t *testing.T, f *fleet, key string) int {
	t.Helper()
	for i := range f.gidx {
		if _, ok := f.gidx[i].Store().Peek(key); ok {
			return i
		}
	}
	return -1
}

func TestProcessQueryIgnoresNonQueryKeys(t *testing.T) {
	// Popularity flags for keys other than the query itself do not
	// trigger activation from this query (they activate when queried
	// directly).
	f := newFleet(t, 4, Config{ActivateThreshold: 1, TruncK: 10})
	trace := &lattice.Trace{}
	wantIndex := map[string]bool{"other pair": true}
	n, err := f.mgrs[0].ProcessQuery(context.Background(), []string{"alpha", "beta"}, trace, wantIndex, pl(true, "h", 1))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("non-query key must not activate")
	}
	// Single-term queries never activate.
	n, err = f.mgrs[0].ProcessQuery(context.Background(), []string{"alpha"}, trace, map[string]bool{"alpha": true}, pl(true, "h", 1))
	if err != nil || n != 0 {
		t.Fatalf("single-term activation: n=%d err=%v", n, err)
	}
}

func TestCoveredBy(t *testing.T) {
	cases := []struct {
		terms []string
		unt   [][]string
		want  bool
	}{
		{[]string{"a", "b"}, [][]string{{"a"}}, true},
		{[]string{"a", "b"}, [][]string{{"a", "b"}}, true},
		{[]string{"a", "b"}, [][]string{{"c"}}, false},
		{[]string{"a", "b"}, [][]string{{"a", "c"}}, false},
		{[]string{"a", "b"}, nil, false},
	}
	for _, c := range cases {
		if got := coveredBy(c.terms, c.unt); got != c.want {
			t.Errorf("coveredBy(%v, %v) = %v, want %v", c.terms, c.unt, got, c.want)
		}
	}
}

// getOne reads one key as a batch of one.
func getOne(ix *globalindex.Index, terms []string) (*postings.List, bool, bool, error) {
	res, err := ix.MultiGet(context.Background(), []globalindex.GetItem{{Terms: terms}}, globalindex.ReadPrimary)
	return res[0].List, res[0].Found, res[0].WantIndex, err
}

// BenchmarkObserveProbeFull times the probe hook on a full tracker fed a
// stream of new multi-term keys: every call evicts the coldest key and
// scores the new one. Compare BenchmarkKeyRateObserveFull.
func BenchmarkObserveProbeFull(b *testing.B) {
	m := &Manager{cfg: Config{ActivateThreshold: 3}}
	m.cfg.FillDefaults()
	m.enabled.Store(true)
	m.probes = loadstat.NewKeyRate(tickHalfLife(m.cfg.DecayFactor), 0, m.tickTime)
	const full = 4096
	for i := 0; i < full; i++ {
		m.observeProbe(fmt.Sprintf("warm %d", i), false)
	}
	fresh := make([]string, 2*full)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("new %d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink = m.observeProbe(fresh[i%len(fresh)], false)
	}
}

// probeSink keeps the benchmarked call from being optimized away.
var probeSink bool

package globalindex

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/leakcheck"
	"repro/internal/postings"
	"repro/internal/transport"
)

// hedgeRing is replRing plus access to every peer's dispatcher (the shed
// tests configure admission control on individual peers) and a stall
// handler registered on each dispatcher under msgType 0x7E. The stall
// holds every call until release, which the test's cleanup also runs.
func hedgeRing(t *testing.T, n, r int) ([]*dht.Node, []*Index, []*transport.Dispatcher, *transport.Mem, func()) {
	t.Helper()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(14))
	stalled := make(chan struct{})
	release := sync.OnceFunc(func() { close(stalled) })
	nodes := make([]*dht.Node, n)
	idxs := make([]*Index, n)
	disps := make([]*transport.Dispatcher, n)
	for i := 0; i < n; i++ {
		d := transport.NewDispatcher()
		d.Handle(0x7E, func(context.Context, transport.Addr, uint8, []byte) (uint8, []byte, error) {
			<-stalled
			return 0x7E, nil, nil
		})
		ep := tapped(net, fmt.Sprintf("h%d", i), d)
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		idxs[i] = New(nodes[i], d)
		idxs[i].EnableReplication(context.Background(), r)
		disps[i] = d
	}
	dht.BuildOracleTables(nodes)
	t.Cleanup(release)
	return nodes, idxs, disps, net, release
}

// peerIndexOf maps a transport address back to its ring position.
func peerIndexOf(t *testing.T, nodes []*dht.Node, addr transport.Addr) int {
	t.Helper()
	for i, n := range nodes {
		if n.Self().Addr == addr {
			return i
		}
	}
	t.Fatalf("no peer at %s", addr)
	return -1
}

// putReplicated stores a small list under terms through the write-through
// path and returns the key, its primary's position and the stored list.
func putReplicated(t *testing.T, nodes []*dht.Node, idxs []*Index, terms []string) (string, int, *postings.List) {
	t.Helper()
	l := &postings.List{}
	for j := 0; j < 4; j++ {
		l.Add(postings.Posting{Ref: postings.DocRef{Peer: "h0", Doc: uint32(j)}, Score: float64(9 - j)})
	}
	l.Normalize()
	if _, err := putOne(context.Background(), idxs[0], terms, l, 0); err != nil {
		t.Fatal(err)
	}
	key := ids.KeyString(terms)
	primary, _, err := nodes[0].Lookup(context.Background(), ids.HashString(key))
	if err != nil {
		t.Fatal(err)
	}
	return key, peerIndexOf(t, nodes, primary.Addr), l
}

// TestShedThenRetryOnReplicaConverges pins the client half of admission
// control: an AnyReplica read whose hash-chosen replica sheds the
// request (overloaded, budget below its service floor) must not fail the
// operation — the batch layer's provably-safe retry redrives the item
// through the primary path and the read converges to the stored data.
func TestShedThenRetryOnReplicaConverges(t *testing.T) {
	nodes, idxs, disps, _, _ := hedgeRing(t, 8, 3)
	reader := idxs[0]

	// Find a key whose AnyReplica read is served off-primary, so the shed
	// provably happens at a replica and the retry lands elsewhere.
	var key string
	var terms []string
	var want *postings.List
	var serveIdx, primaryIdx int
	for k := 0; ; k++ {
		if k > 200 {
			t.Fatal("no key found whose replica read leaves the primary")
		}
		terms = []string{fmt.Sprintf("shedkey%03d", k)}
		var pi int
		key, pi, want = putReplicated(t, nodes, idxs, terms)
		primary := nodes[pi].Self()
		serve := reader.readTarget(context.Background(), key, primary)
		if serve != primary {
			serveIdx, primaryIdx = peerIndexOf(t, nodes, serve.Addr), pi
			break
		}
	}
	_ = primaryIdx
	overload(t, nodes, idxs, disps, serveIdx)

	// A deadlined AnyReplica read: its budget (~500ms) is far below the
	// replica's 10s floor, so the replica sheds it; the batch layer must
	// retry the item on the primary and return the data.
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := reader.MultiGet(ctx, []GetItem{{Terms: terms}}, ReadAnyReplica)
	if err != nil {
		t.Fatalf("MultiGet after shed: %v", err)
	}
	if !res[0].Found || res[0].List.Len() != want.Len() {
		t.Fatalf("shed-then-retry returned %+v, want the %d stored postings", res[0], want.Len())
	}
	sheds, _ := disps[serveIdx].AdmissionStats()
	if sheds == 0 {
		t.Fatal("the overloaded replica never shed — the retry path was not exercised")
	}
}

// TestGetShedAtPrimaryFallsOverToReplica pins the read half of shed
// handling: a primary that refuses a read under admission control
// provably never recorded the probe, so the read must fall over to the
// replica chain instead of failing — the same escalation the batch layer
// gets from retryProvablySafe.
func TestGetShedAtPrimaryFallsOverToReplica(t *testing.T) {
	nodes, idxs, disps, _, _ := hedgeRing(t, 8, 3)
	reader := idxs[0]
	const primary = 2
	terms := termsOwnedBy(t, nodes[primary], 1, "fallover")
	// The write warms the reader's replica-set cache (reader == writer).
	appendOwned(t, reader, terms, 0)
	overload(t, nodes, idxs, disps, primary)

	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	l, found, _, err := getOne(ctx, reader, terms[0], 0, ReadPrimary)
	if err != nil {
		t.Fatalf("Get with shedding primary: %v", err)
	}
	if !found || l.Len() != 1 || l.Entries[0].Ref.Doc != 0 {
		t.Fatalf("fallover read returned found=%v %+v, want the stored posting", found, l)
	}
	if sheds, _ := disps[primary].AdmissionStats(); sheds == 0 {
		t.Fatal("the primary never shed — the fallover path was not exercised")
	}
}

// TestHedgedReadWinsOverSlowPrimary pins the hedged read: with the key's
// primary made slow, a hedged AnyReplica read returns the stored data
// from a replica well before the primary would have answered, and —
// checked by leakcheck — the losing RPC is cancelled rather than leaked.
func TestHedgedReadWinsOverSlowPrimary(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, idxs, _, net, _ := hedgeRing(t, 8, 3)
	reader := idxs[3]
	terms := []string{"hedged", "read"}
	_, primaryIdx, want := putReplicated(t, nodes, idxs, terms)
	primaryAddr := nodes[primaryIdx].Self().Addr

	// Warm the resolver and replica-set caches before slowing the
	// primary, as a steady-state peer would have them warm.
	if _, err := reader.MultiGet(context.Background(), []GetItem{{Terms: terms}}, ReadAnyReplica); err != nil {
		t.Fatal(err)
	}

	const slow = 400 * time.Millisecond
	net.SetPeerDelay(primaryAddr, slow)
	defer net.SetPeerDelay(primaryAddr, 0)

	start := time.Now()
	res, err := reader.MultiGet(context.Background(), []GetItem{{Terms: terms}},
		ReadAnyReplica, WithHedge(20*time.Millisecond))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("hedged MultiGet: %v", err)
	}
	if !res[0].Found || res[0].List.Len() != want.Len() {
		t.Fatalf("hedged read returned %+v, want %d postings", res[0], want.Len())
	}
	if elapsed >= slow {
		t.Fatalf("hedged read took %s, not faster than the slow primary (%s)", elapsed, slow)
	}

	// The single-key hedged path agrees.
	start = time.Now()
	l, found, _, err := getOne(context.Background(), reader, terms, 0, ReadAnyReplica, WithHedge(20*time.Millisecond))
	if err != nil || !found || l.Len() != want.Len() {
		t.Fatalf("hedged Get: %v found=%v", err, found)
	}
	if since := time.Since(start); since >= slow {
		t.Fatalf("hedged Get took %s", since)
	}
	// leakcheck (deferred) proves the losing RPC goroutines unwound; its
	// own bounded retry (3s ≫ slow) outlasts the slow peer's drain.
}

// TestHedgedStreamContinuesAtWinner: a streamed session whose open the
// hedge won — its read chain asks the slow primary first — sends its
// continuation MsgRead to the copy that answered the open, not to the
// primary. The answer names no peer, so this pins that sendGroup tells
// the decoder which copy won.
func TestHedgedStreamContinuesAtWinner(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, idxs, _, net, _ := hedgeRing(t, 8, 3)
	reader := idxs[3]
	self := nodes[3].Self().Addr
	ctx := context.Background()
	var key string
	var terms []string
	var primary, winner transport.Addr
	var want *postings.List
	for i := 0; primary == ""; i++ {
		if i == 64 {
			t.Fatal("no key whose read chain leads with its primary")
		}
		ts := []string{"continue", fmt.Sprint(i)}
		k, primaryIdx, l := putReplicated(t, nodes, idxs, ts)
		p := nodes[primaryIdx].Self()
		chain := reader.readChain(ctx, k, p, false)
		if chain[0].addr == p.Addr && p.Addr != self && chain[1].addr != self {
			key, terms, primary, winner, want = k, ts, p.Addr, chain[1].addr, l
		}
	}
	reads := func(addr transport.Addr) int64 { return net.Load(addr).Snapshot().PerType[MsgRead].Messages }

	const slow = 400 * time.Millisecond
	net.SetPeerDelay(primary, slow)
	defer net.SetPeerDelay(primary, 0)

	s := reader.NewTopKSession(want.Len(), 2, ReadAnyReplica, WithHedge(20*time.Millisecond))
	start := time.Now()
	res, err := s.FetchPrefixes(ctx, []GetItem{{Terms: terms}})
	if err != nil || !res[0].Found || res[0].List.Len() != 2 {
		t.Fatalf("hedged open: %+v, %v", res, err)
	}
	if since := time.Since(start); since >= slow {
		t.Fatalf("hedged open took %s, not faster than the slow primary (%s)", since, slow)
	}
	winnerBefore, primaryBefore := reads(winner), reads(primary)
	if err := s.Refine(ctx, func(perKey map[string]*postings.List) []postings.Posting { return perKey[key].Entries }); err != nil {
		t.Fatal(err)
	}
	if got := s.Lists()[key]; got.Len() != want.Len() {
		t.Fatalf("refined list has %d entries, want %d", got.Len(), want.Len())
	}
	if n := reads(winner) - winnerBefore; n != 1 {
		t.Fatalf("winning copy %s received %d continuation reads, want 1", winner, n)
	}
	if n := reads(primary) - primaryBefore; n != 0 {
		t.Fatalf("slow primary %s received %d continuation reads, want 0", primary, n)
	}
}

// TestHedgedReadLearnsToAvoidSlowReplica: after a few hedged reads the
// latency EWMA demotes the slow copy to the end of the chain, so later
// reads go straight to a fast copy (no hedge fires, under one hedge
// delay of wall time).
func TestHedgedReadLearnsToAvoidSlowReplica(t *testing.T) {
	nodes, idxs, _, net, _ := hedgeRing(t, 8, 3)
	reader := idxs[2]
	terms := []string{"ewma", "learns"}
	_, primaryIdx, _ := putReplicated(t, nodes, idxs, terms)
	primaryAddr := nodes[primaryIdx].Self().Addr

	if _, err := reader.MultiGet(context.Background(), []GetItem{{Terms: terms}}, ReadAnyReplica); err != nil {
		t.Fatal(err)
	}
	net.SetPeerDelay(primaryAddr, 200*time.Millisecond)
	defer net.SetPeerDelay(primaryAddr, 0)

	// One primary read observes the slowness directly (any timed RPC to
	// the peer feeds the same EWMA the read chain ranks by).
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	if _, _, _, err := getOne(ctx, reader, terms, 0, ReadPrimary); err != nil {
		t.Fatal(err)
	}
	cancel()
	// Later hedged reads now rank the slow copy last and go straight to a
	// fast replica: well under one slow-peer delay of wall time.
	start := time.Now()
	for i := 0; i < 4; i++ {
		if _, err := reader.MultiGet(context.Background(), []GetItem{{Terms: terms}},
			ReadAnyReplica, WithHedge(15*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("4 hedged reads with a demoted slow copy took %s", elapsed)
	}
	chain := reader.readChain(context.Background(), string(primaryAddr), nodes[primaryIdx].Self(), false)
	if len(chain) < 2 {
		t.Fatalf("chain = %v, want primary + replicas", chain)
	}
	if chain[len(chain)-1].addr != primaryAddr {
		// The slow primary must have sunk to the end of the preference
		// order once observed.
		est, ok := reader.lat.Estimate(primaryAddr)
		t.Fatalf("slow primary not demoted: chain=%v (estimate %v ok=%v)", chain, est, ok)
	}
}

// TestHedgeCountersLaunchedAndWon pins the hedge counters: a first copy
// slower than the hedge delay makes the read fire one hedge, and the
// hedge's answer wins; with every copy fast, no hedge fires.
func TestHedgeCountersLaunchedAndWon(t *testing.T) {
	defer leakcheck.Check(t)()
	nodes, idxs, _, net, _ := hedgeRing(t, 8, 3)
	terms := []string{"hedge", "counters"}
	key, primaryIdx, want := putReplicated(t, nodes, idxs, terms)
	primary := nodes[primaryIdx].Self()
	// The reader holds no copy: a peer's call to itself skips the
	// network, and with it the injected delay.
	var reader *Index
	for i := range idxs {
		holds := false
		for _, c := range idxs[i].readChain(context.Background(), key, primary, false) {
			holds = holds || c.addr == nodes[i].Self().Addr
		}
		if !holds {
			reader = idxs[i]
			break
		}
	}
	if reader == nil {
		t.Fatal("every peer holds a copy")
	}
	if _, err := reader.MultiGet(context.Background(), []GetItem{{Terms: terms}}, ReadAnyReplica); err != nil {
		t.Fatal(err)
	}
	read := func() {
		t.Helper()
		res, err := reader.MultiGet(context.Background(), []GetItem{{Terms: terms}},
			ReadAnyReplica, WithHedge(30*time.Millisecond))
		if err != nil || !res[0].Found || res[0].List.Len() != want.Len() {
			t.Fatalf("hedged read: %+v, %v", res, err)
		}
	}

	// The copy the hedged read asks first is the one made slow.
	first := reader.readChain(context.Background(), key, primary, false)[0].addr
	net.SetPeerDelay(first, 300*time.Millisecond)
	before := reader.TopKStats()
	read()
	net.SetPeerDelay(first, 0)
	after := reader.TopKStats()
	if got := after.HedgesLaunched - before.HedgesLaunched; got != 1 {
		t.Fatalf("slow first copy: %d hedges launched, want 1", got)
	}
	if got := after.HedgesWon - before.HedgesWon; got != 1 {
		t.Fatalf("slow first copy: %d hedges won, want 1", got)
	}

	before = after
	read()
	after = reader.TopKStats()
	if after.HedgesLaunched != before.HedgesLaunched || after.HedgesWon != before.HedgesWon {
		t.Fatalf("fast copies: hedges launched %d won %d, want none",
			after.HedgesLaunched-before.HedgesLaunched, after.HedgesWon-before.HedgesWon)
	}
}

// TestHedgedChainFailureDropsReplicaRoutes: a hedged read whose every
// copy failed drops the resolver's routes to the whole chain, so the
// next read re-resolves the replica set with a fresh lookup instead of
// racing the same cached copies again.
func TestHedgedChainFailureDropsReplicaRoutes(t *testing.T) {
	nodes, idxs, _, net, _ := hedgeRing(t, 8, 3)
	ctx := context.Background()
	terms := []string{"whole", "chain"}
	_, primaryIdx, _ := putReplicated(t, nodes, idxs, terms)
	primary := nodes[primaryIdx].Self()
	var reader *Index
	var chain []hedgeTarget
	for i := range idxs {
		chain = idxs[i].readChain(ctx, "", primary, false)
		holds := false
		for _, c := range chain {
			holds = holds || c.addr == nodes[i].Self().Addr
		}
		if !holds {
			reader = idxs[i]
			break
		}
	}
	if reader == nil || len(chain) != 3 {
		t.Fatalf("fixture broken: reader %v, chain %v", reader, chain)
	}
	hedged := func() error {
		_, err := reader.MultiGet(ctx, []GetItem{{Terms: terms}}, ReadAnyReplica, WithHedge(10*time.Millisecond))
		return err
	}
	if err := hedged(); err != nil {
		t.Fatal(err)
	}
	for _, c := range chain {
		net.SetDown(c.addr, true)
	}
	if err := hedged(); err == nil {
		t.Fatal("a read with every copy down succeeded")
	}
	for _, c := range chain {
		net.SetDown(c.addr, false)
	}
	before := net.Meter().Snapshot()
	if got := reader.replicaTargets(ctx, primary); len(got) != 2 {
		t.Fatalf("replica set after the copies came back = %v, want 2 nodes", got)
	}
	if n := net.Meter().Snapshot().Sub(before).PerType[dht.MsgNextHop].Messages; n == 0 {
		t.Fatal("the replica set was answered from routes to copies that all failed")
	}
}

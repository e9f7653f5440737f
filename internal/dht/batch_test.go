package dht

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ids"
	"repro/internal/transport"
)

// randomIDs returns count distinct pseudo-random ring IDs.
func randomIDs(count int, seed int64) []ids.ID {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[ids.ID]bool, count)
	out := make([]ids.ID, 0, count)
	for len(out) < count {
		id := ids.ID(rng.Uint64())
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// TestLookupBatchMatchesSequential checks that re-resolving keys whose
// owners' routes were invalidated — the batch client's redrive after a
// failed frame — agrees key-for-key with individual fresh lookups.
func TestLookupBatchMatchesSequential(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, randomIDs(16, 1), Options{})
	src := nodes[3]

	keys := randomIDs(64, 2)
	want := make([]Remote, len(keys))
	for i, k := range keys {
		r, _, err := src.Lookup(context.Background(), k)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		want[i] = r
	}
	res := src.NewResolver()
	if _, err := res.Resolve(context.Background(), keys); err != nil {
		t.Fatal(err)
	}
	for _, r := range want[:len(want)/2] {
		res.Invalidate(r.Addr)
	}
	got, err := res.Resolve(context.Background(), keys)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	for i := range keys {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestResolverMatchesSequentialAndSavesRPCs checks that the caching
// resolver returns the same responsibilities as per-key lookups while
// issuing strictly fewer RPCs.
func TestResolverMatchesSequentialAndSavesRPCs(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, randomIDs(24, 3), Options{})
	src := nodes[0]

	keys := randomIDs(200, 4)
	want := make([]Remote, len(keys))
	before := net.Meter().Snapshot().Messages
	for i, k := range keys {
		r, _, err := src.Lookup(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	seqMsgs := net.Meter().Snapshot().Messages - before

	res := src.NewResolver()
	before = net.Meter().Snapshot().Messages
	got, err := res.Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	batchMsgs := net.Meter().Snapshot().Messages - before
	for i := range keys {
		if got[i] != want[i] {
			t.Fatalf("key %d: got %v want %v", i, got[i], want[i])
		}
	}
	if batchMsgs >= seqMsgs {
		t.Fatalf("resolver used %d messages, sequential %d", batchMsgs, seqMsgs)
	}
	t.Logf("sequential %d messages, resolver %d", seqMsgs, batchMsgs)

	// A second pass over the same keys is served entirely from cache.
	before = net.Meter().Snapshot().Messages
	again, err := res.Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	if warm := net.Meter().Snapshot().Messages - before; warm != 0 {
		t.Fatalf("warm resolve used %d messages", warm)
	}
	for i := range keys {
		if again[i] != want[i] {
			t.Fatalf("warm key %d: got %v want %v", i, again[i], want[i])
		}
	}
}

// TestResolverColdResolveOneLookup counts the frames of a cold resolve
// on a ring small enough for one lookup's successor lists to reveal
// every owner: the first round resolves a single miss, so the whole
// resolve costs one lookup's NextHop frames and no GetState at all, not
// a lookup per miss.
func TestResolverColdResolveOneLookup(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, randomIDs(8, 3), Options{})
	src := nodes[0]
	keys := randomIDs(64, 4)
	first := slices.Min(keys)
	if src.Responsible(first) {
		t.Fatal("fixture: the first miss must be owned by a remote node")
	}
	// The meter books a call's request and its reply under the call's
	// type: one call is two frames.
	frames := func(typ uint8) int64 { return net.Meter().Snapshot().PerType[typ].Messages }

	nextHop, getState := frames(MsgNextHop), frames(MsgGetState)
	got, err := src.NewResolver().Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	nextHop, getState = frames(MsgNextHop)-nextHop, frames(MsgGetState)-getState

	// One plain lookup of the first miss is the NextHop budget.
	before := frames(MsgNextHop)
	if _, _, err := src.Lookup(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	oneLookup := frames(MsgNextHop) - before
	if nextHop != oneLookup || getState != 0 {
		t.Fatalf("cold resolve of %d keys: %d NextHop and %d GetState frames, want %d and 0", len(keys), nextHop, getState, oneLookup)
	}
	for i, k := range keys {
		want, _, err := src.Lookup(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("key %d: got %v want %v", i, got[i], want)
		}
	}
}

// TestResolverSingleNode covers the no-predecessor (fresh ring) case.
func TestResolverSingleNode(t *testing.T) {
	net := transport.NewMem()
	n := newTestNode(net, 42, Options{})
	res := n.NewResolver()
	got, err := res.Resolve(context.Background(), randomIDs(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range got {
		if r.Addr != n.Self().Addr {
			t.Fatalf("key %d resolved to %v, want self", i, r)
		}
	}
}

// TestResolverInvalidate checks that dropping a node's intervals forces a
// re-resolution that routes around it.
func TestResolverInvalidate(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, randomIDs(8, 6), Options{})
	src := nodes[0]
	res := src.NewResolver()

	keys := randomIDs(40, 7)
	first, err := res.Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	// Kill one remote node that owned at least one key.
	var victim Remote
	for _, r := range first {
		if r.Addr != src.Self().Addr {
			victim = r
			break
		}
	}
	if victim.IsZero() {
		t.Skip("all keys landed on the source node")
	}
	net.SetDown(victim.Addr, true)
	res.Invalidate(victim.Addr)
	convergeLoose(nodes)

	second, err := res.Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range second {
		if r.Addr == victim.Addr {
			t.Fatalf("key %d still resolves to dead node %v", i, r)
		}
	}
}

// TestResolverCacheHoldsNoDuplicates checks that re-learning chains
// after invalidations does not pile up copies of intervals the cache
// already holds: every cached resolution and successor step scans the
// whole list.
func TestResolverCacheHoldsNoDuplicates(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, randomIDs(8, 11), Options{})
	res := nodes[0].NewResolver()
	keys := randomIDs(64, 3)
	owners, err := res.Resolve(context.Background(), keys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res.Invalidate(owners[i].Addr)
		if _, err := res.Resolve(context.Background(), keys); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[interval]bool)
	for _, iv := range res.iv {
		if seen[iv] {
			t.Fatalf("interval %+v cached twice (%d intervals on an 8-node ring)", iv, len(res.iv))
		}
		seen[iv] = true
	}
}

// TestResolverAddKeepsPartition pins how a learned chain enters the
// cache: the chain ends where its list stops running clockwise from the
// node asked, and a newer interval replaces every cached one it
// overlaps, so no key has two cached owners.
func TestResolverAddKeepsPartition(t *testing.T) {
	res := newTestNode(transport.NewMem(), 1, Options{}).NewResolver()
	node := func(id ids.ID) Remote { return Remote{ID: id, Addr: transport.Addr(fmt.Sprint(id))} }
	owners := func() map[ids.ID]ids.ID {
		got := make(map[ids.ID]ids.ID)
		for _, key := range []ids.ID{50, 120, 150, 190, 250, 350} {
			if rem, ok := res.cached(key); ok {
				got[key] = rem.ID
			}
		}
		return got
	}
	// 150 lies behind 300 seen from 100: the list is stale past 300.
	res.add(node(100), []Remote{node(200), node(300), node(150), node(400)})
	if got, want := owners(), map[ids.ID]ids.ID{120: 200, 150: 200, 190: 200, 250: 300}; !maps.Equal(got, want) {
		t.Fatalf("after the first chain: owners %v, want %v", got, want)
	}
	// (180, 250] overlaps both cached intervals, so it replaces both.
	res.add(node(180), []Remote{node(250)})
	if got, want := owners(), map[ids.ID]ids.ID{190: 250, 250: 250}; !maps.Equal(got, want) {
		t.Fatalf("after an overlapping chain: owners %v, want %v", got, want)
	}
}

// TestLookupBatchConcurrentCallers hammers one shared resolver from many
// goroutines — key resolution, successor walks and invalidation
// interleaved, as concurrent batch operations drive it (run under
// -race).
func TestLookupBatchConcurrentCallers(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, randomIDs(12, 8), Options{})
	src := nodes[5]
	res := src.NewResolver()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			keys := randomIDs(30, seed)
			got, err := res.Resolve(context.Background(), keys)
			if err != nil {
				t.Error(err)
				return
			}
			if succs := res.Successors(context.Background(), got[0], 2); len(succs) != 2 {
				t.Errorf("successors of %v = %v, want 2", got[0], succs)
			}
			res.Invalidate(got[len(got)-1].Addr)
		}(int64(100 + g))
	}
	wg.Wait()
}

// TestRunBoundedCompleteFanOutIsNotAnError pins that a fan-out every
// index of which ran reports success even when the context dies before
// RunBounded returns: the two indices rendezvous (so both are in flight
// on their own workers), then one cancels. Callers such as the batch
// client read a non-nil result as "some frame was never sent", so a
// fully applied fan-out must not be reported as incomplete.
func TestRunBoundedCompleteFanOutIsNotAnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started sync.WaitGroup
	started.Add(2)
	ran := make([]bool, 2)
	err := RunBounded(ctx, 2, func(i int) {
		started.Done()
		started.Wait()
		ran[i] = true
		if i == 1 {
			cancel()
		}
	})
	if !ran[0] || !ran[1] {
		t.Fatalf("ran = %v, want every index", ran)
	}
	if err != nil {
		t.Fatalf("err = %v for a fan-out that ran every index", err)
	}
}

// TestRunBoundedSkippedIndexIsAnError is the converse: under a context
// that is already dead no index runs, and the call says so — on the
// parallel path and on the inline single-index path alike.
func TestRunBoundedSkippedIndexIsAnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, count := range []int{1, 2, 3 * FanOut} {
		var ran atomic.Int64
		err := RunBounded(ctx, count, func(int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("count %d: err = %v, want context.Canceled", count, err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("count %d: %d indices ran under a dead context", count, n)
		}
	}
}

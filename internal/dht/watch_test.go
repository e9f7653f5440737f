package dht

import (
	"context"
	"slices"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/transport"
)

// TestRingChangeNotifications verifies that every RingEpoch bump is
// accompanied by exactly one RingChange callback carrying the delta.
func TestRingChangeNotifications(t *testing.T) {
	net := transport.NewMem()
	a := newTestNode(net, 100, Options{})
	b := newTestNode(net, 200, Options{})

	var mu sync.Mutex
	var events []RingChange
	a.OnRingChange(func(ch RingChange) {
		mu.Lock()
		events = append(events, ch)
		mu.Unlock()
	})

	if err := b.Join(context.Background(), a.Self().Addr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := a.Stabilize(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := b.Stabilize(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no ring changes observed on a during b's join")
	}
	// Every event carries a delta and epochs are strictly increasing.
	var lastEpoch uint64
	for i, ev := range events {
		if !ev.PredChanged && !ev.SuccsChanged {
			t.Errorf("event %d carries no delta: %+v", i, ev)
		}
		if ev.Epoch <= lastEpoch {
			t.Errorf("event %d epoch %d not increasing past %d", i, ev.Epoch, lastEpoch)
		}
		lastEpoch = ev.Epoch
	}
	if lastEpoch != a.RingEpoch() {
		t.Errorf("last event epoch %d != RingEpoch %d", lastEpoch, a.RingEpoch())
	}
	// a must have learned b as both predecessor and successor.
	final := events[len(events)-1]
	_ = final
	if a.Predecessor().Addr != b.Self().Addr {
		t.Errorf("a.pred = %v, want b", a.Predecessor())
	}
	if a.Successor().Addr != b.Self().Addr {
		t.Errorf("a.succ = %v, want b", a.Successor())
	}

	// A stable ring fires nothing.
	before := len(events)
	mu.Unlock()
	for i := 0; i < 3; i++ {
		_ = a.Stabilize(context.Background())
		_ = b.Stabilize(context.Background())
	}
	mu.Lock()
	if len(events) != before {
		t.Errorf("stable ring fired %d extra events", len(events)-before)
	}
}

// TestRingChangePredecessorFailed verifies the failure path delta: the
// cleared predecessor is reported, and the repair notify reports the new
// one.
func TestRingChangePredecessorFailed(t *testing.T) {
	net := transport.NewMem()
	nodes := buildRing(t, net, []ids.ID{100, 200, 300}, Options{})

	// Find node 300's successor-ring neighbours: pred=200.
	var n300 *Node
	for _, n := range nodes {
		if n.ID() == 300 {
			n300 = n
		}
	}
	var events []RingChange
	n300.OnRingChange(func(ch RingChange) { events = append(events, ch) })

	old := n300.Predecessor()
	n300.PredecessorFailed()
	if len(events) != 1 {
		t.Fatalf("events = %d, want 1", len(events))
	}
	ev := events[0]
	if !ev.PredChanged || ev.OldPred != old || !ev.NewPred.IsZero() {
		t.Fatalf("bad delta: %+v", ev)
	}
	// Clearing an already-zero predecessor fires nothing.
	n300.PredecessorFailed()
	if len(events) != 1 {
		t.Fatalf("no-op clear fired an event")
	}
}

// TestResolverSuccessors checks the resolver's successor walk: a warm
// chain answers with no frame and no allocation beyond the result, the
// walk stops when it wraps, and the chain past an invalidated owner
// still answers from cache.
func TestResolverSuccessors(t *testing.T) {
	ctx := context.Background()
	t.Run("warm", func(t *testing.T) {
		net := transport.NewMem()
		nodes := buildRing(t, net, randomIDs(8, 11), Options{})
		ring := sortedByID(nodes)
		owner := ring[2].Self()
		res := nodes[0].NewResolver()
		if _, err := res.Resolve(ctx, []ids.ID{owner.ID}); err != nil {
			t.Fatal(err)
		}
		want := []Remote{ring[3].Self(), ring[4].Self(), ring[5].Self()}
		before := net.Meter().Snapshot().Messages
		if got := res.Successors(ctx, owner, 3); !slices.Equal(got, want) {
			t.Fatalf("successors = %v, want %v", got, want)
		}
		// The chain past an invalidated owner survives: those intervals
		// name its successors, not the owner.
		res.Invalidate(owner.Addr)
		if got := res.Successors(ctx, owner, 3); !slices.Equal(got, want) {
			t.Fatalf("successors after Invalidate = %v, want %v", got, want)
		}
		if sent := net.Meter().Snapshot().Messages - before; sent != 0 {
			t.Fatalf("warm successor walks sent %d messages, want 0", sent)
		}
		if allocs := testing.AllocsPerRun(100, func() { res.Successors(ctx, owner, 3) }); allocs > 1 {
			t.Fatalf("warm successor walk: %.1f allocations, want <= 1", allocs)
		}
	})
	t.Run("cold", func(t *testing.T) {
		net := transport.NewMem()
		nodes := buildRing(t, net, randomIDs(8, 12), Options{})
		ring := sortedByID(nodes)
		res := ring[1].NewResolver()
		before := net.Meter().Snapshot()
		got := res.Successors(ctx, ring[6].Self(), 2)
		if want := []Remote{ring[7].Self(), ring[0].Self()}; !slices.Equal(got, want) {
			t.Fatalf("cold successors = %v, want %v", got, want)
		}
		// The lookup's successor lists reveal the whole chain: no owner
		// is asked for its state.
		if n := net.Meter().Snapshot().Sub(before).PerType[MsgGetState].Messages; n != 0 {
			t.Fatalf("cold successor walk booked %d GetState messages, want 0", n)
		}
	})
	t.Run("wraps", func(t *testing.T) {
		net := transport.NewMem()
		nodes := buildRing(t, net, []ids.ID{100, 200, 300}, Options{})
		res := nodes[0].NewResolver()
		got := res.Successors(ctx, nodes[0].Self(), 5)
		if want := []Remote{nodes[1].Self(), nodes[2].Self()}; !slices.Equal(got, want) {
			t.Fatalf("successors on a 3-node ring = %v, want %v", got, want)
		}
	})
}

package loadstat

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/transport"
)

func TestObserveAndEstimate(t *testing.T) {
	tr := NewTracker()
	if _, ok := tr.Estimate("a"); ok {
		t.Fatal("unobserved peer must have no estimate")
	}
	tr.Observe("a", 10*time.Millisecond)
	if d, ok := tr.Estimate("a"); !ok || d != 10*time.Millisecond {
		t.Fatalf("first observation should seed the EWMA, got %v %v", d, ok)
	}
	// The EWMA moves toward new observations without jumping.
	tr.Observe("a", 50*time.Millisecond)
	d, _ := tr.Estimate("a")
	if d <= 10*time.Millisecond || d >= 50*time.Millisecond {
		t.Fatalf("EWMA = %v, want strictly between 10ms and 50ms", d)
	}
	tr.Observe("a", -time.Second) // ignored
	if d2, _ := tr.Estimate("a"); d2 != d {
		t.Fatalf("negative observation must be ignored, %v -> %v", d, d2)
	}
	tr.Forget("a")
	if _, ok := tr.Estimate("a"); ok {
		t.Fatal("Forget must drop the estimate")
	}
}

func TestRankDemotesSlowPeer(t *testing.T) {
	tr := NewTracker()
	tr.Observe("slow", 120*time.Millisecond)
	tr.Observe("fast", 2*time.Millisecond)
	addrs := []transport.Addr{"slow", "unknown", "fast"}
	tr.Rank(addrs)
	if addrs[2] != "slow" {
		t.Fatalf("slow peer must rank last, got %v", addrs)
	}
	// unknown (bucket 0) before fast (bucket 2): optimism over evidence.
	if addrs[0] != "unknown" || addrs[1] != "fast" {
		t.Fatalf("order = %v, want [unknown fast slow]", addrs)
	}
}

// TestRankStableWithoutObservations: with nothing observed the input
// order is preserved byte for byte — the property that keeps the
// hash-rotated replica order (and its determinism tests) intact until
// real load signal exists.
func TestRankStableWithoutObservations(t *testing.T) {
	tr := NewTracker()
	addrs := []transport.Addr{"c", "a", "b"}
	tr.Rank(addrs)
	if addrs[0] != "c" || addrs[1] != "a" || addrs[2] != "b" {
		t.Fatalf("order changed without observations: %v", addrs)
	}
	// Sub-quantum differences also leave the order alone.
	tr.Observe("c", 100*time.Microsecond)
	tr.Observe("a", 900*time.Microsecond)
	tr.Rank(addrs)
	if addrs[0] != "c" || addrs[1] != "a" || addrs[2] != "b" {
		t.Fatalf("sub-millisecond jitter must not reorder: %v", addrs)
	}
}

func TestTrackerConcurrency(t *testing.T) {
	tr := NewTracker()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			addrs := []transport.Addr{"p0", "p1", "p2", "p3"}
			for i := 0; i < 500; i++ {
				tr.Observe(addrs[i%4], time.Duration(1+i%7)*time.Millisecond)
				local := append([]transport.Addr(nil), addrs...)
				tr.Rank(local)
				_, _ = tr.Estimate(addrs[(i+g)%4])
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 4 {
		t.Fatalf("tracked peers = %d, want 4", tr.Len())
	}
}

func TestRankManyPeersDeterministic(t *testing.T) {
	tr := NewTracker()
	var addrs []transport.Addr
	for i := 0; i < 16; i++ {
		addrs = append(addrs, transport.Addr(fmt.Sprintf("p%02d", i)))
	}
	tr.Observe("p05", 80*time.Millisecond)
	tr.Observe("p11", 40*time.Millisecond)
	a := append([]transport.Addr(nil), addrs...)
	b := append([]transport.Addr(nil), addrs...)
	tr.Rank(a)
	tr.Rank(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranking not deterministic at %d: %v vs %v", i, a, b)
		}
	}
	if a[len(a)-1] != "p05" || a[len(a)-2] != "p11" {
		t.Fatalf("slowest peers must sink to the end: %v", a)
	}
}

// TestIdleDecayRecoversSlowPeer pins the satellite fix: a peer that was
// once slow and is then never selected again (because the ranking it
// earned repels traffic) must drift back toward the fleet median after
// idle windows elapse, instead of staying demoted forever.
func TestIdleDecayRecoversSlowPeer(t *testing.T) {
	tr := NewTracker()
	now := time.Unix(1000, 0)
	tr.clock = func() time.Time { return now }
	tr.EnableIdleDecay(time.Second)

	fast1, fast2, slow := transport.Addr("f1"), transport.Addr("f2"), transport.Addr("slow")
	tr.Observe(fast1, 1*time.Millisecond)
	tr.Observe(fast2, 1*time.Millisecond)
	tr.Observe(slow, 100*time.Millisecond)

	order := []transport.Addr{slow, fast1, fast2}
	tr.Rank(order)
	if order[2] != slow {
		t.Fatalf("slow peer not demoted before decay: %v", order)
	}

	// The fast peers keep being observed and ranked (every read ranks,
	// which is what applies the lazy decay); slow goes idle.
	for i := 0; i < 20; i++ {
		now = now.Add(time.Second)
		tr.Observe(fast1, 1*time.Millisecond)
		tr.Observe(fast2, 1*time.Millisecond)
		tr.Rank([]transport.Addr{fast1, fast2})
	}

	est, ok := tr.Estimate(slow)
	if !ok {
		t.Fatal("slow peer lost from tracker")
	}
	if est >= 100*time.Millisecond {
		t.Fatalf("idle EWMA never decayed: still %v", est)
	}
	// 20 idle windows at step /4 toward a ~1ms median pull 100ms well
	// under the 1ms ranking quantum of the fleet, so the peer rejoins
	// the top bucket and input order wins again.
	order = []transport.Addr{slow, fast1, fast2}
	tr.Rank(order)
	if order[0] != slow {
		t.Fatalf("recovered peer still demoted: %v (estimate %v)", order, est)
	}
}

// TestIdleDecayOffByDefault pins that a tracker without EnableIdleDecay
// behaves exactly as before: estimates are immortal.
func TestIdleDecayOffByDefault(t *testing.T) {
	tr := NewTracker()
	now := time.Unix(1000, 0)
	tr.clock = func() time.Time { return now }
	tr.Observe(transport.Addr("a"), 1*time.Millisecond)
	tr.Observe(transport.Addr("b"), 80*time.Millisecond)
	now = now.Add(time.Hour)
	if est, _ := tr.Estimate(transport.Addr("b")); est != 80*time.Millisecond {
		t.Fatalf("estimate changed without idle decay enabled: %v", est)
	}
}

// TestIdleDecayCapsBacklog: a peer idle for far longer than
// maxIdleSteps windows converges in one bounded sweep and does not owe
// an unbounded replay of steps.
func TestIdleDecayCapsBacklog(t *testing.T) {
	tr := NewTracker()
	now := time.Unix(1000, 0)
	tr.clock = func() time.Time { return now }
	tr.EnableIdleDecay(time.Second)
	tr.Observe(transport.Addr("a"), 1*time.Millisecond)
	tr.Observe(transport.Addr("b"), 1*time.Millisecond)
	tr.Observe(transport.Addr("slow"), 200*time.Millisecond)
	now = now.Add(24 * time.Hour)
	est, _ := tr.Estimate(transport.Addr("slow"))
	// 8 capped steps toward ~1ms: 200ms * (3/4)^8 ≈ 20ms, plus the
	// median contribution. The point is it moved a lot and stopped.
	if est >= 100*time.Millisecond || est < 1*time.Millisecond {
		t.Fatalf("capped decay out of range: %v", est)
	}
}

func TestKeyRateObserveAndDecay(t *testing.T) {
	now := time.Unix(500, 0)
	kr := NewKeyRate(time.Second, 16, func() time.Time { return now })
	for i := 0; i < 8; i++ {
		kr.Observe("hot")
	}
	kr.Observe("cold")
	if s := kr.Score("hot"); s < 7.9 || s > 8.1 {
		t.Fatalf("hot score = %v, want ~8", s)
	}
	hot := kr.Hot(4)
	if len(hot) != 1 || hot[0] != "hot" {
		t.Fatalf("Hot(4) = %v, want [hot]", hot)
	}
	now = now.Add(time.Second) // one half-life
	if s := kr.Score("hot"); s < 3.9 || s > 4.1 {
		t.Fatalf("decayed score = %v, want ~4", s)
	}
	now = now.Add(10 * time.Second)
	if got := kr.Hot(0.5); len(got) != 0 {
		t.Fatalf("fully decayed keys still hot: %v", got)
	}
}

func TestKeyRateBounded(t *testing.T) {
	now := time.Unix(500, 0)
	kr := NewKeyRate(time.Minute, 4, func() time.Time { return now })
	// One genuinely hot key, then a long tail of one-off keys.
	for i := 0; i < 10; i++ {
		kr.Observe("hot")
	}
	for i := 0; i < 100; i++ {
		now = now.Add(time.Millisecond)
		kr.Observe(fmt.Sprintf("tail-%03d", i))
	}
	if kr.Len() > 4 {
		t.Fatalf("table unbounded: %d keys", kr.Len())
	}
	if s := kr.Score("hot"); s < 9 {
		t.Fatalf("hot key evicted by the tail (score %v)", s)
	}
}

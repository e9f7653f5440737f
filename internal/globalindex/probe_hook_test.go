package globalindex

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/postings"
	"repro/internal/wire"
)

// probeCounter is a probe hook that counts the probes it sees per key
// and remembers the presence each last reported. It never asks for
// activation.
type probeCounter struct {
	mu     sync.Mutex
	counts map[string]int
	found  map[string]bool
}

func newProbeCounter() *probeCounter {
	return &probeCounter{counts: map[string]int{}, found: map[string]bool{}}
}

func (c *probeCounter) hook(key string, found bool) bool {
	c.mu.Lock()
	c.counts[key]++
	c.found[key] = found
	c.mu.Unlock()
	return false
}

func (c *probeCounter) get(key string) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[key], c.found[key]
}

func (c *probeCounter) count(key string) int {
	n, _ := c.get(key)
	return n
}

// TestProbeHookSemantics pins where handleRead reports a probe: once per
// opening chunk (cursor 0) of an owner- or any-mode read, for absent keys
// too, never for a continuation and never for a soft-copy read. The
// hook's answer becomes the item's wantIndex for an absent key only.
func TestProbeHookSemantics(t *testing.T) {
	ix := selfIndex(t)
	probes := newProbeCounter()
	ix.SetProbeHook(probes.hook)
	l := &postings.List{}
	for i := 0; i < 20; i++ {
		l.Add(post("a", uint32(i), float64(100-i)))
	}
	ix.Store().Put("k", l, 10)
	ix.hot.install("soft", 1, l, 1<<40, ix.node.RingEpoch())

	read := func(mode uint8, items ...readItem) []topKAnswer {
		t.Helper()
		_, resp, err := ix.handleRead(context.Background(), "tester", MsgRead, readRequest(mode, items...))
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		r := wire.NewReader(resp)
		out := make([]topKAnswer, r.Uvarint())
		for i := range out {
			if out[i], err = readTopKAnswer(r, ix.node.Self().Addr); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, mode := range []uint8{readOwner, readAny} {
		read(mode, readItem{"k", 0, 4})
		read(mode, readItem{"k", 4, 100}) // continuation: same logical probe
		read(mode, readItem{"absent", 0, 5})
		read(mode, readItem{"absent", 3, 5})
	}
	if n, found := probes.get("k"); n != 2 || !found {
		t.Fatalf("present key: %d probes found=%v, want one per opening read", n, found)
	}
	if n, found := probes.get("absent"); n != 2 || found {
		t.Fatalf("absent key: %d probes found=%v, want one per opening read", n, found)
	}
	// A soft-copy read is not a probe of this peer's slice; an any-mode
	// read of the same key probes the slice first, then falls back.
	read(readSoft, readItem{"soft", 0, 4})
	if n := probes.count("soft"); n != 0 {
		t.Fatalf("soft read recorded %d probes", n)
	}
	if a := read(readAny, readItem{"soft", 0, 4}); !a[0].found {
		t.Fatal("any-mode read did not fall back to the soft copy")
	}
	if n, found := probes.get("soft"); n != 1 || found {
		t.Fatalf("any-mode read of a soft-only key: %d probes found=%v", n, found)
	}

	// The hook's answer raises wantIndex for a missing key only.
	ix.SetProbeHook(func(string, bool) bool { return true })
	as := read(readOwner, readItem{"k", 0, 0}, readItem{"absent", 0, 0}, readItem{"absent", 2, 0})
	if as[0].wantIndex || !as[1].wantIndex || as[2].wantIndex {
		t.Fatalf("wantIndex present=%v absent=%v continuation=%v, want false true false", as[0].wantIndex, as[1].wantIndex, as[2].wantIndex)
	}
	ix.SetProbeHook(nil)
	if as := read(readOwner, readItem{"absent", 0, 0}); as[0].wantIndex {
		t.Fatal("nil hook raised wantIndex")
	}
}

// BenchmarkGetPrefixAfterManyProbes times a GetPrefix of a fresh key on
// a store that has already served 4,096 distinct absent-key probes: the
// read path must not pay for what earlier reads left behind.
func BenchmarkGetPrefixAfterManyProbes(b *testing.B) {
	const probed = 4096
	s := NewStore()
	for i := 0; i < probed; i++ {
		s.GetPrefix(fmt.Sprintf("absent-%d", i), 0, 0)
	}
	fresh := make([]string, 2*probed)
	for i := range fresh {
		fresh[i] = fmt.Sprintf("fresh-%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefixSink = s.GetPrefix(fresh[i%len(fresh)], 0, 0)
	}
}

// prefixSink keeps the benchmarked call from being optimized away.
var prefixSink PrefixResult

package globalindex

import (
	"context"

	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// keyID hashes a single-term key to its ring position.
func keyID(term string) ids.ID { return ids.HashString(ids.KeyString([]string{term})) }

func TestStoreHardCapEnforced(t *testing.T) {
	s := NewStore()
	l := &postings.List{Entries: []postings.Posting{post("a", 1, 1)}}
	// A bound beyond the hard cap is clamped to it.
	if n := s.Put("k", l, HardCap*2); n != 1 {
		t.Fatalf("put: %d", n)
	}
	got, _, _ := s.Get("k", 0)
	if got.Truncated {
		t.Fatal("small list under clamped bound must not be truncated")
	}
}

// TestStoreActivationPolicyLifecycle drives the activation signal
// through the probe hook: the hook's answer reaches the reader as
// wantIndex for a missing key only, and a nil hook never raises it.
func TestStoreActivationPolicyLifecycle(t *testing.T) {
	ix := selfIndex(t)
	probes := newProbeCounter()
	ix.SetProbeHook(func(key string, found bool) bool {
		probes.hook(key, found)
		return probes.count(key) >= 2
	})
	read := func(terms ...string) bool {
		t.Helper()
		_, _, want, err := getOne(context.Background(), ix, terms, 0, ReadPrimary)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	if read("pair", "terms") {
		t.Fatal("first probe below threshold")
	}
	if !read("pair", "terms") {
		t.Fatal("second probe should activate")
	}
	// Present keys never request activation.
	ix.Store().Put(ids.KeyString([]string{"indexed", "key"}), &postings.List{}, 10)
	for i := 0; i < 3; i++ {
		if read("indexed", "key") {
			t.Fatal("present key requested activation")
		}
	}
	// Without a hook nothing is recorded and nothing activates.
	ix.SetProbeHook(nil)
	if read("pair", "terms") {
		t.Fatal("nil hook must never activate")
	}
	if n := probes.count("pair terms"); n != 2 {
		t.Fatalf("hook saw %d probes of the missing key, want 2", n)
	}
}

func TestStoreQuickAppendInvariants(t *testing.T) {
	// Property: after any sequence of bounded writes from distinct
	// origins, the stored list (a) never exceeds the bound, (b) is in
	// canonical order, and (c) approxDF equals the sum of announced DFs.
	f := func(batches [][]uint16, bound8 uint8) bool {
		bound := int(bound8)%20 + 1
		s := NewStore()
		var announced int64
		for bi, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			l := &postings.List{}
			for _, d := range batch {
				l.Add(postings.Posting{
					Ref:   postings.DocRef{Peer: transport.Addr(fmt.Sprintf("p%d", bi)), Doc: uint32(d)},
					Score: float64(d % 97),
				})
			}
			l.Normalize()
			write(s, "k", l, bound, l.Len())
			announced += int64(l.Len())
		}
		got, ok := s.Peek("k")
		if !ok {
			return announced == 0
		}
		if got.Len() > bound {
			return false
		}
		for i := 1; i < got.Len(); i++ {
			if got.Entries[i].Score > got.Entries[i-1].Score {
				return false
			}
		}
		df, _ := s.ApproxDF("k")
		return df == announced
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyInfoRPCEndToEnd(t *testing.T) {
	_, idxs, _ := ring(t, 8)
	// Unknown key.
	df, present, truncated, err := keyInfoOne(context.Background(), idxs[0], []string{"ghost"})
	if err != nil || present || truncated || df != 0 {
		t.Fatalf("unknown key info: %d %v %v %v", df, present, truncated, err)
	}
	// Published key with truncation.
	big := &postings.List{}
	for i := 0; i < 30; i++ {
		big.Add(post("pub", uint32(i), float64(i)))
	}
	if _, err := appendOne(context.Background(), idxs[1], []string{"busy"}, big, 10, 30); err != nil {
		t.Fatal(err)
	}
	df, present, truncated, err = keyInfoOne(context.Background(), idxs[2], []string{"busy"})
	if err != nil || !present || !truncated || df != 30 {
		t.Fatalf("busy key info: df=%d present=%v trunc=%v err=%v", df, present, truncated, err)
	}
}

func TestGetRoutesToResponsiblePeerOnly(t *testing.T) {
	nodes, idxs, net := ring(t, 10)
	if _, err := putOne(context.Background(), idxs[0], []string{"target"}, &postings.List{Entries: []postings.Posting{post("a", 1, 1)}}, 10); err != nil {
		t.Fatal(err)
	}
	// Record per-peer load, issue gets from every peer, and verify the
	// read frames all landed at the responsible peer.
	var responsible transport.Addr
	{
		r, _, err := nodes[0].Lookup(context.Background(), keyID("target"))
		if err != nil {
			t.Fatal(err)
		}
		responsible = r.Addr
	}
	before := map[transport.Addr]int64{}
	for _, n := range nodes {
		before[n.Self().Addr] = net.Load(n.Self().Addr).Snapshot().PerType[MsgRead].Messages
	}
	for _, ix := range idxs {
		if _, _, _, err := getOne(context.Background(), ix, []string{"target"}, 0, ReadPrimary); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range nodes {
		addr := n.Self().Addr
		delta := net.Load(addr).Snapshot().PerType[MsgRead].Messages - before[addr]
		if addr == responsible {
			if delta == 0 {
				t.Fatal("responsible peer received no Get")
			}
		} else if delta != 0 {
			t.Fatalf("peer %s received %d Gets for a key it does not own", addr, delta)
		}
	}
}

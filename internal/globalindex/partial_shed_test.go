package globalindex

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// termsOwnedBy generates n distinct single-term keys whose responsible
// peer is owner.
func termsOwnedBy(t *testing.T, owner *dht.Node, n int, tag string) [][]string {
	t.Helper()
	var out [][]string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatal("could not find enough keys owned by the target peer")
		}
		term := fmt.Sprintf("%s%05d", tag, i)
		if owner.Responsible(ids.HashString(ids.KeyString([]string{term}))) {
			out = append(out, []string{term})
		}
	}
	return out
}

// TestPartialShedMultiGetServesPrefixAndRedrives drives a MultiGet
// frame into an overloaded peer whose admission control can only afford
// part of it: the peer must serve a prefix (item sheds > 0, no
// whole-frame refusal) and the client must transparently redrive the
// shed suffix — as one more batch frame — so every item still answers
// correctly.
func TestPartialShedMultiGetServesPrefixAndRedrives(t *testing.T) {
	nodes, idxs, disps, net, _ := hedgeRing(t, 6, 1)
	serverIdx := 1
	server := nodes[serverIdx]
	terms := termsOwnedBy(t, server, 16, "pshed")

	var items []AppendItem
	for i, ts := range terms {
		items = append(items, AppendItem{
			Terms: ts,
			List:  &postings.List{Entries: []postings.Posting{{Ref: postings.DocRef{Peer: "h0", Doc: uint32(i)}, Score: 5}}},
			Bound: 10,
		})
	}
	if _, err := idxs[0].MultiAppend(context.Background(), items); err != nil {
		t.Fatal(err)
	}

	// Overload the owner: watermark 1 (one stuck handler parks it
	// there) and a trained 50ms-per-item read estimate, so a ~500ms
	// budget affords only ~10 of the 16 items per frame: the first frame
	// serves a prefix, the one redrive frame the rest.
	disps[serverIdx].SetAdmissionControl(1, time.Millisecond)
	for i := 0; i < 32; i++ {
		disps[serverIdx].ObserveBatch(MsgRead, 500*time.Millisecond, 10)
	}
	go func() {
		_, _, _ = idxs[2].Node().Endpoint().Call(context.Background(), server.Self().Addr, 0x7E, nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for disps[serverIdx].Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall call never occupied the server")
		}
		time.Sleep(time.Millisecond)
	}

	var gets []GetItem
	for _, ts := range terms {
		gets = append(gets, GetItem{Terms: ts})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	addr := server.Self().Addr
	ownerBefore, anyBefore := readFrames(net, readOwner, addr), readFrames(net, readAny, addr)
	res, err := idxs[0].MultiGet(ctx, gets, ReadPrimary)
	if err != nil {
		t.Fatalf("MultiGet across a partial shed: %v", err)
	}
	if b, r := readFrames(net, readOwner, addr)-ownerBefore, readFrames(net, readAny, addr)-anyBefore; b != 1 || r != 1 {
		t.Errorf("owner received %d readOwner and %d readAny frames, want the batch and one redrive", b, r)
	}
	for i, r := range res {
		if !r.Found || r.List.Len() != 1 || r.List.Entries[0].Ref.Doc != uint32(i) {
			t.Fatalf("item %d (%v) not recovered after partial shed: %+v", i, terms[i], r)
		}
	}
	if shed := disps[serverIdx].ItemSheds(); shed == 0 {
		t.Fatal("no items were shed — the partial path was not exercised")
	} else if shed >= int64(len(terms)) {
		t.Fatalf("all %d items shed; expected a served prefix", shed)
	}

	// The ladder is bounded: a batch the budget cannot cover in two
	// frames fails with the typed shed instead of redriving forever.
	big := termsOwnedBy(t, server, 40, "pshed")
	gets = gets[:0]
	for _, ts := range big {
		gets = append(gets, GetItem{Terms: ts})
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel2()
	if _, err := idxs[0].MultiGet(ctx2, gets, ReadPrimary); !errors.Is(err, transport.ErrShed) {
		t.Fatalf("unaffordable batch: got %v, want ErrShed", err)
	}
}

// TestPartialShedMultiAppendNoDoubleApply pins the correctness edge of
// redriving a non-idempotent operation: the served prefix of a
// partially-shed MultiAppend must not be re-applied, so every key's
// accumulated DF ends exactly at its announced value.
func TestPartialShedMultiAppendNoDoubleApply(t *testing.T) {
	nodes, idxs, disps, _, _ := hedgeRing(t, 6, 1)
	serverIdx := 2
	server := nodes[serverIdx]
	terms := termsOwnedBy(t, server, 16, "pappend")

	disps[serverIdx].SetAdmissionControl(1, time.Millisecond)
	for i := 0; i < 32; i++ {
		disps[serverIdx].ObserveBatch(MsgMultiAppend, 400*time.Millisecond, 10)
	}
	go func() {
		_, _, _ = idxs[3].Node().Endpoint().Call(context.Background(), server.Self().Addr, 0x7E, nil)
	}()
	deadline := time.Now().Add(2 * time.Second)
	for disps[serverIdx].Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stall call never occupied the server")
		}
		time.Sleep(time.Millisecond)
	}

	var items []AppendItem
	for i, ts := range terms {
		items = append(items, AppendItem{
			Terms:       ts,
			List:        &postings.List{Entries: []postings.Posting{{Ref: postings.DocRef{Peer: "h1", Doc: uint32(i)}, Score: 2}}},
			Bound:       10,
			AnnouncedDF: 7,
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := idxs[0].MultiAppend(ctx, items); err != nil {
		t.Fatalf("MultiAppend across a partial shed: %v", err)
	}
	if shed := disps[serverIdx].ItemSheds(); shed == 0 {
		t.Fatal("no items were shed — the partial path was not exercised")
	}
	store := idxs[serverIdx].Store()
	for _, ts := range terms {
		key := ids.KeyString(ts)
		df, present := store.ApproxDF(key)
		if !present {
			t.Fatalf("key %q missing after redrive", key)
		}
		if df != 7 {
			t.Fatalf("key %q approxDF = %d, want exactly 7 (partial prefix double-applied or lost)", key, df)
		}
	}
}

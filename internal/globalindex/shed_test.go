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

// appendItems builds one single-posting item per key — document i under
// key i — each announcing df.
func appendItems(terms [][]string, df int) []AppendItem {
	items := make([]AppendItem, len(terms))
	for i, ts := range terms {
		items[i] = AppendItem{
			Terms:       ts,
			List:        &postings.List{Entries: []postings.Posting{{Ref: postings.DocRef{Peer: "h0", Doc: uint32(i)}, Score: 5}}},
			Bound:       10,
			AnnouncedDF: df,
		}
	}
	return items
}

// appendOwned writes appendItems(terms, df) through ix without a deadline.
func appendOwned(t *testing.T, ix *Index, terms [][]string, df int) {
	t.Helper()
	if _, err := ix.MultiAppend(context.Background(), appendItems(terms, df)); err != nil {
		t.Fatal(err)
	}
}

// overload makes peer v of a hedgeRing shed every deadlined frame whose
// budget is under 10 s: watermark 1, a 10 s service floor, and one stuck
// 0x7E call holding its in-flight count at the watermark until the
// ring's release.
func overload(t *testing.T, nodes []*dht.Node, idxs []*Index, disps []*transport.Dispatcher, v int) {
	t.Helper()
	disps[v].SetAdmissionControl(1, 10*time.Second)
	caller := idxs[(v+1)%len(idxs)]
	go func() {
		_, _, _ = caller.Node().Endpoint().Call(context.Background(), nodes[v].Self().Addr, 0x7E, nil)
	}()
	waitInflight(t, disps[v], 1)
}

// waitInflight waits until d counts want handlers in flight.
func waitInflight(t *testing.T, d *transport.Dispatcher, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for d.Inflight() != want {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight handlers = %d, want %d", d.Inflight(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPartialShedMultiGetServesPrefixAndRedrives drives a 16-key
// MultiGet frame into an overloaded owner at R=3. A frame is shed whole,
// so the prefix the owner serves is empty: it sheds the batch and the
// readAny redrive, and the client sends the group once more, as one
// frame, to a replica, which answers every item.
func TestPartialShedMultiGetServesPrefixAndRedrives(t *testing.T) {
	nodes, idxs, disps, net, _ := hedgeRing(t, 8, 3)
	reader := idxs[0]
	const owner = 2
	terms := termsOwnedBy(t, nodes[owner], 16, "pshed")
	// The write warms the reader's replica-set cache (reader == writer).
	appendOwned(t, reader, terms, 0)
	overload(t, nodes, idxs, disps, owner)

	gets := make([]GetItem, len(terms))
	for i, ts := range terms {
		gets[i] = GetItem{Terms: ts}
	}
	addr := nodes[owner].Self().Addr
	var others []transport.Addr
	for i, n := range nodes {
		if i != owner {
			others = append(others, n.Self().Addr)
		}
	}
	ownerBefore, anyBefore := readFrames(net, readOwner, addr), readFrames(net, readAny, addr)
	othersBefore := readFrames(net, readOwner, others...) + readFrames(net, readAny, others...)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	res, err := reader.MultiGet(ctx, gets, ReadPrimary)
	if err != nil {
		t.Fatalf("MultiGet across a shedding owner: %v", err)
	}
	for i, r := range res {
		if !r.Found || r.List.Len() != 1 || r.List.Entries[0].Ref.Doc != uint32(i) {
			t.Fatalf("item %d (%v) not answered in full: %+v", i, terms[i], r)
		}
	}
	if b, r := readFrames(net, readOwner, addr)-ownerBefore, readFrames(net, readAny, addr)-anyBefore; b != 1 || r != 1 {
		t.Errorf("owner received %d readOwner and %d readAny frames, want the batch and one redrive", b, r)
	}
	if n := readFrames(net, readOwner, others...) + readFrames(net, readAny, others...) - othersBefore; n != 1 {
		t.Errorf("the other peers received %d read frames, want the one replica frame", n)
	}
	if sheds, _ := disps[owner].AdmissionStats(); sheds < 2 {
		t.Errorf("owner shed %d frames, want at least the batch and its redrive", sheds)
	}
}

// TestShedMultiGetWithoutReplicasFails: at R=1 a read the owner sheds
// has no other copy to ask. The owner sheds the frame whole, sheds the
// one redrive too, and the read fails with the typed shed.
func TestShedMultiGetWithoutReplicasFails(t *testing.T) {
	nodes, idxs, disps, net, _ := hedgeRing(t, 6, 1)
	const owner = 1
	terms := termsOwnedBy(t, nodes[owner], 16, "shed")
	appendOwned(t, idxs[0], terms, 0)
	overload(t, nodes, idxs, disps, owner)

	gets := make([]GetItem, len(terms))
	for i, ts := range terms {
		gets[i] = GetItem{Terms: ts}
	}
	addr := nodes[owner].Self().Addr
	ownerBefore, anyBefore := readFrames(net, readOwner, addr), readFrames(net, readAny, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := idxs[0].MultiGet(ctx, gets, ReadPrimary); !errors.Is(err, transport.ErrShed) {
		t.Fatalf("read shed at its only copy: got %v, want ErrShed", err)
	}
	if b, r := readFrames(net, readOwner, addr)-ownerBefore, readFrames(net, readAny, addr)-anyBefore; b != 1 || r != 1 {
		t.Errorf("owner received %d readOwner and %d readAny frames, want the batch and one redrive", b, r)
	}
	// The ring walks re-resolving the redrive set are deadlined too, so
	// the owner sheds more than the two read frames.
	if sheds, _ := disps[owner].AdmissionStats(); sheds < 2 {
		t.Errorf("owner shed %d frames, want at least the two reads", sheds)
	}
}

// TestShedResolveSendsNoStateFetch pins what re-resolving around a
// shedding owner costs it in the same setting: nothing. The read resolves
// twice — the batch and the redrive — and each lookup learns the owner's
// range from the routing steps before it, so the owner receives no
// MsgGetState at all.
func TestShedResolveSendsNoStateFetch(t *testing.T) {
	nodes, idxs, disps, net, _ := hedgeRing(t, 6, 1)
	const owner = 1
	terms := termsOwnedBy(t, nodes[owner], 16, "shed")
	appendOwned(t, idxs[0], terms, 0)
	overload(t, nodes, idxs, disps, owner)

	gets := make([]GetItem, len(terms))
	for i, ts := range terms {
		gets[i] = GetItem{Terms: ts}
	}
	addr := nodes[owner].Self().Addr
	before := receivedFrames(net, addr)[dht.MsgGetState]
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if _, err := idxs[0].MultiGet(ctx, gets, ReadPrimary); !errors.Is(err, transport.ErrShed) {
		t.Fatalf("read shed at its only copy: got %v, want ErrShed", err)
	}
	if got := receivedFrames(net, addr)[dht.MsgGetState] - before; got != 0 {
		t.Errorf("the shedding owner received %d MsgGetState frames over the read's two resolves, want 0", got)
	}
}

// TestShedMultiAppendAppliesNothing pins the write half: a MultiAppend
// the owner sheds twice fails with the typed shed and applies none of
// its items, so a retry once the load is gone lands every key's DF at
// exactly its announced value.
func TestShedMultiAppendAppliesNothing(t *testing.T) {
	nodes, idxs, disps, net, release := hedgeRing(t, 6, 1)
	const owner = 2
	terms := termsOwnedBy(t, nodes[owner], 16, "append")
	overload(t, nodes, idxs, disps, owner)

	addr := nodes[owner].Self().Addr
	framesBefore := modeFrames(net, MsgMultiAppend, readOwner, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	if _, err := idxs[0].MultiAppend(ctx, appendItems(terms, 7)); !errors.Is(err, transport.ErrShed) {
		t.Fatalf("append shed twice: got %v, want ErrShed", err)
	}
	if n := modeFrames(net, MsgMultiAppend, readOwner, addr) - framesBefore; n != 2 {
		t.Errorf("owner received %d MultiAppend frames, want the batch and one redrive", n)
	}
	store := idxs[owner].Store()
	for _, ts := range terms {
		if df, present := store.ApproxDF(ids.KeyString(ts)); present || df != 0 {
			t.Fatalf("key %v applied by a shed frame: df %d", ts, df)
		}
	}

	release()
	waitInflight(t, disps[owner], 0)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel2()
	if _, err := idxs[0].MultiAppend(ctx2, appendItems(terms, 7)); err != nil {
		t.Fatalf("append once the load is gone: %v", err)
	}
	for _, ts := range terms {
		if df, present := store.ApproxDF(ids.KeyString(ts)); !present || df != 7 {
			t.Fatalf("key %v: df %d (present %v), want exactly 7", ts, df, present)
		}
	}
}

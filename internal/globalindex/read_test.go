package globalindex

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestReadShapesAndPoliciesAgree is the equivalence test of the one read
// frame: the three shapes a read can take — a one-shot MultiGet, a
// session opening whole lists, a session opening a bounded chunk and
// refining — under the three ways a policy can address it return the
// same top-k set on a seeded replicated ring. The two whole-list shapes
// ship exact scores and must agree with the stored lists bit for bit;
// the bounded shape ships quantized chunks and must stay within the
// codec's documented 2^-21 relative error.
func TestReadShapesAndPoliciesAgree(t *testing.T) {
	_, idxs, _ := replRing(t, 10, 3)
	writer, reader := idxs[0], idxs[4]
	const k, listLen = 10, 300
	items := publishLongLists(t, writer, 5, listLen, 77)
	stored := map[string]*postings.List{}
	for _, it := range items {
		key := keyOf(it.Terms)
		for _, ix := range idxs {
			if ix.node.Responsible(ids.HashString(key)) {
				stored[key], _ = ix.Store().Peek(key)
			}
		}
		if stored[key] == nil || stored[key].Len() != listLen {
			t.Fatalf("key %q not stored whole at its owner", key)
		}
	}
	want := rankSumRefs(stored)[:k]

	ctx := context.Background()
	shapes := []struct {
		name  string
		exact bool
		read  func(policy ReadPolicy, opts ...ReadOption) (map[string]*postings.List, error)
	}{
		{"one-shot MultiGet", true, func(policy ReadPolicy, opts ...ReadOption) (map[string]*postings.List, error) {
			res, err := reader.MultiGet(ctx, items, policy, opts...)
			out := map[string]*postings.List{}
			for i, r := range res {
				out[keyOf(items[i].Terms)] = r.List
			}
			return out, err
		}},
		{"session, whole-list chunk", true, func(policy ReadPolicy, opts ...ReadOption) (map[string]*postings.List, error) {
			sess := reader.NewTopKSession(k, 0, policy, opts...)
			_, err := sess.FetchPrefixes(ctx, items)
			return sess.Lists(), err
		}},
		{"session, bounded chunk + Refine", false, func(policy ReadPolicy, opts ...ReadOption) (map[string]*postings.List, error) {
			sess := reader.NewTopKSession(k, DefaultChunk(k), policy, opts...)
			if _, err := sess.FetchPrefixes(ctx, items); err != nil {
				return nil, err
			}
			err := sess.Refine(ctx, rankSumRefs)
			return sess.Lists(), err
		}},
	}
	policies := []struct {
		name   string
		policy ReadPolicy
		opts   []ReadOption
	}{
		{"primary", ReadPrimary, nil},
		{"any replica", ReadAnyReplica, nil},
		{"any replica, hedged", ReadAnyReplica, []ReadOption{WithHedge(20 * time.Millisecond)}},
	}
	for _, sh := range shapes {
		for _, pol := range policies {
			t.Run(sh.name+"/"+pol.name, func(t *testing.T) {
				lists, err := sh.read(pol.policy, pol.opts...)
				if err != nil {
					t.Fatal(err)
				}
				if sh.exact {
					for key, l := range stored {
						got := lists[key]
						if got == nil || got.Len() != l.Len() || got.Truncated != l.Truncated {
							t.Fatalf("key %q: read %v, stored %d entries", key, got, l.Len())
						}
						for i := range l.Entries {
							if got.Entries[i] != l.Entries[i] {
								t.Fatalf("key %q entry %d: read %+v, stored %+v", key, i, got.Entries[i], l.Entries[i])
							}
						}
					}
				} else {
					fetched := 0
					for _, l := range lists {
						fetched += l.Len()
					}
					if fetched >= len(items)*listLen {
						t.Fatalf("bounded shape fetched all %d stored postings", fetched)
					}
				}
				got := rankSumRefs(lists)
				for i, w := range want {
					if got[i].Ref != w.Ref {
						t.Fatalf("rank %d: read %v, stored %v", i, got[i].Ref, w.Ref)
					}
					if rel := math.Abs(got[i].Score-w.Score) / w.Score; rel > math.Ldexp(1, -21) || (sh.exact && rel != 0) {
						t.Fatalf("rank %d score: read %v, stored %v (rel %.3g)", i, got[i].Score, w.Score, rel)
					}
				}
			})
		}
	}
}

// TestHostileReplyCountIsTypedError: a peer answering a batch frame with
// an item count other than the request's must cost the client a typed
// error, never a panic or a silent partial answer. A count in [2^63,
// 2^64) wraps negative through int(); a short count, with every item it
// names well formed, is no shed either — a frame is served whole or
// refused. One subtest per count, one check per frame family the client
// decodes.
func TestHostileReplyCountIsTypedError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		count func(n int) uint64 // the answer's count for an n-item request
	}{
		{"wrapping count", func(int) uint64 { return 1 << 63 }},
		{"short count", func(n int) uint64 { return uint64(n - 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := transport.NewMem()
			// reply answers with tc.count items, each a well-formed answer
			// (a stored length, an absent key), up to the request's n.
			reply := func(_ context.Context, _ transport.Addr, msg uint8, body []byte) (uint8, []byte, error) {
				r := wire.NewReader(body)
				r.Byte() // mode
				var n int
				if msg == MsgMultiAppend {
					wr, err := DecodeWrite(r)
					if err != nil {
						return 0, nil, err
					}
					n = len(wr.Keys)
				} else if n, _ = readBatchCount(r); n == 0 {
					return 0, nil, wire.ErrCorrupt
				}
				count := tc.count(n)
				w := wire.NewWriter(16)
				w.Uvarint(count)
				for i := uint64(0); i < count && i < uint64(n); i++ {
					if msg == MsgMultiAppend {
						w.Uvarint(1)
					} else {
						writeTopKAnswer(w, 0, true, PrefixResult{})
					}
				}
				return msg, w.Bytes(), nil
			}
			cd, sd := transport.NewDispatcher(), transport.NewDispatcher()
			client := dht.NewNode(1<<62, net.Endpoint("client", cd.Serve), cd, dht.Options{})
			stub := dht.NewNode(3<<62, net.Endpoint("stub", sd.Serve), sd, dht.Options{})
			sd.Handle(MsgMultiAppend, reply)
			sd.Handle(MsgRead, reply)
			dht.BuildOracleTables([]*dht.Node{client, stub})
			ix := New(client, cd)
			terms := termsOwnedBy(t, stub, 3, "hostile")
			ctx := context.Background()

			appends := make([]AppendItem, len(terms))
			gets := make([]GetItem, len(terms))
			for i, ts := range terms {
				appends[i] = AppendItem{Terms: ts, List: &postings.List{Entries: []postings.Posting{post("h", 1, 1)}}, Bound: 10}
				gets[i] = GetItem{Terms: ts}
			}
			if _, err := ix.MultiAppend(ctx, appends); !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("append frame: got %v, want ErrCorrupt", err)
			}
			if _, err := ix.MultiGet(ctx, gets, ReadPrimary); !errors.Is(err, wire.ErrCorrupt) {
				t.Errorf("read frame: got %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestHotHedgedReadLandsOnSoftCopy: a single-key hedged read of a
// locally hot key races the key's soft copies beside its hard ones —
// whatever shape the read has. With every hard copy down, only a soft
// holder can answer.
func TestHotHedgedReadLandsOnSoftCopy(t *testing.T) {
	for name, chunk := range map[string]int{"one-shot": 0, "streamed": 4} {
		t.Run(name, func(t *testing.T) {
			const r = 2
			nodes, idxs, net := replRing(t, 10, r)
			for _, ix := range idxs {
				ix.EnableHotKeyPath(HotKeyConfig{HotThreshold: 3, SoftReplicas: 2, SoftReplicaTTL: time.Minute})
			}
			terms := []string{"hotsingle"}
			key, ownerIdx, want := putReplicated(t, nodes, idxs, terms)
			owner := idxs[ownerIdx]
			for i := 0; i < 10; i++ {
				owner.observeRead(key)
			}
			if n := owner.PromoteHotKeys(context.Background()); n != 1 {
				t.Fatalf("promoted %d keys, want 1", n)
			}
			ownerAddr := nodes[ownerIdx].Self().Addr
			holders := owner.softTargets(context.Background(), key, ownerAddr)
			hard := map[transport.Addr]bool{ownerAddr: true}
			for _, rep := range owner.replicaTargets(context.Background(), nodes[ownerIdx].Self()) {
				hard[rep.Addr] = true
			}
			// The reader is neither a copy nor a holder, so every attempt
			// crosses the (tapped) network.
			var reader *Index
			for i, ix := range idxs {
				if a := nodes[i].Self().Addr; !hard[a] && a != holders[0] && a != holders[1] {
					reader = ix
				}
			}
			read := func() GetResult {
				t.Helper()
				res, err := reader.NewTopKSession(5, chunk, ReadAnyReplica, WithHedge(50*time.Millisecond)).
					FetchPrefixes(context.Background(), []GetItem{{Terms: terms}})
				if err != nil {
					t.Fatalf("hedged read: %v", err)
				}
				return res[0]
			}
			for i := 0; i < 5; i++ { // the reads that make the key hot at the reader
				read()
			}
			for a := range hard {
				net.SetDown(a, true)
			}
			softBefore := readFrames(net, readSoft, holders...)
			got := read()
			if !got.Found || got.List.Len() == 0 || got.List.Entries[0].Ref != want.Entries[0].Ref {
				t.Fatalf("read with every hard copy down: %+v", got)
			}
			if n := readFrames(net, readSoft, holders...) - softBefore; n == 0 {
				t.Fatal("no readSoft frame reached a soft holder")
			}
		})
	}
}

// TestOneShotReadUsesPrefixCache: the posting-prefix cache serves
// one-shot reads too — a repeated whole-list MultiGet costs no frame —
// but never hands a one-shot read a prefix shorter than it asked for:
// nothing would fetch the rest.
func TestOneShotReadUsesPrefixCache(t *testing.T) {
	_, idxs, net := ring(t, 8)
	reader := idxs[2]
	reader.EnableHotKeyPath(HotKeyConfig{PrefixCache: 32, PrefixCacheTTL: time.Minute})
	items := publishLongLists(t, idxs[0], 3, 40, 11)
	ctx := context.Background()

	first, err := reader.MultiGet(ctx, items, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	before := net.Meter().Snapshot().Messages
	again, err := reader.MultiGet(ctx, items, ReadPrimary)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Meter().Snapshot().Messages - before; got != 0 {
		t.Fatalf("repeated one-shot read cost %d messages, want 0", got)
	}
	if st := reader.PrefixCacheStats(); st.Hits != 3 {
		t.Fatalf("cache stats %+v, want 3 hits", st)
	}
	for i := range first {
		if again[i].List.Len() != 40 || again[i].List.Entries[39] != first[i].List.Entries[39] {
			t.Fatalf("item %d: cached list differs from fetched", i)
		}
	}
	// A capped one-shot read is served from the whole cached list, cut
	// and marked like a network answer.
	capped, err := reader.MultiGet(ctx, []GetItem{{Terms: items[0].Terms, MaxResults: 7}}, ReadPrimary)
	if err != nil || capped[0].List.Len() != 7 || !capped[0].List.Truncated {
		t.Fatalf("capped read from cache: %+v, %v", capped[0].List, err)
	}

	// A streamed open leaves a 4-entry prefix in a fresh reader's cache;
	// a whole-list read there must go to the network for the full list.
	reader = idxs[5]
	reader.EnableHotKeyPath(HotKeyConfig{PrefixCache: 32, PrefixCacheTTL: time.Minute})
	if _, err := reader.NewTopKSession(5, 4, ReadPrimary).FetchPrefixes(ctx, items[:1]); err != nil {
		t.Fatal(err)
	}
	whole, err := reader.MultiGet(ctx, items[:1], ReadPrimary)
	if err != nil || whole[0].List.Len() != 40 || whole[0].List.Truncated {
		t.Fatalf("whole-list read over a short cached prefix: %v, %v", whole[0].List, err)
	}
}

// FuzzReadFrame drives the one read handler with arbitrary request bytes
// and the client decoder with arbitrary answer bytes: neither may
// panic, and whatever they accept is clamped — mode within the three
// modes, count within the batch bound, cursor and total within the hard
// cap and ordered.
func FuzzReadFrame(f *testing.F) {
	f.Add(readRequest(readOwner, readItem{"k", 0, 4}))
	f.Add(readRequest(readAny, readItem{"k", 2, 0}, readItem{"absent", 0, 0}))
	f.Add(readRequest(readSoft, readItem{"k", math.MaxUint64, math.MaxUint64}))
	f.Add(readRequest(readSoft+1, readItem{"k", 0, 0}))
	f.Add([]byte{readAny, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	answer := wire.NewWriter(64)
	answer.Uvarint(1)
	writeTopKAnswer(answer, 0, false, PrefixResult{
		Entries: []postings.Posting{post("a", 1, 3), post("b", 2, 2)}, Total: 5, Found: true})
	f.Add(answer.Bytes())

	net := transport.NewMem()
	d := transport.NewDispatcher()
	node := dht.NewNode(42, net.Endpoint("fuzz", d.Serve), d, dht.Options{})
	dht.BuildOracleTables([]*dht.Node{node})
	ix := New(node, d)
	l := &postings.List{}
	for i := 0; i < 8; i++ {
		l.Add(post("h", uint32(i), float64(8-i)))
	}
	ix.Store().Put("k", l, 0)
	ix.hot.install("soft", 8, l, time.Hour, node.RingEpoch())

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a request: an accepted frame names a known mode and a
		// bounded count, and its answers decode under the same clamps.
		if _, resp, err := ix.handleRead(context.Background(), "fuzzer", MsgRead, data); err == nil {
			if len(data) == 0 || data[0] > readSoft {
				t.Fatalf("handler accepted mode byte of %x", data)
			}
			r := wire.NewReader(resp)
			n, err := readBatchCount(r)
			if err != nil {
				t.Fatalf("handler answered a corrupt count: %v", err)
			}
			for i := 0; i < n; i++ {
				a, err := readTopKAnswer(r, "fuzz")
				if err != nil {
					t.Fatalf("handler answer %d does not decode: %v", i, err)
				}
				if a.found && (a.total != l.Len() || len(a.entries) > a.total) {
					t.Fatalf("handler answer %d: %+v", i, a)
				}
			}
		}
		// As a reply: whatever decodes respects the horizon clamps.
		r := wire.NewReader(data)
		if count := r.Uvarint(); r.Err() == nil && count <= MaxBatchItems {
			for i := uint64(0); i < count; i++ {
				a, err := readTopKAnswer(r, "fuzz")
				if err != nil {
					break
				}
				if a.cursor < 0 || a.cursor > a.total || a.total > HardCap {
					t.Fatalf("decoded answer %+v escapes the clamps", a)
				}
			}
		}
	})
}

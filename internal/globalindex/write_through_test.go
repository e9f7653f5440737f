package globalindex

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// receivedFrames reads how many frames of each type addr has received.
func receivedFrames(net *transport.Mem, addr transport.Addr) map[uint8]int64 {
	out := make(map[uint8]int64)
	for msg, c := range net.Load(addr).Snapshot().PerType {
		out[msg] = c.Messages
	}
	return out
}

// frameSeq numbers the hand-built MultiAppend frames, so that no frame
// is a replay of an earlier one.
var frameSeq atomic.Uint64

// appendFrame encodes a MultiAppend frame in the given mode through the
// frame's one encoder, items in the order given: a write of the peer the
// first non-empty list names ("m" if none), under a fresh sequence
// number.
func appendFrame(mode uint8, keys []string, items []AppendItem) []byte {
	idx := make([]int, len(keys))
	origin := transport.Addr("m")
	for i := range idx {
		idx[i] = i
		if l := items[i].List; l.Len() > 0 && origin == "m" {
			origin = l.Entries[0].Ref.Peer
		}
	}
	w := wire.NewWriter(64 * len(keys))
	w.Byte(mode)
	writeAppendFrame(w, origin, frameSeq.Add(1), keys, items, idx)
	return w.Bytes()
}

// appendBody encodes a MultiAppend frame in the given mode, one
// single-posting item per key.
func appendBody(mode uint8, keys ...string) []byte {
	items := make([]AppendItem, len(keys))
	for i := range keys {
		items[i] = AppendItem{List: &postings.List{Entries: []postings.Posting{post("m", uint32(i), 1)}}, Bound: 10}
	}
	return appendFrame(mode, keys, items)
}

// TestWriteThroughIsOneAnyModeAppendPerReplica pins the write-through
// wire contract: at R=3, one MultiAppend to one owner is exactly one
// owner-mode MsgMultiAppend at the owner and one any-mode MsgMultiAppend
// — the applied frame, replayed — at each of its two replicas, and no
// other frame anywhere.
func TestWriteThroughIsOneAnyModeAppendPerReplica(t *testing.T) {
	const R = 3
	nodes, idxs, net := replRing(t, 8, R)
	terms := []string{"wire", "contract"}
	key := ids.KeyString(terms)
	resp, _, err := nodes[0].Lookup(context.Background(), ids.HashString(key))
	if err != nil {
		t.Fatal(err)
	}
	primary, pix := findNode(t, nodes, idxs, resp.Addr)
	replicas := ringSuccessors(nodes, primary, R)
	role := map[transport.Addr]string{primary.Self().Addr: "owner"}
	for _, r := range replicas {
		role[r.Self().Addr] = "replica"
	}
	// A writer holding no copy, so every frame crosses the network.
	var writer *Index
	for i, n := range nodes {
		if role[n.Self().Addr] == "" {
			writer = idxs[i]
			break
		}
	}

	// The first write warms the writer's route and replica-set caches;
	// the second is the one measured.
	list := &postings.List{Entries: []postings.Posting{post("a", 1, 2)}}
	if _, err := putOne(context.Background(), writer, terms, list, 10); err != nil {
		t.Fatal(err)
	}
	before := make(map[transport.Addr]map[uint8]int64)
	owner0, any0 := make(map[transport.Addr]int64), make(map[transport.Addr]int64)
	for _, n := range nodes {
		a := n.Self().Addr
		before[a] = receivedFrames(net, a)
		owner0[a], any0[a] = modeFrames(net, MsgMultiAppend, readOwner, a), modeFrames(net, MsgMultiAppend, readAny, a)
	}
	list2 := &postings.List{Entries: []postings.Posting{post("a", 2, 1)}}
	if _, err := appendOne(context.Background(), writer, terms, list2, 10, 4); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		a := n.Self().Addr
		got := make(map[uint8]int64)
		for msg, c := range receivedFrames(net, a) {
			if d := c - before[a][msg]; d != 0 {
				got[msg] = d
			}
		}
		owner, any := modeFrames(net, MsgMultiAppend, readOwner, a)-owner0[a], modeFrames(net, MsgMultiAppend, readAny, a)-any0[a]
		switch role[a] {
		case "owner":
			if len(got) != 1 || got[MsgMultiAppend] != 1 || owner != 1 || any != 0 {
				t.Errorf("owner %s received %v (owner-mode %d, any-mode %d appends), want one owner-mode MsgMultiAppend", a, got, owner, any)
			}
		case "replica":
			if len(got) != 1 || got[MsgMultiAppend] != 1 || owner != 0 || any != 1 {
				t.Errorf("replica %s received %v (owner-mode %d, any-mode %d appends), want one any-mode MsgMultiAppend", a, got, owner, any)
			}
		default:
			if len(got) != 0 {
				t.Errorf("bystander %s received %v, want nothing", a, got)
			}
		}
	}
	// The replay keeps the replicas byte-identical to the owner.
	wantList, wantDF, _ := pix.Store().Export(key)
	for _, r := range replicas {
		_, rix := findNode(t, nodes, idxs, r.Self().Addr)
		l, df, ok := rix.Store().Export(key)
		if !ok || !slices.Equal(df, wantDF) || string(l.EncodeBytes()) != string(wantList.EncodeBytes()) {
			t.Errorf("replica %s diverged from the owner: shares %v vs %v", r.Self().Addr, df, wantDF)
		}
	}
}

// TestMultiAppendModeAdmission pins the receiving half of the moded
// append: an owner-mode frame naming a key the receiver does not own is
// rejected whole and applies nothing, an any-mode frame (a write-through
// replay) applies whatever it names, and an unknown mode is corrupt.
func TestMultiAppendModeAdmission(t *testing.T) {
	nodes, idxs, _ := ring(t, 4)
	ix, self := idxs[0], nodes[0]
	var owned, foreign string
	for i := 0; owned == "" || foreign == ""; i++ {
		k := fmt.Sprintf("mode%04d", i)
		if self.Responsible(ids.HashString(k)) {
			if owned == "" {
				owned = k
			}
		} else if foreign == "" {
			foreign = k
		}
	}
	absent := func(keys ...string) {
		t.Helper()
		for _, k := range keys {
			if _, ok := ix.Store().Peek(k); ok {
				t.Fatalf("%q applied by a rejected frame", k)
			}
		}
	}
	if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, appendBody(readOwner, owned, foreign)); err == nil {
		t.Fatal("owner-mode frame naming a foreign key was accepted")
	}
	absent(owned, foreign)
	for _, mode := range []uint8{readSoft, 0xff} {
		if _, _, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, appendBody(mode, owned)); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("mode %d: got %v, want ErrCorrupt", mode, err)
		}
	}
	absent(owned)
	_, resp, err := ix.handleMultiAppend(context.Background(), "tester", MsgMultiAppend, appendBody(readAny, owned, foreign))
	if err != nil {
		t.Fatalf("any-mode frame: %v", err)
	}
	if n := wire.NewReader(resp).Uvarint(); n != 2 {
		t.Fatalf("any-mode frame served %d of 2 items", n)
	}
	for _, k := range []string{owned, foreign} {
		if _, ok := ix.Store().Peek(k); !ok {
			t.Errorf("any-mode frame did not apply %q", k)
		}
	}
}

// owned counts the keys of pool that n owns.
func owned(n *dht.Node, pool [][]string) int {
	c := 0
	for _, terms := range pool {
		if n.Responsible(ids.HashKey(terms)) {
			c++
		}
	}
	return c
}

// TestMultiAppendFrameNamesPeerAndPrefixOnce measures the publish frame
// on a metered 8-node ring at R=3. The fixture is shaped like the frames
// of the benchmark's publish workloads: one publisher at a loopback TCP
// address, HDK keys of one to three stemmed terms, a short list of the
// publisher's documents per key, and an owner's frame carrying its
// eighth of a larger publish — here the 64 keys one node owns out of the
// terms, pairs and triples of a few documents. The frame costs at most
// 0.65× the bytes its items take with every key and every list's peer
// spelled out — Σ(key, bound, announced DF, EncodedSize) — and each
// replica receives the primary's frame unchanged but for the mode byte.
func TestMultiAppendFrameNamesPeerAndPrefixOnce(t *testing.T) {
	const R = 3
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(14))
	type frame struct {
		to   transport.Addr
		body []byte
	}
	var mu sync.Mutex
	var frames []frame
	nodes := make([]*dht.Node, 8)
	idxs := make([]*Index, len(nodes))
	for i := range nodes {
		d := transport.NewDispatcher()
		addr := transport.Addr(fmt.Sprintf("r%d", i))
		ep := net.Endpoint(string(addr), func(ctx context.Context, from transport.Addr, msg uint8, body []byte) (uint8, []byte, error) {
			if msg == MsgMultiAppend {
				mu.Lock()
				frames = append(frames, frame{addr, bytes.Clone(body)})
				mu.Unlock()
			}
			return d.Serve(ctx, from, msg, body)
		})
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
		idxs[i] = New(nodes[i], d)
		idxs[i].EnableReplication(context.Background(), R)
	}
	dht.BuildOracleTables(nodes)

	const publisher = "127.0.0.1:40001"
	terms := []string{"bandwidth", "distribut", "document", "frequenc", "index", "keyword", "lattice", "network",
		"overlai", "peer", "posting", "queri", "rank", "relev", "retriev", "scalabl"}
	var pool [][]string
	for i := range terms {
		pool = append(pool, terms[i:i+1])
		for j := i + 1; j < len(terms); j++ {
			pool = append(pool, []string{terms[i], terms[j]})
			for k := j + 1; k < len(terms); k++ {
				pool = append(pool, []string{terms[i], terms[j], terms[k]})
			}
		}
	}
	owner := nodes[0]
	for _, n := range nodes {
		if owned(n, pool) > owned(owner, pool) {
			owner = n
		}
	}
	var items []AppendItem
	for _, c := range pool {
		if len(items) == 64 {
			break
		}
		if !owner.Responsible(ids.HashKey(c)) {
			continue
		}
		l := &postings.List{}
		for n := 1 + rng.Intn(3); n > 0; n-- {
			l.Add(post(publisher, uint32(rng.Intn(400)), rng.Float64()*10))
		}
		l.Normalize()
		items = append(items, AppendItem{Terms: c, List: l, Bound: 100, AnnouncedDF: l.Len()})
	}
	if len(items) != 64 {
		t.Fatalf("the owner holds %d keys of the pool, want 64", len(items))
	}
	inline := 0
	for _, it := range items {
		w := wire.NewWriter(64)
		w.String(ids.KeyString(it.Terms))
		w.Uvarint(uint64(it.Bound))
		w.Uvarint(uint64(it.AnnouncedDF))
		inline += w.Len() + it.List.EncodedSize()
	}

	if _, err := idxs[0].MultiAppend(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	sent := 0
	replays := make(map[string][]transport.Addr)
	for _, f := range frames {
		if f.body[0] == readAny {
			replays[string(f.body[1:])] = append(replays[string(f.body[1:])], f.to)
		}
	}
	primaries := 0
	for _, f := range frames {
		if f.body[0] != readOwner {
			continue
		}
		primaries++
		sent += len(f.body)
		primary, _ := findNode(t, nodes, idxs, f.to)
		var want []transport.Addr
		for _, s := range ringSuccessors(nodes, primary, R) {
			want = append(want, s.Self().Addr)
		}
		got := replays[string(f.body[1:])]
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("frame to %s replayed unchanged at %v, want its replicas %v", f.to, got, want)
		}
	}
	if primaries != 1 || len(frames) != R {
		t.Fatalf("%d frames, %d of them to the owner; want one owner frame and %d replays", len(frames), primaries, R-1)
	}
	if ratio := float64(sent) / float64(inline); ratio > 0.65 {
		t.Fatalf("the owner frame takes %d B, %.3f× the %d B of the inline items; want at most 0.65×", sent, ratio, inline)
	}
}

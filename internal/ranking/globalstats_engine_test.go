package ranking

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// MsgRead's mode bytes, which the statistics frames lead with.
const (
	modeOwner byte = 0
	modeAny   byte = 1
)

// received sums the msg frames the given peers have received so far.
func received(net *transport.Mem, msg uint8, addrs ...transport.Addr) (n int64) {
	for _, a := range addrs {
		n += net.Load(a).Snapshot().PerType[msg].Messages
	}
	return n
}

func addrsOf(nodes []*dht.Node) []transport.Addr {
	out := make([]transport.Addr, len(nodes))
	for i, n := range nodes {
		out[i] = n.Self().Addr
	}
	return out
}

// ownerOf returns the index of the node responsible for key.
func ownerOf(t testing.TB, nodes []*dht.Node, key ids.ID) int {
	t.Helper()
	for i, n := range nodes {
		if n.Responsible(key) {
			return i
		}
	}
	t.Fatalf("no node owns %v", key)
	return -1
}

// replicasOf returns the first r−1 distinct successors of node — where
// the write-through replays its applied frames.
func replicasOf(node *dht.Node, r int) []transport.Addr {
	var out []transport.Addr
	seen := map[transport.Addr]bool{node.Self().Addr: true}
	for _, s := range node.Successors() {
		if len(out) == r-1 {
			break
		}
		if !s.IsZero() && !seen[s.Addr] {
			seen[s.Addr] = true
			out = append(out, s.Addr)
		}
	}
	return out
}

func docTerms(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%02d", prefix, i)
	}
	return out
}

// TestPublishStatsWarmRouteSendsNoLookups pins the statistics write path
// on the batch engine: once the publisher's resolver is warm, a 20-term
// document costs no ring lookup at all, and each distinct owner receives
// exactly one MsgStatsUpdate plus one replay per replica of every owner
// it backs — a self-call is not a frame, so the publisher receives none.
func TestPublishStatsWarmRouteSendsNoLookups(t *testing.T) {
	const R = 3
	nodes, svcs, net := buildReplicatedStatsRing(t, 8, R)
	terms := docTerms("warm", 20)
	ctx := context.Background()
	if err := svcs[0].PublishDocument(ctx, terms, 40); err != nil {
		t.Fatal(err) // warms the resolver and the replica sets
	}

	pub := nodes[0].Self().Addr
	want := map[transport.Addr]int64{}
	owners := map[int]bool{ownerOf(t, nodes, CollectionKey()): true}
	for _, term := range terms {
		owners[ownerOf(t, nodes, StatsKey(term))] = true
	}
	for o := range owners {
		want[nodes[o].Self().Addr]++
		for _, r := range replicasOf(nodes[o], R) {
			want[r]++
		}
	}
	delete(want, pub)

	before := net.Meter().Snapshot()
	got := map[transport.Addr]int64{}
	for _, a := range addrsOf(nodes) {
		got[a] = -received(net, MsgStatsUpdate, a)
	}
	if err := svcs[0].PublishDocument(ctx, terms, 40); err != nil {
		t.Fatal(err)
	}
	if n := net.Meter().Snapshot().Sub(before).PerType[dht.MsgNextHop].Messages; n != 0 {
		t.Errorf("warm publish sent %d MsgNextHop messages, want 0", n)
	}
	for _, a := range addrsOf(nodes) {
		got[a] += received(net, MsgStatsUpdate, a)
		if got[a] != want[a] {
			t.Errorf("%s received %d MsgStatsUpdate frames, want %d", a, got[a], want[a])
		}
	}
	for _, term := range terms {
		if got := statsHolders(svcs, term); got != R {
			t.Fatalf("df[%q] held by %d peers, want %d", term, got, R)
		}
	}
}

// statsFrame encodes a statistics frame of the given mode over terms; an
// update frame gives every term delta +1 and the collection item length
// +5.
func statsFrame(mode byte, update bool, terms ...string) []byte {
	w := wire.NewWriter(64)
	w.Byte(mode)
	w.Uvarint(uint64(len(terms)))
	for _, term := range terms {
		w.String(term)
		if update {
			w.Varint(1)
			if term == "" {
				w.Varint(5)
			}
		}
	}
	return w.Bytes()
}

// TestOwnerModeRejectsNonOwnerWhole: an owner-mode frame naming any key
// the receiver does not own is refused before anything is applied — the
// keys it does own included — so a stale route can never misplace a
// count. The same frame in any mode (a write-through replay) applies.
func TestOwnerModeRejectsNonOwnerWhole(t *testing.T) {
	nodes, svcs := buildStatsRing(t, 8)
	ctx := context.Background()
	const at = 2
	var owned, foreign string
	for i := 0; owned == "" || foreign == ""; i++ {
		term := fmt.Sprintf("own%d", i)
		if nodes[at].Responsible(StatsKey(term)) {
			owned = term
		} else {
			foreign = term
		}
	}
	client := nodes[(at+1)%len(nodes)].Endpoint()
	to := nodes[at].Self().Addr
	for _, msg := range []uint8{MsgStatsUpdate, MsgStatsQuery} {
		_, _, err := client.Call(ctx, to, msg, statsFrame(modeOwner, msg == MsgStatsUpdate, owned, foreign, ""))
		var remote *transport.RemoteError
		if !errors.As(err, &remote) || !strings.Contains(remote.Msg, "not responsible") {
			t.Errorf("0x%02x owner mode at a non-owner: got %v, want a not-responsible rejection", msg, err)
		}
	}
	if n, docs, length := svcs[at].LocalCounters(); n != 0 || docs != 0 || length != 0 {
		t.Fatalf("rejected update changed counters: %d terms, N=%d, len=%d", n, docs, length)
	}

	if _, _, err := client.Call(ctx, to, MsgStatsUpdate, statsFrame(modeAny, true, owned, foreign, "")); err != nil {
		t.Fatalf("any-mode replay: %v", err)
	}
	if n, docs, length := svcs[at].LocalCounters(); n != 2 || docs != 1 || length != 5 {
		t.Fatalf("any-mode replay applied %d terms, N=%d, len=%d; want 2, 1, 5", n, docs, length)
	}
}

// modeTap counts, per receiving peer and mode, the MsgStatsUpdate frames
// that carry a given term.
type modeTap struct {
	term string
	mu   sync.Mutex
	n    map[transport.Addr][2]int
}

func (m *modeTap) wrap(net *transport.Mem, name string, d *transport.Dispatcher) transport.Endpoint {
	return net.Endpoint(name, func(ctx context.Context, from transport.Addr, msg uint8, body []byte) (uint8, []byte, error) {
		if msg == MsgStatsUpdate && len(body) > 0 && body[0] <= modeAny && frameCarries(body, m.term) {
			m.mu.Lock()
			c := m.n[transport.Addr(name)]
			c[body[0]]++
			m.n[transport.Addr(name)] = c
			m.mu.Unlock()
		}
		return d.Serve(ctx, from, msg, body)
	})
}

func (m *modeTap) frames(addr transport.Addr) [2]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n[addr]
}

// frameCarries reports whether an update frame names term.
func frameCarries(body []byte, term string) bool {
	r := wire.NewReader(body[1:])
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		t := r.String()
		r.Varint()
		if t == "" {
			r.Varint()
		}
		if t == term {
			return true
		}
	}
	return false
}

// TestStaleRouteStatsLandOnceAtNewOwner: a node joins far from the
// publisher and takes over a term's statistics key; the publisher's
// cached route is stale and nothing tells it. Its next publish goes to
// the ex-owner in owner mode, is rejected whole, and is redriven over a
// fresh ring walk: the count lands once, at the new owner, and each of
// the new owner's replicas gets exactly one replay.
func TestStaleRouteStatsLandOnceAtNewOwner(t *testing.T) {
	const R = 3
	const slot = ids.ID(1) << 60
	net := transport.NewMem()
	tap := &modeTap{n: map[transport.Addr][2]int{}}
	opts := dht.Options{SuccListLen: 4}
	newPeer := func(name string, id ids.ID) (*dht.Node, *GlobalStats) {
		d := transport.NewDispatcher()
		node := dht.NewNode(id, tap.wrap(net, name, d), d, opts)
		gidx := globalindex.New(node, d)
		gidx.EnableReplication(context.Background(), R)
		return node, NewGlobalStats(gidx, d)
	}
	var nodes []*dht.Node
	var svcs []*GlobalStats
	for i := 1; i <= 12; i++ {
		n, s := newPeer(fmt.Sprintf("s%d", i), ids.ID(i)*slot)
		nodes, svcs = append(nodes, n), append(svcs, s)
	}
	dht.BuildOracleTables(nodes)
	joinID := 9*slot + slot/2
	for i := 0; tap.term == ""; i++ {
		if term := fmt.Sprintf("moved%d", i); ids.Between(StatsKey(term), 9*slot, joinID) {
			tap.term = term
		}
	}
	ctx := context.Background()
	pub, exOwner := svcs[0], nodes[9]
	epoch := nodes[0].RingEpoch()
	if err := pub.PublishDocument(ctx, []string{tap.term}, 7); err != nil {
		t.Fatal(err)
	}

	joiner, jstats := newPeer("joiner", joinID)
	if err := joiner.Join(ctx, nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*dht.Node(nil), nodes...), joiner)
	for round := 0; round < 6; round++ {
		for _, n := range all {
			_ = n.Stabilize(ctx)
		}
	}
	if nodes[0].RingEpoch() != epoch {
		t.Fatal("the publisher's own ring pointers moved; the join must stay outside its successor list")
	}
	if !joiner.Responsible(StatsKey(tap.term)) {
		t.Fatal("joiner does not own the moved term's key")
	}

	before := map[transport.Addr][2]int{}
	for _, n := range all {
		before[n.Self().Addr] = tap.frames(n.Self().Addr)
	}
	if err := pub.PublishDocument(ctx, []string{tap.term}, 7); err != nil {
		t.Fatalf("publish over a stale route: %v", err)
	}
	want := map[transport.Addr][2]int{
		exOwner.Self().Addr: {1, 1}, // the rejected frame, then the joiner's replay
		joiner.Self().Addr:  {1, 0}, // the redrive
	}
	for _, r := range replicasOf(joiner, R) {
		if r != exOwner.Self().Addr {
			want[r] = [2]int{0, 1}
		}
	}
	for _, n := range all {
		a := n.Self().Addr
		got, b := tap.frames(a), before[a]
		if got = [2]int{got[0] - b[0], got[1] - b[1]}; got != want[a] {
			t.Errorf("%s received %v (owner, any) frames carrying the term, want %v", a, got, want[a])
		}
	}
	if got := dfAt(jstats, tap.term); got != 1 {
		t.Errorf("new owner counts %d, want 1", got)
	}
	// The ex-owner holds the first publish as primary plus one replay:
	// the rejected frame applied nothing.
	if got := dfAt(svcs[9], tap.term); got != 2 {
		t.Errorf("ex-owner counts %d, want 2", got)
	}
}

func dfAt(s *GlobalStats, term string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.df[term]
}

// BenchmarkPublishStats publishes a 20-term document's statistics from a
// warm publisher on an 8-peer R=3 ring and reports the frames it costs.
// The counts are deterministic: zero lookups, one frame per owner plus
// its replays.
func BenchmarkPublishStats(b *testing.B) {
	nodes, svcs, net := buildReplicatedStatsRing(b, 8, 3)
	terms := docTerms("bench", 20)
	ctx := context.Background()
	if err := svcs[0].PublishDocument(ctx, terms, 40); err != nil {
		b.Fatal(err)
	}
	addrs := addrsOf(nodes)
	hops, stats := received(net, dht.MsgNextHop, addrs...), received(net, MsgStatsUpdate, addrs...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svcs[0].PublishDocument(ctx, terms, 40); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(received(net, dht.MsgNextHop, addrs...)-hops)/float64(b.N), "nexthop_frames/op")
	b.ReportMetric(float64(received(net, MsgStatsUpdate, addrs...)-stats)/float64(b.N), "stats_frames/op")
}

package globalindex

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// recoveredMemory dresses a memory engine up as recovered-from-disk
// state — what internal/storage produces after replaying its WAL and
// snapshot — so the replication layer's delta-rejoin path can be
// exercised without the filesystem.
type recoveredMemory struct{ *Memory }

func (recoveredMemory) Recovered() bool { return true }

// populateRing stores count single-term keys through the write-through
// path and returns them.
func populateRing(t *testing.T, ix *Index, count int, tag string) []AppendItem {
	t.Helper()
	var items []AppendItem
	for i := 0; i < count; i++ {
		items = append(items, AppendItem{
			Terms: []string{fmt.Sprintf("%s%04d", tag, i)},
			List:  &postings.List{Entries: []postings.Posting{post("src", uint32(i), float64(i%13)+1)}},
			Bound: 10,
		})
	}
	if _, err := ix.MultiAppend(context.Background(), items); err != nil {
		t.Fatal(err)
	}
	return items
}

// joinWith attaches a fresh node (fixed ID) with the given engine to the
// ring and stabilizes until it owns its range.
func joinWith(t *testing.T, nodes []*dht.Node, net *transport.Mem, name string, engine StorageEngine) (*dht.Node, *Index) {
	t.Helper()
	d := transport.NewDispatcher()
	ep := net.Endpoint(name, d.Serve)
	joiner := dht.NewNode(ids.ID(0x7777777777777777), ep, d, dht.Options{})
	jix := NewWithEngine(joiner, d, engine)
	jix.EnableReplication(context.Background(), 3)
	if err := joiner.Join(context.Background(), nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*dht.Node(nil), nodes...), joiner)
	for r := 0; r < 10; r++ {
		for _, n := range all {
			_ = n.Stabilize(context.Background())
		}
	}
	for r := 0; r < 8; r++ {
		for _, n := range all {
			_ = n.FixFingers(context.Background())
		}
	}
	return joiner, jix
}

// TestDeltaRejoinTransfersOnlyChangedKeys is the delta rejoin's
// protocol test: a joiner with recovered state and a persisted watermark
// walks the fingerprint manifest of its range and fetches only the
// entries it lacks (or that changed while it was down), while a cold
// joiner's walk fetches every owned entry — and both end up holding
// identical content.
func TestDeltaRejoinTransfersOnlyChangedKeys(t *testing.T) {
	// Pass 1: a cold joiner, to learn the owned range and the baseline
	// transfer cost.
	nodes1, idxs1, net1 := replRing(t, 8, 3)
	items := populateRing(t, idxs1[0], 150, "delta")
	coldJoiner, coldIx := joinWith(t, nodes1, net1, "joiner", NewStore())
	coldManifest, coldPulled := coldIx.PullTransferCounts()
	ownedKeys := coldIx.Store().KeysInRange(coldJoiner.Predecessor().ID, coldJoiner.ID())
	if coldPulled == 0 || len(ownedKeys) == 0 {
		t.Fatalf("cold join pulled %d entries over %d owned keys; fixture too small", coldPulled, len(ownedKeys))
	}
	// A cold join is the same manifest walk against an empty store: it
	// fetches every pair it compares.
	if coldPulled != coldManifest {
		t.Fatalf("cold join pulled %d entries over %d manifest pairs, want every pair fetched", coldPulled, coldManifest)
	}

	// Pass 2: identical ring (same seed), but the joiner "restarts" with
	// the recovered slice of pass 1 minus a few entries — the writes it
	// missed while down — and a persisted watermark.
	nodes2, idxs2, net2 := replRing(t, 8, 3)
	populateRing(t, idxs2[0], 150, "delta")
	recovered := NewStore()
	entries := coldIx.Store().(*Memory).ExportState()
	// The recovered slice holds this ring's own writes: pass 1's keys and
	// postings, under the sequence numbers pass 2's writer stamped.
	for i := range entries {
		for _, ix := range idxs2 {
			if list, shares, ok := ix.Store().Export(entries[i].Key); ok {
				entries[i].List, entries[i].Shares = list, shares
				break
			}
		}
	}
	missed := 3
	if len(entries) <= missed {
		t.Fatalf("recovered slice too small (%d entries)", len(entries))
	}
	recovered.RestoreState(entries[missed:])
	recovered.SetWatermark(coldJoiner.Predecessor().ID, coldJoiner.ID())
	// And one key that was deleted cluster-wide while the peer was down:
	// it survives in the recovered slice but the live ring no longer has
	// it — the delta pull must propagate the deletion, not resurrect it.
	stale := ""
	for i := 0; ; i++ {
		if i > 100000 {
			t.Fatal("no stale key found inside the joiner's range")
		}
		cand := fmt.Sprintf("stale%05d", i)
		if ids.Between(ids.HashString(cand), coldJoiner.Predecessor().ID, coldJoiner.ID()) {
			stale = cand
			break
		}
	}
	recovered.Put(stale, &postings.List{Entries: []postings.Posting{post("gone", 9, 1.0)}}, 10)
	deltaJoiner, deltaIx := joinWith(t, nodes2, net2, "joiner", recoveredMemory{recovered})
	if _, ok := deltaIx.Store().Peek(stale); ok {
		t.Fatalf("key %q deleted during the downtime was resurrected by the delta rejoin", stale)
	}

	manifest, deltaPulled := deltaIx.PullTransferCounts()
	if deltaPulled >= manifest {
		t.Fatalf("delta rejoin pulled %d entries over %d manifest pairs — the recovered slice saved nothing", deltaPulled, manifest)
	}
	if deltaPulled >= coldPulled {
		t.Fatalf("delta rejoin pulled %d entries, cold pulled %d — no transfer saved", deltaPulled, coldPulled)
	}
	if deltaPulled > int64(missed)+2 {
		t.Fatalf("delta rejoin pulled %d entries for %d missed writes", deltaPulled, missed)
	}
	t.Logf("cold pulled %d, delta pulled %d over %d manifest pairs (%d owned keys)",
		coldPulled, deltaPulled, manifest, len(ownedKeys))

	// Both joiners must answer identically for every key they own; their
	// rings stamped the same writes with different sequence numbers.
	unstamped := func(shares []Share) []Share {
		out := slices.Clone(shares)
		for i := range out {
			out[i].Seq = 0
		}
		return out
	}
	for _, it := range items {
		k := ids.KeyString(it.Terms)
		if !deltaJoiner.Responsible(ids.HashString(k)) {
			continue
		}
		dl, ddf, dok := deltaIx.Store().Export(k)
		cl, cdf, cok := coldIx.Store().Export(k)
		if dok != cok || !slices.Equal(unstamped(ddf), unstamped(cdf)) {
			t.Fatalf("key %q diverged: delta (shares %v ok=%v) vs cold (shares %v ok=%v)", k, ddf, dok, cdf, cok)
		}
		if dok && string(dl.EncodeBytes()) != string(cl.EncodeBytes()) {
			t.Fatalf("key %q content diverged after delta rejoin", k)
		}
	}

	// Every key still resolves network-wide after the delta rejoin.
	for _, it := range items {
		_, found, _, err := getOne(context.Background(), idxs2[3], it.Terms, 0, ReadPrimary)
		if err != nil || !found {
			t.Fatalf("get %v after delta rejoin: %v found=%v", it.Terms, err, found)
		}
	}
}

// TestMaintainReplicationRetriesRejoinPull is the churn-flake
// regression: a recovered peer's rejoin pull normally runs from the
// first ring change that reveals a predecessor, but if that one attempt
// fires before the pointers settle (or its RPCs fail) a ring that
// stabilizes immediately afterwards never fires another — the pull must
// then be retried from the maintenance cadence. The lost attempt is
// modeled by enabling replication only after the ring has fully
// stabilized, so no ring-change callback ever runs a pull.
func TestMaintainReplicationRetriesRejoinPull(t *testing.T) {
	nodes, idxs, net := replRing(t, 8, 3)
	populateRing(t, idxs[0], 150, "retry")

	joinerID := ids.ID(0x7777777777777777)
	d := transport.NewDispatcher()
	ep := net.Endpoint("joiner", d.Serve)
	joiner := dht.NewNode(joinerID, ep, d, dht.Options{})
	recovered := NewStore()
	recovered.SetWatermark(0, joinerID)
	jix := NewWithEngine(joiner, d, recoveredMemory{recovered})
	if err := joiner.Join(context.Background(), nodes[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*dht.Node(nil), nodes...), joiner)
	for r := 0; r < 10; r++ {
		for _, n := range all {
			_ = n.Stabilize(context.Background())
		}
	}

	jix.EnableReplication(context.Background(), 3)
	if m, p := jix.PullTransferCounts(); m != 0 || p != 0 {
		t.Fatalf("pull ran before any maintenance round: manifest=%d pulled=%d", m, p)
	}
	jix.MaintainReplication()
	manifest, pulled := jix.PullTransferCounts()
	if manifest == 0 || pulled == 0 {
		t.Fatalf("maintenance round did not complete the rejoin pull: manifest=%d pulled=%d", manifest, pulled)
	}
	// The completed pull clears the pending marker: further maintenance
	// rounds must not re-walk the range.
	jix.MaintainReplication()
	if m2, p2 := jix.PullTransferCounts(); m2 != manifest || p2 != pulled {
		t.Fatalf("completed rejoin pull ran again on maintenance: manifest %d->%d pulled %d->%d", manifest, m2, pulled, p2)
	}
}

// TestEntryFingerprint pins the manifest digest: equal entries agree,
// and any change to the list or to a share's DF or sequence number
// changes the fingerprint.
func TestEntryFingerprint(t *testing.T) {
	a := &postings.List{Entries: []postings.Posting{post("x", 1, 2.0), post("x", 2, 1.0)}}
	b := a.Clone()
	sh := []Share{{Origin: "x", Seq: 7, DF: 5}}
	if entryFingerprint(sh, a) != entryFingerprint(slices.Clone(sh), b) {
		t.Fatal("identical entries must fingerprint equal")
	}
	if entryFingerprint(sh, a) == entryFingerprint([]Share{{Origin: "x", Seq: 7, DF: 6}}, a) {
		t.Fatal("a DF change must change the fingerprint")
	}
	if entryFingerprint(sh, a) == entryFingerprint([]Share{{Origin: "x", Seq: 8, DF: 5}}, a) {
		t.Fatal("a sequence change must change the fingerprint")
	}
	b.Entries[0].Score = 9
	if entryFingerprint(sh, a) == entryFingerprint(sh, b) {
		t.Fatal("a content change must change the fingerprint")
	}
	c := a.Clone()
	c.Truncated = true
	if entryFingerprint(sh, a) == entryFingerprint(sh, c) {
		t.Fatal("a truncation-mark change must change the fingerprint")
	}
}

// TestRecoveredPeerKeepsAbsorbedRange is the regression test for a
// deletion sweep that outlived the rejoin: a peer restarted from disk
// stays Recovered and keeps a watermark ending at its own position for
// the rest of its life. When its predecessor later dies it absorbs the
// dead range — its replica copies become primary — and walks its
// successor's manifest of the widened range. The successor never held
// the dead range, so only the first complete walk of a recovered slice
// may drop keys the successor lacks; this one must keep them.
func TestRecoveredPeerKeepsAbsorbedRange(t *testing.T) {
	const R = 2
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(14))
	nodes := make([]*dht.Node, 8)
	idxs := make([]*Index, 8)
	for i := range nodes {
		d := transport.NewDispatcher()
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), net.Endpoint(fmt.Sprintf("r%d", i), d.Serve), d, dht.Options{})
		var engine StorageEngine = NewStore()
		if i == 3 {
			engine = recoveredMemory{NewStore()}
		}
		idxs[i] = NewWithEngine(nodes[i], d, engine)
		idxs[i].EnableReplication(context.Background(), R)
	}
	dht.BuildOracleTables(nodes)

	// The recovered peer rejoins: it has a watermark ending at its own
	// position and completes its rejoin walk.
	rec := nodes[3]
	idxs[3].Store().SetWatermark(rec.Predecessor().ID, rec.ID())
	idxs[3].MaintainReplication()
	if idxs[3].repl.rejoinPending.Load() {
		t.Fatal("the recovered peer's rejoin walk never completed")
	}

	populateRing(t, idxs[0], 400, "absorb")
	dead, _ := findNode(t, nodes, idxs, rec.Predecessor().Addr)
	var inDead []string
	for i := 0; i < 400; i++ {
		key := ids.KeyString([]string{fmt.Sprintf("absorb%04d", i)})
		if ids.Between(ids.HashString(key), dead.Predecessor().ID, dead.ID()) {
			inDead = append(inDead, key)
		}
	}
	if len(inDead) == 0 {
		t.Fatal("fixture broken: no key in the dying peer's range")
	}

	net.SetDown(dead.Self().Addr, true)
	var live []*dht.Node
	for _, n := range nodes {
		if n != dead {
			live = append(live, n)
		}
	}
	for r := 0; r < 8; r++ {
		for _, n := range live {
			_ = n.Stabilize(context.Background())
		}
	}
	if rec.Predecessor().Addr == dead.Self().Addr {
		t.Fatal("fixture broken: the recovered peer never noticed its predecessor died")
	}

	lost := 0
	for _, key := range inDead {
		holders := 0
		for i, ix := range idxs {
			if nodes[i] == dead {
				continue
			}
			if _, ok := ix.Store().Peek(key); ok {
				holders++
			}
		}
		if holders == 0 {
			lost++
		} else if holders < R {
			t.Errorf("key %q held by %d live peers after the absorb, want %d", key, holders, R)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of the %d keys in the dead peer's range were lost cluster-wide", lost, len(inDead))
	}
}

// TestRecoveredPeerAfterDoubleFailureKeepsDeadRange is the regression
// test for a rejoin sweep wider than the recovered slice: a peer and its
// predecessor both die, the ring closes over the gap, and the peer
// restarts from its disk image, whose watermark still names (pred, self].
// Its first walk covers the dead predecessor's range too. The successor
// never held that range and, at R=2, the image holds its last copy, so
// the sweep may delete only keys inside the watermark.
func TestRecoveredPeerAfterDoubleFailureKeepsDeadRange(t *testing.T) {
	const R = 2
	ctx := context.Background()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(14))
	nodes := make([]*dht.Node, 8)
	idxs := make([]*Index, 8)
	for i := range nodes {
		d := transport.NewDispatcher()
		nodes[i] = dht.NewNode(ids.ID(rng.Uint64()), net.Endpoint(fmt.Sprintf("r%d", i), d.Serve), d, dht.Options{})
		idxs[i] = New(nodes[i], d)
		idxs[i].EnableReplication(ctx, R)
	}
	dht.BuildOracleTables(nodes)
	populateRing(t, idxs[0], 400, "double")

	// The crash image of node 3, with the watermark its last
	// anti-entropy pass recorded.
	rec := nodes[3]
	image := idxs[3].Store().(*Memory)
	image.SetWatermark(rec.Predecessor().ID, rec.ID())
	dead, _ := findNode(t, nodes, idxs, rec.Predecessor().Addr)
	var inDead []string
	for i := 0; i < 400; i++ {
		key := ids.KeyString([]string{fmt.Sprintf("double%04d", i)})
		if ids.Between(ids.HashString(key), dead.Predecessor().ID, dead.ID()) {
			if _, ok := image.Peek(key); !ok {
				t.Fatalf("fixture broken: the image lacks %q of its predecessor's range", key)
			}
			inDead = append(inDead, key)
		}
	}
	if len(inDead) == 0 {
		t.Fatal("fixture broken: no key in the predecessor's range")
	}

	// Both die; the ring closes over them.
	net.SetDown(dead.Self().Addr, true)
	net.SetDown(rec.Self().Addr, true)
	var live []*dht.Node
	var liveIdxs []*Index
	for i, n := range nodes {
		if n != dead && n != rec {
			live = append(live, n)
			liveIdxs = append(liveIdxs, idxs[i])
		}
	}
	stabilize := func(ns []*dht.Node) {
		for r := 0; r < 10; r++ {
			for _, n := range ns {
				_ = n.Stabilize(ctx)
			}
		}
	}
	stabilize(live)

	// Node 3 restarts from its image under its old ring ID.
	d := transport.NewDispatcher()
	back := dht.NewNode(rec.ID(), net.Endpoint("r3-restarted", d.Serve), d, dht.Options{})
	backIdx := NewWithEngine(back, d, recoveredMemory{image})
	backIdx.EnableReplication(ctx, R)
	if err := back.Join(ctx, live[0].Self().Addr); err != nil {
		t.Fatal(err)
	}
	stabilize(append(live, back))
	backIdx.MaintainReplication()
	if backIdx.repl.rejoinPending.Load() {
		t.Fatal("fixture broken: the restarted peer's rejoin walk never completed")
	}
	if pred := back.Predecessor(); pred.Addr != dead.Predecessor().Addr {
		t.Fatalf("fixture broken: restarted peer's predecessor is %v, want %v", pred, dead.Predecessor())
	}

	lost := 0
	for _, key := range inDead {
		holders := 0
		for _, ix := range append(liveIdxs, backIdx) {
			if _, ok := ix.Store().Peek(key); ok {
				holders++
			}
		}
		if holders == 0 {
			lost++
		} else if holders < R {
			t.Errorf("key %q held by %d live peers after the rejoin, want %d", key, holders, R)
		}
	}
	if lost > 0 {
		t.Fatalf("%d of the %d keys in the dead predecessor's range were lost cluster-wide", lost, len(inDead))
	}
}

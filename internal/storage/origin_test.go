package storage

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/postings"
	"repro/internal/transport"
)

// TestOriginCrashImageRepublishKeepsDF restarts a ring peer from a copy
// of its data directory taken while it ran — a crash image — and has
// the publishers send their writes again, the restarted peer among them.
// The WAL replays every origin's share and sequence number, so the
// republished writes replace those shares instead of adding to them: no
// key's DF moves, and the restarted peer's own writes still supersede
// the ones it made before the restart.
func TestOriginCrashImageRepublishKeepsDF(t *testing.T) {
	ctx := context.Background()
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(5))
	const peers, victim = 4, 3
	nodes := make([]*dht.Node, peers)
	idxs := make([]*globalindex.Index, peers)
	eps := make([]transport.Endpoint, peers)
	start := func(i int, id ids.ID, engine globalindex.StorageEngine) {
		d := transport.NewDispatcher()
		eps[i] = net.Endpoint(fmt.Sprintf("n%d", i), d.Serve)
		nodes[i] = dht.NewNode(id, eps[i], d, dht.Options{})
		idxs[i] = globalindex.NewWithEngine(nodes[i], d, engine)
	}
	dir := t.TempDir()
	durable := mustOpen(t, dir, Options{})
	defer durable.Close()
	for i := range nodes {
		var engine globalindex.StorageEngine
		if i == victim {
			engine = durable
		}
		start(i, ids.ID(rng.Uint64()), engine)
	}
	dht.BuildOracleTables(nodes)

	// Two publishers, 0 and the victim, each write their documents of 60
	// shared keys.
	publish := func() {
		t.Helper()
		for _, pub := range []int{0, victim} {
			self := nodes[pub].Self().Addr
			items := make([]globalindex.AppendItem, 60)
			for k := range items {
				l := &postings.List{}
				for d := 0; d <= k%4; d++ {
					l.Add(postings.Posting{Ref: postings.DocRef{Peer: self, Doc: uint32(d)}, Score: float64(k + d)})
				}
				items[k] = globalindex.AppendItem{Terms: []string{fmt.Sprintf("key%02d", k)}, List: l, Bound: 10, AnnouncedDF: l.Len() + pub}
			}
			if _, err := idxs[pub].MultiAppend(ctx, items); err != nil {
				t.Fatal(err)
			}
		}
	}
	dfs := func() map[string]int64 {
		out := make(map[string]int64)
		for _, ix := range idxs {
			for _, k := range ix.Store().Keys() {
				df, _ := ix.Store().ApproxDF(k)
				out[k] += df
			}
		}
		return out
	}
	lastSeq := func() (seq uint64) {
		for _, k := range idxs[victim].Store().Keys() {
			_, shares, _ := idxs[victim].Store().Export(k)
			for _, sh := range shares {
				seq = max(seq, sh.Seq)
			}
		}
		return seq
	}
	publish()
	want := dfs()
	before := lastSeq()
	if before == 0 {
		t.Fatal("fixture broken: the victim holds no keys")
	}

	image := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// The victim dies without closing its engine and comes back, same
	// identity and address, over the image.
	reopened := mustOpen(t, image, Options{})
	defer reopened.Close()
	eps[victim].Close()
	start(victim, nodes[victim].ID(), reopened)
	dht.BuildOracleTables(nodes)
	if got := dfs(); !maps.Equal(got, want) {
		t.Fatalf("the reopened image holds %d keys' DFs differently", len(got))
	}

	// Sequence numbers come from the wall clock: a write made after the
	// restart is newer only once the clock has passed the last one.
	for uint64(time.Now().UnixMilli()) <= before {
		time.Sleep(time.Millisecond)
	}
	publish()
	if got := dfs(); !maps.Equal(got, want) {
		t.Fatalf("republishing moved the DFs: %v, want %v", got, want)
	}
	if after := lastSeq(); after <= before {
		t.Fatalf("the republish rewrote no share on the reopened store (sequence %d, before %d)", after, before)
	}
}

// TestOriginTombstoneSurvivesRecovery pins that a withdrawal's tombstone
// share is durable: after a crash reopen (WAL replay) and after a clean
// one (snapshot) the withdrawn origin's share is still there with its
// sequence number and DF 0, a key only tombstones hold still reads as
// absent, and a replica copy of the origin's older share adopts nothing.
func TestOriginTombstoneSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	e := mustOpen(t, dir, Options{})
	write(e, "shared", plist("p1", 3), 10, 1, 1)
	write(e, "shared", plist("p2", 2), 10, 1, 1)
	write(e, "solo", plist("p1", 5), 10, 1, 1)
	e.Write(globalindex.Write{Origin: "p1", Seq: 2, Keys: []string{"shared", "solo"},
		Items: []globalindex.AppendItem{{List: &postings.List{}}, {List: &postings.List{}}}})
	check := func(when string, e *Engine) {
		t.Helper()
		_, shares, ok := e.Export("solo")
		if want := []globalindex.Share{{Origin: "p1", Seq: 2}}; !ok || fmt.Sprint(shares) != fmt.Sprint(want) {
			t.Fatalf("%s: solo key's shares %v (exported %v), want the tombstone %v", when, shares, ok, want)
		}
		if l, ok := e.Peek("solo"); ok {
			t.Fatalf("%s: the withdrawn solo key reads as %v", when, l)
		}
		if keys := e.Keys(); fmt.Sprint(keys) != "[shared]" {
			t.Fatalf("%s: keys %v, want [shared]", when, keys)
		}
		adopt(e, "shared", plist("p1", 3), 1, 1)
		adopt(e, "solo", plist("p1", 5), 1, 1)
		if l, _ := e.Peek("shared"); l.Len() != 1 || l.Entries[0].Ref.Peer != "p2" {
			t.Fatalf("%s: the shared key holds %v after adopting p1's older share, want p2's posting only", when, l)
		}
		if df, ok := e.ApproxDF("solo"); ok || df != 0 {
			t.Fatalf("%s: the solo key came back with DF %d after adopting p1's older share", when, df)
		}
	}
	check("live", e)
	// No Close: the reopen replays the WAL.
	re := mustOpen(t, dir, Options{})
	check("after WAL replay", re)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := mustOpen(t, dir, Options{})
	defer re2.Close()
	check("after snapshot load", re2)
}

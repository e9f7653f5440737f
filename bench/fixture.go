package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/docs"
	"repro/internal/hdk"
	"repro/internal/ids"
	"repro/internal/localindex"
	"repro/internal/postings"
	"repro/internal/storage"
	"repro/internal/transport"
)

// ringConfig is the one production-shaped configuration every workload
// runs under: workloads differ in traffic, never in knobs.
func ringConfig() core.Config {
	return core.Config{
		HDK:                 hdk.Config{DFMax: 40, SMax: 3, Window: 10, TruncK: 300},
		TopK:                10,
		ReplicationFactor:   3,
		StreamTopK:          true,
		ResultCache:         64,
		PrefixCache:         256,
		CacheTTL:            10 * time.Second,
		HotKeyThreshold:     2,
		SoftReplicas:        2,
		SoftReplicaInterval: time.Second,
	}
}

// searchOpts are the per-query options of every benchmark search.
func searchOpts(traced bool, extra ...core.SearchOption) []core.SearchOption {
	return append([]core.SearchOption{
		core.WithReadConsistency(core.ReadAnyReplica),
		core.WithHedging(5 * time.Millisecond),
		core.WithTrace(traced),
	}, extra...)
}

// frontends is the number of peers queries enter through (peers 0 and
// 1), one generator goroutine each; it equals this box's processor count.
const frontends = 2

// ring is one protocol-joined network of peers on loopback TCP, each on
// its own durable data directory.
type ring struct {
	peers []*core.Peer
	eps   []*transport.TCP
	dirs  []string
	tr    *tracer // nil unless this is the traced run

	// The centralized BM25 reference over every live document, and the
	// maps between a document's network reference and its corpus index.
	central *localindex.Index
	docOf   map[postings.DocRef]int
	refOf   map[int]postings.DocRef
}

// peerID spaces the n peers evenly round the ring, so key placement is
// the same on every run and every seed: with ids.HashString(addr) the
// random loopback ports would reshuffle the ring each time.
func peerID(i, n int) ids.ID {
	return ids.ID(uint64(i)*(^uint64(0)/uint64(n)) + 0x9e3779b97f4a7c15>>8)
}

// openRing starts n peers under dataRoot, joins them through the real
// protocol and runs maintenance rounds until every successor list and
// predecessor is the final one. A non-nil tracer installs its decorators
// round every layer seam.
func openRing(ctx context.Context, n int, dataRoot string, tr *tracer) (*ring, error) {
	r := &ring{
		tr:      tr,
		central: localindex.New(nil),
		docOf:   make(map[postings.DocRef]int),
		refOf:   make(map[int]postings.DocRef),
	}
	for i := 0; i < n; i++ {
		if err := r.openPeer(i, n, dataRoot); err != nil {
			r.close()
			return nil, err
		}
		if i == 0 {
			continue
		}
		if err := r.peers[i].Join(ctx, r.peers[0].Addr()); err != nil {
			r.close()
			return nil, fmt.Errorf("join peer %d: %w", i, err)
		}
		for _, p := range r.peers {
			p.Maintain(ctx)
		}
	}
	for round := 0; !r.stable(); round++ {
		if round == 64 {
			r.close()
			return nil, fmt.Errorf("ring of %d not stable after %d maintenance rounds", n, round)
		}
		for _, p := range r.peers {
			p.Maintain(ctx)
		}
	}
	return r, nil
}

func (r *ring) openPeer(i, n int, dataRoot string) error {
	d := transport.NewDispatcher()
	self := new(atomic.Value) // the listen address, known only once listening
	ep, err := transport.ListenTCP("127.0.0.1:0", r.tr.handler(self, d.Serve))
	if err != nil {
		return err
	}
	self.Store(ep.Addr())
	cfg := ringConfig()
	dir := filepath.Join(dataRoot, fmt.Sprintf("peer%d", i))
	cfg.DataDir = dir
	if r.tr != nil {
		// The decorator needs the engine in hand, so the traced run opens
		// it the way OpenPeer would and passes it in.
		e, err := storage.Open(dir, storage.Options{})
		if err != nil {
			_ = ep.Close()
			return err
		}
		cfg.Engine = r.tr.engineFor(e)
	}
	p, err := core.OpenPeer(peerID(i, n), r.tr.endpoint(ep), d, cfg)
	if err != nil {
		_ = ep.Close()
		return err
	}
	r.peers = append(r.peers, p)
	r.eps = append(r.eps, ep)
	r.dirs = append(r.dirs, dir)
	return nil
}

// stable reports whether every peer's predecessor and successor list are
// what the finished ring dictates.
func (r *ring) stable() bool {
	n := len(r.peers)
	for i, p := range r.peers {
		node := p.Node()
		if n == 1 {
			continue
		}
		if node.Predecessor().Addr != r.peers[(i+n-1)%n].Addr() {
			return false
		}
		succs := node.Successors()
		if len(succs) < n-1 {
			return false
		}
		for k := 1; k < n; k++ {
			if succs[k-1].Addr != r.peers[(i+k)%n].Addr() {
				return false
			}
		}
	}
	return true
}

// close shuts every peer down (flushing its engine) and waits for the
// transports' goroutines.
func (r *ring) close() error {
	var first error
	for _, p := range r.peers {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func document(d corpus.Doc) *docs.Document {
	return &docs.Document{Name: d.Name, Title: d.Title, Body: d.Body, Access: docs.Access{Public: true}}
}

// addDoc hands corpus document di to peer pi (not yet published) and to
// the centralized reference.
func (r *ring) addDoc(c *corpus.Collection, di, pi int) (uint32, error) {
	d := c.Docs[di]
	stored, err := r.peers[pi].AddDocument(document(d))
	if err != nil {
		return 0, err
	}
	ref := postings.DocRef{Peer: r.peers[pi].Addr(), Doc: stored.ID}
	r.docOf[ref] = di
	r.refOf[di] = ref
	r.central.Add(uint32(di), d.Title+"\n"+d.Body)
	return stored.ID, nil
}

// removeDoc withdraws corpus document di from its peer and the reference.
func (r *ring) removeDoc(ctx context.Context, di, pi int) error {
	ref := r.refOf[di]
	if err := r.peers[pi].RemoveDocument(ctx, ref.Doc); err != nil {
		return err
	}
	delete(r.docOf, ref)
	delete(r.refOf, di)
	r.central.Remove(uint32(di))
	return nil
}

// prePublish spreads corpus documents [0, n) round-robin over the peers
// and indexes them fleet-wide in lockstep (statistics, single terms,
// then expansion rounds), the way a network is first populated.
func (r *ring) prePublish(ctx context.Context, c *corpus.Collection, n int) error {
	for di := 0; di < n; di++ {
		if _, err := r.addDoc(c, di, di%len(r.peers)); err != nil {
			return err
		}
	}
	for _, p := range r.peers {
		if err := p.PublishStats(ctx); err != nil {
			return err
		}
	}
	pubs := make([]*hdk.Publisher, len(r.peers))
	for i, p := range r.peers {
		hp, err := p.NewHDKPublisher(ctx)
		if err != nil {
			return err
		}
		if err := hp.PublishTerms(ctx); err != nil {
			return err
		}
		pubs[i] = hp
	}
	for {
		total := 0
		for _, hp := range pubs {
			m, err := hp.ExpandRound(ctx)
			if err != nil {
				return err
			}
			total += m
		}
		if total == 0 {
			return nil
		}
	}
}

// reference returns the centralized top-k corpus indexes for a query.
func (r *ring) reference(query string, k int) []int {
	res := baseline.NewCentralized(r.central).Search(query, k)
	out := make([]int, len(res))
	for i, x := range res {
		out[i] = int(x.Doc)
	}
	return out
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

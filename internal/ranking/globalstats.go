package ranking

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Message types for the statistics protocol (range 0x40–0x4F). Both are
// keyed batch frames of the global index's engine (globalindex.RunKeyed):
// the body is (mode, n, n×item), mode being MsgRead's owner/any byte. An
// item is a bare term; the empty term names the collection counters. An
// update item carries the term's signed DF delta, and the collection
// item the document-count and total-length deltas.
const (
	MsgStatsUpdate uint8 = 0x40 // (mode, n, n×(term, delta[, lenDelta])) -> n
	MsgStatsQuery  uint8 = 0x41 // (mode, n, n×term) -> (n, n×(df | numDocs, totalLen))
)

// statsPrefix starts every reserved statistics key. The \x00 keeps
// reserved keys out of the term namespace.
const statsPrefix = "\x00stats\x00"

// collectionKeyString names the reserved key under which the
// collection-wide counters (document count, total length) live.
const collectionKeyString = statsPrefix + "##collection"

// StatsKey returns the ring position of a term's document-frequency
// counter.
func StatsKey(term string) ids.ID { return ids.HashString(statsPrefix + term) }

// CollectionKey returns the ring position of the collection counters.
func CollectionKey() ids.ID { return ids.HashString(collectionKeyString) }

// routeKey is the routing key of an item: the term's reserved key, or the
// collection key for the empty term.
func routeKey(term string) string {
	if term == "" {
		return collectionKeyString
	}
	return statsPrefix + term
}

// GlobalStats is the layer-4 distributed ranking component: it maintains
// this peer's slice of the global statistics (term document frequencies
// and collection counters for the keys hashed onto it) and gives the
// query side access to network-wide statistics.
//
// Its frames ride the global index's batch engine, so they share its
// cached routes, its recovery ladder and, with R > 1, its write-through:
// an applied update is replayed once on the owner's R−1 ring successors,
// and a query whose owner cannot serve it asks those replicas, so the
// death of an owner does not zero BM25 document frequencies until the
// next republish.
type GlobalStats struct {
	ix *globalindex.Index

	mu       sync.Mutex
	df       map[string]int64
	numDocs  int64
	totalLen int64
}

// NewGlobalStats creates the service over ix's routing and replication
// and registers its handlers on d.
func NewGlobalStats(ix *globalindex.Index, d *transport.Dispatcher) *GlobalStats {
	g := &GlobalStats{ix: ix, df: make(map[string]int64)}
	d.Handle(MsgStatsUpdate, g.handleUpdate)
	d.Handle(MsgStatsQuery, g.handleQuery)
	return g
}

// readItems decodes a statistics frame's mode and items — each item's
// term, plus the extra its read callback takes — and admits the frame
// (globalindex.AdmitKeyed) before anything is applied.
func (g *GlobalStats) readItems(body []byte, item func(r *wire.Reader, term string)) ([]string, error) {
	r := wire.NewReader(body)
	mode := r.Byte()
	n := r.Uvarint()
	if r.Err() != nil || n > globalindex.MaxBatchItems {
		return nil, wire.ErrCorrupt
	}
	terms := make([]string, n)
	keys := make([]string, n)
	for i := range terms {
		terms[i] = r.String()
		item(r, terms[i])
		keys[i] = routeKey(terms[i])
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return terms, g.ix.AdmitKeyed(mode, keys)
}

func (g *GlobalStats) handleUpdate(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	var deltas [][2]int64 // per item: the delta, and the collection's length delta
	terms, err := g.readItems(body, func(r *wire.Reader, term string) {
		d := [2]int64{r.Varint(), 0}
		if term == "" {
			d[1] = r.Varint()
		}
		deltas = append(deltas, d)
	})
	if err != nil {
		return 0, nil, err
	}
	g.mu.Lock()
	for i, term := range terms {
		if term == "" {
			g.numDocs = max(g.numDocs+deltas[i][0], 0)
			g.totalLen = max(g.totalLen+deltas[i][1], 0)
			continue
		}
		if v := g.df[term] + deltas[i][0]; v <= 0 {
			delete(g.df, term)
		} else {
			g.df[term] = v
		}
	}
	g.mu.Unlock()
	w := wire.NewWriter(4)
	w.Uvarint(uint64(len(terms)))
	return MsgStatsUpdate, w.Bytes(), nil
}

func (g *GlobalStats) handleQuery(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	terms, err := g.readItems(body, func(*wire.Reader, string) {})
	if err != nil {
		return 0, nil, err
	}
	w := wire.NewWriter(8 + 4*len(terms))
	w.Uvarint(uint64(len(terms)))
	g.mu.Lock()
	for _, term := range terms {
		if term == "" {
			w.Varint(g.numDocs)
			w.Varint(g.totalLen)
		} else {
			w.Varint(g.df[term])
		}
	}
	g.mu.Unlock()
	return MsgStatsQuery, w.Bytes(), nil
}

// LocalCounters exposes the counters this peer currently stores, for
// monitoring (the demo's "critical statistics" screen).
func (g *GlobalStats) LocalCounters() (terms int, numDocs, totalLen int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.df), g.numDocs, g.totalLen
}

// PublishDocument pushes the statistics contribution of one newly indexed
// document: +1 document frequency for each distinct term, +1 document,
// +docLen total length — one keyed write, one frame per responsible peer.
func (g *GlobalStats) PublishDocument(ctx context.Context, terms []string, docLen int) error {
	return g.publish(ctx, terms, docLen, +1)
}

// UnpublishDocument reverses PublishDocument when a document is removed
// from the shared collection.
func (g *GlobalStats) UnpublishDocument(ctx context.Context, terms []string, docLen int) error {
	return g.publish(ctx, terms, docLen, -1)
}

// withCollection returns the non-empty terms followed by the empty term
// that names the collection counters.
func withCollection(terms []string) []string {
	out := make([]string, 0, len(terms)+1)
	for _, t := range terms {
		if t != "" {
			out = append(out, t)
		}
	}
	return append(out, "")
}

// routeKeys maps items to their routing keys.
func routeKeys(items []string) []string {
	keys := make([]string, len(items))
	for i, t := range items {
		keys[i] = routeKey(t)
	}
	return keys
}

func (g *GlobalStats) publish(ctx context.Context, terms []string, docLen int, sign int64) error {
	items := withCollection(terms)
	err := g.ix.RunKeyed(ctx, routeKeys(items), globalindex.KeyedOp{
		Msg:   MsgStatsUpdate,
		Write: true,
		Encode: func(w *wire.Writer, i int) {
			w.String(items[i])
			w.Varint(sign)
			if items[i] == "" {
				w.Varint(sign * int64(docLen))
			}
		},
		Decode: func(*wire.Reader, int) error { return nil },
	})
	if err != nil {
		return fmt.Errorf("ranking: stats publish: %w", err)
	}
	return nil
}

// Fetch gathers network-wide statistics for the given terms plus the
// collection counters, returning a Stats usable by the BM25 scorer.
func (g *GlobalStats) Fetch(ctx context.Context, terms []string) (*FixedStats, error) {
	items := withCollection(terms)
	coll := len(items) - 1
	// One slot per item: the engine decodes groups concurrently. The
	// collection item's slot holds the document count.
	vals := make([]int64, len(items))
	var totalLen int64
	err := g.ix.RunKeyed(ctx, routeKeys(items), globalindex.KeyedOp{
		Msg:    MsgStatsQuery,
		Encode: func(w *wire.Writer, i int) { w.String(items[i]) },
		Decode: func(r *wire.Reader, i int) error {
			vals[i] = r.Varint()
			if i == coll {
				totalLen = r.Varint()
			}
			return r.Err()
		},
	})
	if err != nil {
		return nil, fmt.Errorf("ranking: stats fetch: %w", err)
	}
	out := &FixedStats{DF: make(map[string]int64, coll), N: vals[coll]}
	for i, t := range items[:coll] {
		out.DF[t] = vals[i]
	}
	if out.N > 0 {
		out.AvgLen = float64(totalLen) / float64(out.N)
	}
	return out, nil
}

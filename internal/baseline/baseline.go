// Package baseline implements the two comparison systems the AlvisP2P
// evaluation is framed against:
//
//   - the *single-term* distributed index with full (untruncated) posting
//     lists, processed by shipping candidate lists between the peers
//     responsible for the query's terms — the strategy shown unscalable
//     by Zhang & Suel (P2P 2005), the paper's reference [11]. Its
//     per-query bandwidth grows with the collection because the first
//     shipped list is a complete posting list;
//   - the *centralized* search engine over the union collection, the
//     retrieval-quality reference ("comparable to state-of-the-art
//     centralized search engines", §1/§6).
package baseline

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/localindex"
	"repro/internal/postings"
	"repro/internal/ranking"
	"repro/internal/transport"
	"repro/internal/wire"
)

// MsgIntersect is the candidate-shipping RPC of the single-term baseline
// (message-type range 0x10–0x2F, layer 3): the caller ships its current
// candidate list to the peer responsible for a term; that peer intersects
// the candidates with its full stored list for the term (summing scores)
// and returns the survivors.
const MsgIntersect uint8 = 0x1A

// Service is one peer's single-term-baseline component.
type Service struct {
	gidx *globalindex.Index
}

// NewService creates the component and registers its handler on d.
func NewService(gidx *globalindex.Index, d *transport.Dispatcher) *Service {
	s := &Service{gidx: gidx}
	d.Handle(MsgIntersect, s.handleIntersect)
	return s
}

func (s *Service) handleIntersect(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	term := r.String()
	cand, err := postings.Decode(r, nil)
	if err != nil {
		return 0, nil, err
	}
	stored, found := s.gidx.Store().Peek(term)
	w := wire.NewWriter(64)
	if !found {
		(&postings.List{}).Encode(w)
		return MsgIntersect, w.Bytes(), nil
	}
	result := postings.IntersectSum(cand, stored)
	result.Encode(w)
	return MsgIntersect, w.Bytes(), nil
}

// PublishLocal pushes the peer's complete single-term lists (no
// truncation bound beyond the store's hard cap), scored with the given
// statistics so the final intersection ranks documents by summed BM25.
func (s *Service) PublishLocal(ctx context.Context, local *localindex.Index, stats ranking.Stats, self transport.Addr) (keys, shipped int, err error) {
	for _, term := range local.Terms() {
		list := &postings.List{}
		for _, dp := range local.Postings(term) {
			score := local.ScoreDoc(dp.Doc, []string{term}, stats)
			list.Add(postings.Posting{
				Ref:   postings.DocRef{Peer: self, Doc: dp.Doc},
				Score: score,
			})
		}
		list.Normalize()
		if list.Len() == 0 {
			continue
		}
		item := globalindex.AppendItem{Terms: []string{term}, List: list, Bound: globalindex.HardCap, AnnouncedDF: list.Len()}
		if _, err := s.gidx.MultiAppend(ctx, []globalindex.AppendItem{item}); err != nil {
			return keys, shipped, fmt.Errorf("baseline: publish %q: %w", term, err)
		}
		keys++
		shipped += list.Len()
	}
	return keys, shipped, nil
}

// QueryCost summarizes what one baseline query moved around.
type QueryCost struct {
	// ListFetched is the length of the first (rarest-term) full list.
	ListFetched int
	// Shipped is the total number of postings shipped between peers
	// during the intersection pipeline (including the first list).
	Shipped int
}

// Query processes a conjunctive multi-keyword query with the
// candidate-shipping pipeline: fetch the rarest term's complete list,
// then ship the shrinking candidate set through the peers responsible
// for the remaining terms in increasing-frequency order. It returns the
// final intersected list (scores summed, i.e. full-query BM25 for the
// survivors).
func (s *Service) Query(ctx context.Context, terms []string) (*postings.List, QueryCost, error) {
	var cost QueryCost
	if len(terms) == 0 {
		return &postings.List{}, cost, nil
	}
	// Order terms by ascending global document frequency.
	type termDF struct {
		term string
		df   int64
	}
	tds := make([]termDF, 0, len(terms))
	for _, t := range terms {
		info, err := s.gidx.MultiKeyInfo(ctx, []globalindex.KeyInfoItem{{Terms: []string{t}}})
		if err != nil {
			return nil, cost, err
		}
		if !info[0].Present {
			return &postings.List{}, cost, nil // a term nobody indexed: empty AND
		}
		tds = append(tds, termDF{term: t, df: info[0].DF})
	}
	sort.Slice(tds, func(i, j int) bool {
		if tds[i].df != tds[j].df {
			return tds[i].df < tds[j].df
		}
		return tds[i].term < tds[j].term
	})

	// Fetch the complete list of the rarest term.
	got, err := s.gidx.MultiGet(ctx, []globalindex.GetItem{{Terms: []string{tds[0].term}}}, globalindex.ReadPrimary)
	if err != nil {
		return nil, cost, err
	}
	cand := got[0].List
	if !got[0].Found || cand.Len() == 0 {
		return &postings.List{}, cost, nil
	}
	cost.ListFetched = cand.Len()
	cost.Shipped = cand.Len()

	// Ship candidates through the remaining terms' peers.
	for _, td := range tds[1:] {
		peer, _, err := s.gidx.Node().Lookup(ctx, ids.HashString(td.term))
		if err != nil {
			return nil, cost, err
		}
		w := wire.NewWriter(64 + 12*cand.Len())
		w.String(td.term)
		cand.Encode(w)
		_, resp, err := s.gidx.Node().Endpoint().Call(ctx, peer.Addr, MsgIntersect, w.Bytes())
		if err != nil {
			return nil, cost, fmt.Errorf("baseline: intersect %q at %s: %w", td.term, peer.Addr, err)
		}
		r := wire.NewReader(resp)
		cand, err = postings.Decode(r, nil)
		if err != nil {
			return nil, cost, err
		}
		cost.Shipped += cand.Len()
		if cand.Len() == 0 {
			break
		}
	}
	return cand, cost, nil
}

// Centralized is the reference engine: the whole collection in one local
// index, ranked with plain BM25 over exact global statistics.
type Centralized struct {
	Index *localindex.Index
}

// NewCentralized builds the reference engine over pre-analyzed texts:
// texts[i] is indexed as document i.
func NewCentralized(ix *localindex.Index) *Centralized {
	return &Centralized{Index: ix}
}

// Search returns the exact BM25 top-k for a query.
func (c *Centralized) Search(query string, k int) []localindex.Result {
	return c.Index.Search(query, k)
}

// SearchTerms returns the exact BM25 top-k for pre-analyzed terms.
func (c *Centralized) SearchTerms(terms []string, k int) []localindex.Result {
	return c.Index.SearchTerms(terms, k, c.Index)
}

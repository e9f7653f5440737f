package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/dht"
	"repro/internal/docs"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Message types for the local-engine interaction layer (range 0x50–0x5F).
const (
	// MsgDocInfo fetches presentation data for documents hosted at a
	// peer: (doc ids) -> (title, snippet, url, public) per doc.
	MsgDocInfo uint8 = 0x50
	// MsgForwardQuery forwards a query to a peer's local search engine —
	// the paper's second-step refinement — and returns its locally
	// ranked results.
	MsgForwardQuery uint8 = 0x51
	// MsgFetchDoc retrieves a document's content, subject to its access
	// policy: (doc, user, password) -> (ok, body).
	MsgFetchDoc uint8 = 0x52
)

func (p *Peer) registerL5Handlers(d *transport.Dispatcher) {
	d.Handle(MsgDocInfo, p.handleDocInfo)
	d.Handle(MsgForwardQuery, p.handleForwardQuery)
	d.Handle(MsgFetchDoc, p.handleFetchDoc)
}

func (p *Peer) handleDocInfo(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	n := r.Uvarint()
	if r.Err() != nil || n > 4096 {
		return 0, nil, wire.ErrCorrupt
	}
	w := wire.NewWriter(256)
	w.Uvarint(n)
	for i := uint64(0); i < n; i++ {
		id := uint32(r.Uvarint())
		if r.Err() != nil {
			return 0, nil, r.Err()
		}
		doc := p.docs.Get(id)
		w.Uvarint(uint64(id))
		w.Bool(doc != nil)
		if doc != nil {
			w.String(doc.Title)
			w.String(doc.Snippet(docs.SnippetLen))
			w.String(p.docURL(doc.Name, doc.URL))
			w.Bool(doc.Access.Public)
		}
	}
	return MsgDocInfo, w.Bytes(), nil
}

// docURL renders the paper's document address form,
// http://PeerIP:Port/SharedDir/DocumentName, preferring the original URL
// for externally published documents.
func (p *Peer) docURL(name, original string) string {
	if original != "" {
		return original
	}
	return "http://" + string(p.Addr()) + "/shared/" + name
}

func (p *Peer) handleForwardQuery(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	query := r.String()
	topK := int(r.Uvarint())
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if topK <= 0 || topK > 1000 {
		topK = 20
	}
	hits := p.local.Search(query, topK)
	w := wire.NewWriter(256)
	w.Uvarint(uint64(len(hits)))
	for _, h := range hits {
		doc := p.docs.Get(h.Doc)
		w.Uvarint(uint64(h.Doc))
		w.Float64(h.Score)
		if doc != nil {
			w.String(doc.Title)
			w.String(doc.Snippet(docs.SnippetLen))
			w.String(p.docURL(doc.Name, doc.URL))
		} else {
			w.String("")
			w.String("")
			w.String("")
		}
	}
	return MsgForwardQuery, w.Bytes(), nil
}

func (p *Peer) handleFetchDoc(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	id := uint32(r.Uvarint())
	user := r.String()
	pass := r.String()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	w := wire.NewWriter(256)
	doc := p.docs.Get(id)
	if doc == nil || !doc.Access.Authorize(user, pass) {
		w.Bool(false)
		return MsgFetchDoc, w.Bytes(), nil
	}
	w.Bool(true)
	w.String(doc.Title)
	w.String(doc.Body)
	return MsgFetchDoc, w.Bytes(), nil
}

// presentResults resolves titles, snippets and URLs for ranked document
// references by asking each hosting peer: one batched MsgDocInfo call per
// peer, all of them in one bounded round (dht.RunBounded). A peer whose
// call fails — or that a dying context leaves unasked — presents its
// references as "(peer unavailable)" rather than failing the query; a
// garbled answer fails it, the first in peer order winning.
func (p *Peer) presentResults(ctx context.Context, ranked []postings.Posting) ([]Result, error) {
	out := make([]Result, len(ranked))
	byPeer := make(map[transport.Addr][]int) // positions in ranked
	var order []transport.Addr
	for i, sr := range ranked {
		out[i] = Result{Ref: sr.Ref, Score: sr.Score}
		pos, ok := byPeer[sr.Ref.Peer]
		if !ok {
			order = append(order, sr.Ref.Peer)
		}
		byPeer[sr.Ref.Peer] = append(pos, i)
	}
	resps := make([][]byte, len(order))
	reached := make([]bool, len(order))
	// A context that dies mid-round leaves the remaining peers unasked;
	// they present as unavailable and the caller marks the answer partial.
	_ = dht.RunBounded(ctx, len(order), func(gi int) {
		pos := byPeer[order[gi]]
		w := wire.NewWriter(8 * len(pos))
		w.Uvarint(uint64(len(pos)))
		for _, i := range pos {
			w.Uvarint(uint64(ranked[i].Ref.Doc))
		}
		_, resp, err := p.node.Endpoint().Call(ctx, order[gi], MsgDocInfo, w.Bytes())
		resps[gi], reached[gi] = resp, err == nil
	})
	for gi, addr := range order {
		pos := byPeer[addr]
		if !reached[gi] {
			// The hosting peer is gone; present the reference without
			// details rather than failing the query.
			for _, i := range pos {
				out[i].Title = "(peer unavailable)"
			}
			continue
		}
		r := wire.NewReader(resps[gi])
		n := r.Uvarint()
		for j := uint64(0); j < n && r.Err() == nil; j++ {
			id := uint32(r.Uvarint())
			title, snippet, url, public := "(document withdrawn)", "", "", false
			if r.Bool() {
				title, snippet, url, public = r.String(), r.String(), r.String(), r.Bool()
			}
			for _, i := range pos {
				if out[i].Ref.Doc == id {
					out[i].Title, out[i].Snippet, out[i].URL, out[i].Public = title, snippet, url, public
				}
			}
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: doc info from %s: %w", addr, err)
		}
	}
	return out, nil
}

// Refine implements the paper's second retrieval step: the query is
// forwarded to the local search engines of the peers holding the
// first-step results, which can apply their own (possibly more
// sophisticated) local models; the returned hits are merged by local
// score. firstStep supplies the peers to contact. A cancelled context
// stops contacting further peers and returns the merge so far alongside
// ErrQueryCancelled (cancel) or ErrPartialResults (deadline expiry).
func (p *Peer) Refine(ctx context.Context, query string, firstStep []Result, topK int) ([]Result, error) {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return nil, err
	}
	if topK <= 0 {
		topK = p.cfg.TopK
	}
	seen := make(map[transport.Addr]bool)
	var peers []transport.Addr
	for _, r := range firstStep {
		if !seen[r.Ref.Peer] {
			seen[r.Ref.Peer] = true
			peers = append(peers, r.Ref.Peer)
		}
	}
	var merged []Result
	var cut error
	for _, addr := range peers {
		if cerr := ctx.Err(); cerr != nil {
			// Stop contacting peers but keep what already merged — the
			// usable prefix, like Search's partial semantics.
			if errors.Is(cerr, context.DeadlineExceeded) {
				cut = fmt.Errorf("%w (refine incomplete): %w", ErrPartialResults, cerr)
			} else {
				cut = fmt.Errorf("%w (refine incomplete): %w", ErrQueryCancelled, cerr)
			}
			break
		}
		w := wire.NewWriter(len(query) + 8)
		w.String(query)
		w.Uvarint(uint64(topK))
		_, resp, err := p.node.Endpoint().Call(ctx, addr, MsgForwardQuery, w.Bytes())
		if err != nil {
			continue // unavailable local engine: skip, like the demo does
		}
		r := wire.NewReader(resp)
		n := r.Uvarint()
		for i := uint64(0); i < n && r.Err() == nil; i++ {
			doc := uint32(r.Uvarint())
			score := r.Float64()
			title := r.String()
			snippet := r.String()
			url := r.String()
			merged = append(merged, Result{
				Ref:     postings.DocRef{Peer: addr, Doc: doc},
				Score:   score,
				Title:   title,
				Snippet: snippet,
				URL:     url,
			})
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: refine via %s: %w", addr, err)
		}
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].Ref.Less(merged[j].Ref)
	})
	if len(merged) > topK {
		merged = merged[:topK]
	}
	return merged, cut
}

// FetchDocument retrieves a document's full content from its hosting
// peer, subject to the document's access policy (paper §4 "Document
// access"). Empty credentials access public documents only.
func (p *Peer) FetchDocument(ctx context.Context, ref postings.DocRef, user, password string) (title, body string, err error) {
	ctx, cancel, cerr := p.opCtx(ctx)
	defer cancel()
	if cerr != nil {
		return "", "", cerr
	}
	w := wire.NewWriter(32)
	w.Uvarint(uint64(ref.Doc))
	w.String(user)
	w.String(password)
	_, resp, err := p.node.Endpoint().Call(ctx, ref.Peer, MsgFetchDoc, w.Bytes())
	if err != nil {
		return "", "", fmt.Errorf("core: fetch %v: %w", ref, err)
	}
	r := wire.NewReader(resp)
	if !r.Bool() {
		return "", "", fmt.Errorf("core: access denied for %v", ref)
	}
	title = r.String()
	body = r.String()
	return title, body, r.Err()
}

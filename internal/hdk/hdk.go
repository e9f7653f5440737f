// Package hdk implements indexing with Highly Discriminative Keys
// (Podnar, Rajman, Luu, Klemm, Aberer — ICDE 2007, reference [7] of the
// AlvisP2P paper): the frequency-driven strategy that populates the
// distributed index with carefully chosen term combinations.
//
// The rules, as the AlvisP2P paper states them (§1–2):
//
//   - every single term is indexed; a posting list that exceeds DFmax is
//     truncated to its top-ranked TruncK entries;
//   - each time the (global, pre-truncation) document frequency of a key
//     exceeds DFmax, expansions of the key — supersets with one more term,
//     restricted to combinations whose terms co-occur within a proximity
//     window of W tokens — are generated, up to SMax terms per key;
//   - keys whose frequency is at most DFmax are *discriminative*: their
//     lists are complete, so retrieval needs no further refinement below
//     them.
//
// Expansion candidates must themselves be frequent terms lexicographically
// after the key's last term. Because document frequency is monotone
// non-increasing under term addition, every key all of whose sorted
// prefixes are frequent is reached exactly once — the standard
// deduplication of the HDK generation process.
package hdk

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/localindex"
	"repro/internal/postings"
	"repro/internal/ranking"
	"repro/internal/transport"
)

// Config are the HDK parameters. Defaults (via FillDefaults) follow the
// orders of magnitude of the ICDE'07 evaluation.
type Config struct {
	// DFMax is the discriminativeness threshold: keys with global
	// document frequency above it are frequent and get expanded.
	DFMax int
	// SMax is the maximum number of terms in a key.
	SMax int
	// Window is the proximity window (tokens) for expansion candidates.
	Window int
	// TruncK is the posting-list truncation bound in the global index. A
	// peer also ships at most TruncK of its local postings per key: more
	// can never survive the store's truncation.
	TruncK int
}

// FillDefaults replaces zero fields with the defaults (DFmax 500, smax 3,
// window 20, TruncK 500).
func (c *Config) FillDefaults() {
	if c.DFMax == 0 {
		c.DFMax = 500
	}
	if c.SMax == 0 {
		c.SMax = 3
	}
	if c.Window == 0 {
		c.Window = 20
	}
	if c.TruncK == 0 {
		c.TruncK = 500
	}
}

// Publisher runs the distributed HDK indexing process for one peer: it
// walks the key levels bottom-up, publishing its local postings for each
// key and expanding the keys the network reports as frequent.
//
// The process is round-based and must be synchronized across peers: every
// peer publishes level s before any peer expands to level s+1, because
// the frequency test reads the network-wide aggregated document
// frequency. Drive it either with Run (single new peer joining an already
// indexed network) or with PublishTerms / ExpandRound in lockstep across
// a fleet (the simulator does this).
type Publisher struct {
	cfg    Config
	local  *localindex.Index
	global *globalindex.Index
	stats  ranking.Stats // global statistics for posting scores
	self   transport.Addr
	held   *Held // nil: nothing to withdraw

	frontier [][]string // keys this peer published at the current level
	level    int
	res      Result
	wrote    map[string]bool // keys this run published
	done     bool            // the run completed and withdrew

	// frequentTerm caches the global single-term frequency test.
	frequentTerm map[string]bool
}

// NewPublisher builds a publisher. stats supplies the global collection
// statistics used both to score postings (BM25) and to test single-term
// frequency; self is this peer's address, used in document references.
// held is the set of keys this peer's earlier runs published (nil when
// there is nothing to withdraw): once the run completes, the keys in it
// that the run did not publish again are withdrawn from the index.
func NewPublisher(cfg Config, local *localindex.Index, global *globalindex.Index, stats ranking.Stats, self transport.Addr, held *Held) *Publisher {
	cfg.FillDefaults()
	return &Publisher{
		cfg:          cfg,
		local:        local,
		global:       global,
		stats:        stats,
		self:         self,
		held:         held,
		wrote:        make(map[string]bool),
		frequentTerm: make(map[string]bool),
	}
}

// Held is the set of keys a peer holds a share of in the global index:
// what its publishing runs wrote and have not withdrawn. Every write of a
// key replaces the peer's whole share of it, so a run publishing the
// current collection corrects every key it writes; Held is what lets it
// also reach the keys it no longer writes, such as those of a removed
// document. It is safe for concurrent use.
type Held struct {
	mu   sync.Mutex
	keys map[string]bool
}

// NewHeld returns an empty set.
func NewHeld() *Held { return &Held{keys: make(map[string]bool)} }

// Result summarizes one peer's publishing run so far.
type Result struct {
	KeysPublished     int // distinct keys this peer pushed postings for
	PostingsPublished int // total postings shipped
	Levels            int // deepest level reached (1 = single terms only)
}

// Result returns the accumulated publishing counters.
func (p *Publisher) Result() Result { return p.res }

// Run executes the full bottom-up process for this peer and returns its
// summary. Correct when the rest of the network is already published (or
// this peer holds the whole collection); for fleet-wide initial indexing
// use PublishTerms/ExpandRound in lockstep instead.
func (p *Publisher) Run(ctx context.Context) (Result, error) {
	if err := p.PublishTerms(ctx); err != nil {
		return p.res, err
	}
	for {
		n, err := p.ExpandRound(ctx)
		if err != nil || n == 0 {
			return p.res, err
		}
	}
}

// PublishTerms pushes this peer's postings for every local term (level 1),
// coalesced per responsible peer.
func (p *Publisher) PublishTerms(ctx context.Context) error {
	var items []globalindex.AppendItem
	for _, term := range p.local.Terms() {
		localDF := int(p.local.DocFreq(term))
		list := p.buildLocalList([]string{term}, nil)
		if list.Len() == 0 {
			continue
		}
		items = append(items, globalindex.AppendItem{
			Terms:       []string{term},
			List:        list,
			Bound:       p.cfg.TruncK,
			AnnouncedDF: localDF,
		})
	}
	if err := p.publishItems(ctx, items); err != nil {
		return err
	}
	p.frontier = nil
	for _, t := range p.local.Terms() {
		p.frontier = append(p.frontier, []string{t})
	}
	p.level = 1
	p.res.Levels = 1
	return nil
}

// publishItems ships prepared append items as one MultiAppend and
// accounts them in the result counters and the held keys.
func (p *Publisher) publishItems(ctx context.Context, items []globalindex.AppendItem) error {
	if p.held != nil {
		// Held before the write: a run cut short still withdraws later.
		p.held.mu.Lock()
		for _, it := range items {
			p.held.keys[ids.KeyString(it.Terms)] = true
		}
		p.held.mu.Unlock()
	}
	if _, err := p.global.MultiAppend(ctx, items); err != nil {
		return fmt.Errorf("hdk: publish %d keys: %w", len(items), err)
	}
	for _, it := range items {
		p.wrote[ids.KeyString(it.Terms)] = true
		p.res.KeysPublished++
		p.res.PostingsPublished += it.List.Len()
	}
	return nil
}

// finish completes the run: every held key the run did not publish gets
// an empty write, withdrawing this peer from it, and leaves the held set.
// It runs once; later calls do nothing.
func (p *Publisher) finish(ctx context.Context) error {
	if p.done || p.held == nil {
		return nil
	}
	p.held.mu.Lock()
	var gone []string
	for key := range p.held.keys {
		if !p.wrote[key] {
			gone = append(gone, key)
		}
	}
	p.held.mu.Unlock()
	sort.Strings(gone)
	items := make([]globalindex.AppendItem, len(gone))
	for i, key := range gone {
		items[i] = globalindex.AppendItem{Terms: strings.Split(key, " "), List: &postings.List{}, Bound: p.cfg.TruncK}
	}
	if _, err := p.global.MultiAppend(ctx, items); err != nil {
		return fmt.Errorf("hdk: withdraw %d keys: %w", len(items), err)
	}
	p.held.mu.Lock()
	for _, key := range gone {
		delete(p.held.keys, key)
	}
	p.held.mu.Unlock()
	p.done = true
	return nil
}

// ExpandRound probes the frequency of the current frontier keys and
// publishes the expansions of the frequent ones, advancing one level. It
// returns the number of keys published this round; 0 means the process
// finished, and the round that first returns it withdraws the keys of
// earlier runs this one did not publish.
//
// The round runs in two batched phases — frequency probes for the whole
// frontier (one MultiKeyInfo), then all expansion appends (one
// MultiAppend). The phases touch disjoint key levels (probes read level
// s, appends write level s+1), so batching cannot change any frequency
// decision.
func (p *Publisher) ExpandRound(ctx context.Context) (int, error) {
	if p.level == 0 {
		return 0, fmt.Errorf("hdk: ExpandRound before PublishTerms")
	}
	if p.level >= p.cfg.SMax {
		return 0, p.finish(ctx)
	}
	frequent, err := p.frontierFrequent(ctx)
	if err != nil {
		return 0, err
	}
	var next [][]string
	var items []globalindex.AppendItem
	for i, key := range p.frontier {
		if !frequent[i] {
			continue
		}
		for _, exp := range p.localExpansions(key) {
			docs := p.local.CooccurDocs(exp, p.cfg.Window)
			if len(docs) == 0 {
				continue
			}
			list := p.buildLocalList(exp, docs)
			if list.Len() == 0 {
				continue
			}
			items = append(items, globalindex.AppendItem{
				Terms:       exp,
				List:        list,
				Bound:       p.cfg.TruncK,
				AnnouncedDF: len(docs),
			})
			next = append(next, exp)
		}
	}
	if err := p.publishItems(ctx, items); err != nil {
		return 0, err
	}
	p.frontier = next
	p.level++
	if len(next) == 0 {
		return 0, p.finish(ctx)
	}
	p.res.Levels = p.level
	return len(next), nil
}

// frontierFrequent evaluates the frequency test for every frontier key,
// in frontier order. Single terms answer from the cached global
// statistics; multi-term keys ask their responsible peers' approximate
// DF in one MultiKeyInfo.
func (p *Publisher) frontierFrequent(ctx context.Context) ([]bool, error) {
	out := make([]bool, len(p.frontier))
	var multiIdx []int
	var items []globalindex.KeyInfoItem
	for i, key := range p.frontier {
		if len(key) == 1 {
			out[i] = p.termFrequent(key[0])
			continue
		}
		multiIdx = append(multiIdx, i)
		items = append(items, globalindex.KeyInfoItem{Terms: key})
	}
	if len(items) == 0 {
		return out, nil
	}
	infos, err := p.global.MultiKeyInfo(ctx, items)
	if err != nil {
		return nil, err
	}
	for j, info := range infos {
		out[multiIdx[j]] = info.DF > int64(p.cfg.DFMax)
	}
	return out, nil
}

func (p *Publisher) termFrequent(term string) bool {
	if v, ok := p.frequentTerm[term]; ok {
		return v
	}
	v := p.stats.DocFreq(term) > int64(p.cfg.DFMax)
	p.frequentTerm[term] = v
	return v
}

// localExpansions returns the candidate supersets of key observable in
// this peer's collection: key + one globally frequent term that follows
// key's last term lexicographically and co-occurs with the whole key
// within the window in at least one local document.
func (p *Publisher) localExpansions(key []string) [][]string {
	last := key[len(key)-1]
	docs := p.local.CooccurDocs(key, p.cfg.Window)
	candSet := make(map[string]struct{})
	for _, doc := range docs {
		for _, t := range p.local.DocTerms(doc) {
			if t <= last {
				continue
			}
			if !p.termFrequent(t) {
				continue
			}
			candSet[t] = struct{}{}
		}
	}
	cands := make([]string, 0, len(candSet))
	for t := range candSet {
		cands = append(cands, t)
	}
	sort.Strings(cands)
	out := make([][]string, 0, len(cands))
	for _, t := range cands {
		exp := make([]string, 0, len(key)+1)
		exp = append(exp, key...)
		exp = append(exp, t)
		out = append(out, exp)
	}
	return out
}

// buildLocalList assembles this peer's scored postings for a key. docs
// restricts the documents considered (nil = all local docs containing
// every key term). The list is capped to TruncK top-scored entries.
func (p *Publisher) buildLocalList(key []string, docs []uint32) *postings.List {
	if docs == nil {
		docs = p.local.BooleanAnd(key)
	}
	list := &postings.List{}
	for _, doc := range docs {
		score := p.local.ScoreDoc(doc, key, p.stats)
		list.Add(postings.Posting{
			Ref:   postings.DocRef{Peer: p.self, Doc: doc},
			Score: score,
		})
	}
	list.Normalize()
	if list.Len() > p.cfg.TruncK {
		list.Entries = list.Entries[:p.cfg.TruncK]
		// Not marked Truncated: the *store* decides global truncation;
		// this cap only avoids shipping postings that cannot survive it.
	}
	return list
}

// GenerateKeys runs the HDK key-generation rules against a single
// collection with an exact document-frequency oracle — the centralized
// reference implementation used by the unit tests and the storage
// analysis (it must agree with what the distributed protocol builds).
// It returns the canonical key strings mapped to their (untruncated)
// document frequency.
func GenerateKeys(ix *localindex.Index, cfg Config) map[string]int {
	cfg.FillDefaults()
	out := make(map[string]int)
	var frontier [][]string
	for _, t := range ix.Terms() {
		df := int(ix.DocFreq(t))
		out[ids.KeyString([]string{t})] = df
		if df > cfg.DFMax {
			frontier = append(frontier, []string{t})
		}
	}
	for s := 1; s < cfg.SMax && len(frontier) > 0; s++ {
		var next [][]string
		for _, key := range frontier {
			last := key[len(key)-1]
			docs := ix.CooccurDocs(key, cfg.Window)
			candSet := make(map[string]struct{})
			for _, doc := range docs {
				for _, t := range ix.DocTerms(doc) {
					if t > last && int(ix.DocFreq(t)) > cfg.DFMax {
						candSet[t] = struct{}{}
					}
				}
			}
			cands := make([]string, 0, len(candSet))
			for t := range candSet {
				cands = append(cands, t)
			}
			sort.Strings(cands)
			for _, t := range cands {
				exp := append(append([]string{}, key...), t)
				docs := ix.CooccurDocs(exp, cfg.Window)
				if len(docs) == 0 {
					continue
				}
				k := ids.KeyString(exp)
				if _, seen := out[k]; seen {
					continue
				}
				out[k] = len(docs)
				if len(docs) > cfg.DFMax {
					next = append(next, exp)
				}
			}
		}
		frontier = next
	}
	return out
}

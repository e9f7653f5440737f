// Package alvisp2p is a Go reproduction of "AlvisP2P: Scalable
// Peer-to-Peer Text Retrieval in a Structured P2P Network" (Luu et al.,
// VLDB 2008): a full-text retrieval engine over a structured P2P overlay
// in which every peer indexes its own documents and maintains a slice of
// a global distributed index of carefully chosen term combinations with
// truncated posting lists.
//
// The package is a facade over the layered implementation (see DESIGN.md
// for the architecture):
//
//	net := alvisp2p.NewInMemoryNetwork()          // or DialTCP for real sockets
//	peer, _ := net.NewPeer("library", alvisp2p.Config{})
//	peer.AddFile("intro.txt", []byte("peer to peer retrieval ..."))
//	peer.PublishIndex(ctx)
//	resp, _ := peer.Search(ctx, "peer retrieval",
//	        alvisp2p.WithTopK(10),
//	        alvisp2p.WithTimeout(200*time.Millisecond))
//	for _, r := range resp.Results { ... }
//
// Every network-touching operation takes a context.Context: cancelling
// it unwinds the operation mid-fan-out (no further RPCs are spawned) and
// a deadline turns into connection/read timeouts on the TCP transport.
// Search additionally accepts functional options — WithTopK,
// WithTimeout, WithReadConsistency, WithHedging, WithStrategy,
// WithStreaming, WithTrace — that tune a single query without touching
// the peer's configuration. A cancelled search returns ErrQueryCancelled, an
// expired one ErrPartialResults; both leave the usable ranked prefix in
// the response (Partial is set).
//
// Deadlines also cross the wire: a query's remaining budget travels in
// every frame header, and a peer configured with
// Config.AdmissionWatermark sheds requests that can no longer answer in
// time *before* doing the work (the shed is typed, and the read paths
// retry it on another replica).
//
// Indexing strategies: HDK (frequency-driven term combinations, the
// default) and QDI (query-driven on-demand indexing); switchable at
// runtime like the paper's demonstration, and per query via
// WithStrategy.
//
// Publication and search fan out concurrently by default: key operations
// are resolved in bulk and coalesced into one batched RPC per
// responsible peer, at most eight frames in flight per operation (see
// DESIGN.md, "The batching / fan-out layer"). Two runs over the same
// ring and documents produce identical results, traces and global index
// state.
//
// Config.ReplicationFactor makes the global index churn-tolerant: every
// entry is kept at its responsible peer plus R−1 ring successors
// (write-through), reads fall over to replicas when the primary is
// unreachable, and ring changes trigger key migration (see DESIGN.md,
// "The replication layer"). With replication on,
// WithReadConsistency(ReadAnyReplica) additionally spreads a query's
// reads across each key's whole replica set. The default (1) keeps the
// single-copy behaviour and its byte-identical determinism contract.
//
// Config.DataDir makes the peer's index slice durable (a write-ahead
// log compacted into snapshots, see DESIGN.md "Durability & recovery"):
// a restarted peer recovers its slice from disk and rejoins the ring
// with a delta pull — only the writes it missed while down transfer —
// instead of re-pulling its whole range. Config.AntiEntropyInterval
// adds a background replica-repair sweep on top of the ring-change
// handoffs.
//
// For zipfian read traffic, Config.ResultCache and Config.PrefixCache
// enable client-side caches (invalidated by ring changes, local writes,
// and Config.CacheTTL), and Config.HotKeyThreshold enables popularity
// soft replication: keys whose read rate crosses the threshold get
// Config.SoftReplicas extra cached copies pushed to derived peers
// outside the successor set, which hedged reads fold in (see DESIGN.md,
// "Hot-key caching & popularity-aware soft replication").
package alvisp2p

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/docs"
	"repro/internal/hdk"
	"repro/internal/ids"
	"repro/internal/qdi"
	"repro/internal/telemetry"
	"repro/internal/textproc"
	"repro/internal/transport"
)

// Re-exported configuration and result types. The facade keeps the
// internal packages' types where they are self-contained.
type (
	// Config configures a peer; the zero value uses the paper's
	// defaults (HDK strategy, DFmax 500, smax 3, TruncK 500, BM25).
	Config = core.Config
	// Strategy selects HDK or QDI indexing.
	Strategy = core.Strategy
	// Result is one search hit (hosting peer URL, title, snippet,
	// relevance score — the §4 presentation).
	Result = core.Result
	// SearchResponse is what Search returns: ranked results, the
	// optional trace, and whether cancellation made them partial.
	SearchResponse = core.SearchResponse
	// SearchOption tunes one query; see WithTopK and friends.
	SearchOption = core.SearchOption
	// ReadConsistency selects which index copies serve a query's reads.
	ReadConsistency = core.ReadConsistency
	// QueryTrace reports a search's probe/skip/activation counts.
	QueryTrace = core.QueryTrace
	// Document is a shared document with its access policy.
	Document = docs.Document
	// Access is a document access policy (public, or user+password).
	Access = docs.Access
	// Digest is the Alvis document digest (external engine integration).
	Digest = docs.Digest
	// HDKConfig are the Highly-Discriminative-Keys parameters.
	HDKConfig = hdk.Config
	// QDIConfig are the Query-Driven-Indexing parameters.
	QDIConfig = qdi.Config
	// Addr is a peer's transport address.
	Addr = transport.Addr
)

// Indexing strategies.
const (
	StrategyHDK = core.StrategyHDK
	StrategyQDI = core.StrategyQDI
)

// Read-consistency levels for WithReadConsistency.
const (
	// ReadPrimaryOnly reads every key from its responsible peer
	// (replica fallover only on primary failure). The default.
	ReadPrimaryOnly = core.ReadPrimaryOnly
	// ReadAnyReplica spreads each key's read across the primary's
	// replica set, trading a little freshness for hotspot relief.
	ReadAnyReplica = core.ReadAnyReplica
)

// Per-query options (functional options for Search).
var (
	// WithTopK bounds the query's result count and per-probe transfer
	// budget to n.
	WithTopK = core.WithTopK
	// WithTimeout gives the query its own deadline; on expiry the
	// usable prefix is returned with ErrPartialResults.
	WithTimeout = core.WithTimeout
	// WithReadConsistency selects ReadPrimaryOnly or ReadAnyReplica.
	WithReadConsistency = core.WithReadConsistency
	// WithHedging races a slow (or shedding) replica against the
	// next-best copy after the given delay, first response wins —
	// bounding read tail latency under ReadAnyReplica.
	WithHedging = core.WithHedging
	// WithStrategy overrides HDK/QDI for this query only.
	WithStrategy = core.WithStrategy
	// WithStreaming switches this query between a streamed
	// score-bounded read and one-shot whole-list reads (same frame,
	// same session), overriding Config.StreamTopK. Same top-k set (up
	// to score-quantization ties at the boundary), a fraction of the
	// bytes; see core.WithStreaming for the exact result contract.
	WithStreaming = core.WithStreaming
	// WithTrace toggles the response's QueryTrace (default on).
	WithTrace = core.WithTrace
	// WithResultCache(false) bypasses the peer's resolved-result cache
	// for this query (freshness-critical callers); no-op when
	// Config.ResultCache is off.
	WithResultCache = core.WithResultCache
)

// Request-level errors (match with errors.Is).
var (
	// ErrQueryCancelled: the caller cancelled the context mid-query.
	ErrQueryCancelled = core.ErrQueryCancelled
	// ErrPartialResults: the deadline expired; the response carries the
	// ranked prefix gathered before it.
	ErrPartialResults = core.ErrPartialResults
	// ErrPeerClosed: the operation ran on a peer after Close.
	ErrPeerClosed = core.ErrPeerClosed
)

// Peer is one AlvisP2P participant: it shares documents, contributes a
// slice of the global index, and searches the whole network.
type Peer struct {
	inner *core.Peer
}

// Network abstracts how peers attach to each other: in-memory (tests,
// simulations, single-process demos) or TCP (real deployments).
type Network struct {
	mem *transport.Mem
}

// NewInMemoryNetwork creates a process-local network. All peers created
// from it exchange real protocol messages through a metered in-memory
// transport.
func NewInMemoryNetwork() *Network {
	return &Network{mem: transport.NewMem()}
}

// NewPeer attaches a new peer with the given name (empty = generated).
// The peer starts as its own one-node ring; call Join to enter an
// existing network.
func (n *Network) NewPeer(name string, cfg Config) (*Peer, error) {
	if n.mem == nil {
		return nil, fmt.Errorf("alvisp2p: network not initialized")
	}
	d := transport.NewDispatcher()
	ep := n.mem.Endpoint(name, d.Serve)
	id := ids.HashString(string(ep.Addr()))
	inner, err := core.OpenPeer(id, ep, d, cfg)
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return &Peer{inner: inner}, nil
}

// ListenTCP creates a standalone peer listening on addr (e.g.
// "0.0.0.0:4000") — the real-deployment entry point used by cmd/alvisp2p.
func ListenTCP(addr string, cfg Config) (*Peer, error) {
	d := transport.NewDispatcher()
	ep, err := transport.ListenTCP(addr, d.Serve)
	if err != nil {
		return nil, err
	}
	id := ids.HashString(string(ep.Addr()))
	inner, err := core.OpenPeer(id, ep, d, cfg)
	if err != nil {
		_ = ep.Close()
		return nil, err
	}
	return &Peer{inner: inner}, nil
}

// Addr returns the peer's address, which other peers use to Join.
func (p *Peer) Addr() Addr { return p.inner.Addr() }

// Join enters the network reachable at bootstrap. The context bounds the
// whole join, including the bootstrap dial on TCP (a dead bootstrap
// address fails at the context's deadline, not the OS default timeout).
func (p *Peer) Join(ctx context.Context, bootstrap Addr) error {
	return p.inner.Join(ctx, bootstrap)
}

// Maintain runs one maintenance round (ring repair, finger refresh,
// QDI aging). Long-running peers call it periodically.
func (p *Peer) Maintain(ctx context.Context) { p.inner.Maintain(ctx) }

// Close shuts the peer down gracefully: in-flight operations are
// unwound (their contexts cancel), the dispatcher refuses new work, and
// the transport drains its server goroutines before returning. Close is
// idempotent and safe to call concurrently with in-flight searches.
func (p *Peer) Close() error { return p.inner.Close() }

// Telemetry returns the peer's metric registry: every counter the peer
// maintains (transport traffic, admission control, index and storage
// gauges, replication transfers, per-peer latency EWMAs, search
// outcomes) under one stable vocabulary. Serve it over HTTP with
// Telemetry().Serve(addr) — the /metrics endpoint the cluster harness
// scrapes — or read it in-process with Gather.
func (p *Peer) Telemetry() *telemetry.Registry { return p.inner.Telemetry() }

// AddDocument shares a document (it stays local; publish to make it
// searchable network-wide).
func (p *Peer) AddDocument(d *Document) (*Document, error) { return p.inner.AddDocument(d) }

// AddFile parses and shares a file (text, HTML or Alvis XML, by
// extension).
func (p *Peer) AddFile(name string, content []byte) (*Document, error) {
	return p.inner.AddFile(name, content)
}

// RemoveDocument withdraws a shared document; the next PublishIndex
// withdraws it from the global index.
func (p *Peer) RemoveDocument(ctx context.Context, id uint32) error {
	return p.inner.RemoveDocument(ctx, id)
}

// Documents lists the peer's shared documents.
func (p *Peer) Documents() []*Document { return p.inner.Documents().List() }

// SetAccess changes a shared document's access policy.
func (p *Peer) SetAccess(id uint32, a Access) bool { return p.inner.Documents().SetAccess(id, a) }

// ImportDigest shares every document of an Alvis digest submitted by an
// external search engine (§4 heterogeneity support).
func (p *Peer) ImportDigest(dg *Digest) (int, error) { return p.inner.ImportDigest(dg) }

// BuildDigest exports the peer's shared documents as an Alvis digest.
func (p *Peer) BuildDigest() *Digest {
	return docs.BuildDigest(p.inner.Documents().List(), p.inner.LocalIndex().Analyzer())
}

// PublishIndex pushes the local collection into the global index
// (statistics of the not-yet-published documents, then keys per the
// active strategy). Each key it writes replaces this peer's share of
// it, so re-running it converges, and a removed document leaves the
// index. Cancelling the context stops the publication between batches.
func (p *Peer) PublishIndex(ctx context.Context) error {
	_, err := p.inner.PublishIndex(ctx)
	return err
}

// Search runs a global multi-keyword query and returns ranked results
// with presentation data. Options tune the single query; see WithTopK,
// WithTimeout, WithReadConsistency, WithStrategy, WithTrace. On
// cancellation or deadline expiry the response still carries the ranked
// prefix gathered so far (Partial set) alongside ErrQueryCancelled or
// ErrPartialResults.
func (p *Peer) Search(ctx context.Context, query string, opts ...SearchOption) (*SearchResponse, error) {
	return p.inner.Search(ctx, query, opts...)
}

// Refine runs the paper's second retrieval step: forward the query to
// the local engines of the peers holding the first-step results.
func (p *Peer) Refine(ctx context.Context, query string, firstStep []Result, topK int) ([]Result, error) {
	return p.inner.Refine(ctx, query, firstStep, topK)
}

// FetchDocument retrieves a result document's content from its hosting
// peer, subject to its access policy.
func (p *Peer) FetchDocument(ctx context.Context, r Result, user, password string) (title, body string, err error) {
	return p.inner.FetchDocument(ctx, r.Ref, user, password)
}

// JoinLegacy is Join without a context.
//
// Deprecated: use Join(ctx, bootstrap). Kept so pre-context callers
// migrate incrementally; internal code must not use it (CI enforces).
func (p *Peer) JoinLegacy(bootstrap Addr) error { return p.Join(context.Background(), bootstrap) }

// PublishIndexLegacy is PublishIndex without a context.
//
// Deprecated: use PublishIndex(ctx).
func (p *Peer) PublishIndexLegacy() error { return p.PublishIndex(context.Background()) }

// SearchLegacy is the pre-context Search: it runs to completion with the
// peer-level defaults and returns the flattened (results, trace, error)
// triple of the old signature.
//
// Deprecated: use Search(ctx, query, opts...).
func (p *Peer) SearchLegacy(query string) ([]Result, *QueryTrace, error) {
	resp, err := p.Search(context.Background(), query)
	if resp == nil {
		return nil, nil, err
	}
	return resp.Results, resp.Trace, err
}

// RefineLegacy is Refine without a context.
//
// Deprecated: use Refine(ctx, query, firstStep, topK).
func (p *Peer) RefineLegacy(query string, firstStep []Result, topK int) ([]Result, error) {
	return p.Refine(context.Background(), query, firstStep, topK)
}

// FetchDocumentLegacy is FetchDocument without a context.
//
// Deprecated: use FetchDocument(ctx, r, user, password).
func (p *Peer) FetchDocumentLegacy(r Result, user, password string) (title, body string, err error) {
	return p.FetchDocument(context.Background(), r, user, password)
}

// Strategy returns the active indexing strategy.
func (p *Peer) Strategy() Strategy { return p.inner.Strategy() }

// SetStrategy switches between HDK and QDI at runtime.
func (p *Peer) SetStrategy(s Strategy) { p.inner.SetStrategy(s) }

// Stats reports the peer's contribution to the global index, for the
// demo's statistics screen.
type Stats struct {
	SharedDocuments int
	LocalTerms      int
	GlobalKeys      int // keys stored at this peer
	GlobalPostings  int
	GlobalBytes     int
}

// Stats returns current local statistics.
func (p *Peer) Stats() Stats {
	st := p.inner.GlobalIndex().Store().Stats()
	return Stats{
		SharedDocuments: p.inner.Documents().Len(),
		LocalTerms:      p.inner.LocalIndex().VocabularySize(),
		GlobalKeys:      st.Keys,
		GlobalPostings:  st.Postings,
		GlobalBytes:     st.Bytes,
	}
}

// Core exposes the underlying engine for advanced integrations (the
// examples use it for direct access to layers).
func (p *Peer) Core() *core.Peer { return p.inner }

// DefaultAnalyzer returns the text pipeline used by default (tokenizer,
// English stopwords, Porter stemmer); useful for building digests that
// agree with the engine's normalization.
func DefaultAnalyzer() *textproc.Analyzer { return textproc.Default }

// Package core assembles the AlvisP2P engine: one Peer value wires the
// five layers of the paper's architecture (Figure 2) —
//
//	L1 transport  (internal/transport)
//	L2 P2P        (internal/dht)
//	L3 IR         (internal/globalindex, internal/hdk, internal/qdi,
//	               internal/lattice)
//	L4 ranking    (internal/ranking)
//	L5 local SE   (internal/localindex, internal/docs)
//
// and exposes the operations of the paper's §4 client: join a network,
// share and index documents (with access rights), search the global
// collection, import digests from external engines, and forward queries
// to the local engines of result-holding peers.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dht"
	"repro/internal/docs"
	"repro/internal/globalindex"
	"repro/internal/hdk"
	"repro/internal/ids"
	"repro/internal/lattice"
	"repro/internal/localindex"
	"repro/internal/postings"
	"repro/internal/qdi"
	"repro/internal/ranking"
	"repro/internal/readcache"
	"repro/internal/storage"
	"repro/internal/telemetry"
	"repro/internal/textproc"
	"repro/internal/transport"
)

// Strategy selects the indexing approach (paper §2). The demo allows
// switching at any time.
type Strategy int

const (
	// StrategyHDK populates the index with highly discriminative keys at
	// indexing time.
	StrategyHDK Strategy = iota
	// StrategyQDI starts from the single-term index and adds popular
	// term combinations on demand at retrieval time.
	StrategyQDI
)

func (s Strategy) String() string {
	switch s {
	case StrategyHDK:
		return "HDK"
	case StrategyQDI:
		return "QDI"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config configures a Peer.
type Config struct {
	// Strategy selects HDK or QDI indexing (default HDK).
	Strategy Strategy
	// HDK parameters (defaults per hdk.Config).
	HDK hdk.Config
	// QDI parameters (defaults per qdi.Config).
	QDI qdi.Config
	// PruneTruncatedOff disables the paper's load-balancing
	// approximation, on by default: pruning the sublattice under a
	// truncated hit.
	PruneTruncatedOff bool
	// TopK is the number of results returned to the user (default 20).
	TopK int
	// ReplicationFactor is the number of copies of every global-index
	// entry: the responsible peer plus R−1 of its ring successors
	// (write-through on every publish, replica fallover on reads, and
	// anti-entropy key migration on ring changes). 0 or 1 keeps today's
	// single-copy behaviour and the byte-identical determinism contract;
	// with R > 1 replica maintenance traffic depends on ring-event
	// timing, so only result *sets* (not byte-exact store state) are
	// guaranteed.
	ReplicationFactor int
	// AdmissionWatermark enables server-side admission control on this
	// peer's dispatcher: at or above this many in-flight handlers, a
	// request whose wire-shipped deadline budget cannot cover the peer's
	// observed per-message-type service time is refused with a typed shed
	// error before any work — callers retry it on another replica.
	// Expired budgets are shed regardless of load. 0 (the default)
	// disables admission control, preserving run-everything behaviour.
	AdmissionWatermark int
	// DataDir, when set, stores this peer's slice of the global index
	// durably under the given directory (write-ahead log + snapshots,
	// see internal/storage): a restarted peer recovers its slice from
	// disk and rejoins with a delta pull instead of a full range
	// migration. Empty (the default) keeps the in-memory engine and the
	// exact pre-persistence behaviour. Use OpenPeer to surface engine
	// open errors.
	DataDir string
	// Engine overrides the global-index storage engine directly (tests
	// and embedders that manage engine lifecycles themselves). When set
	// it takes precedence over DataDir. The peer takes ownership: Close
	// closes the engine.
	Engine globalindex.StorageEngine
	// StreamTopK makes every search default to a streamed read: each
	// probed key opens with a short score-sorted chunk (compressed on the
	// wire) and a threshold loop fetches continuation chunks only while
	// the top k could still change. Off (the default), each probed key
	// is read in one shot — the whole list, or the per-probe cap, with
	// exact scores and no refinement. Both shapes travel in the same
	// read frame through the same session (prefix cache, replica
	// policy, hedging, soft replicas); the knob only selects the first
	// chunk and whether the threshold loop runs. Per-query override:
	// WithStreaming.
	StreamTopK bool
	// AntiEntropyInterval enables the background replica-repair sweep:
	// every interval the peer re-replicates its owned key range to its
	// current successors with idempotent ReplSync frames, repairing
	// divergence left by missed best-effort write-throughs without
	// waiting for a ring-change event. 0 (the default) disables the
	// sweep — tests and single-copy peers don't want a timer goroutine.
	// Ignored when ReplicationFactor <= 1.
	AntiEntropyInterval time.Duration
	// ResultCache bounds the peer's client-side cache of resolved top-k
	// result sets (entries). A repeat query with the same terms, k and
	// options is answered locally while the entry is younger than
	// CacheTTL, no local write happened, and the ring has not changed.
	// 0 (the default) disables it. Per-query opt-out: WithResultCache.
	ResultCache int
	// PrefixCache bounds the peer's client-side cache of posting-list
	// prefixes (entries), consulted by every search's key opens —
	// streamed or one-shot — and refilled by them. 0 (the default)
	// disables it.
	PrefixCache int
	// CacheTTL bounds both caches' staleness against remote writes this
	// peer never observed (default 2s when either cache is on).
	CacheTTL time.Duration
	// HotKeyThreshold is the decayed per-key read rate at which a key
	// counts as hot: owners push soft replicas of it to non-successor
	// peers, and readers interleave those soft copies into hedged
	// single-key reads. 0 (the default) disables soft replication.
	HotKeyThreshold float64
	// SoftReplicas is the number of soft copies per hot key (default 2).
	SoftReplicas int
	// SoftReplicaTTL is the lifetime of an announced soft copy
	// (default 30s); the owner re-announces while the key stays hot.
	SoftReplicaTTL time.Duration
	// SoftReplicaInterval enables the background promotion sweep: every
	// interval the peer pushes soft replicas for its owned hot keys and
	// expires the dead copies it holds for others. 0 (the default) means
	// no timer goroutine — call PromoteHotKeys explicitly. Ignored when
	// HotKeyThreshold is 0.
	SoftReplicaInterval time.Duration
}

// admissionMinService floors the learned service-time estimates the
// admission check compares budgets against, covering the cold-start
// window before the per-type EWMAs have observations.
const admissionMinService = 2 * time.Millisecond

func (c *Config) fillDefaults() {
	c.HDK.FillDefaults()
	c.QDI.FillDefaults()
	if c.TopK == 0 {
		c.TopK = 20
	}
	if c.ReplicationFactor < 1 {
		c.ReplicationFactor = 1
	}
	if (c.ResultCache > 0 || c.PrefixCache > 0) && c.CacheTTL <= 0 {
		c.CacheTTL = 2 * time.Second
	}
}

// Result is one search hit as presented to the user (paper §4: "the URL
// of the hosting peer, the document title, a snippet and a relevance
// score").
type Result struct {
	Ref     postings.DocRef
	Score   float64
	Title   string
	Snippet string
	URL     string // http URL of the document at its hosting peer
	Public  bool
}

// QueryTrace reports what a search did, for the demo's statistics screen
// and the experiments.
type QueryTrace struct {
	Terms      []string
	Probes     int
	Skipped    int
	Candidates int  // size of the union before ranking
	Activated  int  // QDI keys indexed on demand by this query
	FullHit    bool // the full query combination was indexed (first probe hit)

	// Spans is the query's timed span tree (resolver → probe → hedge →
	// merge); render it with Spans.JSON(). Populated whenever tracing is
	// on (the default; WithTrace(false) disables it).
	Spans *telemetry.Span
}

// Peer is one AlvisP2P participant.
type Peer struct {
	cfg  Config
	node *dht.Node
	disp *transport.Dispatcher

	// root is the peer's lifetime context: Close cancels it, which
	// unwinds every in-flight operation that runs under a cancellable
	// caller context (opCtx links them).
	root     context.Context
	shutdown context.CancelFunc

	mu     sync.Mutex // guards strategy switches
	strat  Strategy
	docs   *docs.Store
	local  *localindex.Index
	gidx   *globalindex.Index
	gstats *ranking.GlobalStats
	qdiMgr *qdi.Manager
	held   *hdk.Held // the keys this peer's publishes hold a share of

	tel    *telemetry.Registry
	scount searchCounters

	// rcache caches resolved top-k result sets per (query shape, ring
	// epoch); nil when Config.ResultCache is 0. Invalidated by ring
	// changes, local writes, and CacheTTL.
	rcache *readcache.Cache

	closeOnce sync.Once
	closeErr  error

	// pubMu guards published, where each local document's statistics
	// contribution stands. PublishStats and RemoveDocument claim a
	// document under it, make the network call without it, then settle
	// the claim, so concurrent publishes count each document once.
	pubMu     sync.Mutex
	published map[uint32]statsState
}

// statsState is where a local document's statistics contribution stands;
// the zero value (absent from Peer.published) is "not in the network".
type statsState uint8

const (
	statsNone      statsState = iota
	statsClaimed              // a PublishStats or RemoveDocument call is in flight
	statsPublished            // counted in the network
)

// swapStats moves id's statistics state from from to to and reports
// whether it did; cur is the state it found.
func (p *Peer) swapStats(id uint32, from, to statsState) (cur statsState, ok bool) {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	if cur = p.published[id]; cur != from {
		return cur, false
	}
	if to == statsNone {
		delete(p.published, id)
	} else {
		p.published[id] = to
	}
	return cur, true
}

// NewPeer assembles a peer on an endpoint created around d. Callers
// create the dispatcher first, attach it to a transport endpoint, then
// hand both here:
//
//	d := transport.NewDispatcher()
//	ep := net.Endpoint("peer1", d.Serve)   // or transport.ListenTCP
//	p := core.NewPeer(id, ep, d, cfg)
//
// NewPeer cannot fail unless Config.DataDir names an unopenable
// directory, in which case it panics; peers with durable storage should
// use OpenPeer, which surfaces the error.
func NewPeer(id ids.ID, ep transport.Endpoint, d *transport.Dispatcher, cfg Config) *Peer {
	p, err := OpenPeer(id, ep, d, cfg)
	if err != nil {
		panic(fmt.Sprintf("core: NewPeer: %v (use OpenPeer to handle storage errors)", err))
	}
	return p
}

// OpenPeer is NewPeer with storage-engine recovery: when cfg.DataDir is
// set (and cfg.Engine is not), it opens the durable engine — replaying
// its snapshot and write-ahead log — before assembling the peer, and
// returns the open error instead of panicking. After a successful
// OpenPeer the peer owns the engine; Close flushes and closes it.
func OpenPeer(id ids.ID, ep transport.Endpoint, d *transport.Dispatcher, cfg Config) (*Peer, error) {
	cfg.fillDefaults()
	engine := cfg.Engine
	if engine == nil && cfg.DataDir != "" {
		e, err := storage.Open(cfg.DataDir, storage.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: open data dir %s: %w", cfg.DataDir, err)
		}
		engine = e
	}
	if cfg.AdmissionWatermark > 0 {
		d.SetAdmissionControl(cfg.AdmissionWatermark, admissionMinService)
	}
	node := dht.NewNode(id, ep, d, dht.Options{})
	gidx := globalindex.NewWithEngine(node, d, engine)
	//alvislint:ctxroot peer lifetime root, cancelled by Close
	root, shutdown := context.WithCancel(context.Background())
	gidx.EnableReplication(root, cfg.ReplicationFactor)
	p := &Peer{
		cfg:       cfg,
		node:      node,
		disp:      d,
		root:      root,
		shutdown:  shutdown,
		strat:     cfg.Strategy,
		docs:      docs.NewStore(),
		local:     localindex.New(textproc.Default),
		gidx:      gidx,
		gstats:    ranking.NewGlobalStats(gidx, d),
		qdiMgr:    qdi.New(cfg.QDI, gidx, d),
		held:      hdk.NewHeld(),
		published: make(map[uint32]statsState),
	}
	p.qdiMgr.SetEnabled(cfg.Strategy == StrategyQDI)
	if cfg.PrefixCache > 0 || cfg.HotKeyThreshold > 0 {
		// Before Join (OpenPeer always precedes it): the hot-key path
		// registers a ring-change callback for eager cache invalidation.
		gidx.EnableHotKeyPath(globalindex.HotKeyConfig{
			PrefixCache:    cfg.PrefixCache,
			PrefixCacheTTL: cfg.CacheTTL,
			HotThreshold:   cfg.HotKeyThreshold,
			SoftReplicas:   cfg.SoftReplicas,
			SoftReplicaTTL: cfg.SoftReplicaTTL,
		})
	}
	if cfg.ResultCache > 0 {
		p.rcache = readcache.New(cfg.ResultCache, cfg.CacheTTL)
		node.OnRingChange(func(dht.RingChange) { p.rcache.Clear() })
	}
	p.tel = p.buildTelemetry()
	p.registerL5Handlers(d)
	if cfg.ReplicationFactor > 1 && cfg.AntiEntropyInterval > 0 {
		go p.antiEntropyLoop(root, cfg.AntiEntropyInterval)
	}
	if cfg.HotKeyThreshold > 0 && cfg.SoftReplicaInterval > 0 {
		go p.softReplicaLoop(root, cfg.SoftReplicaInterval)
	}
	return p, nil
}

// softReplicaLoop runs the background hot-key promotion sweep until ctx
// — the peer's root context, cancelled by Close — expires. Each tick
// pushes soft replicas for owned keys hot enough to cross the threshold
// and drops the dead copies this peer holds for others.
func (p *Peer) softReplicaLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.gidx.PromoteHotKeys(ctx)
			p.gidx.ExpireSoftCopies()
		}
	}
}

// PromoteHotKeys runs one hot-key promotion sweep immediately (see
// Config.HotKeyThreshold) and returns how many keys were promoted. The
// background loop calls the same machinery when SoftReplicaInterval is
// set; explicit calls let tests and embedders control sweep timing.
func (p *Peer) PromoteHotKeys(ctx context.Context) (int, error) {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return 0, err
	}
	n := p.gidx.PromoteHotKeys(ctx)
	p.gidx.ExpireSoftCopies()
	return n, nil
}

// antiEntropyLoop runs the background replica-repair sweep until ctx —
// the peer's root context, cancelled by Close — expires.
func (p *Peer) antiEntropyLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.gidx.AntiEntropySweep()
		}
	}
}

// opCtx derives the context one operation runs under. A cancellable
// caller context is additionally linked to the peer's root context, so
// Close unwinds the operation mid-fan-out; an uncancellable one
// (context.Background and friends) is passed through untouched, keeping
// the transports' allocation-free synchronous delivery — those
// operations are unwound by Close through the endpoint teardown instead.
// The returned cancel must always be called.
func (p *Peer) opCtx(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if p.root.Err() != nil {
		return ctx, func() {}, ErrPeerClosed
	}
	if ctx.Done() == nil {
		return ctx, func() {}, nil
	}
	cctx, cancel := context.WithCancel(ctx)
	unlink := context.AfterFunc(p.root, cancel)
	return cctx, func() { unlink(); cancel() }, nil
}

// Close shuts the peer down gracefully: the root context is cancelled
// (in-flight fan-outs unwind at their next call boundary), the
// dispatcher refuses new work, the transport endpoint is closed — the
// TCP endpoint drains its per-request server goroutines before
// returning — and finally the storage engine is flushed and closed,
// stamped with the responsibility watermark the peer held at shutdown
// (what a durable engine needs to rejoin with a delta pull). Close is
// idempotent — every call returns the first call's error — and safe to
// run concurrently with in-flight searches: the root-context cancel
// unwinds them, and the teardown sequence runs exactly once.
func (p *Peer) Close() error {
	p.closeOnce.Do(func() {
		p.shutdown()
		p.disp.Close()
		if pred := p.node.Predecessor(); !pred.IsZero() {
			p.gidx.Store().SetWatermark(pred.ID, p.node.Self().ID)
		}
		err := p.node.Endpoint().Close()
		if cerr := p.gidx.Store().Close(); err == nil {
			err = cerr
		}
		p.closeErr = err
	})
	return p.closeErr
}

// Node returns the peer's DHT node.
func (p *Peer) Node() *dht.Node { return p.node }

// Dispatcher returns the peer's protocol dispatcher; experiments read
// its admission-control counters from here.
func (p *Peer) Dispatcher() *transport.Dispatcher { return p.disp }

// Documents returns the shared-documents manager.
func (p *Peer) Documents() *docs.Store { return p.docs }

// LocalIndex returns the peer's local search engine.
func (p *Peer) LocalIndex() *localindex.Index { return p.local }

// GlobalIndex returns the peer's global-index component.
func (p *Peer) GlobalIndex() *globalindex.Index { return p.gidx }

// GlobalStats returns the peer's distributed-statistics component.
func (p *Peer) GlobalStats() *ranking.GlobalStats { return p.gstats }

// QDI returns the peer's query-driven-indexing component.
func (p *Peer) QDI() *qdi.Manager { return p.qdiMgr }

// Addr returns the peer's transport address.
func (p *Peer) Addr() transport.Addr { return p.node.Self().Addr }

// Strategy returns the active indexing strategy.
func (p *Peer) Strategy() Strategy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.strat
}

// SetStrategy switches between HDK and QDI at runtime (the demo's
// toggle). Switching to QDI enables on-demand activation; switching away
// disables it. Already published keys remain until evicted.
func (p *Peer) SetStrategy(s Strategy) {
	p.mu.Lock()
	p.strat = s
	p.mu.Unlock()
	p.qdiMgr.SetEnabled(s == StrategyQDI)
}

// Join enters the network known to bootstrap and runs initial
// maintenance. The context bounds the whole join, including the
// bootstrap dial on TCP transports.
func (p *Peer) Join(ctx context.Context, bootstrap transport.Addr) error {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return err
	}
	if err := p.node.Join(ctx, bootstrap); err != nil {
		return err
	}
	if err := p.node.Stabilize(ctx); err != nil {
		return err
	}
	return p.node.FixFingers(ctx)
}

// Maintain runs one maintenance round (ring stabilization, finger
// refresh, QDI aging). Long-running peers call it periodically.
func (p *Peer) Maintain(ctx context.Context) {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return
	}
	//alvislint:allow errsink maintenance is periodic best effort: a shed or unreachable neighbor this round is retried next round, and surfacing it would make every caller a ring-health arbiter
	_ = p.node.Stabilize(ctx)
	//alvislint:allow errsink same contract as Stabilize above: the next round retries
	_ = p.node.FixFingers(ctx)
	p.gidx.MaintainReplication()
	p.qdiMgr.MaintenanceTick()
}

// AddDocument registers a document in the shared store and the local
// index. It is not yet visible to the network: call PublishIndex (or
// PublishDocument) to push it.
func (p *Peer) AddDocument(d *docs.Document) (*docs.Document, error) {
	stored, err := p.docs.Add(d)
	if err != nil {
		return nil, err
	}
	p.local.Add(stored.ID, stored.Title+"\n"+stored.Body)
	return stored, nil
}

// AddFile parses a file by extension (text, html, Alvis xml) and adds it.
func (p *Peer) AddFile(name string, content []byte) (*docs.Document, error) {
	d, err := docs.Parse(name, content)
	if err != nil {
		return nil, err
	}
	return p.AddDocument(d)
}

// ImportDigest adds every document of an Alvis digest (the external
// search engine integration of §4).
func (p *Peer) ImportDigest(dg *docs.Digest) (int, error) {
	documents, err := docs.DigestToDocuments(dg)
	if err != nil {
		return 0, err
	}
	for _, d := range documents {
		if _, err := p.AddDocument(d); err != nil {
			return 0, err
		}
	}
	return len(documents), nil
}

// RemoveDocument withdraws a document locally and from the statistics.
// The next publish withdraws it from the global index: every key this
// peer writes replaces its whole share of the key, and the keys it no
// longer holds get an empty write (see hdk.Held).
func (p *Peer) RemoveDocument(ctx context.Context, id uint32) error {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return err
	}
	d := p.docs.Get(id)
	if d == nil {
		return fmt.Errorf("core: no document %d", id)
	}
	cur, ok := p.swapStats(id, statsPublished, statsClaimed)
	if cur == statsClaimed {
		return fmt.Errorf("core: document %d: statistics update in flight", id)
	}
	if ok {
		if err := p.gstats.UnpublishDocument(ctx, p.local.DocTerms(id), p.local.DocLen(id)); err != nil {
			p.swapStats(id, statsClaimed, statsPublished)
			return err
		}
		p.swapStats(id, statsClaimed, statsNone)
	}
	p.local.Remove(id)
	p.docs.Remove(id)
	p.rcache.Clear() // a local write may change any cached result set
	return nil
}

// PublishStats pushes the statistics contribution of every not-yet-
// published local document. It is the first phase of indexing; separated
// so that fleet-wide indexing can synchronize phases.
func (p *Peer) PublishStats(ctx context.Context) error {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return err
	}
	for _, id := range p.local.Docs() {
		if _, ok := p.swapStats(id, statsNone, statsClaimed); !ok {
			continue // published, or claimed by a concurrent call
		}
		if err := p.gstats.PublishDocument(ctx, p.local.DocTerms(id), p.local.DocLen(id)); err != nil {
			p.swapStats(id, statsClaimed, statsNone)
			return err
		}
		p.swapStats(id, statsClaimed, statsPublished)
	}
	return nil
}

// NewHDKPublisher builds the key publisher for the current local
// collection, with fresh global statistics. Fleet simulations drive its
// PublishTerms/ExpandRound in lockstep; single peers use PublishIndex.
// Once its run completes, the keys earlier runs published and this one
// did not are withdrawn.
func (p *Peer) NewHDKPublisher(ctx context.Context) (*hdk.Publisher, error) {
	stats, err := p.gstats.Fetch(ctx, p.local.Terms())
	if err != nil {
		return nil, err
	}
	cfg := p.cfg.HDK
	if p.Strategy() == StrategyQDI {
		// QDI starts from the single-term index only; multi-term keys
		// appear on demand.
		cfg.SMax = 1
	}
	return hdk.NewPublisher(cfg, p.local, p.gidx, stats, p.Addr(), p.held), nil
}

// PublishIndex pushes the local collection into the network: statistics
// first, then the key index (all HDK levels under HDK; single terms only
// under QDI). Correct for a peer joining an already indexed network; for
// simultaneous fleet-wide indexing use the phase methods in lockstep.
// Cancelling the context stops the publication between batches; already
// shipped postings remain. Each key written replaces this peer's share
// of it (Memory.Replace), so re-running it converges: once every peer
// has published, republishing an unchanged collection leaves every store
// as it was, and a removed document leaves the index.
func (p *Peer) PublishIndex(ctx context.Context) (hdk.Result, error) {
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return hdk.Result{}, err
	}
	if err := p.PublishStats(ctx); err != nil {
		return hdk.Result{}, err
	}
	pub, err := p.NewHDKPublisher(ctx)
	if err != nil {
		return hdk.Result{}, err
	}
	p.rcache.Clear() // a local publish may change any cached result set
	return pub.Run(ctx)
}

// Search runs a global query: lattice exploration over the distributed
// index, union, ranking, and result presentation. Under QDI (or a
// WithStrategy(StrategyQDI) override) it also performs any on-demand
// indexing the responsible peers requested.
//
// Options tune the single query: WithTopK (result count and per-probe
// transfer budget), WithTimeout (deadline on top of ctx's),
// WithReadConsistency (which index copies serve the reads), WithStrategy
// (per-query HDK/QDI override) and WithTrace. Cancelling ctx stops the
// fan-out mid-flight: the response carries the ranked prefix gathered so
// far with Partial set, and the error is ErrQueryCancelled (cancel) or
// ErrPartialResults (deadline expiry).
func (p *Peer) Search(ctx context.Context, query string, opts ...SearchOption) (*SearchResponse, error) {
	resp, err := p.doSearch(ctx, query, opts...)
	p.scount.searches.Add(1)
	if err != nil {
		p.scount.failed.Add(1)
	}
	if resp != nil && resp.Partial {
		p.scount.partial.Add(1)
	}
	return resp, err
}

func (p *Peer) doSearch(ctx context.Context, query string, opts ...SearchOption) (*SearchResponse, error) {
	o := searchOpts{trace: true}
	for _, opt := range opts {
		opt(&o)
	}
	if !o.strategySet {
		o.strategy = p.Strategy()
	}
	if o.timeout > 0 {
		// Before opCtx: the timeout makes the context cancellable, which
		// is what opCtx keys on to link it to the peer's root — a
		// WithTimeout query must be unwound by Close like any other
		// cancellable one.
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, o.timeout)
		defer tcancel()
	}
	ctx, cancel, err := p.opCtx(ctx)
	defer cancel()
	if err != nil {
		return nil, err
	}

	terms := textproc.Default.UniqueTerms(query)
	qt := &QueryTrace{Terms: terms}
	resp := &SearchResponse{}
	if o.trace {
		resp.Trace = qt
		// The root span rides the context: every instrumented layer below
		// (batch resolver, hedged reads) attaches its own children.
		qt.Spans = telemetry.NewRootSpan("search")
		qt.Spans.SetAttr("terms", strconv.Itoa(len(terms)))
		ctx = telemetry.ContextWithSpan(ctx, qt.Spans)
		defer qt.Spans.Finish()
	}
	if len(terms) == 0 {
		return resp, nil
	}

	streaming := p.cfg.StreamTopK
	if o.streamingSet {
		streaming = o.streaming
	}
	topK := p.cfg.TopK
	latCfg := lattice.Config{PruneTruncated: !p.cfg.PruneTruncatedOff}
	if o.topK > 0 {
		// The per-query budget replaces both the result bound and the
		// per-probe transfer cap: no peer ships more postings than the
		// user will see. Under streaming the cap is unnecessary — the
		// threshold loop bounds transfers by score, and the probes must
		// see the STORED truncation marks so pruning matches a whole-list
		// read.
		topK = o.topK
		if !streaming {
			latCfg.MaxResultsPerProbe = o.topK
		}
	}

	// Resolved-result cache: a repeat query with the same shape served
	// while nothing observable changed (same ring epoch, no local write,
	// inside the TTL) skips the whole fan-out. HDK only — a QDI search
	// has the side effect of on-demand indexing, which a cached answer
	// must not suppress.
	useCache := p.rcache != nil && o.strategy == StrategyHDK && !o.noResultCache
	var ckey string
	var cepoch uint64
	if useCache {
		ckey = resultCacheKey(terms, topK, streaming, o.consistency)
		cepoch = p.node.RingEpoch()
		if v, ok := p.rcache.Get(ckey, cepoch); ok {
			cr := v.(*cachedResults)
			resp.Results = append([]Result(nil), cr.results...)
			qt.Candidates = cr.candidates
			if o.trace {
				qt.Spans.SetAttr("result_cache", "hit")
			}
			return resp, nil
		}
	}

	chunk := 0 // one shot: each probe reads its whole (or capped) list
	if streaming {
		chunk = globalindex.DefaultChunk(topK)
	}
	fetch := &searchFetcher{
		sess: p.gidx.NewTopKSession(topK, chunk,
			o.consistency.policy(), globalindex.WithHedge(o.hedge)),
		wantIndex: make(map[string]bool),
		perKey:    make(map[string]*postings.List),
	}
	pctx, probeSpan := telemetry.StartSpan(ctx, "probe")
	_, trace, exploreErr := lattice.Explore(pctx, fetch, terms, latCfg)
	qt.Probes = trace.Probes()
	qt.Skipped = len(trace.Skipped)
	p.scount.probes.Add(int64(qt.Probes))
	probeSpan.SetAttr("probes", strconv.Itoa(qt.Probes))
	probeSpan.Finish()
	if len(trace.Probed) > 0 && len(trace.Probed[0].Terms) == len(terms) {
		qt.FullHit = trace.Probed[0].Found
	}
	if exploreErr != nil && ctx.Err() == nil {
		// A genuine failure (not the caller giving up): no partial
		// semantics, surface it as before.
		return resp, exploreErr
	}

	if streaming && ctx.Err() == nil {
		// Threshold loop: extend the fetched prefixes only while the
		// aggregate top k could still change, then re-gather the (live,
		// extended in place) per-key lists for the final union.
		if err := fetch.sess.Refine(ctx, rankUnion); err != nil && ctx.Err() == nil {
			return resp, fmt.Errorf("core: top-k refinement: %w", err)
		}
		for key, l := range fetch.sess.Lists() {
			fetch.perKey[key] = l
		}
	}

	_, mergeSpan := telemetry.StartSpan(ctx, "merge")
	rankedAll := rankUnion(fetch.perKey)
	qt.Candidates = len(rankedAll)
	ranked := rankedAll
	if len(ranked) > topK {
		ranked = ranked[:topK]
	}
	mergeSpan.SetAttr("candidates", strconv.Itoa(qt.Candidates))
	mergeSpan.Finish()

	if cause := ctx.Err(); cause != nil {
		// The exploration (or what preceded the check) was cut short.
		// Rank and return the prefix without further network work —
		// presentation RPCs would all fail against the dead context.
		resp.Results = p.presentLocal(ranked)
		resp.Partial = true
		if errors.Is(cause, context.DeadlineExceeded) {
			return resp, fmt.Errorf("%w (%d of %d+ probes): %w", ErrPartialResults, qt.Probes, qt.Probes+qt.Skipped, cause)
		}
		return resp, fmt.Errorf("%w (%d probes completed): %w", ErrQueryCancelled, qt.Probes, cause)
	}

	prctx, presentSpan := telemetry.StartSpan(ctx, "present")
	results, err := p.presentResults(prctx, ranked)
	presentSpan.Finish()
	if err != nil {
		return resp, err
	}
	resp.Results = results

	if cause := ctx.Err(); cause != nil {
		// The context died during presentation: every reference and score
		// is final, but some hosting peers were never asked for titles
		// and snippets — still a partial answer.
		resp.Partial = true
		if errors.Is(cause, context.DeadlineExceeded) {
			return resp, fmt.Errorf("%w (presentation incomplete): %w", ErrPartialResults, cause)
		}
		return resp, fmt.Errorf("%w (presentation incomplete): %w", ErrQueryCancelled, cause)
	}

	if o.strategy == StrategyQDI && len(fetch.wantIndex) > 0 {
		// Ship this query's ranked result as the on-demand posting list
		// for the query's own key (bounded to the QDI truncation limit).
		acquired := &postings.List{}
		for _, sr := range rankedAll {
			acquired.Add(sr)
			if acquired.Len() >= p.cfg.QDI.TruncK {
				break
			}
		}
		qctx, qdiSpan := telemetry.StartSpan(ctx, "qdi")
		n, err := p.qdiMgr.ProcessQuery(qctx, terms, trace, fetch.wantIndex, acquired)
		qdiSpan.Finish()
		if err != nil {
			return resp, fmt.Errorf("core: on-demand indexing: %w", err)
		}
		qt.Activated = n
	}
	if useCache && !resp.Partial {
		// Stamped with the epoch captured BEFORE the fan-out: a ring
		// change mid-query makes the entry dead on arrival rather than
		// laundering a mixed-epoch answer as current.
		p.rcache.Put(ckey, cepoch, &cachedResults{
			results:    append([]Result(nil), resp.Results...),
			candidates: qt.Candidates,
		})
	}
	return resp, nil
}

// cachedResults is one result-cache entry: the presented result set of a
// complete, non-partial search.
type cachedResults struct {
	results    []Result
	candidates int
}

// resultCacheKey canonicalizes everything that shapes a search answer.
// Terms arrive already unique; sorting makes the key order-independent,
// exactly like the global index's canonical key strings.
func resultCacheKey(terms []string, topK int, streaming bool, rc ReadConsistency) string {
	sorted := append([]string(nil), terms...)
	sort.Strings(sorted)
	var b strings.Builder
	for _, t := range sorted {
		b.WriteString(t)
		b.WriteByte(0)
	}
	fmt.Fprintf(&b, "|k=%d|s=%t|c=%d", topK, streaming, int(rc))
	return b.String()
}

// presentLocal renders ranked references without contacting their
// hosting peers — the presentation used for partial (cancelled) results,
// where further RPCs are pointless by definition.
func (p *Peer) presentLocal(ranked []postings.Posting) []Result {
	out := make([]Result, 0, len(ranked))
	for _, sr := range ranked {
		out = append(out, Result{Ref: sr.Ref, Score: sr.Score})
	}
	return out
}

// searchFetcher adapts one query's read session to the lattice's
// Fetcher interface while gathering the per-key lists and QDI
// activation requests the query accumulates. In a streamed session the
// recorded lists are live session state that Refine extends in place.
type searchFetcher struct {
	sess      *globalindex.TopKSession
	wantIndex map[string]bool
	perKey    map[string]*postings.List
}

// GetBatch implements lattice.Fetcher: one generation of lattice
// probes becomes one batch of key opens, coalesced per serving peer.
func (sf *searchFetcher) GetBatch(ctx context.Context, combos [][]string, max int) ([]lattice.BatchResult, error) {
	items := make([]globalindex.GetItem, len(combos))
	for i, c := range combos {
		items[i] = globalindex.GetItem{Terms: c, MaxResults: max}
	}
	res, err := sf.sess.FetchPrefixes(ctx, items)
	if err != nil {
		return nil, err
	}
	out := make([]lattice.BatchResult, len(res))
	for i, r := range res {
		key := ids.KeyString(combos[i])
		if r.WantIndex {
			sf.wantIndex[key] = true
		}
		if r.Found {
			sf.perKey[key] = r.List
		}
		out[i] = lattice.BatchResult{List: r.List, Found: r.Found}
	}
	return out, nil
}

// rankUnion ranks the union of the retrieved per-key lists. Each posting
// carries the publisher-computed BM25 score of its document for its key;
// for a document appearing under several keys the scores of keys with
// pairwise-disjoint term sets add up (BM25 is additive over terms), so a
// greedy pass over that document's keys — largest key first — assembles
// the best available approximation of the full-query score. In the
// paper's Figure 1 example the result of query {a,b,c} unites the lists
// of bc and a: the two keys are disjoint and their sum is the exact
// three-term score. The ranking comes back as postings, best first —
// the shape the threshold loop's RankFn takes.
//
// Every distinct term gets one bit, and each key its term set as a bit
// mask computed once; a document's covered terms are a mask of the same
// width in one shared slice, and its slot is found through a
// pointer-free id (postings.RefIDs), so no per-document state is
// allocated and no string is hashed per posting.
func rankUnion(perKey map[string]*postings.List) []postings.Posting {
	type keyList struct {
		name  string // the terms joined by single spaces
		terms []string
		list  *postings.List
	}
	kls := make([]keyList, 0, len(perKey))
	bit := make(map[string]int)
	entries := 0 // bounds the number of distinct documents
	for k, l := range perKey {
		terms := strings.Fields(k)
		kls = append(kls, keyList{name: strings.Join(terms, " "), terms: terms, list: l})
		entries += len(l.Entries)
		for _, t := range terms {
			if _, ok := bit[t]; !ok {
				bit[t] = len(bit)
			}
		}
	}
	// Largest keys first; deterministic tie-break on the key string.
	slices.SortFunc(kls, func(a, b keyList) int {
		if c := cmp.Compare(len(b.terms), len(a.terms)); c != 0 {
			return c
		}
		return cmp.Compare(a.name, b.name)
	})

	words := (len(bit) + 63) / 64 // one word for any lattice query
	keyMask := make([]uint64, len(kls)*words)
	for i, kl := range kls {
		for _, t := range kl.terms {
			b := bit[t]
			keyMask[i*words+b/64] |= 1 << (b % 64)
		}
	}
	var refIDs postings.RefIDs
	slot := make(map[uint64]int32, entries)
	out := make([]postings.Posting, 0, entries)
	covered := make([]uint64, 0, entries*words) // words per document, in out's order
	for i, kl := range kls {
		km := keyMask[i*words : (i+1)*words]
	postingLoop:
		for _, pst := range kl.list.Entries {
			id := refIDs.ID(pst.Ref)
			s, ok := slot[id]
			if !ok {
				s = int32(len(out))
				slot[id] = s
				out = append(out, postings.Posting{Ref: pst.Ref})
				covered = covered[:len(covered)+words] // zeroed, within capacity
			}
			dm := covered[int(s)*words : int(s+1)*words]
			for w := range dm {
				if dm[w]&km[w] != 0 {
					continue postingLoop
				}
			}
			out[s].Score += pst.Score
			for w := range dm {
				dm[w] |= km[w]
			}
		}
	}
	slices.SortFunc(out, postings.CompareCanonical)
	return out
}

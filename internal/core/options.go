package core

import (
	"errors"
	"time"

	"repro/internal/globalindex"
)

// Request-level error taxonomy. Every context-driven failure of a peer
// operation maps onto one of these (inspect with errors.Is); the
// underlying context error (context.Canceled / context.DeadlineExceeded)
// stays in the chain.
var (
	// ErrQueryCancelled reports that the caller cancelled the query's
	// context mid-flight. The SearchResponse returned alongside it still
	// carries whatever prefix of the exploration completed.
	ErrQueryCancelled = errors.New("core: query cancelled")
	// ErrPartialResults reports that the query's deadline expired before
	// the exploration finished: the SearchResponse carries the usable
	// prefix (every list fetched before the deadline, ranked normally)
	// and Partial is set.
	ErrPartialResults = errors.New("core: partial results")
	// ErrPeerClosed reports an operation on a peer whose Close has run.
	ErrPeerClosed = errors.New("core: peer closed")
)

// ReadConsistency selects which copy of a global-index entry serves a
// query's reads — the per-query knob behind WithReadConsistency.
type ReadConsistency int

const (
	// ReadPrimaryOnly (the default) reads every key from its responsible
	// peer, falling over to replicas only when the primary is
	// unreachable. Strongest freshness: primaries see writes first.
	ReadPrimaryOnly ReadConsistency = iota
	// ReadAnyReplica lets each key's read be served by any member of the
	// primary's replica set (chosen per key by hash), spreading query
	// hotspots across R peers. Replicas are soft state maintained by
	// best-effort write-through and ring-change anti-entropy: a replica
	// whose write-through was dropped can miss an entry the primary
	// holds until the next anti-entropy pass repairs it (retrieval
	// degrades gracefully — the lattice falls back to the key's
	// sub-combinations; see ROADMAP "Background anti-entropy cadence").
	// With replication off it behaves like ReadPrimaryOnly.
	ReadAnyReplica
)

func (c ReadConsistency) String() string {
	switch c {
	case ReadAnyReplica:
		return "any-replica"
	default:
		return "primary-only"
	}
}

// policy maps the facade-level knob onto the global index's read policy.
func (c ReadConsistency) policy() globalindex.ReadPolicy {
	if c == ReadAnyReplica {
		return globalindex.ReadAnyReplica
	}
	return globalindex.ReadPrimary
}

// SearchResponse is the result of one Search call.
type SearchResponse struct {
	// Results are the ranked hits, best first, at most TopK of them.
	Results []Result
	// Trace reports what the search did (nil if WithTrace(false)).
	Trace *QueryTrace
	// Partial reports that cancellation or a deadline cut the lattice
	// exploration short: Results ranks only the lists fetched before the
	// cut. The accompanying error is ErrQueryCancelled or
	// ErrPartialResults.
	Partial bool
}

// searchOpts is the resolved per-query configuration.
type searchOpts struct {
	topK         int // 0 = the peer's configured TopK, no probe cap
	timeout      time.Duration
	consistency  ReadConsistency
	hedge        time.Duration // 0 = no hedging
	strategy     Strategy
	strategySet  bool
	trace        bool
	streaming    bool
	streamingSet bool
	// noResultCache bypasses the peer's resolved-result cache for this
	// query (see Config.ResultCache and WithResultCache).
	noResultCache bool
}

// SearchOption customizes one Search call; the zero set reproduces the
// peer-level configuration exactly.
type SearchOption func(*searchOpts)

// WithTopK bounds this query's result count to n and uses n as the
// per-probe transfer budget: no probe ships more than n postings, so a
// small-k query moves a fraction of the bytes a TruncK-bound one would.
// (Probe lists capped below their stored length count as truncated,
// which can prune slightly more of the lattice — the paper's
// load-balancing approximation, applied per query.) n <= 0 is ignored.
func WithTopK(n int) SearchOption {
	return func(o *searchOpts) {
		if n > 0 {
			o.topK = n
		}
	}
}

// WithStreaming switches this query between a streamed score-bounded
// read and one-shot reads, overriding the peer's Config.StreamTopK
// default. It selects no protocol: both shapes are the same read frame
// through the same session, and differ only in the first chunk (bounded
// vs. the whole list) and in whether the threshold loop runs. A
// streaming query fetches a score-sorted
// prefix of every probed list plus a bound on the unseen scores, then
// requests continuation chunks only while the k-th best aggregate could
// still change — the same top-k result set, a fraction of the bytes when
// the stored lists are long and their scores decay. Within the set,
// reported scores are sound lower bounds of the exact aggregates
// (refinement stops once the set is proven fixed), so near-tied
// documents can present in a slightly different order. Chunks travel in
// the compressed postings encoding, whose scores are quantized to 21
// bits of relative precision (floored, so a decoded score undershoots
// the exact one by < 2^-21 relative): documents tied with the k-th
// score within that epsilon can resolve set *membership* differently
// than the exact path via the DocRef tie-break — both resolutions are a
// correct top k of scores that close. "Same result set" therefore holds
// exactly for sets separated by more than the quantization error at the
// boundary, which every practically ranked corpus satisfies.
// A one-shot read ships whole lists with exact scores; only one capped
// by WithTopK or Lattice.MaxResultsPerProbe travels compressed too.
func WithStreaming(enabled bool) SearchOption {
	return func(o *searchOpts) { o.streaming, o.streamingSet = enabled, true }
}

// WithTimeout gives the query its own deadline, combined with whatever
// deadline the caller's context already carries (the earlier one wins).
// On expiry Search returns the usable prefix with ErrPartialResults.
func WithTimeout(d time.Duration) SearchOption {
	return func(o *searchOpts) { o.timeout = d }
}

// WithReadConsistency selects which copies serve this query's index
// reads; see ReadConsistency.
func WithReadConsistency(c ReadConsistency) SearchOption {
	return func(o *searchOpts) { o.consistency = c }
}

// WithHedging makes this query's replica reads hedged and load-aware:
// each key group's replica chain is ranked by observed per-peer latency
// (slow copies sink to the end), the best copy is asked first, and a
// copy that stays silent past delay — or sheds the request under
// admission control — causes the next-best copy to be raced against it,
// first response wins with the loser cancelled. It trades a bounded
// amount of duplicate work for a hard cap on tail latency, so pair it
// with WithReadConsistency(ReadAnyReplica); without replication (or
// under ReadPrimaryOnly) there is no second copy and the option is a
// no-op. delay <= 0 is ignored.
func WithHedging(delay time.Duration) SearchOption {
	return func(o *searchOpts) {
		if delay > 0 {
			o.hedge = delay
		}
	}
}

// WithStrategy overrides the peer's indexing strategy for this query
// only: a StrategyQDI query performs on-demand activation even on an HDK
// peer, and vice versa a StrategyHDK query suppresses it.
func WithStrategy(s Strategy) SearchOption {
	return func(o *searchOpts) { o.strategy, o.strategySet = s, true }
}

// WithTrace controls whether the response carries a QueryTrace (default
// true; tracing is cheap but callers aggregating millions of queries can
// shed it).
func WithTrace(enabled bool) SearchOption {
	return func(o *searchOpts) { o.trace = enabled }
}

// WithResultCache overrides the peer-level resolved-result cache for one
// query: WithResultCache(false) forces a fresh fan-out even when
// Config.ResultCache is on (freshness-critical callers), and
// WithResultCache(true) restores the default opt-in. It has no effect
// when the peer has no cache configured.
func WithResultCache(enabled bool) SearchOption {
	return func(o *searchOpts) { o.noResultCache = !enabled }
}

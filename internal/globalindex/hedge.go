package globalindex

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements the load-aware / hedged side of replica reads
// (the ROADMAP "load-aware replica reads" item): every RPC the index
// issues is timed into a per-peer latency EWMA (internal/loadstat), a
// key's replica set can be ranked by that signal, and a read may be
// *hedged* — if the best-ranked copy has not answered within the hedge
// delay (or refused via admission control), the same frame is fired at
// the next-best copy, first decodable response wins and the losers are
// cancelled. The default (unhedged) read path is untouched: it keeps the
// deterministic hash spread of PR 3.

// readOpts is the resolved per-read tuning; see ReadOption.
type readOpts struct {
	hedge time.Duration
}

// ReadOption tunes one MultiGet call or top-k session beyond its
// ReadPolicy.
type ReadOption func(*readOpts)

// WithHedge enables hedged, load-aware replica reads with the given
// hedge delay: under ReadAnyReplica each key group's replica chain is
// ranked by observed per-peer latency, the best copy is asked first, and
// a copy that stays silent past delay (or sheds the request) causes the
// next-best copy to be tried concurrently — first response wins, losers
// are cancelled. Ignored for delay <= 0, under ReadPrimary, or with
// replication off (there is no second copy to hedge to).
func WithHedge(delay time.Duration) ReadOption {
	return func(o *readOpts) {
		if delay > 0 {
			o.hedge = delay
		}
	}
}

func resolveReadOpts(opts []ReadOption) readOpts {
	var o readOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// timedCall is the index's instrumented Endpoint.Call: the round trip is
// folded into the per-peer latency EWMA whenever the elapsed time is a
// real signal — a response (success or remote error) measures the peer,
// and an interrupted wait is a lower bound on it. Sheds and unreachable
// failures return near-instantly and say nothing about service latency,
// so they are not observed (observing a shed as "fast" would steer MORE
// load onto the overloaded peer).
func (ix *Index) timedCall(ctx context.Context, to transport.Addr, msg uint8, body []byte) (uint8, []byte, error) {
	start := time.Now()
	respType, resp, err := ix.node.Endpoint().Call(ctx, to, msg, body)
	if err == nil || errors.Is(err, transport.ErrCallInterrupted) {
		ix.lat.Observe(to, time.Since(start))
	} else {
		var remote *transport.RemoteError
		if errors.As(err, &remote) {
			ix.lat.Observe(to, time.Since(start))
		}
	}
	return respType, resp, err
}

// readChain returns the full preference order for replica reads of keys
// whose primary is primary: the primary plus its replica set, rotated
// deterministically by the seed's hash (so distinct keys and groups
// spread across the copies, exactly like readTarget's hash pick) and
// then stable-ranked by each peer's latency EWMA — with no load signal
// the rotation order survives unchanged; a measurably slow copy sinks to
// the end of the chain.
func (ix *Index) readChain(ctx context.Context, seed string, primary transport.Addr) []transport.Addr {
	chain := []transport.Addr{primary}
	for _, r := range ix.replicaTargets(ctx, primary) {
		chain = append(chain, r.Addr)
	}
	if len(chain) > 1 {
		rot := int(uint64(ids.HashString(seed)) % uint64(len(chain)))
		rotated := make([]transport.Addr, 0, len(chain))
		rotated = append(rotated, chain[rot:]...)
		rotated = append(rotated, chain[:rot]...)
		chain = rotated
		ix.lat.Rank(chain)
	}
	return chain
}

// hedgeTarget is one copy a hedged read may try: a hard target (the
// primary or a successor replica, addressed with the caller's frame) or
// a soft one (a popularity replica, addressed with MsgSoftGet — whose
// request layout the streamed top-k frames already share).
type hedgeTarget struct {
	addr transport.Addr
	soft bool
}

// callHedgedTargets fires at the targets in preference order with
// hedging: targets[0] immediately, and another target every time
// `delay` passes without a winner or the newest attempt fails fast
// (shed, unreachable, remote error). Hard targets get msg, soft targets
// get MsgSoftGet — a soft copy that misses any key answers with an
// error, which is exactly a fast failure escalating to the next copy.
// The first success wins and every other in-flight attempt is cancelled
// through a shared child context; their goroutines drain into a
// buffered channel, so nothing leaks. If every target fails, the last
// error is returned.
func (ix *Index) callHedgedTargets(ctx context.Context, targets []hedgeTarget, msg uint8, body []byte, delay time.Duration) (resp []byte, served transport.Addr, err error) {
	if len(targets) == 0 {
		return nil, "", transport.ErrUnreachable
	}
	_, span := telemetry.StartSpan(ctx, "hedge")
	defer span.Finish()
	span.SetAttr("replicas", fmt.Sprint(len(targets)))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // the winner's return cancels every loser
	type attempt struct {
		idx  int
		resp []byte
		err  error
	}
	ch := make(chan attempt, len(targets))
	spans := make([]*telemetry.Span, len(targets))
	launch := func(i int) {
		as := span.NewChild("attempt")
		as.SetAttr("peer", string(targets[i].addr))
		m := msg
		if targets[i].soft {
			m = MsgSoftGet
			as.SetAttr("soft", "1")
		}
		spans[i] = as
		go func() {
			_, r, e := ix.timedCall(cctx, targets[i].addr, m, body)
			ch <- attempt{idx: i, resp: r, err: e}
		}()
	}
	launch(0)
	next, inflight := 1, 1
	var lastErr error
	timer := time.NewTimer(delay)
	defer timer.Stop()
	timerC := timer.C
	for {
		select {
		case a := <-ch:
			inflight--
			if a.err != nil {
				spans[a.idx].SetAttr("error", a.err.Error())
			}
			spans[a.idx].Finish()
			if a.err == nil {
				span.SetAttr("winner", string(targets[a.idx].addr))
				return a.resp, targets[a.idx].addr, nil
			}
			lastErr = a.err
			if ctx.Err() != nil {
				// The caller's own context died: the losers are already
				// being cancelled, surface the failure as-is.
				return nil, "", lastErr
			}
			if next < len(targets) {
				// The attempt failed fast (shed / unreachable / rejected):
				// escalate to the next copy immediately instead of waiting
				// out the hedge delay.
				launch(next)
				next++
				inflight++
			} else if inflight == 0 {
				return nil, "", lastErr
			}
		case <-timerC:
			if next < len(targets) {
				launch(next)
				next++
				inflight++
				timer.Reset(delay)
			} else {
				timerC = nil // every copy is in flight; just wait
			}
		case <-ctx.Done():
			// Abandon the hedge wholesale; in-flight attempts unwind via
			// cctx and drain into the buffered channel. At least one
			// request was on the wire, so this is the in-flight taxonomy.
			return nil, "", fmt.Errorf("%w: %w", transport.ErrCallInterrupted, ctx.Err())
		}
	}
}

// readChainWithSoft is readChain with the key's soft-placement peers
// interleaved: the primary, its successor replicas, and the soft copies
// derived from the key's placement points form one pool, hash-rotated
// by the key and then latency-ranked — so repeat reads of a hot key
// genuinely spread across hard AND soft copies instead of merely
// hedging to them. Soft members are flagged so callHedgedTargets
// addresses them with MsgSoftGet; a derived peer holding no live copy
// fails fast and the hedge escalates past it.
func (ix *Index) readChainWithSoft(ctx context.Context, key string, primary transport.Addr) []hedgeTarget {
	addrs := []transport.Addr{primary}
	for _, r := range ix.replicaTargets(ctx, primary) {
		addrs = append(addrs, r.Addr)
	}
	isSoft := make(map[transport.Addr]bool)
	for _, a := range ix.softTargets(ctx, key, primary) {
		dup := false
		for _, b := range addrs {
			if a == b {
				dup = true
				break
			}
		}
		if !dup {
			addrs = append(addrs, a)
			isSoft[a] = true
		}
	}
	if len(addrs) > 1 {
		rot := int(uint64(ids.HashString(key)) % uint64(len(addrs)))
		rotated := make([]transport.Addr, 0, len(addrs))
		rotated = append(rotated, addrs[rot:]...)
		rotated = append(rotated, addrs[:rot]...)
		addrs = rotated
		ix.lat.Rank(addrs)
	}
	out := make([]hedgeTarget, len(addrs))
	for i, a := range addrs {
		out[i] = hedgeTarget{addr: a, soft: isSoft[a]}
	}
	return out
}

// hedgeTargetsFor builds the hedged preference chain for one streamed
// read group. A single-key group whose key the local popularity tracker
// scores at or above the hot threshold gets the soft-augmented chain;
// everything else — multi-key groups (soft copies are per-key, a group
// frame cannot split across them) and cold keys — gets the classic hard
// chain. The group seed IS the single key when the group has one item,
// which is exactly when the soft chain is usable.
func (ix *Index) hedgeTargetsFor(ctx context.Context, seed string, primary transport.Addr, body []byte) []hedgeTarget {
	if ix.hotRate != nil && ix.hot.threshold > 0 {
		if wire.NewReader(body).Uvarint() == 1 && ix.hotScore(seed) >= ix.hot.threshold {
			return ix.readChainWithSoft(ctx, seed, primary)
		}
	}
	return ix.hardChain(ctx, seed, primary, body)
}

// hardChain is readChain as hedge targets: the primary and its successor
// replicas, all addressed with the caller's frame. It is the whole chain
// of a classic MultiGet (whose frame layout soft copies do not answer).
func (ix *Index) hardChain(ctx context.Context, seed string, primary transport.Addr, _ []byte) []hedgeTarget {
	chain := ix.readChain(ctx, seed, primary)
	out := make([]hedgeTarget, len(chain))
	for i, a := range chain {
		out[i] = hedgeTarget{addr: a}
	}
	return out
}

// dropReplicaSet forgets the cached replica set of primary; the next
// read re-fetches the primary's successor list. The hedged path calls it
// when a whole chain failed — some member of the cached set is stale.
func (ix *Index) dropReplicaSet(primary transport.Addr) {
	ix.repl.mu.Lock()
	if ix.repl.succsOf != nil {
		delete(ix.repl.succsOf, primary)
	}
	ix.repl.mu.Unlock()
}

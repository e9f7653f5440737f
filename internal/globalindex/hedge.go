package globalindex

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/telemetry"
	"repro/internal/transport"
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

// hedgeTarget is one copy a hedged read may try: a hard target (the
// primary or a successor replica, read in readAny mode) or a soft one (a
// popularity replica, read in readSoft mode).
type hedgeTarget struct {
	addr transport.Addr
	soft bool
}

// readChain returns the full preference order for replica reads of keys
// whose primary is primary: the primary plus its replica set — and, with
// soft set, the soft-placement peers of the key seed names — as one
// pool, rotated deterministically by the seed's hash (so distinct keys
// and groups spread across the copies, exactly like readTarget's hash
// pick) and then stable-ranked by each peer's latency EWMA. With no load
// signal the rotation order survives unchanged; a measurably slow copy
// sinks to the end of the chain. A derived soft peer holding no live
// copy fails fast and the hedge escalates past it.
func (ix *Index) readChain(ctx context.Context, seed string, primary dht.Remote, soft bool) []hedgeTarget {
	addrs := []transport.Addr{primary.Addr}
	for _, r := range ix.replicaTargets(ctx, primary) {
		addrs = append(addrs, r.Addr)
	}
	isSoft := make(map[transport.Addr]bool)
	if soft {
		for _, a := range ix.softTargets(ctx, seed, primary.Addr) {
			if !slices.Contains(addrs, a) {
				addrs = append(addrs, a)
				isSoft[a] = true
			}
		}
	}
	if len(addrs) > 1 {
		rot := int(uint64(ids.HashString(seed)) % uint64(len(addrs)))
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

// hedgedRead races one read frame over the copies of the group's
// primary. A single-key group whose key the local popularity tracker
// scores at or above the hot threshold gets the soft-augmented chain —
// the seed IS that key; multi-key groups (soft copies are per-key, a
// group frame cannot split across them) and cold keys race the hard
// copies only. It returns the winning answer and the copy that sent it.
func (ix *Index) hedgedRead(ctx context.Context, primary dht.Remote, seed string, single bool, body []byte, delay time.Duration) ([]byte, transport.Addr, error) {
	soft := single && ix.hot.threshold > 0 && ix.hotScore(seed) >= ix.hot.threshold
	chain := ix.readChain(ctx, seed, primary, soft)
	resp, from, err := ix.callHedgedTargets(ctx, chain, body, delay)
	if err != nil && ctx.Err() == nil {
		// Every copy in the chain failed on its own: some cached route is
		// stale, re-resolve the chain on the next read.
		for _, t := range chain {
			ix.resolver.Invalidate(t.addr)
		}
	}
	return resp, from, err
}

// callHedgedTargets fires the MsgRead request body at the targets in
// preference order with hedging: targets[0] immediately, and another
// target every time `delay` passes without a winner or the newest
// attempt fails fast (shed, unreachable, remote error). Soft targets get
// the same request in readSoft mode — a soft copy that misses any key
// answers with an error, which is exactly a fast failure escalating to
// the next copy. The first success wins and every other in-flight
// attempt is cancelled through a shared child context; their goroutines
// drain into a buffered channel, so nothing leaks. The winner's answer
// returns with its address; if every target fails, the last error is
// returned.
func (ix *Index) callHedgedTargets(ctx context.Context, targets []hedgeTarget, body []byte, delay time.Duration) ([]byte, transport.Addr, error) {
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
	hedged := make([]bool, len(targets)) // launched by the delay, not by a failure
	launch := func(i int) {
		as := span.NewChild("attempt")
		as.SetAttr("peer", string(targets[i].addr))
		b := body
		if targets[i].soft {
			b = append([]byte{readSoft}, body[1:]...) // the mode byte leads the request
			as.SetAttr("soft", "1")
		}
		spans[i] = as
		go func() {
			_, r, e := ix.timedCall(cctx, targets[i].addr, MsgRead, b)
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
				if hedged[a.idx] {
					ix.hedgesWon.Add(1)
				}
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
				hedged[next] = true
				ix.hedgesLaunched.Add(1)
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

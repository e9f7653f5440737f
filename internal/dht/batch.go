package dht

import (
	"context"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ids"
	"repro/internal/transport"
)

// FanOut is the network fan-out width of every batch layer: how many
// lookups, batch frames or continuation frames one operation keeps in
// flight (RunBounded), and how many cache misses one Resolver round
// resolves. Like Kademlia's α it is a protocol constant, not a setting.
const FanOut = 8

// RunBounded invokes fn(0..count-1) with at most FanOut concurrent
// invocations. The caller's goroutine is one of the workers, so a single
// index runs inline and a fan-out of n starts min(n, FanOut)-1
// goroutines. It is the bounded-fan-out primitive shared by the batch
// layers (this package's resolvers, the global index's batch client,
// result presentation). A context that dies mid-run stops workers from
// picking up further indices — already dispatched fn calls finish. The
// context's error is returned exactly when some index was skipped, so
// callers know the fan-out is incomplete; nil means every index ran,
// even if the context died after the last one.
func RunBounded(ctx context.Context, count int, fn func(i int)) error {
	switch count {
	case 0:
		return nil
	case 1:
		if err := ctx.Err(); err != nil {
			return err
		}
		fn(0)
		return nil
	}
	var wg sync.WaitGroup
	var skipped atomic.Bool
	idx := make(chan int, count)
	for i := 0; i < count; i++ {
		idx <- i
	}
	close(idx)
	work := func() {
		for i := range idx {
			if ctx.Err() != nil {
				skipped.Store(true)
				return
			}
			fn(i)
		}
	}
	workers := min(FanOut, count)
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if skipped.Load() {
		return ctx.Err()
	}
	return nil
}

// interval is one cached responsibility range: node owns every key in the
// half-open ring interval (from, to].
type interval struct {
	from, to ids.ID
	node     Remote
}

// Resolver resolves many keys to their responsible nodes with far fewer
// RPCs than per-key lookups: every full lookup is followed by one
// GetState RPC to the responsible node, whose predecessor pointer and
// successor list reveal a chain of responsibility intervals. Subsequent
// keys falling into a cached interval resolve without any network
// traffic. The cache is soft state over the same stabilization-repaired
// pointers a lookup would traverse; Invalidate drops the entries naming a
// node observed dead so the next resolution re-routes around it. A
// Resolver is safe for concurrent use.
type Resolver struct {
	n     *Node
	mu    sync.Mutex
	iv    []interval
	known map[transport.Addr]bool // nodes whose ring state was already fetched
	epoch uint64                  // owning node's RingEpoch when the cache was filled
}

// NewResolver returns an empty resolver for the node.
func (n *Node) NewResolver() *Resolver {
	return &Resolver{n: n, known: make(map[transport.Addr]bool)}
}

// cached returns the cached responsible node for key, if any.
func (r *Resolver) cached(key ids.ID) (Remote, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cachedLocked(key)
}

// cachedLocked is cached for callers holding r.mu.
func (r *Resolver) cachedLocked(key ids.ID) (Remote, bool) {
	for _, iv := range r.iv {
		if ids.Between(key, iv.from, iv.to) {
			return iv.node, true
		}
	}
	return Remote{}, false
}

// add installs the responsibility intervals revealed by one node's ring
// state: (pred, node] for the node itself, then one interval per
// successor-list step, each successor owning the range from its
// predecessor in the chain up to itself.
func (r *Resolver) add(pred, node Remote, succs []Remote) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !pred.IsZero() && pred.Addr != node.Addr {
		r.addLocked(interval{from: pred.ID, to: node.ID, node: node})
	}
	prev := node
	for _, s := range succs {
		if s.IsZero() || s.Addr == prev.Addr {
			continue
		}
		r.addLocked(interval{from: prev.ID, to: s.ID, node: s})
		prev = s
	}
}

// addLocked installs iv unless the cache already holds it. The chains
// learned from neighbouring nodes overlap, and every cached resolution
// and successor step scans the list, so a duplicate only costs time.
// Callers hold r.mu.
func (r *Resolver) addLocked(iv interval) {
	if !slices.Contains(r.iv, iv) {
		r.iv = append(r.iv, iv)
	}
}

// Invalidate drops every cached interval naming addr. Callers invoke it
// after an RPC to a resolved node fails, before retrying the resolution.
func (r *Resolver) Invalidate(addr transport.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.iv[:0]
	for _, iv := range r.iv {
		if iv.node.Addr != addr {
			out = append(out, iv)
		}
	}
	r.iv = out
	delete(r.known, addr)
}

// checkEpoch drops the whole cache when the owning node's own ring
// pointers moved since it was filled (a join, a failure, a repair):
// cached responsibility intervals anywhere on the ring may have moved
// with them. A stable ring never bumps the epoch, so the warm cache
// survives.
func (r *Resolver) checkEpoch() {
	ep := r.n.RingEpoch()
	r.mu.Lock()
	if ep != r.epoch {
		r.iv = nil
		r.known = make(map[transport.Addr]bool)
		r.epoch = ep
	}
	r.mu.Unlock()
}

// Resolve returns the responsible node for each key, in input order. The
// first round resolves one cache miss; each later round resolves at most
// FanOut, concurrently. Keeping rounds small is deliberate: every miss
// widens the cache by a whole successor chain, so most keys left for
// later rounds resolve for free — on a small ring the first state fetch
// reveals every owner, and a cold resolve costs one lookup. Distinct keys
// mapping into one already-discovered interval cost no RPC at all, which
// is what turns N per-key resolutions into roughly one lookup + one state
// fetch per distinct responsible peer. A cancelled context stops the
// miss-resolution rounds and returns the context's error.
func (r *Resolver) Resolve(ctx context.Context, keys []ids.ID) ([]Remote, error) {
	r.checkEpoch()
	out := make([]Remote, len(keys))
	resolved := make([]bool, len(keys))
	// The nodes whose state fetch failed during this call, guarded by
	// r.mu: a shedding or failing owner is asked once per call, not once
	// per round.
	failed := make(map[transport.Addr]bool)
	for width := 1; ; width = FanOut {
		// Satisfy what the cache covers; collect the distinct missing keys.
		var missing []ids.ID
		seen := make(map[ids.ID]bool)
		for i, k := range keys {
			if resolved[i] {
				continue
			}
			if rem, ok := r.cached(k); ok {
				out[i] = rem
				resolved[i] = true
				continue
			}
			if !seen[k] {
				seen[k] = true
				missing = append(missing, k)
			}
		}
		if len(missing) == 0 {
			return out, nil
		}
		if err := ctx.Err(); err != nil {
			return out, err
		}
		// Resolve a bounded batch of misses concurrently; each miss also
		// fetches the responsible node's ring state to widen the cache.
		// Sorting makes the batch deterministic for a given cache state.
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		batch := missing[:min(width, len(missing))]
		got := make([]Remote, len(batch))
		errs := make([]error, len(batch))
		stopped := RunBounded(ctx, len(batch), func(i int) {
			rem, _, err := r.n.Lookup(ctx, batch[i])
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = rem
			r.learn(ctx, rem, failed)
		})
		for _, err := range errs {
			if err != nil {
				return out, err
			}
		}
		if stopped != nil {
			return out, stopped
		}
		// Record the batch's own resolutions directly: progress is then
		// guaranteed every round even when a state fetch added nothing to
		// the cache.
		byKey := make(map[ids.ID]Remote, len(batch))
		for i, k := range batch {
			byKey[k] = got[i]
		}
		for i, k := range keys {
			if !resolved[i] {
				if rem, ok := byKey[k]; ok {
					out[i] = rem
					resolved[i] = true
				}
			}
		}
	}
}

// Successors returns the first n distinct nodes following of on the
// ring, in ring order: the owner of the point just past of, the owner of
// the point just past that one, and so on. It is where of's replicas
// live. Steps the cache covers cost nothing — one state fetch revealed a
// whole successor chain, and the intervals past of survive
// Invalidate(of.Addr), so the chain past a dead owner still answers
// from cache; a step it misses costs one Resolve (a lookup plus a state
// fetch). The walk stops early when it wraps back to of, revisits a
// node, or a step cannot be resolved.
func (r *Resolver) Successors(ctx context.Context, of Remote, n int) []Remote {
	if n <= 0 {
		return nil
	}
	r.checkEpoch()
	out := make([]Remote, 0, n)
	cur := of
	r.mu.Lock()
	for len(out) < n {
		next, ok := r.cachedLocked(cur.ID + 1)
		if !ok {
			r.mu.Unlock()
			got, err := r.Resolve(ctx, []ids.ID{cur.ID + 1})
			r.mu.Lock()
			if err != nil {
				break
			}
			next = got[0]
		}
		if !extendsWalk(of, out, next) {
			break
		}
		out = append(out, next)
		cur = next
	}
	r.mu.Unlock()
	return out
}

// extendsWalk reports whether next extends the successor walk from of that
// has found out so far: a real node, neither of nor already walked.
func extendsWalk(of Remote, out []Remote, next Remote) bool {
	if next.IsZero() || next.Addr == of.Addr {
		return false
	}
	for _, o := range out {
		if o.Addr == next.Addr {
			return false
		}
	}
	return true
}

// learn records the responsibility intervals observable from rem: its
// predecessor and successor list (fetched locally when rem is this node).
// Each node's state is fetched at most once per cache lifetime, and a
// node whose fetch failed is not asked again within the same Resolve
// call (failed, guarded by r.mu); a later call retries it.
func (r *Resolver) learn(ctx context.Context, rem Remote, failed map[transport.Addr]bool) {
	r.mu.Lock()
	if r.known[rem.Addr] || failed[rem.Addr] {
		r.mu.Unlock()
		return
	}
	r.known[rem.Addr] = true
	r.mu.Unlock()
	var pred Remote
	var succs []Remote
	if rem.Addr == r.n.self.Addr {
		pred = r.n.Predecessor()
		succs = r.n.Successors()
	} else {
		var err error
		pred, succs, err = r.n.rpcGetState(ctx, rem.Addr)
		if err != nil {
			// The node answered the lookup but not the state fetch; cache
			// nothing and let a later call retry.
			r.mu.Lock()
			delete(r.known, rem.Addr)
			failed[rem.Addr] = true
			r.mu.Unlock()
			return
		}
	}
	if pred.IsZero() || pred.Addr == rem.Addr {
		// No predecessor also happens transiently on a multi-node ring
		// (right after PredecessorFailed, before the next notify repairs
		// it); caching "rem owns everything" then would misroute whole
		// batches. Claim the full ring only when rem's successor list
		// confirms it is alone; otherwise record just the successor-chain
		// intervals, which stay valid regardless of rem's predecessor.
		alone := true
		for _, s := range succs {
			if !s.IsZero() && s.Addr != rem.Addr {
				alone = false
				break
			}
		}
		if alone {
			// (from == to) is exactly the full-ring interval for
			// ids.Between.
			r.mu.Lock()
			r.addLocked(interval{from: rem.ID, to: rem.ID, node: rem})
			r.mu.Unlock()
		} else {
			r.add(Remote{}, rem, succs)
		}
		return
	}
	r.add(pred, rem, succs)
}

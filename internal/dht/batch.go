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
// RPCs than per-key lookups. Every routing step of a lookup answers with
// the asked node's successor list, and that list is a chain of
// responsibility intervals: its first entry owns the keys from the asked
// node up to itself, the next the keys up to the next, and so on. The
// resolver caches every chain its lookups see, so later keys falling into
// a cached interval resolve without any network traffic, and no owner is
// ever contacted just to learn its range. The cache is soft state over
// the same stabilization-repaired pointers a lookup traverses; an owner's
// refusal or a failed call makes the caller Invalidate the node, so the
// next resolution re-routes. A Resolver is safe for concurrent use.
type Resolver struct {
	n     *Node
	mu    sync.Mutex
	iv    []interval
	epoch uint64 // owning node's RingEpoch when the cache was filled
}

// NewResolver returns an empty resolver for the node.
func (n *Node) NewResolver() *Resolver {
	return &Resolver{n: n}
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

// add installs the responsibility intervals one node's successor list
// reveals: the first successor owns (from, s₁], each later one the range
// from its predecessor in the chain up to itself. A list runs clockwise
// from from, so an entry that is not further round the ring than the one
// before ends the chain: past that point the list wraps or is stale.
func (r *Resolver) add(from Remote, succs []Remote) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, dist := from, uint64(0)
	for _, s := range succs {
		if s.IsZero() {
			continue
		}
		d := ids.Distance(from.ID, s.ID)
		if d <= dist {
			break
		}
		r.addLocked(interval{from: prev.ID, to: s.ID, node: s})
		prev, dist = s, d
	}
}

// addLocked installs iv in place of every cached interval it overlaps.
// The newer view of a range wins, so the cache stays a partition of the
// ring it has seen, and the last step of a lookup — the node whose
// immediate successor owns the key — settles the key's range. Callers
// hold r.mu.
func (r *Resolver) addLocked(iv interval) {
	r.iv = slices.DeleteFunc(r.iv, func(old interval) bool {
		return ids.Between(old.to, iv.from, iv.to) || ids.Between(iv.to, old.from, old.to)
	})
	r.iv = append(r.iv, iv)
}

// Invalidate drops every cached interval naming addr. Callers invoke it
// after an RPC to a resolved node fails, before retrying the resolution.
func (r *Resolver) Invalidate(addr transport.Addr) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.iv = slices.DeleteFunc(r.iv, func(iv interval) bool { return iv.node.Addr == addr })
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
		r.epoch = ep
	}
	r.mu.Unlock()
}

// Resolve returns the responsible node for each key, in input order. The
// first round resolves one cache miss; each later round resolves at most
// FanOut, concurrently. Keeping rounds small is deliberate: every lookup
// widens the cache by the successor chains of the nodes it asked, so most
// keys left for later rounds resolve for free — on a small ring one
// lookup reveals every owner, and a cold resolve costs one lookup.
// Distinct keys mapping into one already-discovered interval cost no RPC
// at all, which is what turns N per-key resolutions into roughly one
// lookup per successor-list span of the ring. A cancelled context stops
// the miss-resolution rounds and returns the context's error.
func (r *Resolver) Resolve(ctx context.Context, keys []ids.ID) ([]Remote, error) {
	r.checkEpoch()
	out := make([]Remote, len(keys))
	resolved := make([]bool, len(keys))
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
		// Resolve a bounded batch of misses concurrently; each lookup
		// widens the cache with the chains it sees. Sorting makes the
		// batch deterministic for a given cache state.
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		batch := missing[:min(width, len(missing))]
		got := make([]Remote, len(batch))
		errs := make([]error, len(batch))
		stopped := RunBounded(ctx, len(batch), func(i int) {
			rem, _, err := r.n.lookupChain(ctx, batch[i], r.add)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = rem
			if rem.Addr == r.n.self.Addr {
				r.learnOwn()
			}
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
		// guaranteed every round even when a lookup added nothing to the
		// cache.
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
// live. Steps the cache covers cost nothing — the lookup that found of
// saw a whole successor chain, and the intervals past of survive
// Invalidate(of.Addr), so the chain past a dead owner still answers
// from cache; a step it misses costs one Resolve (a lookup). The walk
// stops early when it wraps back to of, revisits a node, or a step
// cannot be resolved.
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

// learnOwn installs the intervals this node's own pointers reveal, with
// no RPC: (pred, self] and its successor chain. Resolve calls it when a
// lookup answers with this node, which a key it owns reaches without a
// routing step to learn from.
func (r *Resolver) learnOwn() {
	self := r.n.self
	pred, succs := r.n.Predecessor(), r.n.Successors()
	if !pred.IsZero() && pred.Addr != self.Addr {
		r.add(pred, append([]Remote{self}, succs...))
		return
	}
	// No predecessor also happens transiently on a multi-node ring (right
	// after PredecessorFailed, before the next notify repairs it); caching
	// "self owns everything" then would misroute whole batches. Claim the
	// full ring only when the successor list confirms this node is alone;
	// otherwise record just the successor-chain intervals, which stay
	// valid regardless of the predecessor.
	if slices.ContainsFunc(succs, func(s Remote) bool { return !s.IsZero() && s.Addr != self.Addr }) {
		r.add(self, succs)
		return
	}
	// (from == to) is exactly the full-ring interval for ids.Between.
	r.mu.Lock()
	r.addLocked(interval{from: self.ID, to: self.ID, node: self})
	r.mu.Unlock()
}

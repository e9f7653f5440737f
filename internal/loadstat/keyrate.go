package loadstat

import (
	"container/heap"
	"math"
	"sort"
	"sync"
	"time"
)

// KeyRate tracks per-key read popularity as a bounded, exponentially
// decayed read count: each Observe adds 1, and the accumulated count
// halves every half-life. The score is therefore "reads in the last few
// half-lives", the signal two decisions threshold on: keys whose score
// crosses HotKeyThreshold get soft replicas, and the score falls back
// below the threshold by itself once the key cools; QDI indexes popular
// missing keys and evicts cold indexed ones, on a clock that advances
// once per maintenance round.
//
// The table is bounded: inserting beyond maxKeys evicts the coldest
// tracked key, so a zipfian tail of one-off keys cannot grow the map.
// Every entry decays at the same rate, so the order of the decayed counts
// never changes with time: count·2^(−(now−last)/half) ranks exactly like
// log2(count) + (last−origin)/half, which does not mention now. The
// entries sit in a min-heap on that rank, so an eviction costs O(log n),
// not a scan of the table. A read only ever raises its key's rank, so a
// repeat read just marks the entry stale and leaves it where it is: too
// close to the root, never too far from it. Eviction re-ranks stale roots
// until the root is current, and that root is then the coldest key. Each
// read pays for at most one such re-rank, and a table that never fills
// never pays.
type KeyRate struct {
	mu      sync.Mutex
	half    time.Duration
	maxKeys int
	keys    map[string]*keyRateEntry
	cold    rateHeap         // every tracked entry, coldest at the root
	origin  time.Time        // zero point of the rank: the first observation
	clock   func() time.Time // time source; never nil
}

type keyRateEntry struct {
	key   string
	count float64
	last  time.Time
	rank  float64 // heap key: the rank (rankLocked) as of the last re-rank
	stale bool    // read since rank was computed, which now underestimates it
	index int     // position in KeyRate.cold
}

// DefaultKeyRateHalfLife is the decay half-life used when the caller
// passes a non-positive one.
const DefaultKeyRateHalfLife = 10 * time.Second

// NewKeyRate returns a bounded decayed-count tracker. maxKeys <= 0
// selects a default bound of 4096 keys. clock is the time source the
// decay runs on; nil selects time.Now. A caller that decays in rounds
// rather than in wall time passes a clock that advances one fixed step
// per round.
func NewKeyRate(halfLife time.Duration, maxKeys int, clock func() time.Time) *KeyRate {
	if halfLife <= 0 {
		halfLife = DefaultKeyRateHalfLife
	}
	if maxKeys <= 0 {
		maxKeys = 4096
	}
	if clock == nil {
		clock = time.Now
	}
	return &KeyRate{half: halfLife, maxKeys: maxKeys, keys: make(map[string]*keyRateEntry), clock: clock}
}

// decayedLocked returns e's count decayed to now without mutating it.
func (r *KeyRate) decayedLocked(e *keyRateEntry, now time.Time) float64 {
	dt := now.Sub(e.last)
	if dt <= 0 {
		return e.count
	}
	return e.count * math.Exp2(-float64(dt)/float64(r.half))
}

// rankLocked returns log2(count) + (last−origin)/half for e. Frexp splits
// the count into mantissa and exponent first, so two counts a power of two
// apart — which the decayed counts tie exactly when their ages differ by
// whole half-lives — get exactly tied ranks as well, and the key order
// breaks the tie as it always has.
func (r *KeyRate) rankLocked(e *keyRateEntry) float64 {
	frac, exp := math.Frexp(e.count)
	return math.Log2(frac) + (float64(exp) + float64(e.last.Sub(r.origin))/float64(r.half))
}

// Observe records one read of key and returns its decayed count, this
// read included.
func (r *KeyRate) Observe(key string) float64 {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.keys[key]; ok {
		// now was read before the lock, so a racing read of the same key
		// may already have stamped a later time: never move last back.
		if now.Before(e.last) {
			now = e.last
		}
		e.count = r.decayedLocked(e, now) + 1
		e.last = now
		e.stale = true
		return e.count
	}
	if r.origin.IsZero() {
		r.origin = now
	}
	if len(r.keys) >= r.maxKeys {
		r.evictColdestLocked()
	}
	e := &keyRateEntry{key: key, count: 1, last: now}
	e.rank = r.rankLocked(e)
	r.keys[key] = e
	heap.Push(&r.cold, e)
	return e.count
}

// evictColdestLocked drops the key with the smallest decayed count, key
// order on ties. A current root is the coldest key: every other entry's
// rank is at least its heap key, which is at least the root's.
func (r *KeyRate) evictColdestLocked() {
	for root := r.cold[0]; root.stale; root = r.cold[0] {
		root.rank, root.stale = r.rankLocked(root), false
		heap.Fix(&r.cold, 0)
	}
	victim := heap.Pop(&r.cold).(*keyRateEntry)
	delete(r.keys, victim.key)
}

// Score returns key's decayed read count (0 for an untracked key).
func (r *KeyRate) Score(key string) float64 {
	now := r.clock()
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.keys[key]
	if !ok {
		return 0
	}
	return r.decayedLocked(e, now)
}

// Hot returns every key whose decayed count is at least threshold,
// hottest first (key order on ties, so the result is deterministic).
func (r *KeyRate) Hot(threshold float64) []string {
	now := r.clock()
	r.mu.Lock()
	type scored struct {
		key   string
		count float64
	}
	hot := make([]scored, 0)
	for k, e := range r.keys {
		if c := r.decayedLocked(e, now); c >= threshold {
			hot = append(hot, scored{k, c})
		}
	}
	r.mu.Unlock()
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].count != hot[j].count {
			return hot[i].count > hot[j].count
		}
		return hot[i].key < hot[j].key
	})
	out := make([]string, len(hot))
	for i, s := range hot {
		out[i] = s.key
	}
	return out
}

// Len returns the number of keys currently tracked.
func (r *KeyRate) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.keys)
}

// rateHeap is a min-heap of entries on (rank, key).
type rateHeap []*keyRateEntry

func (h rateHeap) Len() int { return len(h) }

func (h rateHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].key < h[j].key
}

func (h rateHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *rateHeap) Push(x any) {
	e := x.(*keyRateEntry)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *rateHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

package globalindex

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/loadstat"
	"repro/internal/postings"
	"repro/internal/readcache"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file implements popularity-aware soft replication — the server
// side of the hot-key read path. Hard replication (replication.go) pins
// every key to its primary plus R−1 ring successors; under zipfian query
// skew that still concentrates a head key's reads on R peers. A key
// whose decayed read rate crosses the configured threshold therefore
// gets *soft* copies pushed to peers chosen outside its replica set
// (PromoteHotKeys), and hot hedged reads interleave those copies into
// the replica chain (readChain), spreading the head load across
// R + SoftReplicas peers. Soft copies are pure cache: they expire by
// TTL and by the holder's ring epoch, are never written through, and are
// read through MsgRead's readSoft mode, where a missing copy is an RPC
// error the hedge machinery escalates past — never an authoritative
// absence.

// MsgSoftAnnounce installs one soft copy at the receiver:
// (key, ttlSec, approxDF, list) -> accepted bool. Best-effort: a
// refused or lost announce only costs spread, not correctness.
const MsgSoftAnnounce uint8 = 0x1F

const (
	// maxSoftCopies bounds the copies one peer holds for others; the
	// earliest-expiring copy is evicted past the bound.
	maxSoftCopies = 256
	// maxSoftTTL clamps a wire-supplied announce TTL.
	maxSoftTTL = 3600 * time.Second
	// maxPromotionsPerSweep bounds one PromoteHotKeys pass.
	maxPromotionsPerSweep = 16
	// softTargetSlack is how many extra placement candidates are
	// resolved beyond the wanted count, to survive candidates that
	// collapse onto the primary on small rings.
	softTargetSlack = 2
	// maxAnnounceMarks bounds the re-announce suppression table.
	maxAnnounceMarks = 1024
)

// HotKeyConfig configures EnableHotKeyPath. The zero value disables
// everything; each part is independently optional.
type HotKeyConfig struct {
	// PrefixCache is the entry bound of the client-side posting-prefix
	// cache consulted by every read session's opens (0 = no cache).
	PrefixCache int
	// PrefixCacheTTL bounds a cached prefix's staleness against writes
	// this peer never observed (default 2s when the cache is on).
	PrefixCacheTTL time.Duration
	// HotThreshold is the decayed read count at which a key counts as
	// hot: owners push soft replicas for it, readers interleave soft
	// copies into hedged chains (0 = soft replication off).
	HotThreshold float64
	// SoftReplicas is the number of soft copies per hot key (default 2).
	SoftReplicas int
	// SoftReplicaTTL is the lifetime of an announced copy (default 30s).
	SoftReplicaTTL time.Duration
	// HalfLife is the popularity decay half-life (default per loadstat).
	HalfLife time.Duration
}

func (c *HotKeyConfig) fillDefaults() {
	if c.PrefixCache > 0 && c.PrefixCacheTTL <= 0 {
		c.PrefixCacheTTL = 2 * time.Second
	}
	if c.HotThreshold > 0 {
		if c.SoftReplicas <= 0 {
			c.SoftReplicas = 2
		}
		if c.SoftReplicaTTL <= 0 {
			c.SoftReplicaTTL = 30 * time.Second
		}
	}
}

// softCopy is one soft-replicated entry held on behalf of a hot key's
// owner.
type softCopy struct {
	df     int64
	list   *postings.List
	expire time.Time
	epoch  uint64 // holder's ring epoch at install
}

// hotKeyState is the per-index soft-replication state. The holder side
// (copies) works without any configuration — every peer can hold soft
// copies, whatever its own knobs — while the promoter side (threshold,
// replicas, ttl) is armed by EnableHotKeyPath.
type hotKeyState struct {
	threshold float64
	replicas  int
	ttl       time.Duration

	mu        sync.Mutex
	copies    map[string]*softCopy
	announced map[string]time.Time // suppresses re-announce within ttl/2

	announcedN atomic.Int64
	servedN    atomic.Int64
	expiredN   atomic.Int64

	clock func() time.Time // test seam; nil = time.Now
}

func (h *hotKeyState) now() time.Time {
	if h.clock != nil {
		return h.clock()
	}
	return time.Now()
}

// install stores one announced copy, evicting the earliest-expiring
// copy (key order on ties) past the bound.
func (h *hotKeyState) install(key string, df int64, list *postings.List, ttl time.Duration, epoch uint64) {
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.copies == nil {
		h.copies = make(map[string]*softCopy)
	}
	if _, ok := h.copies[key]; !ok && len(h.copies) >= maxSoftCopies {
		victim := ""
		var vexp time.Time
		for k, c := range h.copies {
			if victim == "" || c.expire.Before(vexp) || (c.expire.Equal(vexp) && k < victim) {
				victim, vexp = k, c.expire
			}
		}
		delete(h.copies, victim)
		h.expiredN.Add(1)
	}
	h.copies[key] = &softCopy{df: df, list: list, expire: now.Add(ttl), epoch: epoch}
}

// getPrefix serves a chunk from a live soft copy, mirroring the store's
// GetPrefix slice semantics over the copy's canonical-order list. A
// copy that expired — by TTL or because the holder's ring epoch moved —
// is dropped and reported as absent. No probe is recorded and
// WantIndex is never raised: a soft copy is cache, not index state.
func (h *hotKeyState) getPrefix(key string, offset, limit int, epoch uint64) (PrefixResult, bool) {
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.copies[key]
	if !ok {
		return PrefixResult{}, false
	}
	if now.After(c.expire) || c.epoch != epoch {
		delete(h.copies, key)
		h.expiredN.Add(1)
		return PrefixResult{}, false
	}
	res := PrefixResult{Total: c.list.Len(), Truncated: c.list.Truncated, Found: true}
	if offset < 0 {
		offset = 0
	}
	if offset >= c.list.Len() {
		return res, true
	}
	end := c.list.Len()
	if limit > 0 && limit < end-offset {
		end = offset + limit
	}
	res.Entries = append([]postings.Posting(nil), c.list.Entries[offset:end]...)
	return res, true
}

// shouldAnnounce gates re-announcement: a key announced within half its
// TTL is skipped, so a steady-hot key refreshes its copies around
// expiry instead of re-shipping its list on every sweep.
func (h *hotKeyState) shouldAnnounce(key string, now time.Time) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if at, ok := h.announced[key]; ok && now.Sub(at) < h.ttl/2 {
		return false
	}
	return true
}

func (h *hotKeyState) markAnnounced(key string, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.announced == nil {
		h.announced = make(map[string]time.Time)
	}
	if _, ok := h.announced[key]; !ok && len(h.announced) >= maxAnnounceMarks {
		for k, at := range h.announced {
			if now.Sub(at) >= h.ttl/2 {
				delete(h.announced, k)
			}
		}
		// Every mark still fresh: evict the oldest (key order on ties)
		// so the bound holds even when the simultaneously-hot key set
		// outgrows the table. Losing a mark only costs an early
		// re-announce, never correctness.
		for len(h.announced) >= maxAnnounceMarks {
			victim := ""
			var vat time.Time
			for k, at := range h.announced {
				if victim == "" || at.Before(vat) || (at.Equal(vat) && k < victim) {
					victim, vat = k, at
				}
			}
			delete(h.announced, victim)
		}
	}
	h.announced[key] = now
}

// sweep drops every dead copy (TTL or epoch) and returns how many.
func (h *hotKeyState) sweep(epoch uint64) int {
	now := h.now()
	h.mu.Lock()
	defer h.mu.Unlock()
	dropped := 0
	for k, c := range h.copies {
		if now.After(c.expire) || c.epoch != epoch {
			delete(h.copies, k)
			dropped++
		}
	}
	h.expiredN.Add(int64(dropped))
	return dropped
}

// SoftReplicaStats is the cumulative soft-replication counter snapshot,
// exported as the alvis_softreplica_* telemetry families.
type SoftReplicaStats struct {
	Announced int64 // copies this peer pushed and had accepted
	Served    int64 // soft-copy chunks this peer served to readers
	Expired   int64 // copies dropped by TTL, epoch change, or eviction
}

// SoftReplicaStats returns the index's soft-replication counters.
func (ix *Index) SoftReplicaStats() SoftReplicaStats {
	return SoftReplicaStats{
		Announced: ix.hot.announcedN.Load(),
		Served:    ix.hot.servedN.Load(),
		Expired:   ix.hot.expiredN.Load(),
	}
}

// PrefixCacheStats returns the posting-prefix cache counters (zeros when
// the cache is disabled — the telemetry vocabulary stays identical).
func (ix *Index) PrefixCacheStats() readcache.Stats {
	return ix.pcache.CounterStats()
}

// SoftCopyCount returns how many live soft copies this peer currently
// holds for others (tests and monitoring).
func (ix *Index) SoftCopyCount() int {
	ix.hot.mu.Lock()
	defer ix.hot.mu.Unlock()
	return len(ix.hot.copies)
}

// EnableHotKeyPath arms the hot-key read path: the client-side
// posting-prefix cache (consulted by read-session opens and filled back
// by them and by refined sessions), the per-key popularity tracker,
// and — with a positive threshold — popularity-triggered soft
// replication. Like EnableReplication it must be called before the node
// joins a network: a prefix cache registers a ring-change callback so
// churn invalidates eagerly, not only on next touch. Holder-side
// handlers are always live regardless of this call — any peer can hold
// and serve soft copies for others.
func (ix *Index) EnableHotKeyPath(cfg HotKeyConfig) {
	cfg.fillDefaults()
	ix.hotRate = loadstat.NewKeyRate(cfg.HalfLife, 0, nil)
	if cfg.PrefixCache > 0 {
		ix.pcache = readcache.New(cfg.PrefixCache, cfg.PrefixCacheTTL)
		ix.node.OnRingChange(func(dht.RingChange) { ix.pcache.Clear() })
	}
	if cfg.HotThreshold > 0 {
		ix.hot.threshold = cfg.HotThreshold
		ix.hot.replicas = cfg.SoftReplicas
		ix.hot.ttl = cfg.SoftReplicaTTL
	}
}

// observeRead folds one key read into the popularity tracker (no-op
// while the hot-key path is disarmed).
func (ix *Index) observeRead(key string) {
	if ix.hotRate != nil {
		ix.hotRate.Observe(key)
	}
}

// hotScore returns key's decayed read count (0 while disarmed).
func (ix *Index) hotScore(key string) float64 {
	if ix.hotRate == nil {
		return 0
	}
	return ix.hotRate.Score(key)
}

// softTargets resolves where key's soft copies live (or should live):
// the live owners of the derived placement points hash(key+"\x00soft"+i),
// skipping the primary. The derivation is computable identically by the
// announcing owner and by any reader — no directory is needed — and a
// reader that derives a peer holding no copy just gets an RPC error its
// hedge escalates past. Lookups go through the caching resolver, so the
// repeat reads that make a key hot resolve its placement for free.
func (ix *Index) softTargets(ctx context.Context, key string, primary transport.Addr) []transport.Addr {
	want := ix.hot.replicas
	if want <= 0 {
		return nil
	}
	hashes := make([]ids.ID, want+softTargetSlack)
	for i := range hashes {
		hashes[i] = ids.HashString(key + "\x00soft" + strconv.Itoa(i))
	}
	owners, err := ix.resolver.Resolve(ctx, hashes)
	if err != nil {
		return nil
	}
	seen := map[transport.Addr]bool{primary: true}
	var out []transport.Addr
	for _, o := range owners {
		if len(out) >= want {
			break
		}
		if o.IsZero() || seen[o.Addr] {
			continue
		}
		seen[o.Addr] = true
		out = append(out, o.Addr)
	}
	return out
}

// PromoteHotKeys runs one promotion sweep: every owned, stored key
// whose decayed read count is at or above the threshold (hottest first,
// bounded per sweep) has its entry pushed to its soft-placement peers.
// Announces are best effort, like write-through replication: a dead
// target drops its cached route and the key simply spreads less until
// the next sweep. It returns the number of keys promoted. A no-op until
// EnableHotKeyPath armed a positive threshold.
func (ix *Index) PromoteHotKeys(ctx context.Context) int {
	if ix.hotRate == nil || ix.hot.threshold <= 0 {
		return 0
	}
	sweepStart := ix.hot.now()
	promoted := 0
	self := ix.node.Self().Addr
	for _, key := range ix.hotRate.Hot(ix.hot.threshold) {
		if promoted >= maxPromotionsPerSweep {
			break
		}
		if !ix.node.Responsible(ids.HashString(key)) {
			continue // only the owner announces: its copy is authoritative
		}
		if !ix.hot.shouldAnnounce(key, sweepStart) {
			continue
		}
		list, shares, ok := ix.store.Export(key)
		if !ok || withdrawn(list, shares) {
			continue
		}
		targets := ix.softTargets(ctx, key, self)
		if len(targets) == 0 {
			continue
		}
		body := encodeSoftAnnounce(key, ix.hot.ttl, sumDF(shares), list)
		for _, t := range targets {
			_, resp, err := ix.node.Endpoint().Call(ctx, t, MsgSoftAnnounce, body)
			if errors.Is(err, transport.ErrUnreachable) {
				// The derived placement route is stale: drop it so the
				// next sweep re-resolves. The announce itself stays best
				// effort — readers escalate past a missing copy.
				ix.resolver.Invalidate(t)
				continue
			}
			if err != nil {
				continue
			}
			if r := wire.NewReader(resp); r.Bool() && r.Err() == nil {
				ix.hot.announcedN.Add(1)
			}
		}
		ix.hot.markAnnounced(key, sweepStart)
		promoted++
	}
	return promoted
}

// ExpireSoftCopies drops every soft copy dead by TTL or ring epoch and
// returns how many were dropped. Expiry is also applied lazily on every
// soft read; this sweep exists for maintenance loops and tests.
func (ix *Index) ExpireSoftCopies() int {
	return ix.hot.sweep(ix.node.RingEpoch())
}

func encodeSoftAnnounce(key string, ttl time.Duration, df int64, list *postings.List) []byte {
	w := wire.NewWriter(64 + 12*list.Len())
	w.String(key)
	w.Uvarint(uint64(ttl / time.Second))
	w.Uvarint(uint64(df))
	list.Encode(w)
	return append([]byte(nil), w.Bytes()...)
}

func (ix *Index) handleSoftAnnounce(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	key := r.String()
	ttlSec := r.Uvarint()
	df := int64(r.Uvarint())
	list, err := postings.Decode(r, nil)
	if err != nil {
		return 0, nil, err
	}
	if list.Len() > HardCap {
		return 0, nil, wire.ErrCorrupt
	}
	ttl := time.Duration(ttlSec) * time.Second
	if ttl <= 0 {
		ttl = time.Second
	}
	if ttl > maxSoftTTL {
		ttl = maxSoftTTL
	}
	ix.hot.install(key, df, list, ttl, ix.node.RingEpoch())
	w := wire.NewWriter(2)
	w.Bool(true)
	return MsgSoftAnnounce, w.Bytes(), nil
}

// SoftCopyKeys lists the keys this peer currently holds soft copies of,
// sorted (tests and the monitoring UI).
func (ix *Index) SoftCopyKeys() []string {
	ix.hot.mu.Lock()
	out := make([]string, 0, len(ix.hot.copies))
	for k := range ix.hot.copies {
		out = append(out, k)
	}
	ix.hot.mu.Unlock()
	sort.Strings(out)
	return out
}

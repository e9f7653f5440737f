// Package qdi implements Query-Driven Indexing (Skobeltsyn, Luu, Podnar
// Žarko, Rajman, Aberer — Infoscale 2007 / SIGIR 2007, references [8,9]
// of the AlvisP2P paper): the strategy that populates the distributed
// index "only with frequently queried and non-redundant term
// combinations", performing indexing in parallel with retrieval.
//
// Division of labour (paper §2):
//
//   - the peer *responsible* for a key monitors its query popularity
//     (decentralized statistics: the global-index read handler reports
//     every probe to this layer's hook, which counts it in a decayed
//     per-key tracker) and, when a missing key crosses the popularity
//     threshold, asks the next querying peer to index it (the wantIndex
//     flag on the read answer);
//   - the *querying* peer, which has just explored the query lattice and
//     ranked the union, checks that the key is non-redundant (no
//     untruncated indexed sub-combination already answers it exactly)
//     and ships its own ranked result as the key's bounded posting list
//     (on-demand indexing: "the peer responsible for this key acquires a
//     new posting list containing a bounded number of top-ranked
//     document references");
//   - obsolete keys are removed when their decayed popularity falls
//     below the eviction threshold, keeping the index adapted to the
//     current query distribution.
package qdi

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/globalindex"
	"repro/internal/ids"
	"repro/internal/lattice"
	"repro/internal/loadstat"
	"repro/internal/postings"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Message types for the QDI protocol (range 0x30–0x3F).
const (
	// MsgActivate carries an on-demand-indexed posting list to the
	// responsible peer: (key, list) -> stored length.
	MsgActivate uint8 = 0x30
)

// Config are the QDI parameters.
type Config struct {
	// ActivateThreshold is the decayed probe count at which a missing
	// multi-term key requests on-demand indexing (default 3).
	ActivateThreshold float64
	// EvictThreshold is the decayed probe count at or below which an
	// activated key is removed during maintenance (default 0.5).
	EvictThreshold float64
	// DecayFactor multiplies popularity counts at each maintenance tick
	// (default 0.5).
	DecayFactor float64
	// TruncK bounds acquired posting lists (default 500).
	TruncK int
}

// FillDefaults replaces zero fields with defaults.
func (c *Config) FillDefaults() {
	if c.ActivateThreshold == 0 {
		c.ActivateThreshold = 3
	}
	if c.EvictThreshold == 0 {
		c.EvictThreshold = 0.5
	}
	if c.DecayFactor == 0 {
		c.DecayFactor = 0.5
	}
	if c.TruncK == 0 {
		c.TruncK = 500
	}
}

// Manager is one peer's QDI component.
type Manager struct {
	cfg  Config
	gidx *globalindex.Index

	// probes holds the decayed probe count of the keys this peer served,
	// present or absent. Its clock is ticks, so one MaintenanceTick ages
	// every count by DecayFactor.
	probes  *loadstat.KeyRate
	ticks   atomic.Int64
	enabled atomic.Bool

	mu    sync.Mutex
	owned map[string]bool // QDI-activated keys stored at this peer
}

// New creates the component, registers its RPC handler on d and installs
// its probe hook on the peer's global index. It must run before the node
// serves (see Index.SetProbeHook). The manager starts enabled.
func New(cfg Config, gidx *globalindex.Index, d *transport.Dispatcher) *Manager {
	cfg.FillDefaults()
	m := &Manager{cfg: cfg, gidx: gidx, owned: make(map[string]bool)}
	m.enabled.Store(true)
	m.probes = loadstat.NewKeyRate(tickHalfLife(cfg.DecayFactor), 0, m.tickTime)
	d.Handle(MsgActivate, m.handleActivate)
	gidx.SetProbeHook(m.observeProbe)
	return m
}

// tickSpan is the time one maintenance tick advances the probe tracker's
// clock by. The half-life is a whole number of nanoseconds, so a longer
// span rounds the per-tick factor less; a minute keeps it within 1e-11
// of DecayFactor, and the clock's durations overflow only after 150
// million ticks.
const tickSpan = time.Minute

// tickTime is the probe tracker's clock.
func (m *Manager) tickTime() time.Time {
	return time.Unix(m.ticks.Load()*int64(tickSpan/time.Second), 0)
}

// tickHalfLife is the half-life under which one tick multiplies a count
// by factor. A factor of 1 or more never decays.
func tickHalfLife(factor float64) time.Duration {
	if factor >= 1 {
		return math.MaxInt64
	}
	return time.Duration(float64(tickSpan) / -math.Log2(factor))
}

// observeProbe is the index's probe hook: it counts every probe, also
// while activation is off, so toggling QDI on finds current statistics.
// While enabled it asks for a missing multi-term key to be indexed once
// its count reaches ActivateThreshold; single terms belong to the base
// index.
func (m *Manager) observeProbe(key string, found bool) (wantIndex bool) {
	count := m.probes.Observe(key)
	return !found && m.enabled.Load() && strings.Contains(key, " ") && count >= m.cfg.ActivateThreshold
}

// TrackedKeys returns the number of keys whose probe counts are held.
func (m *Manager) TrackedKeys() int { return m.probes.Len() }

// SetEnabled switches query-driven activation on or off — the demo's
// live HDK/QDI toggle. Already activated keys stay until evicted.
func (m *Manager) SetEnabled(enabled bool) { m.enabled.Store(enabled) }

// handleActivate stores an acquired list under its key. Like every owner
// write it is refused unless this node is responsible for the key: a
// stale or hostile activation would otherwise strand the key where no
// lookup finds it.
func (m *Manager) handleActivate(_ context.Context, _ transport.Addr, _ uint8, body []byte) (uint8, []byte, error) {
	r := wire.NewReader(body)
	key := r.String()
	list, err := postings.Decode(r, nil)
	if err != nil {
		return 0, nil, err
	}
	if !m.gidx.Node().Responsible(ids.HashString(key)) {
		return 0, nil, fmt.Errorf("qdi: not responsible for %q", key)
	}
	n := m.gidx.Store().Put(key, list, m.cfg.TruncK)
	m.mu.Lock()
	m.owned[key] = true
	m.mu.Unlock()
	w := wire.NewWriter(8)
	w.Uvarint(uint64(n))
	return MsgActivate, w.Bytes(), nil
}

// Activate sends an acquired posting list for a key to its responsible
// peer, completing the on-demand indexing of that key.
func (m *Manager) Activate(ctx context.Context, terms []string, list *postings.List) error {
	key := ids.KeyString(terms)
	peer, _, err := m.gidx.Node().Lookup(ctx, ids.HashString(key))
	if err != nil {
		return fmt.Errorf("qdi: activate %q: %w", key, err)
	}
	w := wire.NewWriter(64 + 12*list.Len())
	w.String(key)
	list.Encode(w)
	if _, _, err := m.gidx.Node().Endpoint().Call(ctx, peer.Addr, MsgActivate, w.Bytes()); err != nil {
		return fmt.Errorf("qdi: activate %q at %s: %w", key, peer.Addr, err)
	}
	return nil
}

// OwnedKeys returns the QDI-activated keys currently stored at this peer.
func (m *Manager) OwnedKeys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.owned))
	for k := range m.owned {
		out = append(out, k)
	}
	return out
}

// MaintenanceTick ages the popularity statistics by one tick and evicts
// activated keys that have gone cold, returning how many were removed.
// Peers run it periodically (the simulator after every workload slice,
// the real peer on a timer).
func (m *Manager) MaintenanceTick() int {
	m.ticks.Add(1)
	store := m.gidx.Store()
	evicted := 0
	m.mu.Lock()
	ownedKeys := make([]string, 0, len(m.owned))
	for k := range m.owned {
		ownedKeys = append(ownedKeys, k)
	}
	m.mu.Unlock()
	for _, key := range ownedKeys {
		if m.probes.Score(key) <= m.cfg.EvictThreshold {
			if store.Remove(key) {
				evicted++
			}
			m.mu.Lock()
			delete(m.owned, key)
			m.mu.Unlock()
		}
	}
	return evicted
}

// ProcessQuery performs the querying peer's side of on-demand indexing
// after it has explored the lattice and ranked the union for queryTerms.
// If the responsible peer flagged the *query's own* term combination for
// activation (wantIndex) and no untruncated indexed sub-combination
// already answers it exactly (redundancy), the querying peer ships its
// top-ranked result list — exactly the paper's "posting list containing
// a bounded number of top-ranked document references" — to the
// responsible peer. Sub-combinations flagged as popular activate when
// they are themselves queried. It returns 1 if the key was activated.
func (m *Manager) ProcessQuery(ctx context.Context, queryTerms []string, trace *lattice.Trace, wantIndex map[string]bool, ranked *postings.List) (int, error) {
	if len(queryTerms) < 2 || ranked == nil || ranked.Len() == 0 {
		return 0, nil
	}
	key := ids.KeyString(queryTerms)
	if !wantIndex[key] {
		return 0, nil
	}
	// Redundancy: an untruncated hit whose terms are a subset of the
	// query answers it exactly; indexing the query would waste space
	// (the paper indexes only "non-redundant term combinations").
	var untruncated [][]string
	for _, p := range trace.Probed {
		if p.Found && !p.Truncated {
			untruncated = append(untruncated, p.Terms)
		}
	}
	if coveredBy(strings.Fields(key), untruncated) {
		return 0, nil
	}
	list := ranked.Clone()
	if list.Len() > m.cfg.TruncK {
		list.Entries = list.Entries[:m.cfg.TruncK]
	}
	// An acquired list is a bounded approximation of the query's full
	// answer by construction.
	list.Truncated = true
	if err := m.Activate(ctx, queryTerms, list); err != nil {
		return 0, err
	}
	return 1, nil
}

// coveredBy reports whether some untruncated key's terms form a subset of
// terms.
func coveredBy(terms []string, untruncated [][]string) bool {
	set := make(map[string]bool, len(terms))
	for _, t := range terms {
		set[t] = true
	}
	for _, u := range untruncated {
		all := true
		for _, t := range u {
			if !set[t] {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

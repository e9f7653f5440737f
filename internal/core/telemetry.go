package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/readcache"
	"repro/internal/telemetry"
)

// This file assembles a peer's telemetry registry: every counter the
// simulation experiments read programmatically (admission control,
// storage gauges, replication transfer counts, per-peer latency EWMAs,
// transport meters) registered under one stable metric vocabulary. The
// registry is built identically for every transport — an in-memory sim
// peer and a real TCP process expose the same family names, which the
// cluster harness asserts by comparing a sim peer's Names() against a
// scraped /metrics page.

// searchCounters are the peer-side search outcome counters; they only
// exist at this layer (the per-call layers report through QueryTrace),
// so the telemetry registry owns them.
type searchCounters struct {
	searches atomic.Int64 // every Search call that passed admission
	partial  atomic.Int64 // searches that returned partial results
	failed   atomic.Int64 // searches that returned an error
	probes   atomic.Int64 // lattice probes issued across all searches
}

// Telemetry returns the peer's metric registry — serve it over HTTP with
// Registry.Serve, or read it in-process with Gather/Names (what the sim
// experiments and the vocabulary-parity test do).
func (p *Peer) Telemetry() *telemetry.Registry { return p.tel }

// meteredEndpoint is the optional transport surface exposing traffic
// counters; both the TCP endpoint and Mem endpoints implement it.
type meteredEndpoint interface {
	Meter() *metrics.Meter
}

// walSized is the optional engine surface reporting the write-ahead-log
// size; the durable internal/storage engine implements it.
type walSized interface {
	WALSize() int64
}

// buildTelemetry registers every metric family the peer exports. All
// families are registered unconditionally — a family with nothing to
// report yet still shows its HELP/TYPE header, so the exported
// vocabulary is identical across peers, transports and lifetimes.
func (p *Peer) buildTelemetry() *telemetry.Registry {
	r := telemetry.NewRegistry()

	var meter *metrics.Meter
	if me, ok := p.node.Endpoint().(meteredEndpoint); ok {
		meter = me.Meter()
	}
	r.RegisterCounter("alvis_transport_messages_total",
		"messages received by this peer's endpoint, by frame type",
		func(emit func(float64, ...telemetry.Label)) {
			if meter == nil {
				return
			}
			for t, tc := range meter.Snapshot().PerType {
				emit(float64(tc.Messages), telemetry.L("type", fmt.Sprintf("0x%02x", t)))
			}
		})
	r.RegisterCounter("alvis_transport_bytes_total",
		"payload bytes received by this peer's endpoint, by frame type",
		func(emit func(float64, ...telemetry.Label)) {
			if meter == nil {
				return
			}
			for t, tc := range meter.Snapshot().PerType {
				emit(float64(tc.Bytes), telemetry.L("type", fmt.Sprintf("0x%02x", t)))
			}
		})

	r.RegisterGauge("alvis_admission_inflight",
		"request handlers currently executing",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.disp.Inflight()))
		})
	r.RegisterCounter("alvis_admission_sheds_total",
		"whole requests refused by admission control before any work",
		func(emit func(float64, ...telemetry.Label)) {
			sheds, _ := p.disp.AdmissionStats()
			emit(float64(sheds))
		})
	r.RegisterCounter("alvis_admission_late_executed_total",
		"requests executed although their propagated deadline had expired",
		func(emit func(float64, ...telemetry.Label)) {
			_, late := p.disp.AdmissionStats()
			emit(float64(late))
		})

	store := p.gidx.Store()
	r.RegisterGauge("alvis_index_keys",
		"keys in this peer's slice of the global index",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(store.Stats().Keys))
		})
	r.RegisterGauge("alvis_index_postings",
		"postings stored across this peer's keys",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(store.Stats().Postings))
		})
	r.RegisterGauge("alvis_index_bytes",
		"wire-encoded bytes of all stored posting lists",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(store.Stats().Bytes))
		})
	r.RegisterGauge("alvis_index_tracked_keys",
		"keys whose probe counts QDI tracks for activation and eviction",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.qdiMgr.TrackedKeys()))
		})

	r.RegisterCounter("alvis_index_topk_rounds_total",
		"continuation rounds issued by streamed top-k read sessions",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.TopKStats().Rounds))
		})
	r.RegisterCounter("alvis_index_topk_early_terminations_total",
		"streamed top-k sessions ended by the threshold test with unread tail remaining",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.TopKStats().EarlyTerminations))
		})
	r.RegisterCounter("alvis_index_topk_bytes_saved_total",
		"estimated bytes of stored posting tails streamed reads never shipped",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.TopKStats().BytesSaved))
		})
	r.RegisterCounter("alvis_index_hedges_launched_total",
		"hedged-read attempts fired because the hedge delay passed without an answer",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.TopKStats().HedgesLaunched))
		})
	r.RegisterCounter("alvis_index_hedges_won_total",
		"hedged reads answered by an attempt the hedge delay fired",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.TopKStats().HedgesWon))
		})

	r.RegisterGauge("alvis_storage_recovered",
		"1 when the storage engine restored state from disk at open",
		func(emit func(float64, ...telemetry.Label)) {
			if store.Recovered() {
				emit(1)
			} else {
				emit(0)
			}
		})
	r.RegisterGauge("alvis_storage_wal_bytes",
		"bytes in the storage engine's write-ahead log (0 for memory engines)",
		func(emit func(float64, ...telemetry.Label)) {
			if ws, ok := store.(walSized); ok {
				emit(float64(ws.WALSize()))
			} else {
				emit(0)
			}
		})

	r.RegisterGauge("alvis_replication_factor",
		"configured replication factor R",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.ReplicationFactor()))
		})
	r.RegisterCounter("alvis_rejoin_manifest_keys_total",
		"manifest (key, fingerprint) pairs this peer's range pulls compared",
		func(emit func(float64, ...telemetry.Label)) {
			manifest, _ := p.gidx.PullTransferCounts()
			emit(float64(manifest))
		})
	r.RegisterCounter("alvis_rejoin_pulled_keys_total",
		"keys this peer pulled while joining or repairing replicas",
		func(emit func(float64, ...telemetry.Label)) {
			_, pulled := p.gidx.PullTransferCounts()
			emit(float64(pulled))
		})

	r.RegisterGauge("alvis_remote_latency_ewma_seconds",
		"per-remote-peer round-trip latency EWMA observed by the read path",
		func(emit func(float64, ...telemetry.Label)) {
			for addr, d := range p.gidx.LatencySnapshot() {
				emit(d.Seconds(), telemetry.L("peer", string(addr)))
			}
		})

	r.RegisterCounter("alvis_search_total",
		"searches started on this peer",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.scount.searches.Load()))
		})
	r.RegisterCounter("alvis_search_partial_total",
		"searches that returned partial results (deadline or cancellation)",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.scount.partial.Load()))
		})
	r.RegisterCounter("alvis_search_failed_total",
		"searches that returned an error",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.scount.failed.Load()))
		})
	r.RegisterCounter("alvis_search_probes_total",
		"lattice probes issued across all searches",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.scount.probes.Load()))
		})

	// Hot-key read path: both client caches report under one family per
	// verb, labelled by cache. Registered unconditionally — with the
	// caches off every series reads 0 and the vocabulary stays identical.
	emitCaches := func(emit func(float64, ...telemetry.Label), pick func(readcache.Stats) int64) {
		emit(float64(pick(p.rcache.CounterStats())), telemetry.L("cache", "result"))
		emit(float64(pick(p.gidx.PrefixCacheStats())), telemetry.L("cache", "prefix"))
	}
	r.RegisterCounter("alvis_readcache_hits_total",
		"reads served from a client-side cache (result sets and posting prefixes)",
		func(emit func(float64, ...telemetry.Label)) {
			emitCaches(emit, func(s readcache.Stats) int64 { return s.Hits })
		})
	r.RegisterCounter("alvis_readcache_misses_total",
		"client-side cache consults that went to the network",
		func(emit func(float64, ...telemetry.Label)) {
			emitCaches(emit, func(s readcache.Stats) int64 { return s.Misses })
		})
	r.RegisterCounter("alvis_readcache_evictions_total",
		"client-side cache entries evicted by the capacity bound",
		func(emit func(float64, ...telemetry.Label)) {
			emitCaches(emit, func(s readcache.Stats) int64 { return s.Evictions })
		})
	r.RegisterCounter("alvis_readcache_invalidations_total",
		"client-side cache entries dropped by writes, TTL, or ring changes",
		func(emit func(float64, ...telemetry.Label)) {
			emitCaches(emit, func(s readcache.Stats) int64 { return s.Invalidations })
		})

	r.RegisterCounter("alvis_softreplica_announced_total",
		"soft-replica announces accepted by placement peers for this owner's hot keys",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.SoftReplicaStats().Announced))
		})
	r.RegisterCounter("alvis_softreplica_served_total",
		"streamed chunks this peer served from soft copies it holds",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.SoftReplicaStats().Served))
		})
	r.RegisterCounter("alvis_softreplica_expired_total",
		"soft copies dropped by TTL, ring-epoch change, or holder eviction",
		func(emit func(float64, ...telemetry.Label)) {
			emit(float64(p.gidx.SoftReplicaStats().Expired))
		})

	return r
}

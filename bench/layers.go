package main

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dht"
	"repro/internal/ids"
	"repro/internal/lattice"
	"repro/internal/localindex"
	"repro/internal/postings"
	"repro/internal/textproc"
	"repro/internal/transport"
)

// phaseBaseline is the traced run's untraced open-loop pass: the same
// ring and traffic with recording off, so that tracing's own cost on the
// median can be stated.
const phaseBaseline = "baseline"

// procDelta is what the process spent over an interval.
type procDelta struct {
	allocBytes, allocs float64
	gcPauseMs          float64
}

func readProc() procDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procDelta{float64(m.TotalAlloc), float64(m.Mallocs), float64(m.PauseTotalNs) / 1e6}
}

func (p procDelta) sub(q procDelta) procDelta {
	return procDelta{p.allocBytes - q.allocBytes, p.allocs - q.allocs, p.gcPauseMs - q.gcPauseMs}
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that does not exist).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// counters sums every peer's telemetry counters, keyed by family name
// and, where a family has them, its label values.
func (r *ring) counters() map[string]float64 {
	out := make(map[string]float64)
	for _, p := range r.peers {
		for _, fam := range p.Telemetry().Gather() {
			for _, s := range fam.Samples {
				key := fam.Name
				for _, l := range s.Labels {
					key += "," + l.Name + "=" + l.Value
				}
				out[key] += s.Value
			}
		}
	}
	return out
}

func subCounters(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// layerProbes makes the isolated calls into single layers' public
// functions, on data lifted from this run: the stored posting lists, the
// corpus, the query pool. Traced run only.
func (rn *runner) layerProbes(ctx context.Context) map[string]float64 {
	if rn.tr == nil {
		return nil
	}
	out := make(map[string]float64)
	rn.probePostings(out)
	rn.probeText(out)
	rn.probeLattice(ctx, out)
	probeDHT(ctx, out)
	return out
}

// probePostings runs the compressed codec over stored lists.
func (rn *runner) probePostings(out map[string]float64) {
	var lists []*postings.List
peers:
	for _, p := range rn.ring.peers {
		store := p.GlobalIndex().Store()
		for _, key := range store.Keys() {
			if l, ok := store.Peek(key); ok && l.Len() > 0 {
				lists = append(lists, l)
			}
			if len(lists) == 4000 {
				break peers
			}
		}
	}
	if len(lists) == 0 {
		return
	}
	var encodedBytes, rawBytes, nPostings float64
	encoded := make([][]byte, len(lists))
	start := time.Now()
	for i, l := range lists {
		encoded[i] = l.EncodeBytesCompressed()
	}
	encodeS := time.Since(start).Seconds()
	for i, l := range lists {
		encodedBytes += float64(len(encoded[i]))
		rawBytes += float64(l.EncodedSize())
		nPostings += float64(l.Len())
	}
	start = time.Now()
	for _, b := range encoded {
		if _, err := postings.DecodeBytes(b); err != nil {
			return
		}
	}
	decodeS := time.Since(start).Seconds()
	i := 0
	allocs := testing.AllocsPerRun(len(encoded)-1, func() {
		_, _ = postings.DecodeBytes(encoded[i%len(encoded)])
		i++
	})
	out["postings.encode_mb_s"] = ratio(rawBytes/1e6, encodeS)
	out["postings.decode_mb_s"] = ratio(rawBytes/1e6, decodeS)
	out["postings.decode_allocs_per_list"] = allocs
	out["postings.compressed_bytes_per_posting"] = ratio(encodedBytes, nPostings)
}

// probeText runs the analyzer and the local engine over the corpus and
// the pool.
func (rn *runner) probeText(out map[string]float64) {
	docsOf := rn.in.corpus.Docs
	var tokens float64
	start := time.Now()
	for _, d := range docsOf {
		tokens += float64(len(textproc.Default.Tokens(d.Body)))
	}
	out["textproc.tokens_per_s"] = ratio(tokens, time.Since(start).Seconds())

	ix := localindex.New(nil)
	start = time.Now()
	for i, d := range docsOf {
		ix.Add(uint32(i), d.Title+"\n"+d.Body)
	}
	out["localindex.add_docs_per_s"] = ratio(float64(len(docsOf)), time.Since(start).Seconds())

	qs := sample(len(rn.in.pool), 400)
	start = time.Now()
	for _, qi := range qs {
		ix.Search(rn.in.pool[qi].Text(), 10)
	}
	out["localindex.search_us"] = ratio(float64(time.Since(start).Microseconds()), float64(len(qs)))
}

// probeLattice explores the pool's three-term queries over a stub
// fetcher that finds every single term and nothing larger: the
// lattice's own bookkeeping, no index behind it.
func (rn *runner) probeLattice(ctx context.Context, out map[string]float64) {
	one := &postings.List{Entries: []postings.Posting{{Ref: postings.DocRef{Peer: "stub", Doc: 1}, Score: 1}}}
	stub := lattice.FetchFunc(func(_ context.Context, terms []string, _ int) (*postings.List, bool, error) {
		if len(terms) == 1 {
			return one, true, nil
		}
		return nil, false, nil
	})
	var n int
	start := time.Now()
	for rep := 0; rep < 20; rep++ {
		for _, q := range rn.in.pool {
			if len(q.Terms) != 3 {
				continue
			}
			if _, _, err := lattice.Explore(ctx, stub, q.Terms, lattice.Config{PruneTruncated: true}); err != nil {
				return
			}
			n++
		}
	}
	out["lattice.explore_us"] = ratio(float64(time.Since(start).Microseconds()), float64(n))
}

// probeDHT routes lookups across a 1024-node ring with oracle-built
// tables on the in-memory transport: ring-scale routing, which the
// 8-peer fixture cannot show.
func probeDHT(ctx context.Context, out map[string]float64) {
	const nodes, lookups = 1024, 2000
	net := transport.NewMem()
	rng := rand.New(rand.NewSource(1))
	ring := make([]*dht.Node, nodes)
	for i := range ring {
		d := transport.NewDispatcher()
		ep := net.Endpoint(fmt.Sprintf("n%04d", i), d.Serve)
		ring[i] = dht.NewNode(ids.ID(rng.Uint64()), ep, d, dht.Options{})
	}
	dht.BuildOracleTables(ring)
	var hops float64
	start := time.Now()
	for i := 0; i < lookups; i++ {
		_, h, err := ring[rng.Intn(nodes)].Lookup(ctx, ids.ID(rng.Uint64()))
		if err != nil {
			return
		}
		hops += float64(h)
	}
	out["dht.lookup_us_1k"] = float64(time.Since(start).Microseconds()) / lookups
	out["dht.lookup_hops_1k"] = hops / lookups
	for _, n := range ring {
		_ = n.Endpoint().Close()
	}
}

// perLayerNames lists every per-layer metric, in BENCHMARK.json's order.
// A traced run reports each of them; one that does not apply to the
// workload reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"core.search_self_ms_per_query", "ms"},
	{"core.merge_ms_per_query", "ms"},
	{"core.present_ms_per_query", "ms"},
	{"lattice.probes_per_query", "count"},
	{"lattice.probe_ms_per_query", "ms"},
	{"lattice.explore_us", "us"},
	{"dht.resolve_ms_per_query", "ms"},
	{"dht.lookup_hops_1k", "count"},
	{"dht.lookup_us_1k", "us"},
	{"globalindex.client_ms_per_query", "ms"},
	{"globalindex.hedge_attempts_per_query", "count"},
	{"globalindex.serve_ms_per_query", "ms"},
	{"globalindex.serve_ms_per_doc", "ms"},
	{"globalindex.topk_rounds_per_query", "count"},
	{"globalindex.topk_early_term_frac", "fraction"},
	{"globalindex.topk_bytes_saved_per_query", "B"},
	{"globalindex.softreplica_served_frac", "fraction"},
	{"globalindex.softreplica_announced", "count"},
	{"globalindex.repl_frames_per_doc", "count"},
	{"globalindex.repl_bytes_per_doc", "B"},
	{"readcache.result_hit_frac", "fraction"},
	{"readcache.prefix_hit_frac", "fraction"},
	{"readcache.evictions_per_query", "count"},
	{"readcache.invalidations_per_publish", "count"},
	{"transport.calls_per_query", "count"},
	{"transport.bytes_per_frame", "B"},
	{"transport.call_ms_p50", "ms"},
	{"transport.call_ms_p99", "ms"},
	{"transport.wire_self_ms_per_query", "ms"},
	{"transport.calls_per_doc", "count"},
	{"transport.wire_self_ms_per_doc", "ms"},
	{"postings.encode_mb_s", "MB/s"},
	{"postings.decode_mb_s", "MB/s"},
	{"postings.decode_allocs_per_list", "count"},
	{"postings.compressed_bytes_per_posting", "B"},
	{"storage.append_us_p50", "us"},
	{"storage.append_us_p99", "us"},
	{"storage.put_us_p50", "us"},
	{"storage.getprefix_us_p50", "us"},
	{"storage.getprefix_us_p99", "us"},
	{"storage.appends_per_doc", "count"},
	{"storage.appends_per_query", "count"},
	{"storage.wal_bytes_per_index_byte", "ratio"},
	{"storage.recover_ms", "ms"},
	{"hdk.keys_per_doc", "count"},
	{"hdk.postings_per_doc", "count"},
	{"hdk.publish_self_ms_per_doc", "ms"},
	{"ranking.stats_ms_per_doc", "ms"},
	{"ranking.frames_per_query", "count"},
	{"textproc.tokens_per_s", "1/s"},
	{"localindex.add_docs_per_s", "docs/s"},
	{"localindex.search_us", "us"},
	{"proc.alloc_bytes_per_query", "B"},
	{"proc.allocs_per_query", "count"},
	{"proc.alloc_bytes_per_doc", "B"},
	{"proc.gc_pause_ms", "ms"},
	{"proc.peak_rss_mb", "MB"},
	{"bench.open_p95_ms", "ms"},
	{"bench.open_p99_ms", "ms"},
	{"bench.publish_batch_ms_p50", "ms"},
	{"bench.publish_batch_ms_p95", "ms"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
}

// perLayer assembles the traced run's per-layer metrics from the spans,
// the decorators' counts, the program's telemetry deltas, the process
// statistics and the isolated probes.
func (rn *runner) perLayer(g gates, probes map[string]float64) map[string]metric {
	tr := rn.tr
	vals := probes
	queries := float64(rn.readQueries)
	docsN := float64(rn.docsWritten)
	batches := float64(rn.writes.attempted)

	// Spans: time by name, self time where children are subtracted.
	self := selfTimes(tr.spans)
	durMs := make(map[string]float64)
	selfMs := make(map[string]float64)
	count := make(map[string]float64)
	for _, s := range tr.spans {
		durMs[s.Name] += float64(s.End-s.Start) / 1e6
		selfMs[s.Name] += float64(self[s.ID]) / 1e6
		count[s.Name]++
	}
	sampled := count["query"] // the queries whose spans were kept
	vals["core.search_self_ms_per_query"] = ratio(selfMs["search"], sampled)
	vals["core.merge_ms_per_query"] = ratio(durMs["merge"], sampled)
	vals["core.present_ms_per_query"] = ratio(durMs["present"], sampled)
	vals["lattice.probe_ms_per_query"] = ratio(selfMs["probe"], sampled)
	vals["dht.resolve_ms_per_query"] = ratio(durMs["resolve"], sampled)
	vals["globalindex.client_ms_per_query"] = ratio(durMs["hedge"]+selfMs["topk-refine"], sampled)
	vals["globalindex.hedge_attempts_per_query"] = ratio(count["attempt"], sampled)
	vals["hdk.publish_self_ms_per_doc"] = ratio(selfMs["PublishIndex"], docsN)

	// Decorators: remote calls by operation kind and message type.
	sumTypes := func(stats *[256]typeStats, keep func(uint8) bool) (n, msTotal float64) {
		for t := range stats {
			if keep(uint8(t)) {
				n += float64(stats[t].count.Load())
				msTotal += float64(stats[t].ns.Load()) / 1e6
			}
		}
		return n, msTotal
	}
	every := func(uint8) bool { return true }
	isGlobalIndex := func(t uint8) bool { return layerOfType(t) == layerGlobalIndex }
	isRanking := func(t uint8) bool { return layerOfType(t) == layerRanking }
	isRepl := func(t uint8) bool { return t >= 0x20 && t <= 0x26 }
	isSearch := func(t uint8) bool { return !isPublishType(t) && !isPresentType(t) }

	qCalls, qCallMs := sumTypes(&tr.client[kindQuery], every)
	pCalls, pCallMs := sumTypes(&tr.client[kindPublish], every)
	_, servedSearchMs := sumTypes(&tr.served, func(t uint8) bool { return !isPublishType(t) })
	_, servedPublishMs := sumTypes(&tr.served, isPublishType)
	vals["transport.calls_per_query"] = ratio(qCalls, queries)
	vals["transport.calls_per_doc"] = ratio(pCalls, docsN)
	vals["transport.wire_self_ms_per_query"] = ratio(qCallMs-servedSearchMs, queries)
	vals["transport.wire_self_ms_per_doc"] = ratio(pCallMs-servedPublishMs, docsN)
	vals["transport.bytes_per_frame"] = ratio(rn.searchBytes, rn.searchFrames)
	if calls := tr.callNs[kindQuery].values(1e6); len(calls) > 0 {
		vals["transport.call_ms_p50"] = percentile(calls, 50)
		vals["transport.call_ms_p99"] = percentile(calls, 99)
	}
	_, giSearchMs := sumTypes(&tr.served, func(t uint8) bool { return isGlobalIndex(t) && isSearch(t) })
	_, giPublishMs := sumTypes(&tr.served, func(t uint8) bool { return isGlobalIndex(t) && isPublishType(t) })
	vals["globalindex.serve_ms_per_query"] = ratio(giSearchMs, queries)
	vals["globalindex.serve_ms_per_doc"] = ratio(giPublishMs, docsN)
	replFrames, _ := sumTypes(&tr.client[kindPublish], isRepl)
	vals["globalindex.repl_frames_per_doc"] = ratio(replFrames, docsN)
	vals["globalindex.repl_bytes_per_doc"] = ratio(rn.replBytes, docsN)
	_, statsMs := sumTypes(&tr.client[kindPublish], isRanking)
	rankFrames, _ := sumTypes(&tr.client[kindQuery], isRanking)
	vals["ranking.stats_ms_per_doc"] = ratio(statsMs, docsN)
	vals["ranking.frames_per_query"] = ratio(rankFrames, queries)

	// Storage engine decorator.
	if d := tr.engine["Append"]; d != nil {
		us := d.values(1e3)
		vals["storage.append_us_p50"], vals["storage.append_us_p99"] = percentile(us, 50), percentile(us, 99)
	}
	if d := tr.engine["Put"]; d != nil {
		vals["storage.put_us_p50"] = percentile(d.values(1e3), 50)
	}
	if d := tr.engine["GetPrefix"]; d != nil {
		us := d.values(1e3)
		vals["storage.getprefix_us_p50"], vals["storage.getprefix_us_p99"] = percentile(us, 50), percentile(us, 99)
	}
	mutations := func(phases ...string) (n float64) {
		for _, ph := range phases {
			for _, m := range []string{"Append", "Put", "AdoptReplica", "Remove"} {
				n += float64(tr.engineByPh[ph][m])
			}
		}
		return n
	}
	if rn.sp.paced {
		vals["storage.appends_per_doc"] = ratio(mutations(phaseOpen), docsN)
		vals["storage.appends_per_query"] = ratio(mutations(phaseOpen, phaseClosed), queries)
	} else {
		vals["storage.appends_per_doc"] = ratio(mutations(phaseWrite), docsN)
		vals["storage.appends_per_query"] = ratio(mutations(phaseOpen, phaseClosed), queries)
	}
	var indexBytes float64
	for _, p := range rn.ring.peers {
		indexBytes += float64(p.GlobalIndex().Store().Stats().Bytes)
	}
	vals["storage.wal_bytes_per_index_byte"] = ratio(float64(tr.walWritten.Load()), indexBytes)
	vals["storage.recover_ms"] = g.recoverMs

	// The program's own counters, over the read phases and over the run.
	rd, all := rn.readCounters, rn.allCounters
	searches := rd["alvis_search_total"]
	vals["lattice.probes_per_query"] = ratio(rd["alvis_search_probes_total"], searches)
	vals["globalindex.topk_rounds_per_query"] = ratio(rd["alvis_index_topk_rounds_total"], searches)
	vals["globalindex.topk_early_term_frac"] = ratio(rd["alvis_index_topk_early_terminations_total"], searches)
	vals["globalindex.topk_bytes_saved_per_query"] = ratio(rd["alvis_index_topk_bytes_saved_total"], searches)
	streamed, _ := sumTypes(&tr.served, func(t uint8) bool { return t >= 0x1c && t <= 0x1e || t == 0x27 })
	vals["globalindex.softreplica_served_frac"] = ratio(rd["alvis_softreplica_served_total"], streamed)
	vals["globalindex.softreplica_announced"] = all["alvis_softreplica_announced_total"]
	hitFrac := func(cache string) float64 {
		hits := rd["alvis_readcache_hits_total,cache="+cache]
		return ratio(hits, hits+rd["alvis_readcache_misses_total,cache="+cache])
	}
	vals["readcache.result_hit_frac"] = hitFrac("result")
	vals["readcache.prefix_hit_frac"] = hitFrac("prefix")
	vals["readcache.evictions_per_query"] = ratio(rd["alvis_readcache_evictions_total,cache=result"]+rd["alvis_readcache_evictions_total,cache=prefix"], searches)
	vals["readcache.invalidations_per_publish"] = ratio(all["alvis_readcache_invalidations_total,cache=result"]+all["alvis_readcache_invalidations_total,cache=prefix"], batches)

	vals["hdk.keys_per_doc"] = ratio(float64(rn.published.KeysPublished), docsN)
	vals["hdk.postings_per_doc"] = ratio(float64(rn.published.PostingsPublished), docsN)

	// Process statistics by phase.
	closed, write := rn.phaseStats[phaseClosed], rn.phaseStats[phaseWrite]
	if rn.sp.paced {
		write = rn.phaseStats[phaseOpen]
	}
	vals["proc.alloc_bytes_per_query"] = ratio(closed.allocBytes, float64(rn.closed.attempted))
	vals["proc.allocs_per_query"] = ratio(closed.allocs, float64(rn.closed.attempted))
	vals["proc.alloc_bytes_per_doc"] = ratio(write.allocBytes, docsN)
	for _, ph := range rn.phaseStats {
		vals["proc.gc_pause_ms"] += ph.gcPauseMs
	}
	vals["proc.peak_rss_mb"] = peakRSSMB()

	// The tails too unsteady between runs to bound end to end.
	if lat := sorted(rn.open.latMs); len(lat) > 0 {
		vals["bench.open_p95_ms"], vals["bench.open_p99_ms"] = percentile(lat, 95), percentile(lat, 99)
	}
	if lat := sorted(rn.writes.latMs); len(lat) > 0 {
		vals["bench.publish_batch_ms_p50"], vals["bench.publish_batch_ms_p95"] = percentile(lat, 50), percentile(lat, 95)
	}

	// Validity guards.
	vals["bench.gen_late_ms_p99"] = percentile(sorted(rn.open.lateMs), 99)
	if base := median(rn.baseline.latMs); base > 0 {
		vals["bench.trace_overhead_frac"] = (median(rn.open.latMs) - base) / base
	}

	out := make(map[string]metric, len(perLayerNames))
	for _, m := range perLayerNames {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

package main

import (
	"context"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/hdk"
	"repro/internal/metrics"
)

// The timed phases. The read phases' names also seed their query streams.
const (
	phaseOpen   = "open"
	phaseClosed = "closed"
	phaseWrite  = "write"
)

// spec is one workload: the traffic it sends to the one fixture.
type spec struct {
	name string
	why  string

	prePublished int  // documents indexed during set-up (full scale)
	pool         int  // distinct queries
	zipf         bool // draw zipf(1.0) over the pool, else uniformly

	// openShare is the share of --seconds given to the open-loop read
	// phase; the closed-loop phase takes closedShare on every workload and
	// the write phase what its fixed work takes.
	openShare float64

	// writeRate sizes the write schedule: batches per second of
	// --seconds. Unpaced, the batches run back to back as fixed work
	// before the reads; paced, they run open loop beside the open-loop
	// reads, spread evenly over that phase.
	writeRate   float64
	paced       bool
	removeEvery int // every n-th batch first withdraws an earlier document
}

// closedShare is the share of --seconds every workload's closed-loop
// phase runs for.
const closedShare = 0.55

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// openRate is the open-loop query rate, all frontends together: about
// an eighth of what two closed-loop clients sustain on the uniform pool
// on the reference box, so queries rarely queue.
const openRate = 300

var workloads = []spec{
	{
		name:         "search_zipf",
		why:          "400 docs; zipf(1.0) reads over 200 distinct queries, open loop 300/s then 2 closed-loop clients: the working set fits the caches, so readcache and soft replicas do the work",
		prePublished: 400, pool: 200, zipf: true,
		openShare: 0.45, writeRate: 1.2,
	},
	{
		name:         "search_uniform",
		why:          "400 docs; the same phases drawn uniformly from 4000 distinct queries, far more than the caches hold: every query walks lattice, top-k client, TCP frames, codec and merge",
		prePublished: 400, pool: 4000, zipf: false,
		openShare: 0.45, writeRate: 1.2,
	},
	{
		name:         "publish_durable",
		why:          "80 docs; one writer adds 360 more to the WAL-backed ring in 72 batches, then reads them back: textproc, hdk, write-through replication and storage compaction dominate",
		prePublished: 80, pool: 200, zipf: true,
		openShare: 0.3, writeRate: 3.6,
	},
	{
		name:         "mixed_rw",
		why:          "240 docs; zipf reads at 300/s beside a writer adding 5 docs every 500 ms and withdrawing some: cache invalidation, store lock contention, replication traffic competing with queries",
		prePublished: 240, pool: 200, zipf: true,
		openShare: 0.75, writeRate: 1.5, paced: true, removeEvery: 6,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range workloads {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scale sizes the fixture: full is what BENCHMARK.json measures, smoke
// is the test suite's quick pass over the same code.
type scale struct {
	peers   int
	maxDocs int // cap on pre-published documents
	maxPool int // cap on distinct queries
	sample  int // queries checked in the untimed reference pass
}

var (
	fullScale  = scale{peers: 8, maxDocs: 1 << 30, maxPool: 1 << 30, sample: 400}
	smokeScale = scale{peers: 4, maxDocs: 120, maxPool: 300, sample: 60}
)

// batchDocs is the number of documents one write batch adds.
const batchDocs = 5

func (sc scale) prePublished(sp spec) int { return min(sp.prePublished, sc.maxDocs) }
func (sc scale) pool(sp spec) int         { return min(sp.pool, sc.maxPool) }

func (sp spec) writeBatches(sc scale, seconds float64) int {
	return max(sc.peers+2, int(math.Round(sp.writeRate*seconds)))
}

// opStats collects one phase's operations of one kind.
type opStats struct {
	latMs     []float64 // successful operations only
	lateMs    []float64 // open loop: how long after its due time each was sent
	serviceMs float64   // summed time spent inside operations
	attempted int
	failed    int
	elapsed   time.Duration
	doneS     []float64 // closed loop: when each operation completed, in seconds from the phase's start
}

func (a *opStats) merge(b opStats) {
	a.latMs = append(a.latMs, b.latMs...)
	a.lateMs = append(a.lateMs, b.lateMs...)
	a.doneS = append(a.doneS, b.doneS...)
	a.serviceMs += b.serviceMs
	a.attempted += b.attempted
	a.failed += b.failed
	if b.elapsed > a.elapsed {
		a.elapsed = b.elapsed
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// runner drives one workload over one ring.
type runner struct {
	sp   spec
	sc   scale
	in   *inputs
	ring *ring
	tr   *tracer

	open, closed, writes opStats
	published            hdk.Result
	docsWritten          int

	// Wire bytes by message class, accumulated over the timed phases.
	searchBytes, publishBytes float64
	searchFrames, replBytes   float64
	diskRatios                []float64
	readQueries               int

	// Traced run only.
	phaseStats                map[string]procDelta
	baseline                  opStats            // untraced open-loop pass before the traced one
	readCounters, allCounters map[string]float64 // telemetry deltas over the read phases, over all timed phases
}

// search sends pool query qi through frontend f and reports success. A
// failed or partial answer counts as failed.
func (rn *runner) search(ctx context.Context, f, qi, seq int) bool {
	ctx, op := rn.tr.begin(ctx, "query", seq)
	resp, err := rn.ring.peers[f].Search(ctx, rn.in.pool[qi].Text(), searchOpts(op.traced())...)
	op.finish(resp)
	return err == nil && resp != nil && !resp.Partial
}

// pace blocks until due or ctx ends, and reports whether due was reached.
func pace(ctx context.Context, timer *time.Timer, due time.Time) bool {
	wait := time.Until(due)
	if wait <= 0 {
		return ctx.Err() == nil
	}
	timer.Reset(wait)
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		timer.Stop()
		return false
	}
}

// newTimer returns a stopped, drained timer for pace.
func newTimer() *time.Timer {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return t
}

// openLoop sends n operations, one every interval starting at start,
// regardless of how long each takes, and times each from the moment it
// was due: a stall shows up in every operation queued behind it. Only
// when the generator was idle at the due time and merely woke late (the
// runtime's timers are a millisecond coarse on an idle process) is the
// operation timed from when it was sent: that lateness is the
// generator's, and is reported on its own.
func openLoop(ctx context.Context, start time.Time, interval time.Duration, n int, do func(i int) bool) opStats {
	var st opStats
	timer := newTimer()
	var prevDone time.Time
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !pace(ctx, timer, due) {
			break
		}
		sent := time.Now()
		from := due
		if !prevDone.After(due) {
			from = sent
		}
		ok := do(i)
		done := time.Now()
		prevDone = done
		st.attempted++
		st.lateMs = append(st.lateMs, ms(sent.Sub(due)))
		st.serviceMs += ms(done.Sub(sent))
		if ok {
			st.latMs = append(st.latMs, ms(done.Sub(from)))
		} else {
			st.failed++
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// closedLoop repeats do back to back, from start, for as long as next,
// called before each operation and outside its timing, says to go on.
func closedLoop(ctx context.Context, start time.Time, next func(i int) bool, do func(i int) bool) opStats {
	var st opStats
	for i := 0; next(i) && ctx.Err() == nil; i++ {
		sent := time.Now()
		ok := do(i)
		took := time.Since(sent)
		st.attempted++
		st.serviceMs += ms(took)
		if ok {
			st.latMs = append(st.latMs, ms(took))
			st.doneS = append(st.doneS, time.Since(start).Seconds())
		} else {
			st.failed++
		}
	}
	st.elapsed = time.Since(start)
	return st
}

// perFrontend runs one generator goroutine per frontend and merges what
// they measured.
func perFrontend(run func(f int) opStats) opStats {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all opStats
	)
	for f := 0; f < frontends; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			st := run(f)
			mu.Lock()
			all.merge(st)
			mu.Unlock()
		}(f)
	}
	wg.Wait()
	return all
}

// readOpen is the open-loop read phase: openRate queries per second,
// split over the frontends, their schedules offset so they interleave.
func (rn *runner) readOpen(ctx context.Context, dur time.Duration, streamName string) opStats {
	interval := time.Second * frontends / openRate
	n := int(dur / interval)
	start := time.Now().Add(time.Millisecond)
	return perFrontend(func(f int) opStats {
		next := rn.in.stream(f, streamName)
		offset := time.Duration(f) * interval / frontends
		return openLoop(ctx, start.Add(offset), interval, n, func(i int) bool {
			return rn.search(ctx, f, next(), i)
		})
	})
}

// readClosed is the closed-loop read phase: one client per frontend,
// each sending its next query when the previous one returns.
func (rn *runner) readClosed(ctx context.Context, dur time.Duration) opStats {
	start := time.Now()
	return perFrontend(func(f int) opStats {
		next := rn.in.stream(f, phaseClosed)
		return closedLoop(ctx, start, func(int) bool { return time.Since(start) < dur }, func(i int) bool {
			return rn.search(ctx, f, next(), i)
		})
	})
}

// writeBatch applies one batch: an optional withdrawal, the additions,
// one PublishIndex.
func (rn *runner) writeBatch(ctx context.Context, wb writeBatch) bool {
	ctx, op := rn.tr.begin(ctx, "publish_batch", 0)
	defer op.finish(nil)
	if wb.remove >= 0 {
		if err := rn.ring.removeDoc(ctx, wb.remove, wb.peer); err != nil {
			return false
		}
	}
	for _, di := range wb.docs {
		if _, err := rn.ring.addDoc(rn.in.corpus, di, wb.peer); err != nil {
			return false
		}
	}
	pctx, pub := rn.tr.child(ctx, "PublishIndex", layerHDK)
	res, err := rn.ring.peers[wb.peer].PublishIndex(pctx)
	pub.finish(nil)
	if err != nil {
		return false
	}
	rn.published.KeysPublished += res.KeysPublished
	rn.published.PostingsPublished += res.PostingsPublished
	rn.docsWritten += len(wb.docs)
	return true
}

// sampleDisk records the ring's disk bytes per index byte. Each peer's
// log grows to CompactBytes and is then folded into its snapshot, so the
// ratio saws between compactions; the reported metric is the mean of a
// sample per round of back-to-back write batches and one after the last
// timed phase.
func (rn *runner) sampleDisk() {
	if disk, err := rn.ring.diskRatio(); err == nil {
		rn.diskRatios = append(rn.diskRatios, disk)
	}
}

// sustainedRate is the throughput of a closed-loop phase of length dur:
// the 75th percentile, over quarter-second slices, of the operations
// completed per second. What slows a slice is one-sided and comes in
// spells: when the load steps up from the open loop's 300 queries/s, keys
// turn hot and their owners push soft replicas for several seconds; a
// stalled peer stops both clients for a whole slice; and on the reference
// box the cost of waking a thread on the other processor shifts level
// every few seconds. The upper quartile is what the ring sustains between
// those spells; over ten seeds it spread 0.08-0.14 where the median of
// the phase's second half spread 0.10-0.22.
func sustainedRate(doneS []float64, dur time.Duration) float64 {
	const slice = 0.25
	counts := make([]float64, int(dur.Seconds()/slice))
	for _, t := range doneS {
		if i := int(t / slice); i < len(counts) {
			counts[i]++
		}
	}
	if len(counts) == 0 {
		return 0
	}
	return percentile(sorted(counts), 75) / slice
}

// writeAll runs the whole write schedule from one writer: back to back,
// or, paced, one batch per interval timed from its due time.
func (rn *runner) writeAll(ctx context.Context, paced time.Duration) opStats {
	do := func(i int) bool { return rn.writeBatch(ctx, rn.in.writes[i]) }
	n := len(rn.in.writes)
	if paced > 0 {
		return openLoop(ctx, time.Now().Add(time.Millisecond), paced/time.Duration(n), n, do)
	}
	return closedLoop(ctx, time.Now(), func(i int) bool {
		if i > 0 && i%rn.sc.peers == 0 {
			rn.sampleDisk() // once per round over the peers, between batches
		}
		return i < n
	}, do)
}

// Message-type classes for wire accounting: what publishing sends, what
// presenting results sends (titles and snippets from the hosting peers,
// which the paper's retrieval cost excludes), and the rest, which is
// what searching sends.
func isPublishType(t uint8) bool {
	switch {
	case t == 0x10 || t == 0x11 || t == 0x13 || t == 0x15 || t == 0x16 || t == 0x17 || t == 0x19:
		return true
	case t >= 0x20 && t <= 0x26:
		return true
	case t >= 0x40 && t <= 0x4f:
		return true
	}
	return false
}

func isPresentType(t uint8) bool { return t >= 0x50 && t <= 0x5f }

// wire sums every peer's TCP meter. A frame is metered by its sender and
// its receiver, both in this process, so the totals count it twice and
// the accounting halves them.
func (r *ring) wire() metrics.Snapshot {
	total := metrics.Snapshot{PerType: make(map[uint8]metrics.TypeCount)}
	for _, ep := range r.eps {
		s := ep.Meter().Snapshot()
		for t, c := range s.PerType {
			tc := total.PerType[t]
			tc.Messages += c.Messages
			tc.Bytes += c.Bytes
			total.PerType[t] = tc
		}
	}
	return total
}

// timed runs one timed phase and books the wire bytes it moved: the
// search class when the phase reads, the publish class when it writes.
func (rn *runner) timed(name string, reads, writes bool, phase func()) {
	runtime.GC() // every phase starts from a collected heap, not wherever the last one left the collector
	before := rn.ring.wire()
	procBefore := readProc()
	rn.tr.phase(name)
	phase()
	rn.tr.phase("")
	rn.phaseStats[name] = readProc().sub(procBefore)
	for t, c := range rn.ring.wire().Sub(before).PerType {
		switch {
		case isPresentType(t):
		case isPublishType(t):
			if writes {
				rn.publishBytes += float64(c.Bytes) / 2
				if t >= 0x20 && t <= 0x26 {
					rn.replBytes += float64(c.Bytes) / 2
				}
			}
		case reads:
			rn.searchBytes += float64(c.Bytes) / 2
			rn.searchFrames += float64(c.Messages) / 2
		}
	}
}

// setUp opens a ring under dataRoot and indexes the pre-published
// documents; it is everything a run pays before it can serve traffic.
func setUp(ctx context.Context, sp spec, sc scale, in *inputs, dataRoot string, tr *tracer) (*ring, time.Duration, error) {
	start := time.Now()
	r, err := openRing(ctx, sc.peers, dataRoot, tr)
	if err != nil {
		return nil, 0, err
	}
	if err := r.prePublish(ctx, in.corpus, sc.prePublished(sp)); err != nil {
		_ = r.close()
		return nil, 0, err
	}
	return r, time.Since(start), nil
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// outDir is where a run keeps its data directories and trace files,
// relative to the checkout root the benchmark is started from.
var outDir = "bench/out"

// result is what one run of one workload reports.
type result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	Notes     []string
}

// runWorkload runs one workload once. Untraced, it reports the
// end-to-end metrics; traced, the same traffic runs with the decorators
// installed and it reports the per-layer metrics instead.
func runWorkload(ctx context.Context, sp spec, sc scale, seed int64, seconds float64, traced bool) (*result, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	in := makeInputs(sp, sc, seed, seconds)
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	dataRoot := filepath.Join(outDir, fmt.Sprintf("data-%d", os.Getpid()))
	defer os.RemoveAll(dataRoot)
	ring, setUpTook, err := setUp(ctx, sp, sc, in, dataRoot, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer ring.close() // for the error paths; closing a peer twice is harmless

	rn := &runner{sp: sp, sc: sc, in: in, ring: ring, tr: tr, phaseStats: make(map[string]procDelta)}
	openDur := time.Duration(sp.openShare * seconds * float64(time.Second))
	closedDur := time.Duration(closedShare * seconds * float64(time.Second))
	var countersAtStart, countersBeforeReads map[string]float64
	if traced {
		countersAtStart = ring.counters()
	}
	if !sp.paced {
		rn.timed(phaseWrite, false, true, func() { rn.writes = rn.writeAll(ctx, 0) })
	}
	if traced {
		tr.phase(phaseBaseline)
		rn.baseline = rn.readOpen(ctx, openDur*3/10, phaseBaseline)
		tr.phase("")
		countersBeforeReads = ring.counters()
	}
	rn.readPhases(ctx, openDur, closedDur)
	if traced {
		rn.readCounters = subCounters(ring.counters(), countersBeforeReads)
	}

	var g gates
	rn.referencePass(ctx, &g)
	if !sp.paced {
		// A cached answer may by design lag a concurrent remote write by
		// CacheTTL, so the check needs the writes to have ended before the
		// caches filled.
		rn.cacheGate(ctx, &g)
	}
	if traced {
		rn.allCounters = subCounters(ring.counters(), countersAtStart)
	}
	rn.sampleDisk()
	if err := rn.durabilityGate(dataRoot, &g); err != nil {
		return nil, err
	}
	layers := rn.layerProbes(ctx) // traced run only: isolated calls on data lifted from this ring
	if err := ring.close(); err != nil {
		return nil, fmt.Errorf("close ring: %w", err)
	}

	if len(rn.open.latMs) == 0 || len(rn.closed.doneS) == 0 || len(rn.writes.latMs) == 0 || len(rn.diskRatios) == 0 {
		return nil, fmt.Errorf("%s: a timed phase completed no operation", sp.name)
	}

	res := &result{
		Workload:  sp.name,
		Seed:      seed,
		Attempted: rn.open.attempted + rn.closed.attempted + rn.writes.attempted + g.checked,
		Failed:    rn.open.failed + rn.closed.failed + rn.writes.failed + g.failedQueries,
	}
	res.Correct = g.ok() && res.Failed == 0
	res.Notes = []string{
		fmt.Sprintf("inputs %s", in.digest()[:16]),
		fmt.Sprintf("open-loop reads: %s, sent late p99 %.3f ms", describeTiming(rn.open.latMs), percentile(sorted(rn.open.lateMs), 99)),
		fmt.Sprintf("closed-loop reads: %d in %.2f s", rn.closed.attempted, rn.closed.elapsed.Seconds()),
		fmt.Sprintf("write batches: %s, %d docs", describeTiming(rn.writes.latMs), rn.docsWritten),
		fmt.Sprintf("gates: %d reference queries (%d empty, %d failed), %d cache checks (%d mismatches), durability_lost_keys %d",
			g.checked, g.emptyAnswers, g.failedQueries, g.cacheChecked, g.cacheMismatches, g.lostKeys),
	}
	if traced {
		if err := tr.graftAll(); err != nil {
			return nil, err
		}
		res.Metrics = rn.perLayer(g, layers)
		path, err := tr.write(sp.name)
		if err != nil {
			return nil, err
		}
		res.Notes = append(res.Notes, "spans in "+path)
		return res, nil
	}

	res.Metrics = map[string]metric{
		"setup_s":                           {setUpTook.Seconds(), "s"},
		"search_p50_ms":                     {median(rn.open.latMs), "ms"},
		"search_qps":                        {sustainedRate(rn.closed.doneS, closedDur), "queries/s"},
		"search_wire_bytes_per_query":       {ratio(rn.searchBytes, float64(rn.open.attempted)), "B"},
		"search_overlap_at_10":              {g.overlap, "fraction"},
		"publish_docs_per_s":                {ratio(float64(rn.docsWritten), rn.writes.serviceMs/1000), "docs/s"},
		"publish_p50_ms":                    {median(rn.writes.latMs), "ms"},
		"publish_wire_bytes_per_doc":        {ratio(rn.publishBytes, float64(rn.docsWritten)), "B"},
		"storage_disk_bytes_per_index_byte": {mean(rn.diskRatios), "ratio"},
	}
	return res, nil
}

// readPhases runs the open-loop then the closed-loop read phase; a paced
// workload's writer runs beside the open loop.
func (rn *runner) readPhases(ctx context.Context, openDur, closedDur time.Duration) {
	rn.timed(phaseOpen, true, rn.sp.paced, func() {
		done := make(chan struct{})
		if rn.sp.paced {
			go func() {
				defer close(done)
				rn.writes = rn.writeAll(ctx, openDur)
			}()
		} else {
			close(done)
		}
		rn.open = rn.readOpen(ctx, openDur, phaseOpen)
		<-done
	})
	rn.timed(phaseClosed, false, false, func() { rn.closed = rn.readClosed(ctx, closedDur) })
	rn.readQueries = rn.open.attempted + rn.closed.attempted
}

package main

import (
	"context"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"

	"repro/internal/leakcheck"
)

// smokeSeconds is what the smoke runs measure for: long enough for every
// phase to complete operations, short enough for the suite.
const smokeSeconds = 0.5

func readDefinition(t *testing.T) benchmarkFile {
	t.Helper()
	var def benchmarkFile
	if err := readJSON("../BENCHMARK.json", &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// TestSmokeEveryWorkload runs all four workloads at smoke scale over
// real loopback TCP, untraced and traced, and requires every metric
// BENCHMARK.json names to come out under its name with its unit, every
// gate to pass, and every goroutine to be gone afterwards.
func TestSmokeEveryWorkload(t *testing.T) {
	defer leakcheck.Check(t)()
	def := readDefinition(t)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(def.Workloads), len(workloads))
	}
	outDir = t.TempDir()
	for i, w := range def.Workloads {
		sp, ok := findSpec(w.Name)
		if !ok || workloads[i].name != w.Name {
			t.Fatalf("workload %q of BENCHMARK.json is not workload %d of the code", w.Name, i)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), sp, smokeScale, 1, smokeSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d\n%v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not reported", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s in %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(outDir + "/trace_" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no span file: %v", w.Name, err)
				}
			}
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, sp := range workloads {
		a := makeInputs(sp, smokeScale, 7, 2)
		b := makeInputs(sp, smokeScale, 7, 2)
		c := makeInputs(sp, smokeScale, 8, 2)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave two different inputs", sp.name)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", sp.name)
		}
		if !reflect.DeepEqual(a.writes, c.writes) {
			t.Errorf("%s: the write schedule differs between seeds", sp.name)
		}
	}
}

// TestQueryBlockFollowsItsDistribution checks the block every stream
// cycles through: zipf(1.0) frequencies to the nearest whole number, each
// query at least once; uniform, each query exactly once.
func TestQueryBlockFollowsItsDistribution(t *testing.T) {
	const pool = 200
	var h float64
	for r := 1; r <= pool; r++ {
		h += 1 / float64(r)
	}
	count := make([]int, pool)
	block := queryBlock(pool, true)
	for _, q := range block {
		count[q]++
	}
	if len(block) != zipfBlockLen {
		t.Fatalf("zipf block holds %d queries, want %d", len(block), zipfBlockLen)
	}
	for q, n := range count {
		if exact := zipfBlockLen / (float64(q+1) * h); n < 1 || math.Abs(float64(n)-exact) >= 1 {
			t.Errorf("query %d appears %d times, zipf(1.0) gives %.2f", q, n, exact)
		}
	}
	uniform := queryBlock(pool, false)
	sort.Ints(uniform)
	for q := range uniform {
		if len(uniform) != pool || uniform[q] != q {
			t.Fatalf("uniform block is not each query once: %v", uniform)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p := percentile(xs, 50); p != 50 {
		t.Errorf("p50 of 1..100 = %v", p)
	}
	if p := percentile(xs, 99); p != 99 {
		t.Errorf("p99 of 1..100 = %v", p)
	}
	if p := percentile(xs[:1], 99); p != 1 {
		t.Errorf("p99 of one sample = %v", p)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // covers 10..40
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: adds 40..60
		{ID: 4, Parent: 1, Start: 90, End: 130}, // outlives the parent: adds 90..100
		{ID: 5, Parent: 2, Start: 10, End: 40},  // a grandchild covers its own parent only
	}
	self := selfTimes(spans)
	if self[1] != 40 {
		t.Errorf("parent self time = %d, want 100 - (30+20+10) = 40", self[1])
	}
	if self[2] != 0 || self[3] != 30 || self[5] != 30 {
		t.Errorf("self times %v", self)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundedMetric{Name: "search_p50_ms", Better: "lower", Bound: 0.10}
	higher := boundedMetric{Name: "search_qps", Better: "higher", Bound: 0.10}
	steady := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	noisy := func(m float64) summary { return summary{Median: m, Q1: m * 0.9, Q3: m * 1.1} }
	for _, c := range []struct {
		name       string
		m          boundedMetric
		base, cand summary
		want       string
	}{
		{"same", lower, steady(1), steady(1), verdictOK},
		{"slower within bound", lower, steady(1), steady(1.09), verdictOK},
		{"slower beyond bound", lower, steady(1), steady(1.2), verdictRegressed},
		{"faster", lower, steady(1), steady(0.5), verdictOK},
		{"fewer qps beyond bound", higher, steady(1000), steady(800), verdictRegressed},
		{"more qps", higher, steady(1000), steady(1500), verdictOK},
		{"too noisy to call", lower, noisy(1), steady(1.05), verdictUnresolved},
		{"noisy but plainly worse", lower, noisy(1), steady(1.5), verdictRegressed},
	} {
		if _, got := verdict(c.m, c.base, c.cand); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareRejectsMissingMetric: a run file that lacks a workload or a
// metric BENCHMARK.json names must not compare as "0 regressed".
func TestCompareRejectsMissingMetric(t *testing.T) {
	def := benchmarkFile{
		Workloads: []workloadDef{{Name: "search_zipf"}},
		EndToEnd:  []boundedMetric{{Name: "search_qps", Better: "higher", Bound: 0.1}},
	}
	full := &runFile{Workloads: map[string]*workloadReport{
		"search_zipf": {EndToEnd: map[string]summary{"search_qps": {Median: 1000, Q1: 990, Q3: 1010}}},
	}}
	if err := compareRuns(io.Discard, def, full, full); err != nil {
		t.Errorf("a file against itself: %v", err)
	}
	noMetric := &runFile{Workloads: map[string]*workloadReport{"search_zipf": {EndToEnd: map[string]summary{}}}}
	noWorkload := &runFile{Workloads: map[string]*workloadReport{}}
	for name, cand := range map[string]*runFile{"metric": noMetric, "workload": noWorkload} {
		if err := compareRuns(io.Discard, def, full, cand); err == nil {
			t.Errorf("candidate without the %s compared clean", name)
		}
	}
}

// TestDefinitionMatchesCode keeps BENCHMARK.json's names in step with
// what the code reports, without running anything.
func TestDefinitionMatchesCode(t *testing.T) {
	def := readDefinition(t)
	if len(def.PerLayer) != len(perLayerNames) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the code %d", len(def.PerLayer), len(perLayerNames))
	}
	for i, m := range def.PerLayer {
		if m.Name != perLayerNames[i].name || m.Unit != perLayerNames[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayerNames[i].name, perLayerNames[i].unit)
		}
	}
	for i, w := range def.Workloads {
		if w.Why != workloads[i].why {
			t.Errorf("%s: BENCHMARK.json's why differs from the code's", w.Name)
		}
	}
	if def.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, the code's default is %v", def.RunSeconds, defaultSeconds)
	}
}

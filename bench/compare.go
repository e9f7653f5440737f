package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// definitionPath is where compare finds the bounds, relative to the
// repository root it is started from.
const definitionPath = "BENCHMARK.json"

// benchmarkFile is BENCHMARK.json, as far as compare and the tests read it.
type benchmarkFile struct {
	RunSeconds float64         `json:"run_seconds"`
	Workloads  []workloadDef   `json:"workloads"`
	EndToEnd   []boundedMetric `json:"end_to_end"`
	PerLayer   []boundedMetric `json:"per_layer"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict applies one metric's bound to a baseline and a candidate
// summary. The candidate regressed when its median is worse than the
// baseline's by more than the bound; short of that, a comparison whose
// run-to-run spread exceeds the bound is unresolved, not unchanged.
func verdict(m boundedMetric, base, cand summary) (worse float64, v string) {
	if base.Median != 0 {
		worse = (cand.Median - base.Median) / base.Median
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > m.Bound:
		return worse, verdictRegressed
	case base.spread() > m.Bound || cand.spread() > m.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareCommand is `compare A.json B.json`.
func compareCommand(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare takes a baseline and a candidate run file\n%s", usage)
	}
	var def benchmarkFile
	var base, cand runFile
	if err := readJSON(definitionPath, &def); err != nil {
		return err
	}
	if err := readJSON(args[0], &base); err != nil {
		return err
	}
	if err := readJSON(args[1], &cand); err != nil {
		return err
	}
	return compareRuns(os.Stdout, def, &base, &cand)
}

// compareRuns prints one row per (workload, end-to-end metric) of two run
// files and fails when any regressed. A workload or metric that the
// definition names and either file lacks is an error, not a skipped row:
// a candidate that stopped reporting a metric has not passed.
func compareRuns(w io.Writer, def benchmarkFile, base, cand *runFile) error {
	counts := map[string]int{}
	fmt.Fprintf(w, "%-16s %-36s %14s %14s %9s %7s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	for _, wl := range def.Workloads {
		b, c := base.Workloads[wl.Name], cand.Workloads[wl.Name]
		if b == nil || c == nil {
			return fmt.Errorf("workload %s is missing from a run file", wl.Name)
		}
		for _, m := range def.EndToEnd {
			bs, okB := b.EndToEnd[m.Name]
			cs, okC := c.EndToEnd[m.Name]
			if !okB || !okC {
				return fmt.Errorf("%s @ %s is missing from a run file", m.Name, wl.Name)
			}
			worse, v := verdict(m, bs, cs)
			counts[v]++
			fmt.Fprintf(w, "%-16s %-36s %14.4f %14.4f %+8.1f%% %6.0f%%  %s\n", wl.Name, m.Name, bs.Median, cs.Median, 100*worse, 100*m.Bound, v)
		}
		if c.Failed > b.Failed {
			counts[verdictRegressed]++
			fmt.Fprintf(w, "%-16s %-36s %14d %14d %9s %7s  %s\n", wl.Name, "failed operations", b.Failed, c.Failed, "", "", verdictRegressed)
		}
	}
	fmt.Fprintf(w, "%d ok, %d regressed, %d unresolved\n", counts[verdictOK], counts[verdictRegressed], counts[verdictUnresolved])
	if counts[verdictRegressed] > 0 {
		return fmt.Errorf("%d metric(s) regressed beyond their bound", counts[verdictRegressed])
	}
	return nil
}

// Command alvisbench regenerates the experiment tables of EXPERIMENTS.md:
// every scalability and quality claim of the AlvisP2P paper, measured on
// the in-memory reproduction.
//
// Usage:
//
//	alvisbench                 # run every experiment at full scale
//	alvisbench -exp E1,E5      # run selected experiments
//	alvisbench -small          # reduced sizes (the test-suite scale)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

type experiment struct {
	id   string
	desc string
	run  func(sim.Scale) (*metrics.Table, error)
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (F1,E1..E14) or 'all'")
	small := flag.Bool("small", false, "run reduced configurations")
	flag.Parse()

	experiments := []experiment{
		{"F1", "Figure 1: lattice processing of query {a,b,c}", func(sim.Scale) (*metrics.Table, error) { return sim.RunF1() }},
		{"E1", "per-query traffic vs collection size (baseline vs HDK vs QDI)", sim.RunE1},
		{"E2", "HDK index storage vs DFmax and smax", sim.RunE2},
		{"E3", "retrieval quality vs centralized BM25", sim.RunE3},
		{"E4", "QDI adaptivity under a shifting workload", sim.RunE4},
		{"E5", "routing hops: network size, skew, finger policy", sim.RunE5},
		{"E6", "congestion control: goodput under load", sim.RunE6},
		{"E7", "lattice cost and precision by query length", sim.RunE7},
		{"E8", "distributed indexing cost", sim.RunE8},
		{"E9", "availability under churn: replication factor 1 vs 3", sim.RunE9},
		{"E10", "wasted-RPC reduction from per-query cancellation", sim.RunE10},
		{"E11", "admission control sheds + hedged replica-read tail latency", sim.RunE11},
		{"E12", "restart recovery: cold rejoin vs WAL/snapshot delta rejoin", sim.RunE12},
		{"E13", "bounded-chunk streamed top-k vs whole-list reads on the one read frame", sim.RunE13},
		{"E14", "hot-key caching + soft replication under zipfian reads", sim.RunE14},
	}

	scale := sim.ScaleFull
	if *small {
		scale = sim.ScaleSmall
	}

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	failed := false
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.id, e.desc)
		start := time.Now()
		tbl, err := e.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			failed = true
			continue
		}
		fmt.Println(tbl.String())
		fmt.Printf("(%s in %s)\n\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

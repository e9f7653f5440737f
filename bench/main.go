// Command bench is the repository's benchmark: four named workloads on
// an 8-peer ring over loopback TCP. See README.md.
//
// The benchmark is a driver: every query and publish it issues starts a
// fresh request lifetime, exactly like main does.
//
//alvislint:ctxroot-package benchmark driver; every operation it issues is a fresh root, like main
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
)

const usage = `usage, from the repository root:
  bash bench/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line last
  bash bench/run.sh run [-seed N] [-sets K] [-o FILE]                every workload end to end, K seeds each
  bash bench/run.sh trace [-seed N]                                  every workload traced, per-layer tables
  bash bench/run.sh compare A.json B.json                            apply BENCHMARK.json's bounds`

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	args := os.Args[1:]
	var err error
	switch {
	case len(args) == 0:
		err = fmt.Errorf("no arguments\n%s", usage)
	case args[0] == "run":
		err = runCommand(ctx, args[1:])
	case args[0] == "trace":
		err = traceCommand(ctx, args[1:])
	case args[0] == "compare":
		err = compareCommand(args[1:])
	default:
		err = contractCommand(ctx, args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs one workload once at full scale and prints its table. A
// run that fails a correctness gate is an error: no metrics are accepted.
func measure(ctx context.Context, sp spec, seed int64, seconds float64, traced bool) (*result, error) {
	res, err := runWorkload(ctx, sp, fullScale, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	if !res.Correct {
		printResult(os.Stderr, res)
		return nil, fmt.Errorf("%s: a correctness gate failed, no metrics accepted", res.Workload)
	}
	printResult(os.Stdout, res)
	return res, nil
}

// contractCommand is `--workload W --seed N --seconds S --trace 0|1`: one
// run of one workload, its table on stdout and, as the last line, one
// JSON object.
func contractCommand(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the traffic is drawn from")
	seconds := fs.Float64("seconds", defaultSeconds, "seconds one run measures")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q\n%s", fs.Arg(0), usage)
	}
	sp, ok := findSpec(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := measure(ctx, sp, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printResult(w *os.File, res *result) {
	fmt.Fprintf(w, "workload %s seed %d correct %v attempted %d failed %d\n", res.Workload, res.Seed, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-44s %16.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

// summary is one metric over the sets of a run file: what compare reads.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: unit, Median: median(values), Q1: q1, Q3: q3, Values: values}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.Q3-s.Q1, s.Median) }

// workloadReport is one workload's part of a run file.
type workloadReport struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
}

// runFile is what `run -o` writes and `compare` reads.
type runFile struct {
	Meta struct {
		NProc   int     `json:"nproc"`
		Go      string  `json:"go"`
		Commit  string  `json:"commit,omitempty"`
		Seed    int64   `json:"seed"`
		Sets    int     `json:"sets"`
		Seconds float64 `json:"seconds"`
	} `json:"meta"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// runCommand measures every workload end to end, -sets times on seeds
// seed, seed+1, …, and reports each metric's median and quartiles.
func runCommand(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first seed")
	sets := fs.Int("sets", 1, "sets of runs, each on the next seed")
	out := fs.String("o", "", "write the run file here")
	commit := fs.String("commit", "", "commit to record in the run file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var file runFile
	file.Meta.NProc, file.Meta.Go, file.Meta.Commit = runtime.NumCPU(), runtime.Version(), *commit
	file.Meta.Seed, file.Meta.Sets, file.Meta.Seconds = *seed, *sets, defaultSeconds
	file.Workloads = make(map[string]*workloadReport)
	for _, sp := range workloads {
		rep := &workloadReport{EndToEnd: make(map[string]summary)}
		values := make(map[string][]float64)
		units := make(map[string]string)
		for set := 0; set < *sets; set++ {
			res, err := measure(ctx, sp, *seed+int64(set), defaultSeconds, false)
			if err != nil {
				return err
			}
			rep.Attempted += res.Attempted
			rep.Failed += res.Failed
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		for n, vs := range values {
			rep.EndToEnd[n] = summarize(units[n], vs)
		}
		file.Workloads[sp.name] = rep
	}
	printSummary(&file)
	if *out == "" {
		return nil
	}
	b, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*out, append(b, '\n'), 0o644)
}

func printSummary(file *runFile) {
	fmt.Printf("\n%-16s %-36s %-10s %14s %14s %14s %8s\n", "workload", "metric", "unit", "median", "q1", "q3", "spread")
	for _, sp := range workloads {
		rep := file.Workloads[sp.name]
		names := make([]string, 0, len(rep.EndToEnd))
		for n := range rep.EndToEnd {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := rep.EndToEnd[n]
			fmt.Printf("%-16s %-36s %-10s %14.4f %14.4f %14.4f %8.4f\n", sp.name, n, s.Unit, s.Median, s.Q1, s.Q3, s.spread())
		}
		fmt.Printf("%-16s %-36s %-10s %14.6f   (%d failed of %d attempted)\n", sp.name, "failed_frac", "fraction",
			ratio(float64(rep.Failed), float64(rep.Attempted)), rep.Failed, rep.Attempted)
	}
}

// traceCommand is `--trace 1` over every workload: the same traffic with
// the decorators installed, span files under bench/out, per-layer tables.
func traceCommand(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the traffic is drawn from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, sp := range workloads {
		if _, err := measure(ctx, sp, *seed, defaultSeconds, true); err != nil {
			return err
		}
	}
	return nil
}

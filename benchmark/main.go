// Command benchmark measures every execution path of the plurality library
// end to end and layer by layer: the per-node engine on the clique and on a
// CSR graph, the count-collapsed engines, the networked node runtime and
// the pluralityd service. Each workload builds its inputs from -seed, runs
// a fixed list of runs or jobs repeatedly for -seconds, checks every output
// and reports medians over the repetitions.
//
// Run it from the repository root, through the script that builds it:
//
//	bash benchmark/run.sh [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-trace-out path] [-out path]
//
// Without -workload every workload runs, round-robin, in one process. With
// -trace 0 each workload prints its end-to-end metrics; with -trace 1 it
// prints its per-layer metrics, measured on repetitions that alternate
// with untraced ones, and writes the recorded spans to -trace-out. A traced
// run of one workload also probes every other workload at a small size, so
// it reports every per-layer metric.
//
// Every metric prints as one "workload metric value unit samples=n" line;
// the last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any run
// or job failed a check.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "the workload to measure; every workload when empty")
		seed     = flag.Uint64("seed", 1, "seed every input derives from")
		seconds  = flag.Float64("seconds", 0, "measure each workload for at least this long, and for at least three rounds (two with -trace 1)")
		trace    = flag.Int("trace", 0, "1 measures per-layer metrics on traced repetitions instead of end-to-end metrics")
		traceOut = flag.String("trace-out", filepath.Join("benchmark", "out", "trace.json"), "where -trace 1 writes its spans")
		out      = flag.String("out", "", "also write the results as JSON to this file")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, minRounds: 3, trace: *trace == 1, size: fullSize}
	if *workload != "" {
		cfg.workloads = []string{*workload}
	}
	if cfg.trace {
		// Each round runs an untraced and a traced repetition.
		cfg.minRounds = 2
	}
	results, tr, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if tr != nil {
		if err := tr.write(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing the trace:", err)
			os.Exit(1)
		}
	}
	if *out != "" {
		if err := writeResults(*out, cfg, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing the results:", err)
			os.Exit(1)
		}
	}
	if !printResults(os.Stdout, results, len(cfg.workloads) == 1) {
		os.Exit(1)
	}
}

// printResults prints one line per metric, a summary line per workload and
// the final JSON line, and reports whether every check passed. single
// selects the final line's metric names: bare for one workload,
// "workload/metric" otherwise.
func printResults(w io.Writer, results []result, single bool) bool {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range results {
		for _, m := range r.Metrics {
			fmt.Fprintf(w, "%s %s %s %s samples=%d\n", r.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit, m.Samples)
			name := m.Name
			if !single {
				name = r.Workload + "/" + m.Name
			}
			final.Metrics[name] = value{m.Value, m.Unit}
		}
		fmt.Fprintf(w, "# %s repetitions=%d attempted=%d failed=%d failed_fraction=%g\n",
			r.Workload, r.Reps, r.Attempted, len(r.Failures), float64(len(r.Failures))/float64(max(r.Attempted, 1)))
		for _, f := range r.Failures {
			fmt.Fprintf(w, "# %s FAILED %s\n", r.Workload, f)
		}
		final.Attempted += r.Attempted
		final.Failed += len(r.Failures)
	}
	final.Correct = final.Failed == 0
	blob, _ := json.Marshal(final) // run drops every value JSON cannot hold
	fmt.Fprintln(w, string(blob))
	return final.Correct
}

// writeResults stores the full results, with the run's settings, as JSON.
func writeResults(path string, cfg config, results []result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(struct {
		Seed      uint64   `json:"seed"`
		Seconds   float64  `json:"seconds"`
		Trace     bool     `json:"trace"`
		Go        string   `json:"go"`
		CPUs      int      `json:"gomaxprocs"`
		Workloads []result `json:"workloads"`
	}{cfg.seed, cfg.seconds, cfg.trace, runtime.Version(), runtime.GOMAXPROCS(0), results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// Command experiments is the driver for the declarative scenario/sweep
// engine (internal/exp) and for the paper-reproduction tables (e1 … e12).
//
// Named sweeps grid the scenario space (population size, edge latencies,
// churn, topologies), emit the schema-stable BENCH_exp JSON artifact
// family, run their statistical gates (e.g. the Θ(log n) slope check of
// Theorem 1.3) and optionally diff against a committed baseline within
// tolerance bands — the CI regression harness. See EXPERIMENTS.md.
//
// Examples:
//
//	experiments -sweep list
//	experiments -sweep logn-scaling -smoke
//	experiments -sweep all -smoke -out BENCH_exp.json -baseline BENCH_exp_baseline.json
//	experiments -list
//	experiments -run e6
//	experiments -run all -quick
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"plurality/internal/bench"
	"plurality/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		list  = fs.Bool("list", false, "list all experiments and exit")
		ids   = fs.String("run", "all", "comma-separated experiment IDs (e1..e12) or 'all'")
		quick = fs.Bool("quick", false, "use reduced parameter grids")
		seed  = fs.Uint64("seed", 1, "base random seed")

		sweep    = fs.String("sweep", "", "named sweep(s) to run: comma-separated names, 'all', or 'list'")
		smoke    = fs.Bool("smoke", false, "use the down-scaled smoke grids (CI size)")
		trials   = fs.Int("trials", 0, "override the per-cell trial count (0 = sweep default)")
		workers  = fs.Int("workers", 0, "worker goroutines for sweep cells (0 = GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "wall-clock budget for the sweep run; simulations are canceled mid-engine-loop when it expires (0 = none)")
		sweepOut = fs.String("out", "", "write the sweep bundle as JSON to this file (e.g. BENCH_exp.json)")
		baseline = fs.String("baseline", "", "diff sweep results against this bundle; regressions beyond -tol fail")
		tol      = fs.Float64("tol", 0.25, "relative tolerance band for -baseline comparison")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *sweep != "" {
		return runSweeps(out, sweepConfig{
			names:    *sweep,
			smoke:    *smoke,
			trials:   *trials,
			workers:  *workers,
			timeout:  *timeout,
			seed:     *seed,
			outPath:  *sweepOut,
			baseline: *baseline,
			tol:      *tol,
		})
	}

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(out, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		for _, e := range bench.Ablations() {
			fmt.Fprintf(out, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var selected []bench.Experiment
	switch *ids {
	case "all":
		selected = bench.All()
	case "ablations":
		selected = bench.Ablations()
	case "everything":
		selected = append(bench.All(), bench.Ablations()...)
	default:
		for _, id := range strings.Split(*ids, ",") {
			e, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	mode := "full"
	if *quick {
		mode = "quick"
	}
	for _, e := range selected {
		fmt.Fprintf(out, "== %s: %s [%s mode]\n", e.ID, e.Title, mode)
		fmt.Fprintf(out, "claim: %s\n\n", e.Claim)
		start := time.Now()
		if err := e.Run(bench.Config{Out: out, Quick: *quick, Seed: *seed}); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(out, "(%s completed in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
	return nil
}

// sweepConfig carries the -sweep flag group.
type sweepConfig struct {
	names    string
	smoke    bool
	trials   int
	workers  int
	timeout  time.Duration
	seed     uint64
	outPath  string
	baseline string
	tol      float64
}

// runSweeps executes the selected named sweeps, runs their gates, writes
// the bundle artifact, and — when a baseline is given — fails on any
// tolerance-band regression. Gate failures fail the run even without a
// baseline: the gates are the sweeps' built-in acceptance checks.
func runSweeps(out io.Writer, cfg sweepConfig) error {
	if cfg.names == "list" {
		for _, ns := range exp.Named() {
			fmt.Fprintf(out, "%-14s %s\n", ns.Name, ns.Description)
		}
		return nil
	}

	var selected []exp.NamedSweep
	if cfg.names == "all" {
		selected = exp.Named()
	} else {
		for _, name := range strings.Split(cfg.names, ",") {
			ns, ok := exp.NamedByName(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown sweep %q (use -sweep list)", name)
			}
			selected = append(selected, ns)
		}
	}

	var base *exp.Bundle
	if cfg.baseline != "" {
		var err error
		if base, err = exp.LoadBundle(cfg.baseline); err != nil {
			return err
		}
	}

	// One wall-clock budget for the whole selection; expiry cancels the
	// running simulations inside their engine loops.
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	bundle := exp.NewBundle()
	var failures []string
	for _, ns := range selected {
		mode := "full"
		if cfg.smoke {
			mode = "smoke"
		}
		fmt.Fprintf(out, "== sweep %s [%s]\n", ns.Name, mode)
		start := time.Now()
		sw := ns.Build(cfg.smoke, cfg.seed, cfg.trials)
		rep, err := sw.Run(exp.Options{Workers: cfg.workers, Log: out, Context: ctx})
		if err != nil {
			return err
		}
		rep.Smoke = cfg.smoke
		if ns.Check != nil {
			ns.Check(rep)
		}
		for _, g := range rep.Gates {
			status := "PASS"
			if !g.Pass {
				status = "FAIL"
				failures = append(failures, fmt.Sprintf("%s gate %s: %s", ns.Name, g.Name, g.Detail))
			}
			fmt.Fprintf(out, "  gate %-18s %s  %s\n", g.Name, status, g.Detail)
		}
		if base != nil {
			if baseRep, ok := base.Reports[ns.Name]; ok {
				regs := exp.Compare(rep, baseRep, cfg.tol)
				for _, r := range regs {
					failures = append(failures, fmt.Sprintf("%s vs baseline: %s", ns.Name, r))
					fmt.Fprintf(out, "  REGRESSION %s\n", r)
				}
				if len(regs) == 0 {
					fmt.Fprintf(out, "  baseline: clean (tol %.0f%%)\n", cfg.tol*100)
				}
			} else {
				fmt.Fprintf(out, "  baseline: no entry for %s (skipped)\n", ns.Name)
			}
		}
		bundle.Reports[ns.Name] = rep
		fmt.Fprintf(out, "(%s completed in %.1fs)\n\n", ns.Name, time.Since(start).Seconds())
	}

	if cfg.outPath != "" {
		f, err := os.Create(cfg.outPath)
		if err != nil {
			return err
		}
		if err := bundle.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.outPath)
	}

	if len(failures) > 0 {
		return fmt.Errorf("%d sweep check(s) failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

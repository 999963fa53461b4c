// Command plurality runs one plurality-consensus protocol instance and
// reports the outcome as text or JSON. It is a thin front end over the
// library's Job API: the -protocol flag compiles to a plurality.Job, runs
// under a context governed by -timeout, and every protocol — core, onebit,
// synchronous and asynchronous dynamics — supports pooled multi-trial
// execution via -trials.
//
// Examples:
//
//	plurality -protocol core -n 100000 -k 8 -workload biased -bias 0.5
//	plurality -protocol two-choices-sync -n 50000 -k 4 -workload gapsqrt -z 1.5
//	plurality -protocol voter -engine occupancy -n 10000000 -trials 8 -timeout 30s
//	plurality -protocol core -model poisson -delay 1 -trace
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"plurality"
	"plurality/internal/graph"
	"plurality/internal/runspec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "plurality:", err)
		os.Exit(1)
	}
}

type flags struct {
	protocol      string
	model         string
	engine        string
	topology      string
	workload      string
	listProtocols bool
	listAdvs      bool
	adversary     string
	budget        int64
	n             int
	k             int
	seed          uint64
	trials        int
	workers       int
	maxTime       float64
	timeout       time.Duration
	delay         float64
	crash         float64
	desyncFrac    float64
	desyncTicks   int
	noGadget      bool
	traceOn       bool
	jsonOut       bool
	leapEps       float64
	odeTheta      float64
	param         float64 // the workload's parameter, from its flag

	// explicit records which flags the command line actually set, so the
	// Job receives only deliberate options — Job.Validate rejects options
	// the selected protocol ignores, and a default-valued -maxtime must not
	// fail a synchronous run.
	explicit map[string]bool
}

func parseFlags(args []string) (flags, error) {
	var f flags
	fs := flag.NewFlagSet("plurality", flag.ContinueOnError)
	fs.StringVar(&f.protocol, "protocol", "core",
		"protocol: core | onebit | two-choices-sync | any registered dynamic (see -list-protocols), e.g. two-choices-async, voter, 3-majority, usd, j-majority:5")
	fs.BoolVar(&f.listProtocols, "list-protocols", false,
		"list the registered sampling-dynamics protocols and exit")
	fs.BoolVar(&f.listAdvs, "list-adversaries", false,
		"list the registered adversaries and exit")
	fs.StringVar(&f.adversary, "adversary", "",
		"adversary to run under (see -list-adversaries): a name or name:<lag>, e.g. corrupt, byzantine, late:2; inert until -budget > 0")
	fs.Int64Var(&f.budget, "budget", 0,
		"adversary budget f: flips per window (corrupt), redirects per window (minority-bias), victim-set size (delay-set, late) or expected liar count (byzantine); 0 leaves a named adversary inert")
	fs.StringVar(&f.model, "model", runspec.Models[0].Name,
		"communication model: "+strings.Join(runspec.Names(runspec.Models), " | "))
	fs.StringVar(&f.engine, "engine", runspec.Engines[0].Name,
		"dynamics execution engine: "+strings.Join(runspec.Names(runspec.Engines), " | ")+
			"; occupancy runs on O(k) counts, leap is the hybrid tau-leap/mean-field engine for n >= 1e10 (async dynamics only)")
	fs.StringVar(&f.topology, "topology", "complete",
		"communication graph (async dynamics only): complete | cycle | torus | gnp:<p> | random-regular:<d> | annealed:<d> | annealed-gnp:<p>; annealed topologies count-collapse to the degree-class lumped engine")
	fs.StringVar(&f.workload, "workload", runspec.Workloads[0].Name,
		"initial distribution: "+strings.Join(runspec.Names(runspec.Workloads), " | "))
	fs.IntVar(&f.n, "n", 100000, "number of nodes")
	fs.IntVar(&f.k, "k", 8, "number of opinions")
	fs.Float64("bias", 0.5, "epsilon for the biased workload: c1 = (1+eps)c2")
	fs.Float64("z", 1, "gap multiplier z for the gap workloads")
	fs.Float64("zipf-s", 1.1, "zipf exponent for the zipf workload")
	fs.Uint64Var(&f.seed, "seed", 1, "random seed (runs are deterministic per seed)")
	fs.IntVar(&f.trials, "trials", 1, "independent runs with derived seeds, sharded across workers (any protocol)")
	fs.IntVar(&f.workers, "workers", 0, "worker goroutines for -trials (0 = GOMAXPROCS)")
	fs.Float64Var(&f.maxTime, "maxtime", plurality.DefaultMaxTime, "parallel-time budget for async runs")
	fs.DurationVar(&f.timeout, "timeout", 0, "wall-clock budget; the run is canceled mid-simulation when it expires (0 = none)")
	fs.Float64Var(&f.delay, "delay", 0, "response-delay rate theta (>0 enables Exp(theta) delays)")
	fs.Float64Var(&f.crash, "crash", 0, "fraction of nodes that never act (core protocol only)")
	fs.Float64Var(&f.desyncFrac, "desync-frac", 0, "fraction of nodes starting desynchronized (core protocol only)")
	fs.IntVar(&f.desyncTicks, "desync-ticks", 0, "desynchronization spread in ticks (required with -desync-frac)")
	fs.BoolVar(&f.noGadget, "no-gadget", false, "disable the Sync Gadget (ablation; core protocol only)")
	fs.BoolVar(&f.traceOn, "trace", false, "print periodic sync/support probes (core protocol only)")
	fs.BoolVar(&f.jsonOut, "json", false, "emit the result as JSON")
	fs.Float64Var(&f.leapEps, "leap-eps", 0, "leap engine: tau-leap relative error budget per step in (0, 0.5] (0 = default 0.01)")
	fs.Float64Var(&f.odeTheta, "ode-theta", 0, "leap engine: mean-field handoff threshold theta, ODE while buckets >= 1/theta^2 (0 = default 1e-4; negative disables the ODE regime)")
	if err := fs.Parse(args); err != nil {
		return flags{}, err
	}
	f.explicit = make(map[string]bool)
	fs.Visit(func(fl *flag.Flag) { f.explicit[fl.Name] = true })
	// The workload's one parameter is the flag the table names.
	if w, err := runspec.LookupWorkload(f.workload); err == nil && w.Param != "" {
		f.param = fs.Lookup(w.Param).Value.(flag.Getter).Get().(float64)
	}
	return f, nil
}

// run is the flags' view in the shared run vocabulary. -protocol
// two-choices-sync is Two-Choices under the synchronous model, and the
// historical "-async" suffix is trimmed.
func (f flags) run() runspec.Run {
	r := runspec.Run{
		Protocol: strings.TrimSuffix(f.protocol, "-async"), Workload: f.workload, N: f.n, K: f.k, Param: f.param,
		Seed: f.seed, Engine: f.engine, LeapEps: f.leapEps, ODETheta: f.odeTheta,
		Crash: f.crash, ResponseDelay: f.delay, Adversary: f.adversary, Budget: strconv.FormatInt(f.budget, 10),
	}
	if f.explicit["model"] {
		r.Model = f.model
	}
	if f.explicit["maxtime"] {
		r.MaxTime = f.maxTime
	}
	if f.protocol == "two-choices-sync" {
		r.Protocol, r.Model = "two-choices", "synchronous"
	}
	return r
}

// jobOptions assembles the option list: the run's, then the flags only
// this command has.
func jobOptions(f flags, out io.Writer) ([]plurality.Option, error) {
	opts, err := f.run().Options()
	if err != nil {
		return nil, err
	}
	if f.topology != "" && f.topology != "complete" {
		// graph.Spec's grammar and guards; randomized topologies draw their
		// wiring from -seed on a stream no engine consumes.
		spec, err := graph.ParseSpec(f.topology)
		if err != nil {
			return nil, err
		}
		if err := spec.Validate(f.n); err != nil {
			return nil, err
		}
		g, err := spec.Build(f.n, plurality.TrialSeed(f.seed, 1<<10))
		if err != nil {
			return nil, err
		}
		opts = append(opts, plurality.WithGraph(g))
	}
	if f.workers != 0 {
		opts = append(opts, plurality.WithTrialWorkers(f.workers))
	}
	if f.desyncFrac > 0 || f.explicit["desync-ticks"] {
		opts = append(opts, plurality.WithDesync(f.desyncFrac, f.desyncTicks))
	}
	if f.noGadget {
		opts = append(opts, plurality.WithoutSyncGadget())
	}
	if f.traceOn {
		opts = append(opts, plurality.WithProbe(10, func(p plurality.CoreProbe) {
			fmt.Fprintf(out, "t=%8.1f plurality=%.3f spread90=%-5d poorly-synced=%d/%d halted=%d\n",
				p.Time, p.PluralityFraction, p.Spread90, p.PoorlySynced, p.Active, p.Halted)
		}))
	}
	return opts, nil
}

// trialsOutcome is the JSON-friendly aggregate over a multi-trial run.
type trialsOutcome struct {
	Protocol            string  `json:"protocol"`
	N                   int     `json:"n"`
	K                   int     `json:"k"`
	Trials              int     `json:"trials"`
	PluralityWins       int     `json:"pluralityWins"`
	AllDone             bool    `json:"allDone"`
	MedianTime          float64 `json:"medianTime"`
	MedianConsensusTime float64 `json:"medianConsensusTime"`
	MedianRounds        float64 `json:"medianRounds,omitempty"`
	TotalTicks          int64   `json:"totalTicks"`
	Corruptions         int64   `json:"corruptions,omitempty"`
	Biased              int64   `json:"biased,omitempty"`
}

// runTrials executes the pooled multi-trial driver — Job.Trials, so every
// protocol and engine is supported — and prints the aggregate.
func runTrials(ctx context.Context, f flags, job *plurality.Job, out io.Writer) error {
	results, err := job.Trials(ctx, f.trials)
	if err != nil && !errors.Is(err, plurality.ErrNoConsensus) && !errors.Is(err, plurality.ErrTimeLimit) && !errors.Is(err, plurality.ErrPhaseLimit) {
		return err
	}
	// Trials that exhausted their budget still produced reports; fold them
	// into the aggregate (allDone=false) rather than discarding the
	// successful trials.
	agg := trialsOutcome{Protocol: f.protocol, N: f.n, K: f.k, Trials: f.trials, AllDone: true}
	times := make([]float64, 0, len(results))
	ctimes := make([]float64, 0, len(results))
	rounds := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Converged && r.Winner == 0 {
			agg.PluralityWins++
		}
		agg.AllDone = agg.AllDone && r.Converged
		agg.TotalTicks += r.Ticks
		agg.Corruptions += r.Corruptions
		agg.Biased += r.Biased
		times = append(times, r.Time)
		ctimes = append(ctimes, r.ConsensusTime)
		rounds = append(rounds, float64(r.Rounds))
	}
	sort.Float64s(times)
	sort.Float64s(ctimes)
	sort.Float64s(rounds)
	agg.MedianTime = times[len(times)/2]
	agg.MedianConsensusTime = ctimes[len(ctimes)/2]
	agg.MedianRounds = rounds[len(rounds)/2]

	if f.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(agg)
	}
	fmt.Fprintf(out, "protocol=%s n=%d k=%d trials=%d pluralityWins=%d/%d allDone=%v\n",
		agg.Protocol, agg.N, agg.K, agg.Trials, agg.PluralityWins, agg.Trials, agg.AllDone)
	fmt.Fprintf(out, "medianTime=%.1f medianConsensusTime=%.1f totalTicks=%d\n",
		agg.MedianTime, agg.MedianConsensusTime, agg.TotalTicks)
	if agg.MedianRounds > 0 {
		fmt.Fprintf(out, "medianRounds=%.0f\n", agg.MedianRounds)
	}
	return nil
}

// outcome is the unified, JSON-friendly run report.
type outcome struct {
	Protocol      string  `json:"protocol"`
	N             int     `json:"n"`
	K             int     `json:"k"`
	Done          bool    `json:"done"`
	Winner        int32   `json:"winner"`
	PluralityWon  bool    `json:"pluralityWon"`
	Time          float64 `json:"time,omitempty"`
	Rounds        int     `json:"rounds,omitempty"`
	Ticks         int64   `json:"ticks,omitempty"`
	ConsensusTime float64 `json:"consensusTime,omitempty"`
	EndgameSafe   bool    `json:"endgameSafe,omitempty"`
	Jumps         int64   `json:"jumps,omitempty"`
	Phases        int     `json:"phases,omitempty"`
	Undecided     int64   `json:"undecided,omitempty"`
	Corruptions   int64   `json:"corruptions,omitempty"`
	Biased        int64   `json:"biased,omitempty"`
}

// listAdversaries prints the registry-driven adversary listing, mirroring
// listProtocols.
func listAdversaries(out io.Writer) error {
	fmt.Fprintf(out, "%-16s %-11s %-8s %s\n", "ADVERSARY", "FAMILY", "PER-NODE", "BEHAVIOR")
	for _, d := range plurality.Adversaries() {
		name := d.Name
		if d.NeedsLag {
			name += ":<lag>"
		}
		perNode := "-"
		if d.PerNode {
			perNode = "yes"
		}
		fmt.Fprintf(out, "%-16s %-11s %-8s %s\n", name, d.Family, perNode, d.Summary)
		if len(d.Aliases) > 0 {
			fmt.Fprintf(out, "%-16s %-11s %-8s   aliases: %s\n", "", "", "", strings.Join(d.Aliases, ", "))
		}
		fmt.Fprintf(out, "%-16s %-11s %-8s   source: %s\n", "", "", "", d.Source)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "budget f is set with -budget; per-node adversaries need the per-node engine")
	return nil
}

// listProtocols prints the registry-driven protocol listing.
func listProtocols(out io.Writer) error {
	fmt.Fprintf(out, "%-18s %-8s %-10s %s\n", "PROTOCOL", "SAMPLES", "PLURALITY", "RULE")
	for _, d := range plurality.Protocols() {
		name := d.Name
		if d.ParamName != "" {
			name += ":<" + d.ParamName + ">"
		}
		plur := "-"
		if d.PluralityWins {
			plur = "yes"
		}
		fmt.Fprintf(out, "%-18s %-8s %-10s %s\n", name, d.Samples, plur, d.Summary)
		if d.Param != "" {
			fmt.Fprintf(out, "%-18s %-8s %-10s   param: %s\n", "", "", "", d.Param)
		}
		fmt.Fprintf(out, "%-18s %-8s %-10s   source: %s\n", "", "", "", d.Source)
	}
	fmt.Fprintln(out)
	fmt.Fprintln(out, "dedicated runners: core (Theorem 1.3), onebit (Theorem 1.2), two-choices-sync (synchronous engine)")
	return nil
}

func run(args []string, out io.Writer) error {
	f, err := parseFlags(args)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if f.listProtocols {
		return listProtocols(out)
	}
	if f.listAdvs {
		return listAdversaries(out)
	}
	r := f.run()
	counts, err := r.Initial()
	if err != nil {
		return err
	}
	opts, err := jobOptions(f, out)
	if err != nil {
		return err
	}
	job, err := plurality.NewJob(r.Protocol, counts, opts...)
	if err != nil {
		return err
	}

	ctx := context.Background()
	if f.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.timeout)
		defer cancel()
	}

	if f.trials > 1 {
		if f.traceOn {
			// Trials run concurrently; interleaved, unattributed probe
			// lines (and concurrent writes to out) would be useless.
			return fmt.Errorf("-trace is not supported with -trials > 1")
		}
		return runTrials(ctx, f, job, out)
	}

	rep, err := job.Run(ctx)
	if err != nil {
		return err
	}
	o := outcome{
		Protocol:  f.protocol,
		N:         f.n,
		K:         f.k,
		Done:      rep.Converged,
		Winner:    int32(rep.Winner),
		Rounds:    rep.Rounds,
		Ticks:     rep.Ticks,
		Undecided: rep.Undecided,
	}
	o.Corruptions = rep.Corruptions
	o.Biased = rep.Biased
	switch rep.Kind {
	case plurality.KindCore:
		res, _ := rep.Core()
		o.Time = res.Time
		o.ConsensusTime = res.ConsensusTime
		o.EndgameSafe = res.EndgameSafe
		o.Jumps = res.Jumps
		o.Undecided = 0
	case plurality.KindDynamic:
		o.Time = rep.Time
	case plurality.KindOneExtraBit:
		res, _ := rep.Phases()
		o.Phases = res.Phases
	}
	o.PluralityWon = o.Done && o.Winner == 0

	if f.jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(o)
	}
	fmt.Fprintf(out, "protocol=%s n=%d k=%d done=%v winner=C%d pluralityWon=%v\n",
		o.Protocol, o.N, o.K, o.Done, o.Winner, o.PluralityWon)
	if o.Rounds > 0 {
		fmt.Fprintf(out, "rounds=%d", o.Rounds)
		if o.Phases > 0 {
			fmt.Fprintf(out, " phases=%d", o.Phases)
		}
		fmt.Fprintln(out)
	}
	if o.Time > 0 {
		fmt.Fprintf(out, "time=%.1f ticks=%d", o.Time, o.Ticks)
		if o.ConsensusTime > 0 {
			fmt.Fprintf(out, " consensusTime=%.1f jumps=%d endgameSafe=%v",
				o.ConsensusTime, o.Jumps, o.EndgameSafe)
		}
		fmt.Fprintln(out)
	}
	if o.Corruptions > 0 || o.Biased > 0 {
		fmt.Fprintf(out, "corruptions=%d biased=%d\n", o.Corruptions, o.Biased)
	}
	return nil
}

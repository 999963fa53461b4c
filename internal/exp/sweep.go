package exp

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"plurality"
	"plurality/internal/graph"
	"plurality/internal/par"
	"plurality/internal/rng"
	"plurality/internal/stats"
)

// Axis grids one scenario dimension. Values are the textual forms the axis
// applies to the base scenario (see applyAxis for the per-axis syntax);
// keeping them strings makes sweeps declarative and the JSON artifact
// self-describing.
type Axis struct {
	// Name selects the scenario field: "n", "k", "protocol", "bias",
	// "topology", "model", "engine", "crash", "churn", "latency", "delay",
	// "maxtime", "adversary", "budget" or "runtime".
	Name string `json:"name"`
	// Values are the grid points, applied textually.
	Values []string `json:"values"`
}

// Sweep is a base scenario times a grid: the cartesian product of all axis
// values, each run Trials times.
type Sweep struct {
	// Name identifies the sweep in artifacts and CI.
	Name string `json:"name"`
	// Base is the scenario every cell starts from.
	Base Scenario `json:"base"`
	// Axes are applied in order; later axes may reference fields set by
	// earlier ones (e.g. a "churn" value of "0.25/n" divides by the n the
	// preceding "n" axis chose).
	Axes []Axis `json:"axes"`
	// Trials is the number of independent runs per cell.
	Trials int `json:"trials"`
	// Seed is the root of every random stream the sweep consumes.
	Seed uint64 `json:"seed"`
	// KeepTimes records every converged trial's consensus time (sorted
	// ascending) on its CellResult, so distributional gates — the
	// net-equivalence KS test — can run on the report instead of
	// re-executing cells. Off by default to keep artifacts small.
	KeepTimes bool `json:"keepTimes,omitempty"`
}

// Cell is one grid point of a compiled sweep.
type Cell struct {
	// Label is the canonical "axis=value" form, comma-joined in axis
	// order; baseline comparison matches cells by it.
	Label string
	// Params maps axis name to the applied value.
	Params map[string]string
	// Scenario is the fully resolved configuration.
	Scenario Scenario
}

// applyAxis patches one scenario field from its textual axis value.
func applyAxis(sc *Scenario, name, value string) error {
	bad := func(err error) error {
		return fmt.Errorf("exp: axis %s: bad value %q: %v", name, value, err)
	}
	switch name {
	case "n":
		v, err := strconv.Atoi(value)
		if err != nil {
			return bad(err)
		}
		sc.N = v
	case "k":
		v, err := strconv.Atoi(value)
		if err != nil {
			return bad(err)
		}
		sc.K = v
	case "protocol":
		sc.Protocol = value
	case "model":
		sc.Model = value
	case "engine":
		sc.Engine = value
	case "bias":
		// "<profile>" or "<profile>:<param>".
		profile, param, has := strings.Cut(value, ":")
		sc.Bias = profile
		sc.BiasParam = 0
		if has {
			v, err := strconv.ParseFloat(param, 64)
			if err != nil {
				return bad(err)
			}
			sc.BiasParam = v
		}
	case "topology":
		// The shared grammar: "complete" | "cycle" | "torus" | "gnp:<p>" |
		// "random-regular:<d>" | "annealed:<d>" | "annealed-gnp:<p>".
		spec, err := graph.ParseSpec(value)
		if err != nil {
			return bad(err)
		}
		sc.Topology, sc.TopologyParam = spec.Name, spec.Param
	case "crash":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return bad(err)
		}
		sc.Crash = v
	case "churn":
		// Plain rate, or "<coef>/n" for rates scaled to the cell's
		// population (churn must stay ~1/n for exact consensus, so grids
		// are naturally expressed in that unit).
		if coef, ok := strings.CutSuffix(value, "/n"); ok {
			v, err := strconv.ParseFloat(coef, 64)
			if err != nil {
				return bad(err)
			}
			if sc.N <= 0 {
				return fmt.Errorf("exp: axis churn: %q needs n set before the churn axis", value)
			}
			sc.Churn = v / float64(sc.N)
			return nil
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return bad(err)
		}
		sc.Churn = v
	case "latency":
		sc.Latency = value
	case "adversary":
		sc.Adversary = value
	case "runtime":
		sc.Runtime = value
	case "budget":
		// Symbolic forms ("n^0.3", "4sqrt(n)") resolve against the cell's
		// final n at Validate/run time, not here, so the budget axis may
		// precede the n axis; the value is stored textually.
		sc.Budget = value
	case "delay":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return bad(err)
		}
		sc.DelayRate = v
	case "maxtime":
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return bad(err)
		}
		sc.MaxTime = v
	default:
		return fmt.Errorf("exp: unknown axis %q", name)
	}
	return nil
}

// Compile expands the sweep into its cells — the cartesian product of all
// axis values over the base scenario — validating every cell eagerly so a
// bad grid point fails before any simulation runs.
func (s Sweep) Compile() ([]Cell, error) {
	if s.Trials <= 0 {
		return nil, fmt.Errorf("exp: sweep %s: trials = %d, want > 0", s.Name, s.Trials)
	}
	for _, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("exp: sweep %s: axis %s has no values", s.Name, ax.Name)
		}
	}
	cells := []Cell{{Scenario: s.Base, Params: map[string]string{}}}
	for _, ax := range s.Axes {
		grown := make([]Cell, 0, len(cells)*len(ax.Values))
		for _, c := range cells {
			for _, v := range ax.Values {
				sc := c.Scenario
				if err := applyAxis(&sc, ax.Name, v); err != nil {
					return nil, fmt.Errorf("exp: sweep %s: %w", s.Name, err)
				}
				params := make(map[string]string, len(c.Params)+1)
				for k, pv := range c.Params {
					params[k] = pv
				}
				params[ax.Name] = v
				label := ax.Name + "=" + v
				if c.Label != "" {
					label = c.Label + "," + label
				}
				grown = append(grown, Cell{Label: label, Params: params, Scenario: sc})
			}
		}
		cells = grown
	}
	for _, c := range cells {
		if err := c.Scenario.Validate(); err != nil {
			return nil, fmt.Errorf("exp: sweep %s cell %q: %w", s.Name, c.Label, err)
		}
	}
	return cells, nil
}

// Options configures sweep execution.
type Options struct {
	// Workers bounds the worker pool; 0 selects GOMAXPROCS.
	Workers int
	// Log, if non-nil, receives one progress line per completed cell.
	Log io.Writer
	// Context, if non-nil, cancels the sweep: expiry or cancellation is
	// honored inside every simulation's engine loop (the CLI -timeout flag
	// lands here). nil means context.Background().
	Context context.Context
}

// bootstrapResamples is the resample count behind every cell's confidence
// interval; 2000 keeps the percentile endpoints stable to ~1%.
const bootstrapResamples = 2000

// Run compiles and executes the sweep: all cells × trials are flattened
// into one job list on the shared worker pool (so a slow cell cannot
// serialize the grid), then aggregated into per-cell statistics. Trial t of
// cell i runs under seed TrialSeed(At(Seed, i), t); the Report is a pure
// function of the Sweep value.
func (s Sweep) Run(opt Options) (*Report, error) {
	cells, err := s.Compile()
	if err != nil {
		return nil, err
	}
	trials := make([][]Trial, len(cells))
	for i := range trials {
		trials[i] = make([]Trial, s.Trials)
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := len(cells) * s.Trials
	err = par.ForEach(opt.Workers, jobs, func(j int) error {
		ci, t := j/s.Trials, j%s.Trials
		cellSeed := rng.At(s.Seed, ci).Uint64()
		tr, err := RunScenarioCtx(ctx, cells[ci].Scenario, plurality.TrialSeed(cellSeed, t))
		if err != nil {
			return fmt.Errorf("cell %q trial %d: %w", cells[ci].Label, t, err)
		}
		trials[ci][t] = tr
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: sweep %s: %w", s.Name, err)
	}

	rep := &Report{
		Schema: SchemaVersion,
		Sweep:  s.Name,
		Seed:   s.Seed,
		Trials: s.Trials,
		Base:   s.Base,
		Axes:   s.Axes,
		Cells:  make([]CellResult, len(cells)),
	}
	for i, c := range cells {
		rep.Cells[i] = summarizeCell(c, trials[i], s.KeepTimes, rng.At(s.Seed, bootstrapStream+i))
		if opt.Log != nil {
			cr := rep.Cells[i]
			fmt.Fprintf(opt.Log, "  %-40s mean=%9.2f  ci=[%.2f, %.2f]  median=%9.2f  fail=%d/%d\n",
				cr.Label, cr.Mean, cr.CILo, cr.CIHi, cr.Median, cr.Failures, cr.Trials)
		}
	}
	return rep, nil
}

// bootstrapStream offsets the per-cell bootstrap RNG streams away from the
// per-cell trial-seed streams.
const bootstrapStream = 1 << 20

// summarizeCell aggregates one cell's trials. Statistics cover converged
// trials only; a cell whose every trial timed out reports zeros with
// Failures == Trials. keepTimes additionally records the converged times,
// sorted ascending, on the result.
func summarizeCell(c Cell, trials []Trial, keepTimes bool, bootRNG *rng.RNG) CellResult {
	cr := CellResult{
		Label:  c.Label,
		Params: c.Params,
		N:      c.Scenario.N,
		Trials: len(trials),
	}
	var times []float64
	var ticks float64
	for _, t := range trials {
		cr.Churns += t.Churns
		cr.Corruptions += t.Corruptions
		cr.Biased += t.Biased
		cr.Messages += t.Messages
		if !t.Done {
			cr.Failures++
			continue
		}
		times = append(times, t.Time)
		ticks += float64(t.Ticks)
		if t.Win {
			cr.PluralityWins++
		}
	}
	if len(times) == 0 {
		return cr
	}
	cr.Mean = stats.Mean(times)
	qs := stats.Quantiles(times, 0, 0.1, 0.5, 0.9, 1)
	cr.Min, cr.Q10, cr.Median, cr.Q90, cr.Max = qs[0], qs[1], qs[2], qs[3], qs[4]
	cr.MeanTicks = ticks / float64(len(times))
	lo, hi, err := stats.BootstrapMeanCI(times, 0.95, bootstrapResamples, bootRNG)
	if err == nil {
		cr.CILo, cr.CIHi = lo, hi
	}
	if keepTimes {
		sorted := append([]float64(nil), times...)
		sort.Float64s(sorted)
		cr.Times = sorted
	}
	return cr
}

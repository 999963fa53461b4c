package bench

import (
	"errors"
	"fmt"

	"plurality/internal/core"
	"plurality/internal/population"
	"plurality/internal/trace"
)

// Ablations returns the ablation experiments for the protocol constants the
// brief announcement leaves unspecified: the block length ∆, the Sync
// Gadget sample count L, and the endgame budget (`experiments -list`
// prints each one's claim). They justify the calibrated defaults in
// internal/core.
func Ablations() []Experiment {
	return []Experiment{
		{
			ID:    "ab1",
			Title: "Ablation: block length Delta",
			Claim: "Delta must dominate gadget-estimator noise + within-phase drift; larger Delta only wastes time linearly",
			Run:   runAB1,
		},
		{
			ID:    "ab2",
			Title: "Ablation: Sync Gadget sample count",
			Claim: "the jump target is a median of L samples; accuracy improves ~1/sqrt(L) and saturates near L = Delta",
			Run:   runAB2,
		},
		{
			ID:    "ab3",
			Title: "Ablation: endgame budget",
			Claim: "part 2 needs Theta(log n) ticks per node; shorter budgets halt nodes before stragglers convert",
			Run:   runAB3,
		},
	}
}

// runAB1 sweeps the block length ∆ around its default and reports both the
// synchronization quality and the consensus time: too small and the phase
// structure collapses, too large and the (phase count × 7∆) schedule just
// burns time.
func runAB1(cfg Config) error {
	var (
		n      = pick(cfg, 4000, 8000)
		k      = 4
		trials = pick(cfg, 3, 3)
	)
	spec, err := core.Plan(core.Config{}, n)
	if err != nil {
		return err
	}
	counts, err := population.BiasedCounts(n, k, 0.5)
	if err != nil {
		return err
	}
	deltas := []int{spec.Delta / 4, spec.Delta / 2, spec.Delta, 2 * spec.Delta}
	tbl := trace.NewTable(
		fmt.Sprintf("AB1: Delta sweep, n=%d, k=%d (default Delta=%d), %d trials", n, k, spec.Delta, trials),
		"Delta", "converged", "plurality wins", "median consensus time", "max poor fraction")
	for _, delta := range deltas {
		if delta < 2 {
			continue
		}
		delta := delta
		var worstPoor float64
		ts, err := runTrials(trials, func(trial int) (measurement, error) {
			var localWorst float64
			res, runErr := runCore(counts, cfg.Seed+uint64(delta*100+trial), 1e6, func(c *core.Config) {
				c.Delta = delta
				c.ProbeInterval = 10
				c.OnProbe = func(p core.Probe) {
					if p.Active == 0 {
						return
					}
					if f := float64(p.PoorlySynced) / float64(p.Active); f > localWorst {
						localWorst = f
					}
				}
			})
			if runErr != nil && !errors.Is(runErr, core.ErrNoConsensus) {
				return measurement{}, runErr
			}
			if localWorst > worstPoor {
				worstPoor = localWorst
			}
			return measurement{
				value: res.ConsensusTime,
				win:   res.Done && res.Winner == 0,
				aux:   boolTo01(res.Done),
			}, nil
		})
		if err != nil {
			return err
		}
		converged := 0
		for _, m := range ts {
			if m.aux > 0 {
				converged++
			}
		}
		tbl.AddRow(
			fmt.Sprintf("%d", delta),
			fmt.Sprintf("%d/%d", converged, trials),
			fmt.Sprintf("%d/%d", countWins(ts), trials),
			fmt.Sprintf("%.0f", medianValue(ts)),
			fmt.Sprintf("%.3f", worstPoor),
		)
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: below the default Delta the poorly-synced fraction explodes and runs fail; above it, consensus time grows ~linearly in Delta\n\n")
	return nil
}

// runAB2 sweeps the Sync Gadget's sample count L at fixed ∆ and reports the
// observed spread: the jump target is a median of L real-time samples, so
// its error shrinks like 1/sqrt(L).
func runAB2(cfg Config) error {
	var (
		n = pick(cfg, 4000, 8000)
		k = 4
	)
	spec, err := core.Plan(core.Config{}, n)
	if err != nil {
		return err
	}
	counts, err := population.BiasedCounts(n, k, 1)
	if err != nil {
		return err
	}
	samples := []int{1, 2, 4, 8, spec.GadgetSamples}
	tbl := trace.NewTable(
		fmt.Sprintf("AB2: gadget sample sweep, n=%d, Delta=%d (default L=%d)", n, spec.Delta, spec.GadgetSamples),
		"L", "max spread90", "max poor fraction", "converged", "plurality won")
	for _, l := range samples {
		var (
			worstSpread int64
			worstPoor   float64
		)
		res, err := runCore(counts, cfg.Seed+uint64(l), 1e6, func(c *core.Config) {
			c.GadgetSamples = l
			c.Phases = 10
			c.ProbeInterval = 10
			c.OnProbe = func(p core.Probe) {
				if p.Active == 0 {
					return
				}
				if p.Spread90 > worstSpread {
					worstSpread = p.Spread90
				}
				if f := float64(p.PoorlySynced) / float64(p.Active); f > worstPoor {
					worstPoor = f
				}
			}
		})
		if err != nil && !errors.Is(err, core.ErrNoConsensus) {
			return err
		}
		tbl.AddRow(
			fmt.Sprintf("%d", l),
			fmt.Sprintf("%d", worstSpread),
			fmt.Sprintf("%.3f", worstPoor),
			fmt.Sprintf("%v", res.Done),
			fmt.Sprintf("%v", res.Done && res.Winner == 0),
		)
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: spread shrinks as L grows (median error ~ 1/sqrt(L)) and saturates near the default\n\n")
	return nil
}

// runAB3 sweeps the endgame budget from an endgame-only 90/10 start: with
// too few ticks per node the early finishers halt before the stragglers
// have converted, violating §3.2's safety property.
func runAB3(cfg Config) error {
	var (
		n       = pick(cfg, 10000, 20000)
		trials  = pick(cfg, 3, 5)
		factors = []float64{0.5, 1, 2, 4, 6}
	)
	spec, err := core.Plan(core.Config{}, n)
	if err != nil {
		return err
	}
	counts := []int64{int64(n) * 9 / 10, int64(n) - int64(n)*9/10}
	tbl := trace.NewTable(
		fmt.Sprintf("AB3: endgame budget sweep, n=%d, start 90/10, default %d ticks, %d trials", n, spec.EndgameTicks, trials),
		"ticks per node", "consensus reached", "endgame safe", "median margin")
	for _, f := range factors {
		ticks := int(f / core.DefaultEndgameFactor * float64(spec.EndgameTicks))
		if ticks < 1 {
			ticks = 1
		}
		ts, err := runTrials(trials, func(trial int) (measurement, error) {
			res, runErr := runCore(counts, cfg.Seed+uint64(ticks*10+trial), 1e6, func(c *core.Config) {
				c.SkipPart1 = true
				c.RunToHalt = true
				c.EndgameTicks = ticks
			})
			if runErr != nil && !errors.Is(runErr, core.ErrNoConsensus) {
				return measurement{}, runErr
			}
			margin := res.FirstHaltTime - res.ConsensusTime
			if !res.Done {
				margin = 0
			}
			return measurement{
				value: margin,
				win:   res.EndgameSafe,
				aux:   boolTo01(res.Done),
			}, nil
		})
		if err != nil {
			return err
		}
		converged := 0
		for _, m := range ts {
			if m.aux > 0 {
				converged++
			}
		}
		tbl.AddRow(
			fmt.Sprintf("%d (%.1f ln n)", ticks, f),
			fmt.Sprintf("%d/%d", converged, trials),
			fmt.Sprintf("%d/%d", countWins(ts), trials),
			fmt.Sprintf("%.1f", medianValue(ts)),
		)
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: budgets below ~2 ln n halt nodes before consensus (unsafe); the default leaves a comfortable margin\n\n")
	return nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

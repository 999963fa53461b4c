package bench

import (
	"fmt"
	"math"

	"plurality"
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
		pts    = points{cfg: cfg}
	)
	spec, err := plurality.PlanCore(n)
	if err != nil {
		return err
	}
	counts, err := plurality.Biased(n, k, 0.5)
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
		var worst worstSync
		reps, err := pts.trials("core", counts, trials, plurality.WithDelta(delta), plurality.WithProbe(10, worst.probe))
		if err != nil {
			return err
		}
		tbl.AddRow(
			fmt.Sprintf("%d", delta),
			share(reps, converged),
			share(reps, won),
			fmt.Sprintf("%.0f", median(reps, converged, consensus)),
			fmt.Sprintf("%.3f", worst.poor),
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
		n   = pick(cfg, 4000, 8000)
		k   = 4
		pts = points{cfg: cfg}
	)
	spec, err := plurality.PlanCore(n)
	if err != nil {
		return err
	}
	counts, err := plurality.Biased(n, k, 1)
	if err != nil {
		return err
	}
	samples := []int{1, 2, 4, 8, spec.GadgetSamples}
	tbl := trace.NewTable(
		fmt.Sprintf("AB2: gadget sample sweep, n=%d, Delta=%d (default L=%d)", n, spec.Delta, spec.GadgetSamples),
		"L", "max spread90", "max poor fraction", "converged", "plurality won")
	for _, l := range samples {
		var worst worstSync
		reps, err := pts.trials("core", counts, 1,
			plurality.WithGadgetSamples(l), plurality.WithPhases(10), plurality.WithProbe(10, worst.probe))
		if err != nil {
			return err
		}
		tbl.AddRow(
			fmt.Sprintf("%d", l),
			fmt.Sprintf("%d", worst.spread),
			fmt.Sprintf("%.3f", worst.poor),
			fmt.Sprintf("%v", converged(reps[0])),
			fmt.Sprintf("%v", won(reps[0])),
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
		pts     = points{cfg: cfg}
	)
	spec, err := plurality.PlanCore(n)
	if err != nil {
		return err
	}
	counts := []int64{int64(n) * 9 / 10, int64(n) - int64(n)*9/10}
	tbl := trace.NewTable(
		fmt.Sprintf("AB3: endgame budget sweep, n=%d, start 90/10, default %d ticks, %d trials", n, spec.EndgameTicks, trials),
		"ticks per node", "consensus reached", "endgame safe", "median margin")
	// A run that never reached consensus has no margin; it counts as 0.
	margin := func(r plurality.Report) float64 {
		if !r.Converged {
			return 0
		}
		return coreResult(r).FirstHaltTime - r.ConsensusTime
	}
	safe := func(r plurality.Report) bool { return coreResult(r).EndgameSafe }
	for _, f := range factors {
		// ⌈f·ln n⌉ is the core's own default budget at factor f.
		ticks := int(math.Ceil(f * math.Log(float64(n))))
		reps, err := pts.trials("core", counts, trials,
			plurality.WithEndgameOnly(), plurality.WithRunToHalt(), plurality.WithEndgameTicks(ticks))
		if err != nil {
			return err
		}
		tbl.AddRow(
			fmt.Sprintf("%d (%.1f ln n)", ticks, f),
			share(reps, converged),
			share(reps, safe),
			fmt.Sprintf("%.1f", median(reps, all, margin)),
		)
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: budgets below ~2 ln n halt nodes before consensus (unsafe); the default leaves a comfortable margin\n\n")
	return nil
}

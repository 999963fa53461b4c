package bench

import (
	"fmt"
	"math"

	"plurality"
	"plurality/internal/rng"
	"plurality/internal/stats"
	"plurality/internal/trace"
	"plurality/internal/urn"
)

// runE10 — §3.1's Pólya-urn argument: Bit-Propagation grows the bit-set
// crowd without changing its color distribution. Part (a) checks the pure
// urn martingale; part (b) checks the embedded claim: the end-of-phase
// color distribution matches the post-Two-Choices prediction c_j²/Σc_i².
func runE10(cfg Config) error {
	var (
		trialsUrn = pick(cfg, 500, 2000)
		steps     = pick(cfg, 100, 300)
	)
	initial := []int64{30, 10, 60}
	var sumFinal [3]float64
	var worstDrift float64
	for trial := 0; trial < trialsUrn; trial++ {
		u, err := urn.New(initial)
		if err != nil {
			return err
		}
		start := u.Fractions()
		if _, err := u.Run(rng.At(cfg.Seed, trial), steps, 1); err != nil {
			return err
		}
		end := u.Fractions()
		if d := urn.MartingaleDrift(start, end); d > worstDrift {
			worstDrift = d
		}
		for c, f := range end {
			sumFinal[c] += f
		}
	}
	tblA := trace.NewTable(
		fmt.Sprintf("E10a: Polya urn fraction martingale, %d trials x %d steps", trialsUrn, steps),
		"color", "initial fraction", "mean final fraction")
	for c := range initial {
		tblA.AddRow(
			fmt.Sprintf("%d", c),
			fmt.Sprintf("%.3f", float64(initial[c])/100),
			fmt.Sprintf("%.3f", sumFinal[c]/float64(trialsUrn)),
		)
	}
	tblA.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: mean final fractions reproduce the initial ones (martingale); single-run drift can reach %.2f\n\n", worstDrift)

	// Part (b): in the protocol, the distribution set up by the
	// Two-Choices step (c_j²-proportional) must survive propagation to the
	// whole population.
	var (
		n   = pick(cfg, 50000, 100000)
		k   = 8
		pts = points{cfg: cfg}
	)
	counts, err := plurality.Biased(n, k, 0.5)
	if err != nil {
		return err
	}
	tblB := trace.NewTable(
		fmt.Sprintf("E10b: OneExtraBit phase outcome vs c_j^2/sum prediction, n=%d, k=%d", n, k),
		"phase", "pred c1 share", "measured c1 share", "rel err", "bits after TC", "bits after BP")
	prev := counts
	matches, total := 0, 0
	// One run, so the phase observer is never called concurrently.
	_, err = pts.trials("onebit", counts, 1, plurality.WithMaxPhases(6), plurality.WithPhaseObserver(func(info plurality.PhaseInfo) {
		var sumSq float64
		for _, c := range prev {
			sumSq += float64(c) * float64(c)
		}
		pred := float64(prev[0]) * float64(prev[0]) / sumSq
		got := float64(info.Counts[0]) / float64(n)
		rel := math.Abs(got-pred) / pred
		total++
		if rel < 0.1 {
			matches++
		}
		tblB.AddRow(
			fmt.Sprintf("%d", info.Phase),
			fmt.Sprintf("%.3f", pred),
			fmt.Sprintf("%.3f", got),
			fmt.Sprintf("%.1f%%", 100*rel),
			fmt.Sprintf("%d", info.BitsAfterTwoChoices),
			fmt.Sprintf("%d", info.BitsAfterPropagation),
		)
		prev = info.Counts
	}))
	if err != nil {
		return err
	}
	tblB.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: %d/%d phases land within 10%% of the c_j^2 prediction — propagation preserves the post-Two-Choices distribution\n\n",
		matches, total)
	return nil
}

// runE11 — the Mosk-Aoyama–Shah equivalence the paper builds on: the
// sequential and continuous (Poisson-clock) schedulers yield the same
// protocol run time.
func runE11(cfg Config) error {
	var (
		ns     = pick(cfg, []int{2000}, []int{2000, 8000})
		trials = pick(cfg, 3, 5)
		k      = 8
		pts    = points{cfg: cfg}
	)
	tbl := trace.NewTable(
		fmt.Sprintf("E11: async protocol under both schedulers, k=%d, %d trials", k, trials),
		"n", "sequential time", "poisson time", "ratio")
	for _, n := range ns {
		counts, err := plurality.Biased(n, k, 1)
		if err != nil {
			return err
		}
		seqReps, err := pts.trials("core", counts, trials)
		if err != nil {
			return err
		}
		poiReps, err := pts.trials("core", counts, trials, plurality.WithModel(plurality.Poisson))
		if err != nil {
			return err
		}
		seqMed, poiMed := median(seqReps, converged, consensus), median(poiReps, converged, consensus)
		tbl.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", seqMed),
			fmt.Sprintf("%.0f", poiMed),
			fmt.Sprintf("%.2f", seqMed/poiMed),
		)
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: both schedulers agree within trial noise (ratio ~ 1), matching the model-equivalence claim\n\n")
	return nil
}

// runE12 — §4's extension: exponential response delays slow the protocol by
// a constant factor but preserve the Θ(log n) shape.
func runE12(cfg Config) error {
	var (
		n      = pick(cfg, 4000, 8000)
		k      = 4
		trials = pick(cfg, 3, 3)
		rates  = []float64{0, 2, 1, 0.5} // 0 = no delay; otherwise Exp(rate), mean 1/rate
		pts    = points{cfg: cfg}
	)
	tbl := trace.NewTable(
		fmt.Sprintf("E12a: async protocol with Exp response delays, n=%d, k=%d, %d trials", n, k, trials),
		"mean delay", "median consensus time", "slowdown vs instant")
	counts, err := plurality.Biased(n, k, 1)
	if err != nil {
		return err
	}
	var instant float64
	for _, rate := range rates {
		var opts []plurality.Option
		if rate > 0 {
			opts = append(opts, plurality.WithResponseDelay(rate))
		}
		reps, err := pts.trials("core", counts, trials, opts...)
		if err != nil {
			return err
		}
		med := median(reps, converged, consensus)
		label := "0 (instant)"
		slow := "1.00"
		if rate == 0 {
			instant = med
		} else {
			label = fmt.Sprintf("%.1f", 1/rate)
			slow = fmt.Sprintf("%.2f", med/instant)
		}
		tbl.AddRow(label, fmt.Sprintf("%.0f", med), slow)
	}
	tbl.Fprint(cfg.Out)

	// Part (b): the log-shape survives under a fixed delay.
	nsB := pick(cfg, []int{2000, 8000}, []int{2000, 8000, 32000})
	tblB := trace.NewTable(
		fmt.Sprintf("E12b: consensus time vs n with Exp(1) delays, k=%d, %d trials", k, trials),
		"n", "ln n", "median time", "time/ln n")
	var xs, ys []float64
	for _, nn := range nsB {
		countsB, err := plurality.Biased(nn, k, 1)
		if err != nil {
			return err
		}
		reps, err := pts.trials("core", countsB, trials, plurality.WithResponseDelay(1))
		if err != nil {
			return err
		}
		med := median(reps, converged, consensus)
		ln := math.Log(float64(nn))
		xs = append(xs, float64(nn))
		ys = append(ys, med)
		tblB.AddRow(fmt.Sprintf("%d", nn), fmt.Sprintf("%.1f", ln),
			fmt.Sprintf("%.0f", med), fmt.Sprintf("%.1f", med/ln))
	}
	tblB.Fprint(cfg.Out)
	fit, err := stats.LogFit(xs, ys)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "shape: delayed time ~ %.1f*ln(n) %+.1f (R^2 = %.3f) — still logarithmic, constant-factor slower\n\n",
		fit.Slope, fit.Intercept, fit.R2)
	return nil
}

package bench

import (
	"fmt"
	"math"
	"slices"

	"plurality"
	"plurality/internal/stats"
	"plurality/internal/trace"
)

// syncTwoChoices is the option set of a synchronous Two-Choices run bounded
// at maxRounds rounds.
func syncTwoChoices(maxRounds int) []plurality.Option {
	return []plurality.Option{plurality.WithModel(plurality.Synchronous), plurality.WithMaxRounds(maxRounds)}
}

// runE1 — Theorem 1.1 upper bound: synchronous Two-Choices converges within
// O(n/c1 · log n) rounds under bias z·sqrt(n·ln n). We sweep n at fixed k
// and fit rounds against (n/c1)·ln n.
func runE1(cfg Config) error {
	var (
		ns     = pick(cfg, []int{2000, 8000}, []int{2000, 4000, 8000, 16000, 32000})
		trials = pick(cfg, 3, 5)
		k      = 8
		pts    = points{cfg: cfg}
	)
	tbl := trace.NewTable(
		fmt.Sprintf("E1: sync Two-Choices rounds, k=%d, bias z*sqrt(n ln n), %d trials", k, trials),
		"n", "c1", "predictor (n/c1)ln n", "median rounds", "plurality wins")
	var xs, ys []float64
	for _, n := range ns {
		counts, err := plurality.GapSqrt(n, k, 1)
		if err != nil {
			return err
		}
		reps, err := pts.trials("two-choices", counts, trials, syncTwoChoices(1_000_000)...)
		if err != nil {
			return err
		}
		med := median(reps, converged, rounds)
		predictor := float64(n) / float64(counts[0]) * math.Log(float64(n))
		xs = append(xs, predictor)
		ys = append(ys, med)
		tbl.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", counts[0]),
			fmt.Sprintf("%.1f", predictor),
			fmt.Sprintf("%.0f", med),
			share(reps, won),
		)
	}
	tbl.Fprint(cfg.Out)
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "shape: rounds ~ %.2f * (n/c1)*ln(n) + %.1f (R^2 = %.3f); theory predicts a linear fit\n\n",
		fit.Slope, fit.Intercept, fit.R2)
	return nil
}

// runE2 — Theorem 1.1 lower bound: on the equal-runner-up instance with
// gap z·sqrt(n·ln n), Two-Choices needs Ω(n/c1) = Ω(k·(1−o(1))) rounds. We
// sweep k at fixed n and fit rounds against n/c1 (≈ k for small gaps).
func runE2(cfg Config) error {
	var (
		n      = pick(cfg, 10000, 30000)
		ks     = pick(cfg, []int{2, 8, 32}, []int{2, 4, 8, 16, 32, 64})
		trials = pick(cfg, 3, 5)
		pts    = points{cfg: cfg}
	)
	tbl := trace.NewTable(
		fmt.Sprintf("E2: sync Two-Choices rounds vs k, n=%d, bias z*sqrt(n ln n), %d trials", n, trials),
		"k", "n/c1", "median rounds", "rounds/(n/c1)")
	var xs, ys []float64
	for _, k := range ks {
		counts, err := plurality.GapSqrt(n, k, 1)
		if err != nil {
			return err
		}
		reps, err := pts.trials("two-choices", counts, trials, syncTwoChoices(2_000_000)...)
		if err != nil {
			return err
		}
		med := median(reps, converged, rounds)
		ratio := float64(n) / float64(counts[0])
		xs = append(xs, ratio)
		ys = append(ys, med)
		tbl.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f", ratio),
			fmt.Sprintf("%.0f", med),
			fmt.Sprintf("%.1f", med/ratio),
		)
	}
	tbl.Fprint(cfg.Out)
	fit, err := stats.LinearFit(xs, ys)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "shape: rounds ~ %.2f * (n/c1) + %.1f (R^2 = %.3f); theory predicts linear growth in n/c1 ~ k\n\n",
		fit.Slope, fit.Intercept, fit.R2)
	return nil
}

// runE3 — Theorem 1.1's negative result: with gap only z·sqrt(n) a
// non-plurality color wins with constant probability, while the theorem-
// level gap z·sqrt(n·ln n) keeps upsets rare.
func runE3(cfg Config) error {
	var (
		n      = pick(cfg, 4000, 10000)
		trials = pick(cfg, 40, 200)
		k      = 2
		pts    = points{cfg: cfg}
	)
	tiny, err := plurality.TinyGap(n, k, 0.5)
	if err != nil {
		return err
	}
	strong, err := plurality.GapSqrt(n, k, 1.5)
	if err != nil {
		return err
	}
	// A run that ends without consensus counts as an upset: the plurality
	// did not win it.
	upsetRate := func(counts []int64) (float64, error) {
		reps, err := pts.trials("two-choices", counts, trials, syncTwoChoices(1_000_000)...)
		if err != nil {
			return 0, err
		}
		return float64(trials-count(reps, won)) / float64(trials), nil
	}
	tinyRate, err := upsetRate(tiny)
	if err != nil {
		return err
	}
	strongRate, err := upsetRate(strong)
	if err != nil {
		return err
	}
	tbl := trace.NewTable(
		fmt.Sprintf("E3: upset probability of sync Two-Choices, n=%d, k=%d, %d trials", n, k, trials),
		"initial gap", "gap size", "non-plurality win rate")
	tbl.AddRow("0.5*sqrt(n)", fmt.Sprintf("%d", tiny[0]-tiny[1]), fmt.Sprintf("%.1f%%", 100*tinyRate))
	tbl.AddRow("1.5*sqrt(n ln n)", fmt.Sprintf("%d", strong[0]-strong[1]), fmt.Sprintf("%.1f%%", 100*strongRate))
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: upsets are constant-probability at gap O(sqrt n) (%.1f%%) and vanish at z*sqrt(n ln n) (%.1f%%)\n\n",
		100*tinyRate, 100*strongRate)
	return nil
}

// runE4 — Theorem 1.2: OneExtraBit converges in polylogarithmic rounds and
// overtakes Two-Choices as k grows. Part (a) sweeps n at fixed k; part (b)
// races both protocols over a k sweep on the same workload.
func runE4(cfg Config) error {
	var (
		nsA    = pick(cfg, []int{4000, 16000}, []int{4000, 16000, 64000})
		kA     = 16
		nB     = pick(cfg, 50000, 200000)
		ksB    = pick(cfg, []int{16, 64}, []int{16, 64, 256})
		trials = pick(cfg, 3, 3)
		pts    = points{cfg: cfg}
	)
	phases := func(r plurality.Report) float64 {
		res, _ := r.Phases()
		return float64(res.Phases)
	}

	tblA := trace.NewTable(
		fmt.Sprintf("E4a: OneExtraBit rounds vs n, k=%d, bias z*sqrt(n)ln^1.5 n, %d trials", kA, trials),
		"n", "median rounds", "median phases", "plurality wins")
	var rawNs, roundsA []float64
	for _, n := range nsA {
		counts, err := plurality.GapSqrtPolylog(n, kA, 0.5)
		if err != nil {
			return err
		}
		reps, err := pts.trials("onebit", counts, trials, plurality.WithMaxPhases(400))
		if err != nil {
			return err
		}
		med := median(reps, converged, rounds)
		rawNs = append(rawNs, float64(n))
		roundsA = append(roundsA, med)
		tblA.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", med),
			fmt.Sprintf("%.0f", median(reps, converged, phases)),
			share(reps, won),
		)
	}
	tblA.Fprint(cfg.Out)
	if fit, err := stats.PowerFit(rawNs, roundsA); err == nil {
		fmt.Fprintf(cfg.Out, "shape: OneExtraBit rounds grow ~ n^%.2f (R^2 = %.3f); theory predicts polylog, i.e. exponent near 0\n\n",
			fit.Slope, fit.R2)
	}

	tblB := trace.NewTable(
		fmt.Sprintf("E4b: OneExtraBit vs Two-Choices rounds over k, n=%d, bias sqrt(n ln n), %d trials", nB, trials),
		"k", "n/c1", "two-choices rounds", "onebit rounds", "speedup")
	for _, k := range ksB {
		counts, err := plurality.GapSqrt(nB, k, 1)
		if err != nil {
			return err
		}
		tcReps, err := pts.trials("two-choices", counts, trials, syncTwoChoices(2_000_000)...)
		if err != nil {
			return err
		}
		obReps, err := pts.trials("onebit", counts, trials, plurality.WithMaxPhases(400))
		if err != nil {
			return err
		}
		tcMed, obMed := median(tcReps, converged, rounds), median(obReps, converged, rounds)
		tblB.AddRow(
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.0f", float64(nB)/float64(counts[0])),
			fmt.Sprintf("%.0f", tcMed),
			fmt.Sprintf("%.0f", obMed),
			fmt.Sprintf("%.1fx", tcMed/obMed),
		)
	}
	tblB.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: Two-Choices rounds track n/c1 (which grows with k) while OneExtraBit stays polylog-flat; the crossover lands around n/c1 ~ 50\n\n")
	return nil
}

// runE5 — §2's amplification claim: across one OneExtraBit phase the ratio
// c1/cj squares (up to concentration error).
func runE5(cfg Config) error {
	var (
		n   = pick(cfg, 50000, 200000)
		k   = 4
		eps = 0.5
		pts = points{cfg: cfg}
	)
	counts, err := plurality.Biased(n, k, eps)
	if err != nil {
		return err
	}
	type phaseRatio struct {
		phase int
		ratio float64
	}
	// One run, so the phase observer is never called concurrently.
	ratios := []phaseRatio{{phase: -1, ratio: float64(counts[0]) / float64(counts[1])}}
	_, err = pts.trials("onebit", counts, 1, plurality.WithMaxPhases(50), plurality.WithPhaseObserver(func(info plurality.PhaseInfo) {
		runnerUp := slices.Max(info.Counts[1:])
		if runnerUp == 0 {
			return
		}
		ratios = append(ratios, phaseRatio{
			phase: info.Phase,
			ratio: float64(info.Counts[0]) / float64(runnerUp),
		})
	}))
	if err != nil {
		return err
	}
	tbl := trace.NewTable(
		fmt.Sprintf("E5: per-phase bias amplification of OneExtraBit, n=%d, k=%d, eps=%.1f", n, k, eps),
		"phase", "c1/c2 after phase", "(previous ratio)^2", "measured/predicted")
	ok := 0
	comparisons := 0
	for i := 1; i < len(ratios); i++ {
		pred := ratios[i-1].ratio * ratios[i-1].ratio
		got := ratios[i].ratio
		rel := got / pred
		// Quadratic growth is only meaningful while the runner-up still
		// has non-trivial support.
		if pred < float64(n)/10 {
			comparisons++
			if rel > 0.75 && rel < 1.35 {
				ok++
			}
		}
		tbl.AddRow(
			fmt.Sprintf("%d", ratios[i].phase),
			fmt.Sprintf("%.2f", got),
			fmt.Sprintf("%.2f", pred),
			fmt.Sprintf("%.2f", rel),
		)
	}
	tbl.Fprint(cfg.Out)
	fmt.Fprintf(cfg.Out, "shape: %d/%d phases match the quadratic-growth prediction within 35%%\n\n", ok, comparisons)
	return nil
}

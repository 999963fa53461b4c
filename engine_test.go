package plurality_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"plurality"
	"plurality/internal/par"
	"plurality/internal/stats"
)

// ksStat and ksThresh delegate to the shared KS helpers in internal/stats.
func ksStat(a, b []float64) float64            { return stats.KSStatistic(a, b) }
func ksThresh(alpha float64, m, n int) float64 { return stats.KSThreshold(alpha, m, n) }

// runEngineTrials collects consensus times and tick counts of an
// asynchronous dynamics run under the given engine.
func runEngineTrials(t *testing.T, run func(*plurality.Population, ...plurality.Option) (plurality.AsyncResult, error),
	counts []int64, engine plurality.Engine, model plurality.Model, trials int, seedBase uint64) (times, ticks []float64) {
	t.Helper()
	for i := 0; i < trials; i++ {
		pop, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(pop,
			plurality.WithSeed(seedBase+uint64(i)),
			plurality.WithEngine(engine),
			plurality.WithModel(model),
			plurality.WithMaxTime(1e6))
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !pop.ConsensusOn(res.Winner) {
			t.Fatalf("trial %d: population disagrees with reported winner %d", i, res.Winner)
		}
		times = append(times, res.Time)
		ticks = append(ticks, float64(res.Ticks))
	}
	return times, ticks
}

// runCountsTrials is runEngineTrials on the counts entry point for the
// registry protocol spec, with the trials spread over GOMAXPROCS
// goroutines; times and ticks stay in trial order.
func runCountsTrials(t *testing.T, spec string, counts []int64, engine plurality.Engine, model plurality.Model, trials int, seedBase uint64) (times, ticks []float64) {
	t.Helper()
	var n int64
	for _, c := range counts {
		n += c
	}
	times, ticks = make([]float64, trials), make([]float64, trials)
	err := par.ForEach(0, trials, func(i int) error {
		cs := slices.Clone(counts)
		res, err := plurality.RunDynamicCounts(spec, cs,
			plurality.WithSeed(seedBase+uint64(i)),
			plurality.WithEngine(engine),
			plurality.WithModel(model),
			plurality.WithMaxTime(1e6))
		if err != nil {
			return err
		}
		if cs[res.Winner] != n {
			return fmt.Errorf("counts %v disagree with reported winner %d", cs, res.Winner)
		}
		times[i], ticks[i] = res.Time, float64(res.Ticks)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return times, ticks
}

// TestOccupancyMatchesPerNodeDistributions is the cross-engine half of the
// distributional-equivalence gate: for Two-Choices and 3-Majority under
// both the sequential and the Poisson model, the count-collapsed engine's
// consensus-time and tick-count distributions must be KS-indistinguishable
// from the per-node engine's. The runs are deterministic; a failure means
// the collapse is wrong, not bad luck.
func TestOccupancyMatchesPerNodeDistributions(t *testing.T) {
	const trials = 200
	counts := []int64{120, 60, 60}
	runs := map[string]func(*plurality.Population, ...plurality.Option) (plurality.AsyncResult, error){
		"two-choices": plurality.RunTwoChoicesAsync,
		"3-majority":  plurality.RunThreeMajorityAsync,
	}
	for _, model := range []plurality.Model{plurality.Sequential, plurality.Poisson} {
		for name, run := range runs {
			perT, perM := runEngineTrials(t, run, counts, plurality.EnginePerNode, model, trials, 100)
			occT, occM := runEngineTrials(t, run, counts, plurality.EngineOccupancy, model, trials, 9000)
			thresh := ksThresh(0.001, trials, trials) + 1.0/240
			if d := ksStat(perT, occT); d > thresh {
				t.Errorf("%s model=%d: consensus-time KS %.4f > %.4f", name, model, d, thresh)
			}
			if d := ksStat(perM, occM); d > thresh {
				t.Errorf("%s model=%d: tick-count KS %.4f > %.4f", name, model, d, thresh)
			}
		}
	}
}

// TestOccupancyMatchesPerNodeTrajectory compares the engines mid-run: the
// distribution of the plurality color's support after exactly MaxTime units
// of parallel time (the run times out by construction) must agree. This
// exercises the occupancy engine's timeout bookkeeping — tick budgets drawn
// from Poisson order statistics — against ground truth.
func TestOccupancyMatchesPerNodeTrajectory(t *testing.T) {
	const trials = 250
	counts := []int64{150, 75, 75}
	collect := func(engine plurality.Engine) []float64 {
		var out []float64
		for i := 0; i < trials; i++ {
			pop, err := plurality.NewPopulation(counts)
			if err != nil {
				t.Fatal(err)
			}
			_, err = plurality.RunTwoChoicesAsync(pop,
				plurality.WithSeed(3000+uint64(i)),
				plurality.WithEngine(engine),
				plurality.WithModel(plurality.Poisson),
				plurality.WithMaxTime(3)) // far short of consensus
			if err == nil || !errors.Is(err, plurality.ErrTimeLimit) {
				t.Fatalf("trial %d: err = %v, want ErrTimeLimit", i, err)
			}
			out = append(out, float64(pop.Count(0)))
		}
		return out
	}
	per := collect(plurality.EnginePerNode)
	occ := collect(plurality.EngineOccupancy)
	// The support counts live on a lattice of integers; allow the usual
	// lattice slack on top of the KS threshold.
	thresh := ksThresh(0.001, trials, trials) + 1.0/50
	if d := ksStat(per, occ); d > thresh {
		t.Errorf("plurality-support trajectory KS %.4f > %.4f", d, thresh)
	}
}

// runDynamicBySpec adapts the registry entry point to runEngineTrials.
func runDynamicBySpec(spec string) func(*plurality.Population, ...plurality.Option) (plurality.AsyncResult, error) {
	return func(pop *plurality.Population, opts ...plurality.Option) (plurality.AsyncResult, error) {
		return plurality.RunDynamic(spec, pop, opts...)
	}
}

// TestNewProtocolsMatchPerNodeDistributions extends the cross-engine
// distributional-equivalence gate to the registry's new families: for USD
// (whose undecided state rides in the occupancy engine's hidden bucket)
// and a j-Majority instance off the anchor points, the count-collapsed
// engine's consensus-time and tick-count distributions must be
// KS-indistinguishable from the per-node engine's, under both time models.
func TestNewProtocolsMatchPerNodeDistributions(t *testing.T) {
	const trials = 200
	counts := []int64{120, 60, 60}
	for _, model := range []plurality.Model{plurality.Sequential, plurality.Poisson} {
		for _, spec := range []string{"usd", "j-majority:4"} {
			run := runDynamicBySpec(spec)
			perT, perM := runEngineTrials(t, run, counts, plurality.EnginePerNode, model, trials, 100)
			occT, occM := runEngineTrials(t, run, counts, plurality.EngineOccupancy, model, trials, 9000)
			thresh := ksThresh(0.001, trials, trials) + 1.0/240
			if d := ksStat(perT, occT); d > thresh {
				t.Errorf("%s model=%d: consensus-time KS %.4f > %.4f", spec, model, d, thresh)
			}
			if d := ksStat(perM, occM); d > thresh {
				t.Errorf("%s model=%d: tick-count KS %.4f > %.4f", spec, model, d, thresh)
			}
		}
	}
}

// TestJMajorityOneIsVoterBitForBit: j = 1 adopts the single sample without
// consuming any tie-break randomness, so under the per-node engine it must
// reproduce Voter exactly, seed for seed — the strongest form of the j=1
// anchor gate.
func TestJMajorityOneIsVoterBitForBit(t *testing.T) {
	counts := []int64{90, 60, 50}
	for seed := uint64(0); seed < 20; seed++ {
		popJ, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		popV, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		opts := []plurality.Option{
			plurality.WithSeed(seed),
			plurality.WithEngine(plurality.EnginePerNode),
			plurality.WithModel(plurality.Poisson),
			plurality.WithMaxTime(1e6),
		}
		resJ, errJ := plurality.RunDynamic("j-majority:1", popJ, opts...)
		resV, errV := plurality.RunVoterAsync(popV, opts...)
		if errJ != nil || errV != nil {
			t.Fatalf("seed %d: errs %v / %v", seed, errJ, errV)
		}
		if resJ != resV {
			t.Fatalf("seed %d: j-majority:1 %+v != voter %+v", seed, resJ, resV)
		}
	}
}

// TestJMajorityThreeMatchesThreeMajority: the j = 3 instance must be
// KS-indistinguishable from the 3-Majority built-in (whose first-sample
// tie-break is uniform over the tied colors by exchangeability) on
// consensus times and tick counts. Fixed seeds; the kernels' exact
// equality is separately pinned in the jmajority package.
func TestJMajorityThreeMatchesThreeMajority(t *testing.T) {
	const trials = 250
	counts := []int64{120, 60, 60}
	for _, engine := range []plurality.Engine{plurality.EnginePerNode, plurality.EngineOccupancy} {
		jT, jM := runEngineTrials(t, runDynamicBySpec("j-majority:3"), counts, engine, plurality.Poisson, trials, 300)
		mT, mM := runEngineTrials(t, plurality.RunThreeMajorityAsync, counts, engine, plurality.Poisson, trials, 7700)
		thresh := ksThresh(0.001, trials, trials) + 1.0/240
		if d := ksStat(jT, mT); d > thresh {
			t.Errorf("engine=%d: consensus-time KS %.4f > %.4f", engine, d, thresh)
		}
		if d := ksStat(jM, mM); d > thresh {
			t.Errorf("engine=%d: tick-count KS %.4f > %.4f", engine, d, thresh)
		}
	}
}

// TestLeapMatchesExactDistributions is the hybrid engine's half of the
// distributional-equivalence gate: at sizes where the exact count-collapsed
// engine is still affordable, the tau-leap engine's consensus-time and
// tick-count distributions must stay KS-close to the exact law. Unlike the
// per-node/occupancy gate (a collapse-correctness check, equal in law), the
// leap engine is approximate by design — the slack term budgets its O(Eps)
// leaping bias and its deterministic mean-rate clock on top of the usual
// KS sampling threshold. n = 10⁷ is trimmed under -short (the -race CI job
// runs -short). ODE handoff never engages below n = 10⁸ at the default
// threshold, so this pins the stochastic regimes; the ODE path is covered
// by the occupancy and meanfield package tests. The trials run in parallel
// on the counts entry point, which for a fixed seed is bit-identical to the
// population one (TestCountsAPIMatchesPopulationRun).
func TestLeapMatchesExactDistributions(t *testing.T) {
	cases := []struct {
		n      int64
		trials int
		short  bool // also runs under -short
	}{
		{1e5, 100, true},
		{1e6, 80, true},
		{1e7, 50, false},
	}
	for _, spec := range []string{"two-choices", "usd"} {
		for _, c := range cases {
			if !c.short && testing.Short() {
				continue
			}
			counts := []int64{c.n / 2, c.n / 4, c.n / 4}
			occT, occM := runCountsTrials(t, spec, counts, plurality.EngineOccupancy, plurality.Poisson, c.trials, 4100)
			leapT, leapM := runCountsTrials(t, spec, counts, plurality.EngineLeap, plurality.Poisson, c.trials, 62000)
			thresh := ksThresh(0.001, c.trials, c.trials) + 0.12
			t.Logf("%s n=%g: timeKS=%.4f tickKS=%.4f thresh=%.4f", spec, float64(c.n), ksStat(occT, leapT), ksStat(occM, leapM), thresh)
			if d := ksStat(occT, leapT); d > thresh {
				t.Errorf("%s n=%g: consensus-time KS %.4f > %.4f", spec, float64(c.n), d, thresh)
			}
			if d := ksStat(occM, leapM); d > thresh {
				t.Errorf("%s n=%g: tick-count KS %.4f > %.4f", spec, float64(c.n), d, thresh)
			}
		}
	}
}

// TestCountsAPIMatchesPopulationRun: the O(k)-memory counts entry point and
// the population entry point drive the identical engine off the identical
// RNG streams, so for a fixed seed they must agree bit for bit.
func TestCountsAPIMatchesPopulationRun(t *testing.T) {
	counts := []int64{500, 250, 250}
	pop, err := plurality.NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	fromPop, err := plurality.RunTwoChoicesAsync(pop,
		plurality.WithSeed(77), plurality.WithModel(plurality.Poisson))
	if err != nil {
		t.Fatal(err)
	}
	cs := append([]int64(nil), counts...)
	fromCounts, err := plurality.RunTwoChoicesCounts(cs,
		plurality.WithSeed(77), plurality.WithModel(plurality.Poisson))
	if err != nil {
		t.Fatal(err)
	}
	if fromPop != fromCounts {
		t.Fatalf("population run %+v != counts run %+v", fromPop, fromCounts)
	}
	if cs[fromCounts.Winner] != 1000 {
		t.Fatalf("counts not driven to consensus: %v", cs)
	}
	if !pop.ConsensusOn(fromPop.Winner) {
		t.Fatal("population not written back to consensus")
	}

	// The same bit-for-bit identity must hold for USD, whose undecided
	// state rides in the engine's hidden bucket on both paths.
	popU, err := plurality.NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	fromPopU, err := plurality.RunDynamic("usd", popU,
		plurality.WithSeed(78), plurality.WithModel(plurality.Poisson))
	if err != nil {
		t.Fatal(err)
	}
	csU := append([]int64(nil), counts...)
	fromCountsU, err := plurality.RunDynamicCounts("usd", csU,
		plurality.WithSeed(78), plurality.WithModel(plurality.Poisson))
	if err != nil {
		t.Fatal(err)
	}
	if fromPopU != fromCountsU {
		t.Fatalf("usd population run %+v != counts run %+v", fromPopU, fromCountsU)
	}
	if csU[fromCountsU.Winner] != 1000 || !popU.ConsensusOn(fromPopU.Winner) {
		t.Fatalf("usd runs not driven to consensus: %v / %v", csU, popU.Counts())
	}
}

// TestCountsAPIChurnAndVoter covers the tick-mode paths of the counts API.
func TestCountsAPIChurnAndVoter(t *testing.T) {
	cs := []int64{600, 400}
	res, err := plurality.RunThreeMajorityCounts(cs,
		plurality.WithSeed(5), plurality.WithChurn(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Churns == 0 {
		t.Fatalf("churned counts run: %+v", res)
	}
	cs2 := []int64{300, 200}
	res2, err := plurality.RunVoterCounts(cs2, plurality.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Done {
		t.Fatalf("voter counts run: %+v", res2)
	}
}

// TestEngineSelectionErrors pins the explicit-failure contract of
// EngineOccupancy and the counts API.
func TestEngineSelectionErrors(t *testing.T) {
	counts := []int64{50, 50}
	pop, err := plurality.NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := plurality.CycleGraph(100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plurality.RunTwoChoicesAsync(pop,
		plurality.WithEngine(plurality.EngineOccupancy), plurality.WithGraph(g)); err == nil {
		t.Error("EngineOccupancy on a cycle: no error")
	}
	if _, err := plurality.RunTwoChoicesAsync(pop,
		plurality.WithEngine(plurality.EngineOccupancy),
		plurality.WithEdgeLatency(plurality.ExpEdgeLatency(1))); err == nil {
		t.Error("EngineOccupancy with edge latencies: no error")
	}
	if _, err := plurality.RunTwoChoicesCounts(counts,
		plurality.WithEngine(plurality.EnginePerNode)); err == nil {
		t.Error("counts API with EnginePerNode: no error")
	}
	if _, err := plurality.RunTwoChoicesCounts(counts,
		plurality.WithResponseDelay(2)); err == nil {
		t.Error("counts API with response delays: no error")
	}
	if _, err := plurality.RunTwoChoicesCounts([]int64{1}); err == nil {
		t.Error("degenerate histogram: no error")
	}
	if _, err := plurality.RunTwoChoicesCounts(counts,
		plurality.WithModel(plurality.HeapPoisson)); err == nil {
		t.Error("counts API with the O(n) HeapPoisson scheduler: no error")
	}
	// An effectively-unbounded MaxTime must still complete (tick-mode
	// fallback), not overflow the leap tick budget.
	cs := []int64{60, 40}
	if res, err := plurality.RunTwoChoicesCounts(cs,
		plurality.WithSeed(2), plurality.WithMaxTime(1e18)); err != nil || !res.Done {
		t.Errorf("huge MaxTime counts run: res=%+v err=%v", res, err)
	}
	// A latency-configured run must still work under EngineAuto — it
	// falls back to the per-node engine rather than erroring.
	pop2, err := plurality.NewPopulation([]int64{60, 40})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plurality.RunTwoChoicesAsync(pop2,
		plurality.WithSeed(4), plurality.WithEdgeLatency(plurality.ExpEdgeLatency(0.1))); err != nil {
		t.Errorf("EngineAuto latency fallback: %v", err)
	}
}

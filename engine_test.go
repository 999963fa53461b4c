package plurality_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"plurality"
	"plurality/internal/par"
	"plurality/internal/stats"
)

// ksStat and ksThresh delegate to the shared KS helpers in internal/stats.
func ksStat(a, b []float64) float64            { return stats.KSStatistic(a, b) }
func ksThresh(alpha float64, m, n int) float64 { return stats.KSThreshold(alpha, m, n) }

// engineJob compiles the registry protocol spec over counts for one trial
// under the given engine and model.
func engineJob(spec string, counts []int64, engine plurality.Engine, model plurality.Model, seed uint64, maxTime float64) (*plurality.Job, error) {
	return plurality.NewJob(spec, counts,
		plurality.WithSeed(seed),
		plurality.WithEngine(engine),
		plurality.WithModel(model),
		plurality.WithMaxTime(maxTime))
}

// runEngineTrials collects consensus times and tick counts of an
// asynchronous dynamics run under the given engine, each on a fresh
// population that must end on the reported winner.
func runEngineTrials(t *testing.T, spec string, counts []int64, engine plurality.Engine, model plurality.Model, trials int, seedBase uint64) (times, ticks []float64) {
	t.Helper()
	for i := 0; i < trials; i++ {
		pop, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		job, err := engineJob(spec, counts, engine, model, seedBase+uint64(i), 1e6)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := job.RunOn(context.Background(), pop)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		if !pop.ConsensusOn(rep.Winner) {
			t.Fatalf("trial %d: population disagrees with reported winner %d", i, rep.Winner)
		}
		times = append(times, rep.Time)
		ticks = append(ticks, float64(rep.Ticks))
	}
	return times, ticks
}

// runCountsTrials is runEngineTrials on the job's own counts, which the
// histogram engines run without a population, with the trials spread over
// GOMAXPROCS goroutines; times and ticks stay in trial order.
func runCountsTrials(t *testing.T, spec string, counts []int64, engine plurality.Engine, model plurality.Model, trials int, seedBase uint64) (times, ticks []float64) {
	t.Helper()
	times, ticks = make([]float64, trials), make([]float64, trials)
	err := par.ForEach(0, trials, func(i int) error {
		job, err := engineJob(spec, counts, engine, model, seedBase+uint64(i), 1e6)
		if err != nil {
			return err
		}
		rep, err := job.Run(context.Background())
		if err != nil {
			return err
		}
		if !rep.Converged {
			return fmt.Errorf("trial %d did not converge: %+v", i, rep)
		}
		times[i], ticks[i] = rep.Time, float64(rep.Ticks)
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
	for _, model := range []plurality.Model{plurality.Sequential, plurality.Poisson} {
		for _, name := range []string{"two-choices", "3-majority"} {
			perT, perM := runEngineTrials(t, name, counts, plurality.EnginePerNode, model, trials, 100)
			occT, occM := runEngineTrials(t, name, counts, plurality.EngineOccupancy, model, trials, 9000)
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
			job, err := engineJob("two-choices", counts, engine, plurality.Poisson, 3000+uint64(i), 3) // far short of consensus
			if err != nil {
				t.Fatal(err)
			}
			_, err = job.RunOn(context.Background(), pop)
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
			perT, perM := runEngineTrials(t, spec, counts, plurality.EnginePerNode, model, trials, 100)
			occT, occM := runEngineTrials(t, spec, counts, plurality.EngineOccupancy, model, trials, 9000)
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
	run := func(spec string, seed uint64) plurality.Report {
		job, err := engineJob(spec, counts, plurality.EnginePerNode, plurality.Poisson, seed, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := job.Run(context.Background())
		if err != nil {
			t.Fatalf("%s seed %d: %v", spec, seed, err)
		}
		rep.Protocol = "" // the one field that names the spec
		return rep
	}
	for seed := uint64(0); seed < 20; seed++ {
		resJ, resV := run("j-majority:1", seed), run("voter", seed)
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
		jT, jM := runEngineTrials(t, "j-majority:3", counts, engine, plurality.Poisson, trials, 300)
		mT, mM := runEngineTrials(t, "3-majority", counts, engine, plurality.Poisson, trials, 7700)
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
// on the jobs' counts, which for a fixed seed is bit-identical to a run on
// a population (TestCountsAPIMatchesPopulationRun).
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

// TestCountsAPIMatchesPopulationRun: under EngineAuto the planner runs a
// job on the clique or an annealed topology on its counts alone (Run), and
// on a caller's population (RunOn) collapses that population's histogram:
// both drive the identical engine off the identical RNG streams, so for a
// fixed seed they must agree bit for bit, and RunOn must write the final
// state back. USD's undecided state rides in the engine's hidden bucket
// (occupancy) or per-class column (lumped) on both paths.
func TestCountsAPIMatchesPopulationRun(t *testing.T) {
	counts := []int64{500, 250, 250}
	regular, err := plurality.AnnealedRegularGraph(1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := plurality.RandomGraph(1000, 0.02, 5)
	if err != nil {
		t.Fatal(err)
	}
	if gnp, err = plurality.AnnealedGraph(gnp); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		spec   string
		seed   uint64
		graph  plurality.Graph
		engine string
	}{
		{"two-choices", 77, nil, "occupancy"},
		{"usd", 78, nil, "occupancy"},
		{"two-choices", 79, regular, "lumped"},
		{"usd", 80, regular, "lumped"},
		{"two-choices", 81, gnp, "lumped"},
		{"usd", 82, gnp, "lumped"},
	} {
		opts := []plurality.Option{plurality.WithSeed(tc.seed), plurality.WithModel(plurality.Poisson)}
		if tc.graph != nil {
			opts = append(opts, plurality.WithGraph(tc.graph))
		}
		job, err := plurality.NewJob(tc.spec, counts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		fromCounts, err := job.Run(ctx)
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.spec, tc.engine, err)
		}
		pop, err := plurality.NewPopulation(counts)
		if err != nil {
			t.Fatal(err)
		}
		fromPop, err := job.RunOn(ctx, pop)
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.spec, tc.engine, err)
		}
		if fromPop != fromCounts {
			t.Fatalf("%s on %s: population run %+v != counts run %+v", tc.spec, tc.engine, fromPop, fromCounts)
		}
		if !fromCounts.Converged || fromCounts.Engine != tc.engine {
			t.Fatalf("%s: counts run %+v, want a converged %s run", tc.spec, fromCounts, tc.engine)
		}
		if !pop.ConsensusOn(fromPop.Winner) {
			t.Fatalf("%s on %s: population %v not written back to consensus", tc.spec, tc.engine, pop.Counts())
		}
	}
}

// TestCountsAPIChurnAndVoter covers the tick-mode paths of the histogram
// runs.
func TestCountsAPIChurnAndVoter(t *testing.T) {
	ctx := context.Background()
	job, err := plurality.NewJob("3-majority", []int64{600, 400},
		plurality.WithSeed(5), plurality.WithChurn(0.0002))
	if err != nil {
		t.Fatal(err)
	}
	res, err := job.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Churns == 0 || res.Engine != "occupancy" {
		t.Fatalf("churned counts run: %+v", res)
	}
	job2, err := plurality.NewJob("voter", []int64{300, 200}, plurality.WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := job2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Converged {
		t.Fatalf("voter counts run: %+v", res2)
	}
}

// TestEngineSelectionErrors pins the explicit-failure contract of
// EngineOccupancy and of the histogram runs.
func TestEngineSelectionErrors(t *testing.T) {
	counts := []int64{50, 50}
	g, err := plurality.CycleGraph(100)
	if err != nil {
		t.Fatal(err)
	}
	occupancy := plurality.WithEngine(plurality.EngineOccupancy)
	for _, tc := range []struct {
		name   string
		counts []int64
		opts   []plurality.Option
	}{
		{"EngineOccupancy on a cycle", counts, []plurality.Option{occupancy, plurality.WithGraph(g)}},
		{"EngineOccupancy with edge latencies", counts, []plurality.Option{occupancy,
			plurality.WithEdgeLatency(plurality.ExpEdgeLatency(1))}},
		{"EngineOccupancy with response delays", counts, []plurality.Option{occupancy, plurality.WithResponseDelay(2)}},
		{"degenerate histogram", []int64{1}, nil},
	} {
		if _, err := plurality.NewJob("two-choices", tc.counts, tc.opts...); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	ctx := context.Background()
	// An effectively-unbounded MaxTime must still complete (tick-mode
	// fallback), not overflow the leap tick budget.
	job, err := plurality.NewJob("two-choices", []int64{60, 40},
		plurality.WithSeed(2), plurality.WithMaxTime(1e18))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := job.Run(ctx); err != nil || !rep.Converged {
		t.Errorf("huge MaxTime counts run: rep=%+v err=%v", rep, err)
	}
	// A latency-configured run must still work under EngineAuto — it
	// falls back to the per-node engine rather than erroring.
	job, err = plurality.NewJob("two-choices", []int64{60, 40},
		plurality.WithSeed(4), plurality.WithEdgeLatency(plurality.ExpEdgeLatency(0.1)))
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := job.Run(ctx); err != nil || rep.Engine != "per-node" {
		t.Errorf("EngineAuto latency fallback: rep=%+v err=%v", rep, err)
	}
}

// TestAutoJobAtTrillionNodesRunsOnLeap: a default-engine job of 10¹² nodes
// needs no population — the planner runs it on its counts and, from
// LeapAutoN = 10¹⁰ nodes on, on the hybrid leap engine, where Two-Choices
// converges in milliseconds. (Below the bound the scale grid's auto cells
// pin the exact engines.)
func TestAutoJobAtTrillionNodesRunsOnLeap(t *testing.T) {
	counts, err := plurality.Biased(1_000_000_000_000, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	job, err := plurality.NewJob("two-choices", counts, plurality.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 || rep.Engine != "leap" {
		t.Fatalf("%+v, want plurality consensus on the leap engine", rep)
	}
}

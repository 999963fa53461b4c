package dynamics_test

import (
	"strings"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/graph"
	"plurality/internal/plan"
	"plurality/internal/population"
	dynamics "plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/twochoices"
	"plurality/internal/protocols/usd"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// annealedTwoClass builds the canonical multi-class lumpable fixture: a
// two-class annealed configuration model with a matching population laid out
// in color-major blocks (population.FromCounts's convention).
func annealedTwoClass(t *testing.T) (*graph.Annealed, *population.Population) {
	t.Helper()
	g, err := graph.NewAnnealed([]graph.Class{{Degree: 3, Count: 60}, {Degree: 9, Count: 60}})
	if err != nil {
		t.Fatal(err)
	}
	pop, err := population.FromCounts([]int64{75, 45})
	if err != nil {
		t.Fatal(err)
	}
	return g, pop
}

func classedCfg(t *testing.T, g graph.Graph, seed uint64, e dynamics.Engine) dynamics.AsyncConfig {
	t.Helper()
	s, err := sched.NewPoisson(g.N(), 1, rng.At(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return dynamics.AsyncConfig{
		Graph:     g,
		Scheduler: s,
		Rand:      rng.At(seed, 1),
		MaxTime:   1e6,
		Engine:    e,
	}
}

// TestRunAsyncAutoSelectsLumpedOnClassed: on a graph.Classed topology,
// EngineAuto must route to the lumped engine — pinned by fixed-seed
// trajectory identity with EngineOccupancy (which requires the collapsed
// path): same seed, same Ticks/Time/Winner, and a fully unanimous write-back.
func TestRunAsyncAutoSelectsLumpedOnClassed(t *testing.T) {
	g, popAuto := annealedTwoClass(t)
	_, popOcc := annealedTwoClass(t)
	const seed = 71
	resAuto, err := dynamics.RunAsync(popAuto, twochoices.Rule{}, classedCfg(t, g, seed, dynamics.EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	resOcc, err := dynamics.RunAsync(popOcc, twochoices.Rule{}, classedCfg(t, g, seed, dynamics.EngineOccupancy))
	if err != nil {
		t.Fatal(err)
	}
	if !resAuto.Done || !resOcc.Done {
		t.Fatalf("runs did not converge: auto %+v, occupancy %+v", resAuto, resOcc)
	}
	if resAuto != resOcc {
		t.Errorf("EngineAuto did not take the lumped path: auto %+v != occupancy %+v", resAuto, resOcc)
	}
	if !popAuto.IsUnanimous() || popAuto.Plurality() != resAuto.Winner {
		t.Errorf("write-back: population plurality %v unanimous=%v, want winner %v unanimous",
			popAuto.Plurality(), popAuto.IsUnanimous(), resAuto.Winner)
	}
}

// TestRunAsyncOccupancyRejectsQuenchedGraph: quenched topologies advertise no
// lumpable symmetry, so forcing count-collapsed execution on them must fail
// with an error naming both missing collapses.
func TestRunAsyncOccupancyRejectsQuenchedGraph(t *testing.T) {
	g, err := graph.NewCycle(100)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := population.FromCounts([]int64{60, 40})
	if err != nil {
		t.Fatal(err)
	}
	_, err = dynamics.RunAsync(pop, twochoices.Rule{}, classedCfg(t, g, 3, dynamics.EngineOccupancy))
	if err == nil || !strings.Contains(err.Error(), "lumpable") {
		t.Errorf("err = %v, want a not-lumpable rejection", err)
	}
	// EngineAuto on the same quenched run silently falls back per-node.
	_, err = dynamics.RunAsync(pop, twochoices.Rule{}, classedCfg(t, g, 3, dynamics.EngineAuto))
	if err != nil {
		t.Errorf("EngineAuto on a quenched cycle: %v", err)
	}
}

// TestRunAsyncClassedAdversaryFallsBackPerNode: the lumped engine cannot
// honor adversaries, so an adversarial run on a Classed topology must fall
// back to the per-node engine under EngineAuto and fail under
// EngineOccupancy.
func TestRunAsyncClassedAdversaryFallsBackPerNode(t *testing.T) {
	mk := func(e dynamics.Engine) (*population.Population, dynamics.AsyncConfig) {
		g, pop := annealedTwoClass(t)
		cfg := classedCfg(t, g, 5, e)
		adv, err := adversary.New(adversary.Spec{Name: "corrupt", Budget: 2}, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Adversary = adv
		return pop, cfg
	}
	pop, cfg := mk(dynamics.EngineAuto)
	res, err := dynamics.RunAsync(pop, twochoices.Rule{}, cfg)
	if err != nil || !res.Done {
		t.Fatalf("adversarial EngineAuto run on Classed graph: res = %+v, err = %v", res, err)
	}
	if res.Corruptions == 0 {
		t.Error("adversary never acted; the run did not execute per-node with the adversary installed")
	}
	pop, cfg = mk(dynamics.EngineOccupancy)
	_, err = dynamics.RunAsync(pop, twochoices.Rule{}, cfg)
	if err == nil || !strings.Contains(err.Error(), "adversary") {
		t.Errorf("err = %v, want an adversary rejection", err)
	}
}

// TestRunAsyncCountsClassed: a counts run on a Classed topology must execute
// in the lumped engine via the canonical color-major block split — pinned by
// fixed-seed identity with the population entry point on the same annealed
// graph, seed and FromCounts layout — and fold the matrix back into counts.
// USD carries its undecided state in the lumped engine's per-class column
// on both entry points.
func TestRunAsyncCountsClassed(t *testing.T) {
	for _, rule := range []dynamics.Rule{twochoices.Rule{}, usd.Rule{}} {
		g, pop := annealedTwoClass(t)
		const seed = 29
		counts := []int64{75, 45}
		resCounts, err := dynamics.RunAsyncCounts(counts, rule, classedCfg(t, g, seed, dynamics.EngineAuto))
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		resPop, err := dynamics.RunAsync(pop, rule, classedCfg(t, g, seed, dynamics.EngineOccupancy))
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		checkCountsRun(t, rule, counts, pop, resCounts, resPop, plan.Lumped)
	}
}

// TestRunAsyncCountsClique: on the clique a counts run executes in the
// occupancy engine, bit-identical to the population entry point from the
// same seed, and writes the final histogram back into counts.
func TestRunAsyncCountsClique(t *testing.T) {
	g, err := graph.NewComplete(120)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []dynamics.Rule{twochoices.Rule{}, usd.Rule{}} {
		pop, err := population.FromCounts([]int64{75, 45})
		if err != nil {
			t.Fatal(err)
		}
		const seed = 31
		counts := []int64{75, 45}
		cfg := classedCfg(t, g, seed, dynamics.EngineAuto)
		cfg.Graph = nil // the implied clique
		resCounts, err := dynamics.RunAsyncCounts(counts, rule, cfg)
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		resPop, err := dynamics.RunAsync(pop, rule, classedCfg(t, g, seed, dynamics.EngineAuto))
		if err != nil {
			t.Fatalf("%s: %v", rule.Name(), err)
		}
		checkCountsRun(t, rule, counts, pop, resCounts, resPop, plan.Occupancy)
	}
}

// checkCountsRun asserts that a converged counts run equals the population
// run of the same start, ran on engine, and wrote a consensus of all 120
// nodes back into both counts and pop.
func checkCountsRun(t *testing.T, rule dynamics.Rule, counts []int64, pop *population.Population, resCounts, resPop dynamics.AsyncResult, engine plan.Engine) {
	t.Helper()
	if resCounts != resPop {
		t.Errorf("%s: counts run diverged from population run: %+v != %+v", rule.Name(), resCounts, resPop)
	}
	if !resCounts.Done || resCounts.Engine != engine {
		t.Errorf("%s: counts run %+v, want a converged %v run", rule.Name(), resCounts, engine)
	}
	var n int64
	for _, v := range counts {
		n += v
	}
	if n != 120 || counts[resCounts.Winner] != 120 {
		t.Errorf("%s: final histogram %v, want all 120 nodes on winner %v", rule.Name(), counts, resCounts.Winner)
	}
	if !pop.ConsensusOn(resPop.Winner) {
		t.Errorf("%s: population %v not written back to consensus on %v", rule.Name(), pop.Counts(), resPop.Winner)
	}
}

// TestRunAsyncCountsClassedRejections: the lumped counts path inherits every
// count-collapse restriction — no leap engine, no per-node pending state, no
// adversaries, and the class total must match the histogram.
func TestRunAsyncCountsClassedRejections(t *testing.T) {
	g, _ := annealedTwoClass(t)
	base := func() dynamics.AsyncConfig { return classedCfg(t, g, 7, dynamics.EngineAuto) }

	cfg := base()
	cfg.Engine = dynamics.EngineLeap
	if _, err := dynamics.RunAsyncCounts([]int64{75, 45}, twochoices.Rule{}, cfg); err == nil {
		t.Error("EngineLeap on a Classed counts run should fail")
	}

	cfg = base()
	cfg.Delay = sched.ExpDelay{Rate: 1}
	if _, err := dynamics.RunAsyncCounts([]int64{75, 45}, twochoices.Rule{}, cfg); err == nil {
		t.Error("delays on a Classed counts run should fail")
	}

	cfg = base()
	adv, err := adversary.New(adversary.Spec{Name: "corrupt", Budget: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adversary = adv
	if _, err := dynamics.RunAsyncCounts([]int64{75, 45}, twochoices.Rule{}, cfg); err == nil {
		t.Error("an adversary on a Classed counts run should fail")
	}

	if _, err := dynamics.RunAsyncCounts([]int64{75, 44}, twochoices.Rule{}, base()); err == nil {
		t.Error("histogram/class-total mismatch should fail")
	}
}

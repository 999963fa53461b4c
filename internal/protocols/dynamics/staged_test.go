package dynamics_test

import (
	"fmt"
	"testing"

	"plurality/internal/graph"
	"plurality/internal/population"
	dynamics "plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/jmajority"
	"plurality/internal/protocols/threemajority"
	"plurality/internal/protocols/twochoices"
	"plurality/internal/protocols/usd"
	"plurality/internal/protocols/voter"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// TestStagedLoopMatchesGeneralPath pins the per-node engine's staged batch
// loop, which runs when OnTick is nil, to its general per-tick path, which
// a no-op OnTick forces, bit for bit: same result, same error, same final
// colour of every node. It covers every rule whose Next draws nothing, on
// the clique with and without self-sampling, the cycle (the interface
// Sample path) and a CSR graph in each layout, random regular and G(n,p),
// under both clocks. The small populations make every batch dense with
// nodes written and then read within the batch; a few longer clique runs
// reach the feed's producer.
func TestStagedLoopMatchesGeneralPath(t *testing.T) {
	rules := []dynamics.Rule{twochoices.Rule{}, voter.Rule{}, threemajority.Rule{}, usd.Rule{}, jmajority.Rule{J: 1}}
	seeds := uint64(6)
	if testing.Short() {
		seeds = 3
	}
	// One runner carries the staged runs across the whole grid, so a rule
	// reuses the neighbour buffer a rule with more samples left behind.
	var staged dynamics.Runner
	cases, converged := 0, 0
	for _, n := range []int{4, 7, 17, 64, 300, 2000} {
		for _, g := range stagedGraphs(t, n) {
			for _, rule := range rules {
				for _, poisson := range []bool{false, true} {
					for seed := uint64(1); seed <= seeds; seed++ {
						name := fmt.Sprintf("%s n=%d %s poisson=%v seed=%d", rule.Name(), n, g.name, poisson, seed)
						want, wantPop, wantErr := runStagedCase(t, new(dynamics.Runner), rule, g.g, poisson, seed,
							func(sched.Tick, *population.Population) {})
						got, gotPop, gotErr := runStagedCase(t, &staged, rule, g.g, poisson, seed, nil)
						if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Fatalf("%s: staged (%+v, %v) != general (%+v, %v)", name, got, gotErr, want, wantErr)
						}
						for u := 0; u < n; u++ {
							if gotPop.ColorOf(u) != wantPop.ColorOf(u) {
								t.Fatalf("%s: node %d ends on colour %d staged, %d general", name, u, gotPop.ColorOf(u), wantPop.ColorOf(u))
							}
						}
						cases++
						if got.Done {
							converged++
						}
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d converged within the time budget", cases, converged)

	// Clique runs past the feed's synchronous prefix: with a scheduler
	// generator of their own (odd seeds) the staged loop then takes its
	// ticks from the feed's producer goroutine, and with a shared one
	// (even seeds) never. Voter runs to the time budget, Two-Choices to
	// consensus. These cases run under -short too.
	for _, c := range []struct {
		rule dynamics.Rule
		n    int
		done bool
	}{{voter.Rule{}, 4000, false}, {twochoices.Rule{}, 12000, true}} {
		for _, g := range []namedGraph{{"clique", graph.Complete{Nodes: c.n}}, {"clique+self", graph.Complete{Nodes: c.n, WithSelf: true}}} {
			for seed := uint64(1); seed <= 2; seed++ {
				name := fmt.Sprintf("%s n=%d %s seed=%d", c.rule.Name(), c.n, g.name, seed)
				want, wantPop, wantErr := runStagedCase(t, new(dynamics.Runner), c.rule, g.g, true, seed,
					func(sched.Tick, *population.Population) {})
				got, gotPop, gotErr := runStagedCase(t, &staged, c.rule, g.g, true, seed, nil)
				if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: staged (%+v, %v) != general (%+v, %v)", name, got, gotErr, want, wantErr)
				}
				for u := 0; u < c.n; u++ {
					if gotPop.ColorOf(u) != wantPop.ColorOf(u) {
						t.Fatalf("%s: node %d ends on colour %d staged, %d general", name, u, gotPop.ColorOf(u), wantPop.ColorOf(u))
					}
				}
				if got.Ticks <= sched.FeedSyncTicks || got.Done != c.done {
					t.Fatalf("%s: %d ticks, done %v; want more than %d, done %v", name, got.Ticks, got.Done, sched.FeedSyncTicks, c.done)
				}
			}
		}
	}
}

// namedGraph is one topology of TestStagedLoopMatchesGeneralPath.
type namedGraph struct {
	name string
	g    graph.Graph
}

// stagedGraphs returns the topologies of TestStagedLoopMatchesGeneralPath
// on n nodes. It has a CSR graph in each layout: a random regular graph,
// 4-regular where n allows it, which keeps no row offsets, and a G(n,p)
// graph of mean degree about 4 and rows of several lengths, which does.
func stagedGraphs(t *testing.T, n int) []namedGraph {
	t.Helper()
	cycle, err := graph.NewCycle(n)
	if err != nil {
		t.Fatal(err)
	}
	csr, err := graph.NewRandomRegular(n, min(4, n-1), rng.New(uint64(n)))
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := graph.NewGNP(n, min(0.5, 4/float64(n-1)), rng.New(uint64(n)))
	if err != nil {
		t.Fatal(err)
	}
	if _, d := csr.Regular(); d == 0 {
		t.Fatalf("n=%d: the random regular graph keeps row offsets", n)
	}
	if _, d := gnp.Regular(); d != 0 {
		t.Fatalf("n=%d: the G(n,p) graph came out regular", n)
	}
	return []namedGraph{
		{"clique", graph.Complete{Nodes: n}},
		{"clique+self", graph.Complete{Nodes: n, WithSelf: true}},
		{"cycle", cycle},
		{"csr", csr},
		{"gnp", gnp},
	}
}

// runStagedCase runs rule on the per-node engine from a three-colour split
// of g's nodes, with the given OnTick, and returns the result, the final
// population and the error. Even seeds share one generator between the
// scheduler and the rule.
func runStagedCase(t *testing.T, rn *dynamics.Runner, rule dynamics.Rule, g graph.Graph, poisson bool, seed uint64,
	onTick func(sched.Tick, *population.Population)) (dynamics.AsyncResult, *population.Population, error) {
	t.Helper()
	n := g.N()
	pop, err := population.FromCounts([]int64{int64(n / 2), int64(n / 4), int64(n - n/2 - n/4)})
	if err != nil {
		t.Fatal(err)
	}
	r, schedRand := rng.At(seed, 1), rng.At(seed, 0)
	if seed%2 == 0 {
		schedRand = r
	}
	var s sched.Scheduler
	if poisson {
		s, err = sched.NewPoisson(n, 1, schedRand)
	} else {
		s, err = sched.NewSequential(n, schedRand)
	}
	if err != nil {
		t.Fatal(err)
	}
	res, err := rn.RunAsync(pop, rule, dynamics.AsyncConfig{
		Graph:     g,
		Scheduler: s,
		Rand:      r,
		MaxTime:   30,
		Engine:    dynamics.EnginePerNode,
		OnTick:    onTick,
	})
	return res, pop, err
}

package plurality

import (
	"context"
	"errors"
	"testing"

	"plurality/internal/graph"
	"plurality/internal/plan"
)

// TestReportEngineMatchesPlan enumerates jobs across protocol × requested
// engine × topology class × model × one extra option and, for every
// (path, topology class) pair NewJob admits, runs one and checks that the
// path that ran (Report.Engine) is the one the planner chose for it. Runs
// are at n = 64; leap jobs run at 10¹² nodes.
func TestReportEngineMatchesPlan(t *testing.T) {
	annealed, err := AnnealedRegularGraph(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := CycleGraph(64)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := advSpec(t, "corrupt", 2)
	type key struct {
		e plan.Engine
		c graph.Symmetry
	}
	seen := map[key]bool{}
	for _, spec := range []string{"two-choices", "usd", "core", "onebit"} {
		for _, eng := range []Option{nil, WithEngine(EnginePerNode), WithEngine(EngineOccupancy), WithEngine(EngineLeap)} {
			for _, g := range []Graph{nil, annealed, cycle} {
				for _, model := range []Option{nil, WithModel(Poisson), WithModel(Synchronous)} {
					for _, extra := range []Option{nil, WithEdgeLatency(ExpEdgeLatency(0.1)), WithChurn(0.001),
						WithAdversary(corrupt), WithObserver(1, func(Snapshot) {}), WithTransport(NewChanTransport())} {
						counts := []int64{40, 24}
						if eng != nil && g == nil && extra == nil {
							counts = []int64{6e11, 4e11} // only the histogram paths take 10¹² nodes
						}
						opts := []Option{WithSeed(5)}
						for _, o := range []Option{eng, model, extra} {
							if o != nil {
								opts = append(opts, o)
							}
						}
						if g != nil {
							opts = append(opts, WithGraph(g))
						}
						j, err := NewJob(spec, counts, opts...)
						if err != nil {
							continue
						}
						req, err := j.request()
						if err != nil {
							t.Fatal(err)
						}
						want, err := plan.Choose(req)
						if err != nil {
							t.Fatalf("NewJob admitted a job the planner rejects: %v", err)
						}
						k := key{want, graph.SymmetryOf(g)}
						if seen[k] {
							continue
						}
						seen[k] = true
						rep, err := j.Run(context.Background())
						if err != nil && !errors.Is(err, ErrTimeLimit) && !errors.Is(err, ErrNoConsensus) && !errors.Is(err, ErrPhaseLimit) {
							t.Fatalf("%s %+v: %v", spec, k, err)
						}
						if rep.Engine != want.String() {
							t.Errorf("%s on %v: Report.Engine = %q, planned %q", spec, k.c, rep.Engine, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d (path, topology class) pairs ran", len(seen))
	for _, e := range []plan.Engine{plan.Leap, plan.Occupancy, plan.Lumped, plan.PerNode, plan.Sync, plan.Core, plan.OneBit, plan.Node} {
		found := false
		for k := range seen {
			found = found || k.e == e
		}
		if !found {
			t.Errorf("no admitted job reached the %v path", e)
		}
	}
}

package plurality

import (
	"context"
	"errors"
	"testing"
)

func mustPop(t *testing.T, counts []int64) *Population {
	t.Helper()
	pop, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// runJob compiles spec over counts with opts and runs it once.
func runJob(t *testing.T, spec string, counts []int64, opts ...Option) (Report, error) {
	t.Helper()
	job, err := NewJob(spec, counts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return job.Run(context.Background())
}

// runJobOn compiles spec over pop's counts with opts and runs it once on
// pop, which ends in the run's final state.
func runJobOn(t *testing.T, spec string, pop *Population, opts ...Option) (Report, error) {
	t.Helper()
	job, err := NewJob(spec, pop.Counts(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return job.RunOn(context.Background(), pop)
}

func biasedCounts(t *testing.T, n, k int, eps float64) []int64 {
	t.Helper()
	counts, err := Biased(n, k, eps)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func gapSqrtCounts(t *testing.T, n, k int, z float64) []int64 {
	t.Helper()
	counts, err := GapSqrt(n, k, z)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func gapPolylogCounts(t *testing.T, n, k int, z float64) []int64 {
	t.Helper()
	counts, err := GapSqrtPolylog(n, k, z)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestWorkloadConstructors(t *testing.T) {
	tests := []struct {
		name string
		make func() ([]int64, error)
	}{
		{name: "Biased", make: func() ([]int64, error) { return Biased(10000, 8, 0.5) }},
		{name: "GapSqrt", make: func() ([]int64, error) { return GapSqrt(10000, 8, 1) }},
		{name: "GapSqrtPolylog", make: func() ([]int64, error) { return GapSqrtPolylog(10000, 8, 0.5) }},
		{name: "TinyGap", make: func() ([]int64, error) { return TinyGap(10000, 8, 1) }},
		{name: "Uniform", make: func() ([]int64, error) { return Uniform(10000, 8) }},
		{name: "Zipf", make: func() ([]int64, error) { return Zipf(10000, 8, 1.1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			counts, err := tt.make()
			if err != nil {
				t.Fatal(err)
			}
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != 10000 || len(counts) != 8 {
				t.Fatalf("counts = %v", counts)
			}
		})
	}
}

func TestRunCoreEndToEnd(t *testing.T) {
	pop := mustPop(t, biasedCounts(t, 5000, 4, 1))
	rep, err := runJobOn(t, "core", pop, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
	if !pop.ConsensusOn(0) {
		t.Fatalf("population not unanimous: %v", pop.Counts())
	}
}

func TestRunCorePoissonModel(t *testing.T) {
	rep, err := runJob(t, "core", biasedCounts(t, 3000, 4, 1), WithSeed(8), WithModel(Poisson))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestRunCoreDeterministicAcrossCalls(t *testing.T) {
	run := func() CoreResult {
		rep, err := runJob(t, "core", biasedCounts(t, 2000, 4, 1), WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		res, _ := rep.Core()
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("runs with equal seed differ: %+v vs %+v", a, b)
	}
}

func TestRunCoreUnknownModel(t *testing.T) {
	job, err := NewJob("core", biasedCounts(t, 100, 2, 1), WithModel(Model(99)))
	if err == nil {
		_, err = job.Run(context.Background())
	}
	if err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRunCoreNilPopulation(t *testing.T) {
	job, err := NewJob("core", biasedCounts(t, 100, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.RunOn(context.Background(), nil); err == nil {
		t.Fatal("nil population should fail")
	}
}

func TestRunCoreBudgetError(t *testing.T) {
	_, err := runJob(t, "core", biasedCounts(t, 2000, 4, 0.5), WithMaxTime(1))
	if !errors.Is(err, ErrNoConsensus) {
		t.Fatalf("err = %v, want ErrNoConsensus", err)
	}
}

// TestRunCoreAllHaltedError: with k = 16 colours and ∆ = 10 at n = 8000,
// where most runs halt every node before consensus, the public error says
// so while still matching ErrNoConsensus; an exhausted budget does not
// match ErrAllHalted.
func TestRunCoreAllHaltedError(t *testing.T) {
	rep, err := runJob(t, "core", biasedCounts(t, 8000, 16, 1), WithSeed(1), WithModel(Poisson), WithDelta(10))
	if !errors.Is(err, ErrAllHalted) || !errors.Is(err, ErrNoConsensus) || rep.Converged {
		t.Fatalf("rep = %+v, err = %v; want ErrAllHalted", rep, err)
	}
	_, err = runJob(t, "core", biasedCounts(t, 2000, 4, 0.5), WithMaxTime(1))
	if errors.Is(err, ErrAllHalted) {
		t.Fatalf("budget error %v matches ErrAllHalted", err)
	}
}

func TestRunTwoChoicesSync(t *testing.T) {
	rep, err := runJob(t, "two-choices", gapSqrtCounts(t, 4000, 4, 1.5), WithSeed(10), WithModel(Synchronous))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestRunTwoChoicesAsync(t *testing.T) {
	rep, err := runJob(t, "two-choices", biasedCounts(t, 2000, 3, 1), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestRunVoterBothModels(t *testing.T) {
	if _, err := runJob(t, "voter", []int64{200, 200}, WithSeed(12), WithModel(Synchronous)); err != nil {
		t.Fatal(err)
	}
	rep, err := runJob(t, "voter", []int64{200, 200}, WithSeed(13))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("voter async did not converge: %+v", rep)
	}
}

func TestRunThreeMajority(t *testing.T) {
	rep, err := runJob(t, "3-majority", biasedCounts(t, 3000, 4, 1), WithSeed(14), WithModel(Synchronous))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
	rep2, err := runJob(t, "3-majority", biasedCounts(t, 3000, 4, 1), WithSeed(15))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Converged || rep2.Winner != 0 {
		t.Fatalf("rep2 = %+v", rep2)
	}
}

func TestRunOneExtraBit(t *testing.T) {
	var phases int
	rep, err := runJob(t, "onebit", gapPolylogCounts(t, 10000, 8, 0.5), WithSeed(16), WithPhaseObserver(func(PhaseInfo) { phases++ }))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
	if phases == 0 {
		t.Fatal("phase observer never fired")
	}
}

func TestRunCoreWithProbeAndTuning(t *testing.T) {
	var probes int
	rep, err := runJob(t, "core", biasedCounts(t, 2000, 4, 1),
		WithSeed(17),
		WithDelta(40),
		WithPhases(8),
		WithGadgetSamples(20),
		WithEndgameTicks(60),
		WithProbe(10, func(CoreProbe) { probes++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("rep = %+v", rep)
	}
	if probes == 0 {
		t.Fatal("probe observer never fired")
	}
}

func TestRunCoreEndgameOnly(t *testing.T) {
	rep, err := runJob(t, "core", []int64{4500, 500}, WithSeed(18), WithEndgameOnly(), WithRunToHalt())
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := rep.Core(); !res.Done || !res.EndgameSafe || res.FirstHaltTime == 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestRunCoreWithResponseDelay(t *testing.T) {
	rep, err := runJob(t, "core", biasedCounts(t, 2000, 3, 1), WithSeed(19), WithResponseDelay(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestRunCoreFailureInjection(t *testing.T) {
	spec, err := PlanCore(4000)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runJob(t, "core", biasedCounts(t, 4000, 4, 1),
		WithSeed(20),
		WithCrashes(0.01),
		WithDesync(0.02, spec.PhaseTicks),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestPlanCore(t *testing.T) {
	spec, err := PlanCore(100000)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Delta <= 0 || spec.Part1Ticks != spec.Phases*spec.PhaseTicks {
		t.Fatalf("spec = %+v", spec)
	}
	custom, err := PlanCore(100000, WithDelta(99))
	if err != nil {
		t.Fatal(err)
	}
	if custom.Delta != 99 {
		t.Fatalf("override ignored: %+v", custom)
	}
}

func TestWithGraphTopology(t *testing.T) {
	// Voter on a small cycle still reaches consensus (slowly).
	g, err := CycleGraph(30)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runJob(t, "voter", []int64{15, 15}, WithSeed(21), WithGraph(g), WithMaxTime(1e6))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("rep = %+v", rep)
	}
}

func TestTopologyConstructors(t *testing.T) {
	if _, err := CompleteGraph(10); err != nil {
		t.Error(err)
	}
	if _, err := TorusGraph(4, 4); err != nil {
		t.Error(err)
	}
	g, err := RandomGraph(100, 0.2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
}

func TestSyncRunnersRespectMaxRounds(t *testing.T) {
	// keep-own is impossible here, but a tiny round budget with real
	// dynamics still has to error out on a large balanced instance.
	_, err := runJob(t, "voter", []int64{500, 500}, WithSeed(22), WithModel(Synchronous), WithMaxRounds(1))
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("err = %v, want ErrTimeLimit", err)
	}
}

package plurality

import (
	"context"
	"testing"
)

// coreTrials runs trials core-protocol trials of counts through Job.Trials
// and returns their core results.
func coreTrials(t *testing.T, counts []int64, trials int, opts ...Option) ([]CoreResult, error) {
	t.Helper()
	job, err := NewJob("core", counts, opts...)
	if err != nil {
		t.Fatal(err)
	}
	reps, err := job.Trials(context.Background(), trials)
	results := make([]CoreResult, len(reps))
	for i, rep := range reps {
		results[i], _ = rep.Core()
	}
	return results, err
}

// TestRunCoreTrialsDeterministicAcrossWorkers: the multi-trial driver must
// be a pure function of (counts, trials, seed) — the worker count only
// changes wall-clock time, never results.
func TestRunCoreTrialsDeterministicAcrossWorkers(t *testing.T) {
	counts, err := Biased(2000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 6
	run := func(workers int) []CoreResult {
		res, err := coreTrials(t, counts, trials, WithSeed(9), WithTrialWorkers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	serial := run(1)
	for _, workers := range []int{0, 2, 7} {
		parallel := run(workers)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("workers=%d trial %d: %+v != %+v", workers, i, parallel[i], serial[i])
			}
		}
	}

	// Distinct trials must use decorrelated streams: at least one result
	// field should differ between some pair of trials.
	allSame := true
	for i := 1; i < trials; i++ {
		if serial[i] != serial[0] {
			allSame = false
		}
	}
	if allSame {
		t.Error("all trials produced identical results; per-trial seeds look correlated")
	}
}

// TestRunCoreTrialsFirstTrialMatchesRunCore: trial 0 keeps the base seed,
// so a 1-trial multi-run is exactly a single run on a fresh population.
func TestRunCoreTrialsFirstTrialMatchesRunCore(t *testing.T) {
	counts, err := Biased(1500, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := NewPopulation(counts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runJobOn(t, "core", pop, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	single, _ := rep.Core()
	many, err := coreTrials(t, counts, 3, WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	if many[0] != single {
		t.Fatalf("trial 0 %+v != single run %+v", many[0], single)
	}
}

func TestRunCoreTrialsValidation(t *testing.T) {
	counts, err := Biased(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coreTrials(t, counts, 0); err == nil {
		t.Error("trials=0 should fail")
	}
}

func TestRunCoreHeapPoissonModel(t *testing.T) {
	counts, err := Biased(800, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := runJob(t, "core", counts, WithSeed(2), WithModel(HeapPoisson))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("heap-poisson run failed: %+v", rep)
	}
}

package plurality

import (
	"errors"
	"testing"
)

// TestWithEdgeLatency: per-edge latencies thread from the public option
// into both the core protocol and the sampling dynamics, slowing but not
// breaking convergence.
func TestWithEdgeLatency(t *testing.T) {
	const n = 1000
	counts, err := Biased(n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(opts ...Option) float64 {
		rep, err := runJob(t, "core", counts, append([]Option{WithSeed(3), WithModel(Poisson)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return rep.ConsensusTime
	}
	instant := runWith()
	exp := runWith(WithEdgeLatency(ExpEdgeLatency(2)))
	uni := runWith(WithEdgeLatency(UniformEdgeLatency(1, 3)))
	if exp <= instant || uni <= instant {
		t.Fatalf("latency did not slow core: instant %v, exp %v, uniform %v", instant, exp, uni)
	}

	rep, err := runJob(t, "two-choices", counts, WithSeed(3), WithEdgeLatency(ExpEdgeLatency(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged {
		t.Fatalf("two-choices under latency did not converge: %+v", rep)
	}
}

// TestWithChurn: the public churn option injects counted node
// replacements into both runner families.
func TestWithChurn(t *testing.T) {
	const n = 1000
	counts, err := Biased(n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	core, err := runJob(t, "core", counts, WithSeed(5), WithChurn(0.2/n))
	if err != nil {
		t.Fatal(err)
	}
	if !core.Converged || core.Churns == 0 {
		t.Fatalf("core churn run: %+v", core)
	}

	dyn, err := runJob(t, "3-majority", counts, WithSeed(5), WithChurn(0.2/n))
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.Converged || dyn.Churns == 0 {
		t.Fatalf("three-majority churn run: %+v", dyn)
	}
}

// TestWithCrashesRejectsSparseTopology: the public surface enforces the
// crash/topology contract.
func TestWithCrashesRejectsSparseTopology(t *testing.T) {
	counts, err := Biased(100, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := CycleGraph(100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewJob("core", counts, WithGraph(g), WithCrashes(0.1))
	if err == nil {
		t.Fatal("crash injection on a cycle should be rejected")
	}
	if errors.Is(err, ErrNoConsensus) {
		t.Fatalf("want a validation error, got a protocol failure: %v", err)
	}
}

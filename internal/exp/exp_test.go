package exp

import (
	"strings"
	"testing"
)

func TestScenarioValidate(t *testing.T) {
	valid := Scenario{
		Protocol: "core", N: 64, K: 3,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "sequential",
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"bad protocol", func(s *Scenario) { s.Protocol = "gossip" }, "unknown protocol"},
		{"bad n", func(s *Scenario) { s.N = 2 }, "n ="},
		{"bad k", func(s *Scenario) { s.K = 1 }, "k ="},
		{"bad bias", func(s *Scenario) { s.Bias = "lopsided" }, "unknown workload"},
		{"bad topology", func(s *Scenario) { s.Topology = "hypercube" }, "unknown topology"},
		{"non-square torus", func(s *Scenario) { s.Topology = "torus"; s.N = 60 }, "square"},
		{"gnp without p", func(s *Scenario) { s.Topology = "gnp" }, "gnp"},
		{"bad model", func(s *Scenario) { s.Model = "round-robin" }, "unknown model"},
		{"heap-poisson model", func(s *Scenario) { s.Model = "heap-poisson" }, `unknown model "heap-poisson"`},
		{"crash on dynamics", func(s *Scenario) { s.Protocol = "voter"; s.Crash = 0.1 }, "crash injection"},
		{"crash on cycle", func(s *Scenario) { s.Topology = "cycle"; s.Crash = 0.1 }, "complete topology"},
		{"bad churn", func(s *Scenario) { s.Churn = 1.5 }, "churn"},
		{"bad crash", func(s *Scenario) { s.Crash = 1.5 }, "crash"},
		{"negative delay", func(s *Scenario) { s.DelayRate = -1 }, "delayRate"},
		{"negative maxtime", func(s *Scenario) { s.MaxTime = -5 }, "maxTime"},
		{"bad bias param", func(s *Scenario) { s.BiasParam = 0 }, "bias"},
		{"bad latency", func(s *Scenario) { s.Latency = "gaussian:1" }, "latency"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := valid
			tc.mutate(&sc)
			err := sc.Validate()
			if err == nil {
				t.Fatalf("scenario %+v should be invalid", sc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	sc := Scenario{
		Protocol: "core", N: 300, K: 3,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "poisson",
	}
	a, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if !a.Done || !a.Win {
		t.Fatalf("biased core run should end in a plurality win: %+v", a)
	}
	c, err := RunScenario(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatalf("distinct seeds produced identical trials: %+v", a)
	}
}

func TestRunScenarioEveryProtocol(t *testing.T) {
	for _, proto := range []string{"core", "two-choices", "three-majority", "voter"} {
		sc := Scenario{
			Protocol: proto, N: 200, K: 2,
			Bias: "biased", BiasParam: 2,
			Topology: "complete", Model: "sequential",
		}
		tr, err := RunScenario(sc, 3)
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		if !tr.Done || tr.Ticks == 0 {
			t.Fatalf("%s: %+v", proto, tr)
		}
	}
}

func TestRunScenarioTimeoutIsNotAnError(t *testing.T) {
	sc := Scenario{
		Protocol: "voter", N: 400, K: 2,
		Bias:     "uniform",
		Topology: "cycle", Model: "sequential",
		// A cycle voter needs Θ(n²) time; 1 unit cannot suffice.
		MaxTime: 1,
	}
	tr, err := RunScenario(sc, 1)
	if err != nil {
		t.Fatalf("timeout should be a recorded failure, not an error: %v", err)
	}
	if tr.Done {
		t.Fatalf("voter on a 400-cycle cannot converge in 1 time unit: %+v", tr)
	}
}

func TestRunScenarioSpatialTopologies(t *testing.T) {
	for _, topo := range []struct {
		name  string
		param float64
		n     int
	}{
		{"torus", 0, 64}, {"gnp", 0.2, 100}, {"cycle", 0, 64},
	} {
		sc := Scenario{
			Protocol: "voter", N: topo.n, K: 2,
			Bias: "biased", BiasParam: 4,
			Topology: topo.name, TopologyParam: topo.param,
			Model: "sequential",
		}
		tr, err := RunScenario(sc, 5)
		if err != nil {
			t.Fatalf("%s: %v", topo.name, err)
		}
		if !tr.Done {
			t.Fatalf("%s: voter with overwhelming bias should converge: %+v", topo.name, tr)
		}
	}
}

func TestRunScenarioChurnCounted(t *testing.T) {
	sc := Scenario{
		Protocol: "core", N: 300, K: 3,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "poisson",
		Churn: 0.0005,
	}
	tr, err := RunScenario(sc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Churns == 0 {
		t.Fatalf("churn rate 5e-4 over a full run should fire at least once: %+v", tr)
	}
}

// TestRunScenarioCorePerNodeEngine: the redundant engine "per-node" on the
// core protocol (which always runs per node) stays runnable — the strict
// Job validation layer must not reject the no-op spelling Scenario.Validate
// accepts.
func TestRunScenarioCorePerNodeEngine(t *testing.T) {
	sc := Scenario{Protocol: "core", N: 600, K: 2, Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "sequential", Engine: "per-node"}
	tr, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done {
		t.Fatalf("trial = %+v, want Done", tr)
	}
}

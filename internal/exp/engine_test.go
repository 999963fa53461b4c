package exp

import (
	"math"
	"testing"
)

func TestScenarioEngineValidation(t *testing.T) {
	base := Scenario{
		Protocol: "two-choices", N: 1000, K: 3,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "poisson",
	}
	ok := base
	for _, e := range []string{"", "auto", "per-node", "occupancy", "leap", "leap:0.05", "leap:0.002"} {
		ok.Engine = e
		if err := ok.Validate(); err != nil {
			t.Errorf("engine %q: %v", e, err)
		}
	}
	bad := []Scenario{
		func() Scenario { s := base; s.Engine = "warp"; return s }(),
		func() Scenario { s := base; s.Engine = "occupancy"; s.Protocol = "core"; return s }(),
		func() Scenario { s := base; s.Engine = "occupancy"; s.Topology = "cycle"; return s }(),
		func() Scenario { s := base; s.Engine = "occupancy"; s.Latency = "exp:1"; return s }(),
		func() Scenario { s := base; s.Engine = "occupancy"; s.DelayRate = 2; return s }(),
		func() Scenario { s := base; s.Engine = "leap:0"; return s }(),
		func() Scenario { s := base; s.Engine = "leap:0.9"; return s }(),
		func() Scenario { s := base; s.Engine = "leap:lots"; return s }(),
		func() Scenario { s := base; s.Engine = "leap"; s.Topology = "cycle"; return s }(),
		func() Scenario { s := base; s.Engine = "leap"; s.Churn = 0.001; return s }(),
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad scenario %d validated: %+v", i, s)
		}
	}
}

// TestRunScenarioCountsPath: the occupancy cells run on the histogram
// without a population; the trial must still report a plausible consensus,
// and churn must thread through.
func TestRunScenarioCountsPath(t *testing.T) {
	sc := Scenario{
		Protocol: "two-choices", N: 5000, K: 4,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "poisson",
		Engine: "occupancy",
	}
	tr, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done || !tr.Win || tr.Ticks <= 0 || tr.Time <= 0 {
		t.Fatalf("trial = %+v", tr)
	}

	sc.Churn = 0.3 / float64(sc.N)
	tr2, err := RunScenario(sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Done || tr2.Churns == 0 {
		t.Fatalf("churned trial = %+v", tr2)
	}
}

// TestRunScenarioLeapPath: the hybrid leap engine runs a scenario trial end
// to end, both at the default budget and with an explicit leap:<eps> spec,
// and lands on the same time scale as the exact occupancy engine.
func TestRunScenarioLeapPath(t *testing.T) {
	sc := Scenario{
		Protocol: "two-choices", N: 200_000, K: 4,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "poisson",
		Engine: "occupancy",
	}
	exact, err := RunScenario(sc, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []string{"leap", "leap:0.05"} {
		sc.Engine = e
		tr, err := RunScenario(sc, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Done || !tr.Win || tr.Ticks <= 0 || tr.Time <= 0 {
			t.Fatalf("engine %q: trial = %+v", e, tr)
		}
		if rel := math.Abs(tr.Time-exact.Time) / exact.Time; rel > 0.5 {
			t.Fatalf("engine %q: time %.2f vs exact %.2f (rel %.2f)", e, tr.Time, exact.Time, rel)
		}
	}
}

// TestEngineSweepGates executes the engine-equivalence and scale sweeps end
// to end at reduced trial counts so their gate logic is covered by go test:
// every gate must be present and passing on a healthy engine.
func TestEngineSweepGates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	wantGates := map[string][]string{
		"engine-equivalence": {"all-converged", "engines-agree", "leap-agrees"},
		"scale":              {"all-converged", "plurality-wins", "time-grows"},
		"leap-budget":        {"all-converged", "plurality-wins", "budget-invariant"},
	}
	for name, gates := range wantGates {
		ns, ok := NamedByName(name)
		if !ok {
			t.Fatalf("missing named sweep %q", name)
		}
		sw := ns.Build(true, 1, 3)
		rep, err := sw.Run(Options{})
		if err != nil {
			t.Fatal(err)
		}
		ns.Check(rep)
		seen := map[string]bool{}
		for _, g := range rep.Gates {
			seen[g.Name] = true
			if !g.Pass {
				t.Errorf("%s gate %s failed: %s", name, g.Name, g.Detail)
			}
		}
		for _, g := range gates {
			if !seen[g] {
				t.Errorf("%s: gate %s never ran", name, g)
			}
		}
	}
}

// TestEngineSweepGatesCatchDivergence feeds the engine-equivalence check a
// doctored report to prove the gate actually bites.
func TestEngineSweepGatesCatchDivergence(t *testing.T) {
	ns, _ := NamedByName("engine-equivalence")
	rep := &Report{
		Schema: SchemaVersion,
		Cells: []CellResult{
			{Label: "n=100,engine=per-node", Params: map[string]string{"n": "100", "engine": "per-node"},
				N: 100, Trials: 4, Mean: 10, CILo: 9, CIHi: 11},
			{Label: "n=100,engine=occupancy", Params: map[string]string{"n": "100", "engine": "occupancy"},
				N: 100, Trials: 4, Mean: 30, CILo: 28, CIHi: 32},
		},
	}
	ns.Check(rep)
	agreed, leapAgreed := true, true
	for _, g := range rep.Gates {
		switch g.Name {
		case "engines-agree":
			agreed = g.Pass
		case "leap-agrees":
			leapAgreed = g.Pass
		}
	}
	if agreed {
		t.Fatal("engines-agree passed on a 3x divergence with disjoint CIs")
	}
	if leapAgreed {
		t.Fatal("leap-agrees passed with no leap cell in the report")
	}

	budget, _ := NamedByName("leap-budget")
	biased := &Report{
		Schema: SchemaVersion,
		Cells: []CellResult{
			{Label: "engine=leap:0.05", Params: map[string]string{"engine": "leap:0.05"},
				N: 100, Trials: 4, Mean: 40, CILo: 38, CIHi: 42, PluralityWins: 4},
			{Label: "engine=leap:0.002", Params: map[string]string{"engine": "leap:0.002"},
				N: 100, Trials: 4, Mean: 10, CILo: 9, CIHi: 11, PluralityWins: 4},
		},
	}
	budget.Check(biased)
	invariant := true
	for _, g := range biased.Gates {
		if g.Name == "budget-invariant" {
			invariant = g.Pass
		}
	}
	if invariant {
		t.Fatal("budget-invariant passed on a 4x loose-budget divergence")
	}

	scale, _ := NamedByName("scale")
	shrink := &Report{
		Schema: SchemaVersion,
		Cells: []CellResult{
			{Label: "n=1000", Params: map[string]string{"n": "1000"}, N: 1000, Trials: 3, Mean: 20},
			{Label: "n=8000", Params: map[string]string{"n": "8000"}, N: 8000, Trials: 3, Mean: 5},
		},
	}
	scale.Check(shrink)
	grows := true
	for _, g := range shrink.Gates {
		if g.Name == "time-grows" {
			grows = g.Pass
		}
	}
	if grows {
		t.Fatal("time-grows passed on shrinking consensus time")
	}
}

// TestLeapCalibrationGateCatchesDrift: the leap-calibrated gate passes a
// leap mean within its ceiling of the exact engine's and fails one beyond it.
func TestLeapCalibrationGateCatchesDrift(t *testing.T) {
	cal, _ := NamedByName("leap-calibration")
	for _, tc := range []struct {
		leapMean float64
		pass     bool
	}{{21, true}, {22, false}} { // 5% and 10% off the exact mean of 20
		rep := &Report{Schema: SchemaVersion}
		for _, p := range []string{"two-choices", "usd"} {
			for _, e := range []struct {
				engine string
				mean   float64
			}{{"occupancy", 20}, {"leap", tc.leapMean}} {
				rep.Cells = append(rep.Cells, CellResult{Label: "protocol=" + p + ",engine=" + e.engine,
					Params: map[string]string{"protocol": p, "engine": e.engine}, N: 100, Trials: 12, Mean: e.mean})
			}
		}
		cal.Check(rep)
		var gate *Gate
		for i := range rep.Gates {
			if rep.Gates[i].Name == "leap-calibrated" {
				gate = &rep.Gates[i]
			}
		}
		if gate == nil || gate.Pass != tc.pass {
			t.Fatalf("leap-calibrated on leap mean %v vs exact 20: gate %+v, want pass=%v", tc.leapMean, gate, tc.pass)
		}
	}
}

// TestEngineAxisGrid: the engine axis grids like any other axis and the
// per-engine trials of the same scenario agree on the time scale.
func TestEngineAxisGrid(t *testing.T) {
	sw := Sweep{
		Name: "engine-grid",
		Base: Scenario{
			Protocol: "two-choices", N: 2000, K: 3,
			Bias: "biased", BiasParam: 1,
			Topology: "complete", Model: "sequential",
		},
		Axes:   []Axis{{Name: "engine", Values: []string{"per-node", "occupancy"}}},
		Trials: 6,
		Seed:   3,
	}
	rep, err := sw.Run(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("cells: %d", len(rep.Cells))
	}
	per, occ := rep.Cells[0], rep.Cells[1]
	if per.Failures != 0 || occ.Failures != 0 {
		t.Fatalf("failures: %+v / %+v", per, occ)
	}
	if rel := math.Abs(per.Mean-occ.Mean) / per.Mean; rel > 0.5 {
		t.Fatalf("engines disagree wildly: per-node %.2f vs occupancy %.2f", per.Mean, occ.Mean)
	}
}

package exp

import (
	"fmt"
	"strings"
	"testing"
)

func advScenario() Scenario {
	return Scenario{
		Protocol: "two-choices", N: 1024, K: 2,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "poisson",
		MaxTime: 60,
	}
}

func TestScenarioValidateAdversary(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string
	}{
		{name: "clean", mutate: func(sc *Scenario) {}},
		{name: "corrupt ok", mutate: func(sc *Scenario) { sc.Adversary = "corrupt"; sc.Budget = "8" }},
		{name: "symbolic budget ok", mutate: func(sc *Scenario) { sc.Adversary = "corrupt"; sc.Budget = "n^0.3" }},
		{name: "alias ok", mutate: func(sc *Scenario) { sc.Adversary = "liar"; sc.Budget = "4sqrt(n)" }},
		{name: "zero budget inactive ok", mutate: func(sc *Scenario) { sc.Adversary = "corrupt"; sc.Budget = "0" }},
		{name: "occupancy + corrupt ok", mutate: func(sc *Scenario) {
			sc.Engine = "occupancy"
			sc.Adversary = "corrupt"
			sc.Budget = "8"
		}},
		{name: "unknown adversary", mutate: func(sc *Scenario) { sc.Adversary = "bogus"; sc.Budget = "8" }, wantErr: "unknown adversary"},
		{name: "budget without adversary", mutate: func(sc *Scenario) { sc.Budget = "8" }, wantErr: "no adversary"},
		{name: "bad budget", mutate: func(sc *Scenario) { sc.Adversary = "corrupt"; sc.Budget = "x" }, wantErr: "budget"},
		{name: "core + byzantine", mutate: func(sc *Scenario) {
			sc.Protocol = "core"
			sc.Adversary = "byzantine"
			sc.Budget = "8"
		}, wantErr: "lie"},
		{name: "leap + adversary", mutate: func(sc *Scenario) {
			sc.Engine = "leap"
			sc.Adversary = "corrupt"
			sc.Budget = "8"
		}, wantErr: "leap engine cannot host"},
		{name: "occupancy + per-node adversary", mutate: func(sc *Scenario) {
			sc.Engine = "occupancy"
			sc.Adversary = "delay-set"
			sc.Budget = "8"
		}, wantErr: "per-node"},
		{name: "late without lag", mutate: func(sc *Scenario) { sc.Adversary = "late"; sc.Budget = "8" }, wantErr: "lag"},
	} {
		sc := advScenario()
		tc.mutate(&sc)
		err := sc.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: Validate: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate = %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestApplyAxisAdversary(t *testing.T) {
	sc := advScenario()
	if err := applyAxis(&sc, "adversary", "corrupt"); err != nil {
		t.Fatal(err)
	}
	if err := applyAxis(&sc, "budget", "4sqrt(n)"); err != nil {
		t.Fatal(err)
	}
	if sc.Adversary != "corrupt" || sc.Budget != "4sqrt(n)" {
		t.Fatalf("axes did not land: %+v", sc)
	}
	// Symbolic budgets resolve at Validate time against the final n, so a
	// budget axis ahead of the n axis is fine.
	empty := Scenario{}
	if err := applyAxis(&empty, "budget", "4sqrt(n)"); err != nil {
		t.Fatalf("budget axis before n: %v", err)
	}
}

// TestRunScenarioAdversaryCounted: an adversarial scenario records its
// interventions in the Trial, and the zero-budget spelling matches the
// clean run bit for bit.
func TestRunScenarioAdversaryCounted(t *testing.T) {
	sc := advScenario()
	sc.Adversary, sc.Budget = "corrupt", "6"
	tr, err := RunScenario(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Corruptions == 0 {
		t.Fatalf("adversarial trial = %+v, want convergence with recorded corruptions", tr)
	}

	clean := advScenario()
	cleanTr, err := RunScenario(clean, 5)
	if err != nil {
		t.Fatal(err)
	}
	zero := advScenario()
	zero.Adversary, zero.Budget = "corrupt", "0"
	zeroTr, err := RunScenario(zero, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cleanTr != zeroTr {
		t.Fatalf("zero-budget scenario diverged from clean:\n  clean: %+v\n  zero:  %+v", cleanTr, zeroTr)
	}
}

// TestAdversaryThresholdGatesOnSyntheticReports exercises the sweep's gate
// logic against fabricated survival shapes.
func TestAdversaryThresholdGatesOnSyntheticReports(t *testing.T) {
	ns, ok := NamedByName("adversary-threshold")
	if !ok {
		t.Fatal("adversary-threshold is not registered")
	}
	cell := func(n int, budget string, wins, fails int, corruptions int64) CellResult {
		return CellResult{
			Label:         fmt.Sprintf("n=%d,budget=%s", n, budget),
			Params:        map[string]string{"n": fmt.Sprint(n), "budget": budget},
			N:             n,
			Trials:        10,
			Failures:      fails,
			PluralityWins: wins,
			Corruptions:   corruptions,
		}
	}
	mk := func(cells ...CellResult) *Report {
		return &Report{Schema: SchemaVersion, Sweep: "adversary-threshold", Cells: cells}
	}
	pass := mk(
		cell(1024, "0", 10, 0, 0),
		cell(1024, "n^0.3", 10, 0, 40),
		cell(1024, "4sqrt(n)", 0, 10, 900),
	)
	ns.Check(pass)
	if failed := pass.FailedGates(); len(failed) != 0 {
		t.Fatalf("phase-transition shape failed gates: %v", failed)
	}
	for name, rep := range map[string]*Report{
		"corrupted control":  mk(cell(1024, "0", 10, 0, 3), cell(1024, "n^0.3", 10, 0, 40), cell(1024, "4sqrt(n)", 0, 10, 900)),
		"survive side dies":  mk(cell(1024, "0", 10, 0, 0), cell(1024, "n^0.3", 5, 5, 40), cell(1024, "4sqrt(n)", 0, 10, 900)),
		"fail side survives": mk(cell(1024, "0", 10, 0, 0), cell(1024, "n^0.3", 10, 0, 40), cell(1024, "4sqrt(n)", 9, 1, 900)),
		"silent adversary":   mk(cell(1024, "0", 10, 0, 0), cell(1024, "n^0.3", 10, 0, 0), cell(1024, "4sqrt(n)", 0, 10, 900)),
	} {
		rep := rep
		ns.Check(rep)
		if failed := rep.FailedGates(); len(failed) == 0 {
			t.Errorf("%s: expected a gate failure, got none", name)
		}
	}
}

package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// synthCell fabricates a converged cell for gate-logic tests.
func synthCell(n int, params map[string]string, mean float64) CellResult {
	return CellResult{
		Label:  fmt.Sprintf("n=%d", n),
		Params: params,
		N:      n,
		Trials: 5,
		Mean:   mean, Median: mean,
		CILo: mean * 0.95, CIHi: mean * 1.05,
	}
}

// TestLogNGatesOnSyntheticShapes: the Θ(log n) gate must accept clean
// logarithmic growth and reject linear (superlogarithmic) growth.
func TestLogNGatesOnSyntheticShapes(t *testing.T) {
	ns, _ := NamedByName("logn-scaling")
	mk := func(f func(n float64) float64) *Report {
		rep := &Report{Schema: SchemaVersion, Sweep: "logn-scaling"}
		for _, n := range []int{256, 512, 1024, 2048, 4096, 8192, 16384} {
			rep.Cells = append(rep.Cells, synthCell(n, map[string]string{"n": fmt.Sprint(n)}, f(float64(n))))
		}
		return rep
	}

	logShaped := mk(func(n float64) float64 { return 100*math.Log(n) + 50 })
	ns.Check(logShaped)
	for _, g := range logShaped.Gates {
		if !g.Pass {
			t.Errorf("log-shaped data failed gate %s: %s", g.Name, g.Detail)
		}
	}

	linShaped := mk(func(n float64) float64 { return n })
	ns.Check(linShaped)
	if failed := linShaped.FailedGates(); len(failed) == 0 {
		t.Errorf("linear growth passed every log n gate: %+v", linShaped.Gates)
	}
}

func TestLogNGatesDegenerateReports(t *testing.T) {
	ns, _ := NamedByName("logn-scaling")
	// All-failed cells: no fit possible.
	rep := &Report{Schema: SchemaVersion}
	rep.Cells = []CellResult{{Label: "n=256", Trials: 5, Failures: 5}}
	ns.Check(rep)
	if len(rep.FailedGates()) == 0 {
		t.Error("unfittable report passed")
	}
	// Too few points for the half-slope check.
	rep2 := &Report{Schema: SchemaVersion}
	for _, n := range []int{256, 512} {
		rep2.Cells = append(rep2.Cells, synthCell(n, nil, 100*math.Log(float64(n))))
	}
	ns.Check(rep2)
	found := false
	for _, g := range rep2.Gates {
		if g.Name == "logn-slope-stable" && !g.Pass {
			found = true
		}
	}
	if !found {
		t.Errorf("2-point report should fail slope stability: %+v", rep2.Gates)
	}
}

func TestLatencyGateOnSyntheticReports(t *testing.T) {
	ns, _ := NamedByName("latency")
	mk := func(none, slow float64) *Report {
		return &Report{Schema: SchemaVersion, Cells: []CellResult{
			synthCell(1024, map[string]string{"latency": "none"}, none),
			synthCell(1024, map[string]string{"latency": "exp:2"}, slow),
		}}
	}
	good := mk(100, 150)
	ns.Check(good)
	if len(good.FailedGates()) != 0 {
		t.Errorf("monotone latency report failed: %v", good.FailedGates())
	}
	bad := mk(150, 100)
	ns.Check(bad)
	if len(bad.FailedGates()) == 0 {
		t.Error("latency speeding the run up should fail the gate")
	}
	// Missing baseline cell.
	missing := &Report{Schema: SchemaVersion, Cells: []CellResult{
		synthCell(1024, map[string]string{"latency": "exp:2"}, 100),
	}}
	ns.Check(missing)
	if len(missing.FailedGates()) == 0 {
		t.Error("report without the instant-edge cell should fail")
	}
}

func TestChurnGateOnSyntheticReports(t *testing.T) {
	ns, _ := NamedByName("churn")
	silent := synthCell(1024, map[string]string{"churn": "0.5/n"}, 100)
	silent.Churns = 0
	rep := &Report{Schema: SchemaVersion, Cells: []CellResult{
		synthCell(1024, map[string]string{"churn": "0"}, 90),
		silent,
	}}
	ns.Check(rep)
	failed := strings.Join(rep.FailedGates(), "\n")
	if !strings.Contains(failed, "churn-fires") {
		t.Errorf("silent churn cell should fail churn-fires: %+v", rep.Gates)
	}

	fired := synthCell(1024, map[string]string{"churn": "0.5/n"}, 100)
	fired.Churns = 12
	rep2 := &Report{Schema: SchemaVersion, Cells: []CellResult{
		synthCell(1024, map[string]string{"churn": "0"}, 90),
		fired,
	}}
	ns.Check(rep2)
	if len(rep2.FailedGates()) != 0 {
		t.Errorf("firing churn report failed: %v", rep2.FailedGates())
	}
}

// TestProtocolRaceGatesOnSyntheticReports: the plurality-wins gate must
// exempt Voter (its winner is the martingale draw) while holding every
// guaranteed protocol to a perfect score, and the race must fail when
// Two-Choices is slower than Voter.
func TestProtocolRaceGatesOnSyntheticReports(t *testing.T) {
	ns, _ := NamedByName("protocol-race")
	mk := func(tcMean, voterMean float64, usdWins int) *Report {
		tc := synthCell(2048, map[string]string{"protocol": "two-choices"}, tcMean)
		tc.PluralityWins = tc.Trials
		vt := synthCell(2048, map[string]string{"protocol": "voter"}, voterMean)
		vt.PluralityWins = 2 // martingale: no guarantee, must not fail the gate
		us := synthCell(2048, map[string]string{"protocol": "usd"}, tcMean*2)
		us.PluralityWins = usdWins
		return &Report{Schema: SchemaVersion, Cells: []CellResult{tc, vt, us}}
	}
	good := mk(30, 2000, 5)
	ns.Check(good)
	if failed := good.FailedGates(); len(failed) != 0 {
		t.Errorf("healthy race failed: %v", failed)
	}
	slowTC := mk(3000, 2000, 5)
	ns.Check(slowTC)
	if failed := strings.Join(slowTC.FailedGates(), "\n"); !strings.Contains(failed, "two-choices-beats-voter") {
		t.Errorf("slow two-choices should fail the race: %+v", slowTC.Gates)
	}
	usdLoses := mk(30, 2000, 4)
	ns.Check(usdLoses)
	if failed := strings.Join(usdLoses.FailedGates(), "\n"); !strings.Contains(failed, "plurality-wins") {
		t.Errorf("USD losing a trial should fail plurality-wins: %+v", usdLoses.Gates)
	}
}

func TestTopologyGateOnSyntheticReports(t *testing.T) {
	ns, _ := NamedByName("topology")
	rep := &Report{Schema: SchemaVersion, Cells: []CellResult{
		synthCell(1024, map[string]string{"topology": "complete"}, 200),
		synthCell(1024, map[string]string{"topology": "torus"}, 100),
	}}
	ns.Check(rep)
	failed := strings.Join(rep.FailedGates(), "\n")
	if !strings.Contains(failed, "clique-fastest") {
		t.Errorf("torus beating the clique should fail: %+v", rep.Gates)
	}
}

func TestAllConvergedGateDetailsFailures(t *testing.T) {
	rep := &Report{Schema: SchemaVersion, Cells: []CellResult{
		{Label: "n=256", Trials: 5, Failures: 2},
	}}
	gateAllConverged(rep)
	if len(rep.Gates) != 1 || rep.Gates[0].Pass || !strings.Contains(rep.Gates[0].Detail, "n=256") {
		t.Fatalf("gates: %+v", rep.Gates)
	}
}

// TestApplyAxisCoverage exercises every axis and the error paths not hit by
// the compile tests.
func TestApplyAxisCoverage(t *testing.T) {
	sc := baseScenario()
	good := []struct{ name, value string }{
		{"protocol", "voter"},
		{"model", "poisson"},
		{"bias", "zipf:1.2"},
		{"bias", "uniform"},
		{"topology", "gnp:0.3"},
		{"crash", "0.05"},
		{"churn", "0.001"},
		{"latency", "exp:1"},
		{"delay", "2"},
		{"maxtime", "500"},
	}
	for _, c := range good {
		if err := applyAxis(&sc, c.name, c.value); err != nil {
			t.Errorf("applyAxis(%s, %s): %v", c.name, c.value, err)
		}
	}
	if sc.DelayRate != 2 || sc.MaxTime != 500 || sc.Crash != 0.05 || sc.TopologyParam != 0.3 {
		t.Fatalf("scenario after axes: %+v", sc)
	}
	bad := []struct{ name, value string }{
		{"n", "x"}, {"k", "x"}, {"bias", "zipf:x"}, {"topology", "gnp:x"},
		{"crash", "x"}, {"churn", "x"}, {"churn", "x/n"}, {"delay", "x"},
		{"maxtime", "x"}, {"flux", "1"},
	}
	for _, c := range bad {
		if err := applyAxis(&sc, c.name, c.value); err == nil {
			t.Errorf("applyAxis(%s, %s) should fail", c.name, c.value)
		}
	}
	// churn "/n" before n is set.
	empty := Scenario{}
	if err := applyAxis(&empty, "churn", "0.5/n"); err == nil {
		t.Error("churn/n without n should fail")
	}
}

// TestScenarioCountsProfiles covers every bias-profile constructor.
func TestScenarioCountsProfiles(t *testing.T) {
	for _, bias := range []struct {
		name  string
		param float64
	}{
		{"biased", 1}, {"gapsqrt", 1}, {"gapsqrtpolylog", 1}, {"tinygap", 1}, {"zipf", 1.1}, {"uniform", 0},
	} {
		sc := Scenario{N: 1000, K: 4, Bias: bias.name, BiasParam: bias.param}
		run, err := sc.run(0)
		if err != nil {
			t.Fatal(err)
		}
		counts, err := run.Initial()
		if err != nil {
			t.Fatalf("%s: %v", bias.name, err)
		}
		var total int64
		for _, c := range counts {
			total += c
		}
		if total != 1000 || len(counts) != 4 {
			t.Fatalf("%s: counts %v", bias.name, counts)
		}
	}
}

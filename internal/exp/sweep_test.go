package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func baseScenario() Scenario {
	return Scenario{
		Protocol: "core", N: 200, K: 3,
		Bias: "biased", BiasParam: 1,
		Topology: "complete", Model: "sequential",
	}
}

func TestCompileCartesianProduct(t *testing.T) {
	s := Sweep{
		Name: "t",
		Base: baseScenario(),
		Axes: []Axis{
			{Name: "n", Values: []string{"100", "200", "400"}},
			{Name: "k", Values: []string{"2", "4"}},
		},
		Trials: 1,
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(cells))
	}
	first, last := cells[0], cells[5]
	if first.Label != "n=100,k=2" || first.Scenario.N != 100 || first.Scenario.K != 2 {
		t.Fatalf("first cell: %+v", first)
	}
	if last.Label != "n=400,k=4" || last.Scenario.N != 400 || last.Scenario.K != 4 {
		t.Fatalf("last cell: %+v", last)
	}
	if first.Params["n"] != "100" || first.Params["k"] != "2" {
		t.Fatalf("params: %+v", first.Params)
	}
}

func TestCompileChurnPerN(t *testing.T) {
	s := Sweep{
		Name: "t",
		Base: baseScenario(),
		Axes: []Axis{
			{Name: "n", Values: []string{"100", "1000"}},
			{Name: "churn", Values: []string{"0.5/n"}},
		},
		Trials: 1,
	}
	cells, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := cells[0].Scenario.Churn; got != 0.005 {
		t.Fatalf("churn at n=100: %v, want 0.005", got)
	}
	if got := cells[1].Scenario.Churn; got != 0.0005 {
		t.Fatalf("churn at n=1000: %v, want 0.0005", got)
	}
}

func TestCompileRejectsBadCells(t *testing.T) {
	cases := []Sweep{
		// Unknown axis name.
		{Base: baseScenario(), Axes: []Axis{{Name: "temperature", Values: []string{"1"}}}, Trials: 1},
		// Bad value for a known axis.
		{Base: baseScenario(), Axes: []Axis{{Name: "n", Values: []string{"many"}}}, Trials: 1},
		// Axis with no values.
		{Base: baseScenario(), Axes: []Axis{{Name: "n", Values: nil}}, Trials: 1},
		// Crash on a sparse topology must fail at compile time.
		{Base: baseScenario(), Axes: []Axis{
			{Name: "topology", Values: []string{"cycle"}},
			{Name: "crash", Values: []string{"0.1"}},
		}, Trials: 1},
		// A bias parameter the workload constructor rejects must fail at
		// compile time too, not mid-run.
		{Base: baseScenario(), Axes: []Axis{
			{Name: "bias", Values: []string{"biased:0"}},
		}, Trials: 1},
		// No trials.
		{Base: baseScenario(), Trials: 0},
	}
	for i, s := range cases {
		if _, err := s.Compile(); err == nil {
			t.Errorf("case %d should fail to compile", i)
		}
	}
}

// TestSweepAcceptsGapSqrtPolylog: the bias axis reads the shared workload
// table, so every workload cmd/plurality runs is a sweep cell too.
func TestSweepAcceptsGapSqrtPolylog(t *testing.T) {
	s := Sweep{
		Name:   "t",
		Base:   Scenario{Protocol: "two-choices", N: 2000, K: 3, Topology: "complete", Model: "poisson", Engine: "occupancy"},
		Axes:   []Axis{{Name: "bias", Values: []string{"gapsqrtpolylog:1.5"}}},
		Trials: 2,
		Seed:   3,
	}
	rep, err := s.Run(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Cells[0]; c.Label != "bias=gapsqrtpolylog:1.5" || c.Failures != 0 {
		t.Fatalf("cell = %+v", c)
	}
}

// TestSynchronousCellsRejected: a sweep cell records consensus time, so
// the synchronous runners, which count rounds, fail with one named error.
func TestSynchronousCellsRejected(t *testing.T) {
	for _, sc := range []Scenario{
		{Protocol: "two-choices", N: 200, K: 3, Bias: "biased", BiasParam: 1, Topology: "complete", Model: "synchronous"},
		{Protocol: "onebit", N: 200, K: 3, Bias: "biased", BiasParam: 1, Topology: "complete"},
	} {
		if err := sc.Validate(); !errors.Is(err, ErrSynchronousCell) {
			t.Errorf("%s under %s: Validate = %v, want ErrSynchronousCell", sc.Protocol, sc.Model, err)
		}
	}
}

func TestSweepRunAggregates(t *testing.T) {
	s := Sweep{
		Name: "t",
		Base: baseScenario(),
		Axes: []Axis{
			{Name: "n", Values: []string{"100", "300"}},
		},
		Trials: 4,
		Seed:   5,
	}
	var log bytes.Buffer
	rep, err := s.Run(Options{Workers: 2, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaVersion || rep.Sweep != "t" || len(rep.Cells) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	for _, c := range rep.Cells {
		if c.Trials != 4 || c.Failures != 0 {
			t.Fatalf("cell %q: %+v", c.Label, c)
		}
		if !(c.Min <= c.Q10 && c.Q10 <= c.Median && c.Median <= c.Q90 && c.Q90 <= c.Max) {
			t.Fatalf("cell %q quantiles out of order: %+v", c.Label, c)
		}
		if !(c.CILo <= c.Mean && c.Mean <= c.CIHi) {
			t.Fatalf("cell %q CI does not bracket the mean: %+v", c.Label, c)
		}
		if c.MeanTicks <= 0 || c.PluralityWins == 0 {
			t.Fatalf("cell %q: %+v", c.Label, c)
		}
	}
	if !strings.Contains(log.String(), "n=100") {
		t.Fatalf("progress log missing cell line:\n%s", log.String())
	}
}

// TestSweepRunDeterministicAcrossWorkers is the harness's reproducibility
// contract: the Report is a pure function of the Sweep value, independent
// of parallelism.
func TestSweepRunDeterministicAcrossWorkers(t *testing.T) {
	s := Sweep{
		Name:   "t",
		Base:   baseScenario(),
		Axes:   []Axis{{Name: "n", Values: []string{"100", "200"}}},
		Trials: 3,
		Seed:   9,
	}
	one, err := s.Run(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := s.Run(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(one)
	b, _ := json.Marshal(four)
	if !bytes.Equal(a, b) {
		t.Fatalf("worker count changed the report:\n%s\nvs\n%s", a, b)
	}
}

func TestSweepRunRecordsTimeouts(t *testing.T) {
	s := Sweep{
		Name: "t",
		Base: Scenario{
			Protocol: "voter", N: 400, K: 2,
			Bias: "uniform", Topology: "cycle", Model: "sequential",
			MaxTime: 1,
		},
		Axes:   []Axis{{Name: "n", Values: []string{"400"}}},
		Trials: 2,
		Seed:   1,
	}
	rep, err := s.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0]
	if c.Failures != 2 || c.Mean != 0 {
		t.Fatalf("all-timeout cell should report failures with zeroed stats: %+v", c)
	}
}

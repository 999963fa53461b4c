package runspec

import (
	"strings"
	"testing"

	"plurality"
)

func TestParseBudget(t *testing.T) {
	for _, tc := range []struct {
		in      string
		n       int
		want    int64
		wantErr bool
	}{
		{in: "", n: 100, want: 0},
		{in: "0", n: 100, want: 0},
		{in: "17", n: 100, want: 17},
		{in: " 17 ", n: 100, want: 17},
		{in: "sqrt(n)", n: 1024, want: 32},
		{in: "4sqrt(n)", n: 1024, want: 128},
		{in: "4*sqrt(n)", n: 1024, want: 128},
		{in: "0.5sqrt(n)", n: 1024, want: 16},
		{in: "n^0.5", n: 1024, want: 32},
		{in: "n^0.3", n: 1024, want: 8},
		{in: "n^1", n: 50, want: 50},
		{in: "-3", n: 100, wantErr: true},
		{in: "x", n: 100, wantErr: true},
		{in: "n^x", n: 100, wantErr: true},
		{in: "xsqrt(n)", n: 100, wantErr: true},
		{in: "sqrt(n)", n: 0, wantErr: true}, // symbolic form needs n
		{in: "n^0.3", n: 0, wantErr: true},
		{in: "-1sqrt(n)", n: 100, wantErr: true},
	} {
		got, err := ParseBudget(tc.in, int64(tc.n))
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseBudget(%q, %d) = %d, want error", tc.in, tc.n, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseBudget(%q, %d): %v", tc.in, tc.n, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseBudget(%q, %d) = %d, want %d", tc.in, tc.n, got, tc.want)
		}
	}
}

func TestParseLatency(t *testing.T) {
	for _, s := range []string{"", "none"} {
		m, err := ParseLatency(s)
		if err != nil || m != nil {
			t.Fatalf("ParseLatency(%q) = %v, %v; want nil, nil", s, m, err)
		}
	}
	for _, s := range []string{"exp:1", "exp:0.5", "uniform:0:2", "uniform:1:3"} {
		m, err := ParseLatency(s)
		if err != nil || m == nil {
			t.Fatalf("ParseLatency(%q) = %v, %v; want model, nil", s, m, err)
		}
	}
	for _, s := range []string{"exp", "exp:0", "exp:-1", "exp:x", "exp:1:x", "exp:1:2", "uniform:2:1", "uniform:1", "uniform:0:2:3", "uniform:0:x", "pareto:2"} {
		if _, err := ParseLatency(s); err == nil {
			t.Fatalf("ParseLatency(%q) should fail", s)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
		eps  float64
	}{
		{"", "", 0}, {"auto", "auto", 0}, {"occupancy", "occupancy", 0},
		{"leap", "leap", 0}, {"leap:0.05", "leap", 0.05}, {"leap:0.5", "leap", 0.5},
	} {
		name, eps, err := ParseEngine(tc.in)
		if err != nil || name != tc.name || eps != tc.eps {
			t.Errorf("ParseEngine(%q) = %q, %v, %v; want %q, %v", tc.in, name, eps, err, tc.name, tc.eps)
		}
	}
	for _, s := range []string{"leap:0", "leap:0.9", "leap:-1", "leap:lots", "leap:NaN"} {
		if _, _, err := ParseEngine(s); err == nil {
			t.Errorf("ParseEngine(%q) should fail", s)
		}
	}
}

// TestLookupNamesTheTable: an unknown name is rejected with the table's
// spellings, in table order.
func TestLookupNamesTheTable(t *testing.T) {
	_, err := LookupModel("warp")
	if err == nil || err.Error() != `unknown model "warp" (sequential, poisson, heap-poisson, synchronous)` {
		t.Errorf("LookupModel: %v", err)
	}
	_, err = LookupEngine("quantum")
	if err == nil || err.Error() != `unknown engine "quantum" (auto, per-node, occupancy, leap)` {
		t.Errorf("LookupEngine: %v", err)
	}
	if _, err := LookupWorkload("lopsided"); err == nil || !strings.Contains(err.Error(), "gapsqrtpolylog") {
		t.Errorf("LookupWorkload: %v", err)
	}
	for _, name := range Names(Workloads) {
		w, err := LookupWorkload(name)
		if err != nil || w.Name != name {
			t.Errorf("LookupWorkload(%q) = %v, %v", name, w, err)
		}
	}
}

// TestOptionsOnlyForSetFields: the zero Run carries the seed alone, and
// each set field adds its option; NewJob then applies exactly those.
func TestOptionsOnlyForSetFields(t *testing.T) {
	base := Run{Protocol: "two-choices", Counts: []int64{600, 400}}
	for _, tc := range []struct {
		name string
		set  func(*Run)
		want int // options besides the seed
	}{
		{"zero", func(*Run) {}, 0},
		{"default engine", func(r *Run) { r.Engine = "auto" }, 0},
		{"model", func(r *Run) { r.Model = "poisson" }, 1},
		{"engine", func(r *Run) { r.Engine = "leap" }, 1},
		{"leap tuning", func(r *Run) { r.LeapEps, r.ODETheta = 0.05, -1 }, 2},
		{"budgets", func(r *Run) { r.MaxTime, r.MaxRounds, r.MaxPhases = 5, 6, 7 }, 3},
		{"rates", func(r *Run) { r.Crash, r.Churn, r.ResponseDelay = 0.1, 0.001, 2 }, 3},
		{"negative rates", func(r *Run) { r.Crash, r.Churn, r.ResponseDelay = -0.1, -0.001, -2 }, 3},
		{"latency", func(r *Run) { r.Latency = "exp:1" }, 1},
		{"no latency", func(r *Run) { r.Latency = "none" }, 0},
		{"adversary", func(r *Run) { r.Adversary, r.Budget = "corrupt", "8" }, 1},
		{"zero-budget adversary", func(r *Run) { r.Adversary = "corrupt" }, 1},
		{"no adversary", func(r *Run) { r.Adversary = "none" }, 0},
	} {
		r := base
		tc.set(&r)
		opts, err := r.Options()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if len(opts) != 1+tc.want {
			t.Errorf("%s: %d options, want the seed and %d more", tc.name, len(opts), tc.want)
		}
	}
	// A zero-budget adversary reaches the planner: the leap engine, which
	// hosts none, rejects it.
	opts, err := Run{Engine: "leap", Adversary: "corrupt"}.Options()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plurality.NewJob("two-choices", []int64{600, 400}, opts...); err == nil {
		t.Error("leap accepted a zero-budget adversary")
	}
}

// TestNegativeRatesReachNewJob: a negative rate is passed on, so NewJob
// rejects it instead of running without the extension.
func TestNegativeRatesReachNewJob(t *testing.T) {
	for _, r := range []Run{
		{Protocol: "core", Crash: -0.1},
		{Protocol: "two-choices", Engine: "per-node", Churn: -0.1},
		{Protocol: "two-choices", Engine: "per-node", ResponseDelay: -1},
	} {
		opts, err := r.Options()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plurality.NewJob(r.Protocol, []int64{600, 400}, opts...); err == nil {
			t.Errorf("NewJob accepted %+v", r)
		}
	}
}

func TestAdversarySpec(t *testing.T) {
	spec, err := Run{Adversary: "late", Lag: 2, Budget: "4sqrt(n)", N: 1024}.AdversarySpec()
	if err != nil || spec.Name != "late" || spec.Lag != 2 || spec.Budget != 128 {
		t.Errorf("late with lag 2 at 4sqrt(1024) = %+v, %v", spec, err)
	}
	spec, err = Run{Adversary: "liar", Budget: "8", Counts: []int64{600, 400}}.AdversarySpec()
	if err != nil || spec.Name != "byzantine" || spec.Budget != 8 {
		t.Errorf("liar = %+v, %v; want the canonical name", spec, err)
	}
	for name, r := range map[string]Run{
		"unknown":               {Adversary: "bogus", Budget: "8"},
		"budget without name":   {Budget: "8"},
		"budget with none":      {Adversary: "none", Budget: "8"},
		"negative budget":       {Adversary: "corrupt", Budget: "-1"},
		"double lag":            {Adversary: "late:2", Lag: 3, Budget: "8"},
		"lag on a lag-free one": {Adversary: "corrupt", Lag: 2, Budget: "8"},
		"late without lag":      {Adversary: "late", Budget: "8"},
	} {
		if _, err := r.AdversarySpec(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

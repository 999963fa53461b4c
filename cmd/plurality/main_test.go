package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunCoreText(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "core", "-n", "2000", "-k", "4",
		"-workload", "biased", "-bias", "1", "-seed", "3",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "done=true") || !strings.Contains(out, "pluralityWon=true") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if !strings.Contains(out, "consensusTime=") {
		t.Fatalf("missing core metrics:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "two-choices-sync", "-n", "2000", "-k", "2",
		"-workload", "gapsqrt", "-z", "2", "-seed", "4", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	if err := json.Unmarshal(buf.Bytes(), &o); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if !o.Done || o.Protocol != "two-choices-sync" || o.Rounds <= 0 {
		t.Fatalf("outcome = %+v", o)
	}
}

func TestRunAllProtocols(t *testing.T) {
	protocols := []string{
		"core", "two-choices-sync", "two-choices-async",
		"onebit", "voter", "3-majority",
		"two-choices", "usd", "undecided-state", "j-majority:5", "j-majority:1",
	}
	for _, p := range protocols {
		p := p
		t.Run(p, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			err := run([]string{
				"-protocol", p, "-n", "1500", "-k", "3",
				"-workload", "biased", "-bias", "1", "-seed", "5",
			}, &buf)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			if !strings.Contains(buf.String(), "done=true") {
				t.Fatalf("%s did not converge:\n%s", p, buf.String())
			}
		})
	}
}

func TestRunWorkloads(t *testing.T) {
	for _, w := range []string{"biased", "gapsqrt", "gapsqrtpolylog", "tinygap", "uniform", "zipf"} {
		var buf bytes.Buffer
		err := run([]string{
			"-protocol", "voter", "-n", "500", "-k", "3",
			"-workload", w, "-seed", "6", "-maxtime", "1000000",
		}, &buf)
		if err != nil {
			t.Fatalf("workload %s: %v", w, err)
		}
	}
}

func TestRunPoissonModelAndDelay(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "core", "-n", "1500", "-k", "3", "-workload", "biased",
		"-bias", "1", "-model", "poisson", "-delay", "1", "-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "done=true") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

func TestRunTraceFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "core", "-n", "1500", "-k", "3", "-workload", "biased",
		"-bias", "1", "-trace", "-seed", "8",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "plurality=") {
		t.Fatalf("trace lines missing:\n%s", buf.String())
	}
}

func TestRunFailureInjectionFlags(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "core", "-n", "2000", "-k", "3", "-workload", "biased",
		"-bias", "1", "-seed", "9",
		"-crash", "0.01", "-desync-frac", "0.02", "-desync-ticks", "200",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "done=true") {
		t.Fatalf("output:\n%s", buf.String())
	}
	// Desync without spread must be rejected by the library validation.
	if err := run([]string{
		"-protocol", "core", "-n", "2000", "-k", "3",
		"-desync-frac", "0.02",
	}, &buf); err == nil {
		t.Error("desync-frac without desync-ticks should fail")
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string // a substring of the error, when set
	}{
		{name: "bad protocol", args: []string{"-protocol", "nope", "-n", "100"}},
		{name: "bad workload", args: []string{"-workload", "nope", "-n", "100"}},
		{name: "bad model", args: []string{"-model", "nope", "-n", "100"}},
		// The event-heap scheduler is a test reference, not a model.
		{name: "heap-poisson model", args: []string{"-protocol", "core", "-model", "heap-poisson", "-n", "100"},
			want: `unknown model "heap-poisson"`},
		{name: "tiny n", args: []string{"-n", "1"}},
		{name: "j-majority without j", args: []string{"-protocol", "j-majority", "-n", "100"}},
		{name: "j-majority bad j", args: []string{"-protocol", "j-majority:x", "-n", "100"}},
		{name: "occupancy core", args: []string{"-protocol", "core", "-engine", "occupancy", "-n", "100"}},
		// As in the daemon and the sweeps: a budget needs an adversary to
		// spend it, and budgets are non-negative.
		{name: "budget without adversary", args: []string{"-adversary", "none", "-budget", "5", "-n", "100"}},
		{name: "negative budget", args: []string{"-adversary", "corrupt", "-budget", "-3", "-n", "100"}},
		// Rates reach NewJob's validation instead of switching off.
		{name: "negative delay", args: []string{"-protocol", "core", "-delay", "-1", "-n", "100"}},
		{name: "negative crash", args: []string{"-protocol", "core", "-crash", "-0.1", "-n", "100"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tt.args, &buf); err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("err = %v, want an error containing %q", err, tt.want)
			}
		})
	}
}

func TestRunTrialsFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "core", "-n", "1500", "-k", "3",
		"-workload", "biased", "-bias", "1", "-seed", "5",
		"-trials", "4", "-workers", "2", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var o trialsOutcome
	if err := json.Unmarshal(buf.Bytes(), &o); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if o.Trials != 4 || !o.AllDone || o.PluralityWins < 3 {
		t.Fatalf("unexpected aggregate: %+v", o)
	}
}

// TestListProtocolsFlag: the -list-protocols listing is registry-driven —
// every registered family must appear, parameter and source included.
func TestListProtocolsFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-list-protocols"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"two-choices", "voter", "3-majority", "usd", "j-majority:<j>",
		"param:", "source:", "core (Theorem 1.3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

// TestRunUSDOccupancyEngine: a registry protocol composes with -engine
// occupancy, including USD's hidden undecided bucket.
func TestRunUSDOccupancyEngine(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "usd", "-engine", "occupancy", "-model", "poisson",
		"-n", "5000", "-k", "4", "-workload", "biased", "-bias", "1", "-seed", "7",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "done=true") {
		t.Fatalf("output:\n%s", buf.String())
	}
}

// TestRunTrialsEveryProtocol: -trials rides on Job.Trials, so pooled
// multi-trial execution works for every protocol family, not just core.
func TestRunTrialsEveryProtocol(t *testing.T) {
	for _, p := range []string{"voter", "two-choices-sync", "onebit", "usd"} {
		p := p
		t.Run(p, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			err := run([]string{
				"-protocol", p, "-n", "800", "-k", "3", "-workload", "biased",
				"-bias", "1", "-seed", "5", "-trials", "3", "-workers", "2", "-json",
			}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			var o trialsOutcome
			if err := json.Unmarshal(buf.Bytes(), &o); err != nil {
				t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
			}
			if o.Trials != 3 || !o.AllDone {
				t.Fatalf("unexpected aggregate: %+v", o)
			}
		})
	}
}

// TestRunTimeoutFlag: an expiring -timeout cancels the simulation
// mid-flight and surfaces as an error instead of hanging.
func TestRunTimeoutFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "voter", "-engine", "per-node", "-n", "200000", "-k", "2",
		"-workload", "uniform", "-maxtime", "1000000000", "-timeout", "50ms",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestRunTrialsRejectsTrace(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "core", "-n", "1000", "-trials", "2", "-trace"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-trace") {
		t.Fatalf("want trace-with-trials error, got %v", err)
	}
}

func TestRunTrialsReportsNoConsensusAggregate(t *testing.T) {
	var buf bytes.Buffer
	// A budget far too small for consensus: the aggregate must still be
	// printed, with allDone=false, instead of discarding all trials.
	err := run([]string{
		"-protocol", "core", "-n", "2000", "-k", "4",
		"-workload", "biased", "-bias", "1", "-seed", "8",
		"-trials", "3", "-maxtime", "1", "-json",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	var o trialsOutcome
	if err := json.Unmarshal(buf.Bytes(), &o); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if o.AllDone || o.Trials != 3 {
		t.Fatalf("unexpected aggregate: %+v", o)
	}
}

// TestRunCorePerNodeEngineAccepted: -engine per-node on protocols that
// always run per node passes WithEngine(EnginePerNode) through, which their
// paths host.
func TestRunCorePerNodeEngineAccepted(t *testing.T) {
	for _, p := range []string{"core", "onebit", "two-choices-sync"} {
		var buf bytes.Buffer
		err := run([]string{
			"-protocol", p, "-engine", "per-node", "-n", "1000", "-k", "2",
			"-workload", "biased", "-bias", "1", "-seed", "3",
		}, &buf)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

// TestRunTopologyFlag: -topology materializes the communication graph —
// quenched families run per node, annealed families count-collapse to the
// degree-class lumped engine (and so compose with -engine occupancy).
func TestRunTopologyFlag(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-protocol", "two-choices", "-model", "poisson", "-topology", "random-regular:8",
		"-n", "1000", "-k", "3", "-workload", "biased", "-bias", "1", "-seed", "5",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "done=true") {
		t.Fatalf("quenched run output:\n%s", buf.String())
	}
	buf.Reset()
	err = run([]string{
		"-protocol", "two-choices", "-model", "poisson", "-engine", "occupancy",
		"-topology", "annealed:8", "-n", "100000", "-k", "4",
		"-workload", "biased", "-bias", "1", "-seed", "6",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "done=true") {
		t.Fatalf("lumped run output:\n%s", buf.String())
	}
}

func TestRunTopologyErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown topology", args: []string{"-protocol", "voter", "-topology", "hypercube", "-n", "100"}},
		{name: "gnp without p", args: []string{"-protocol", "voter", "-topology", "gnp", "-n", "100"}},
		{name: "bad degree", args: []string{"-protocol", "voter", "-topology", "annealed:x", "-n", "100"}},
		{name: "non-square torus", args: []string{"-protocol", "voter", "-topology", "torus", "-n", "60"}},
		{name: "occupancy on quenched", args: []string{"-protocol", "voter", "-engine", "occupancy", "-topology", "cycle", "-n", "100"}},
		// The guards the experiment harness has always applied.
		{name: "sparse gnp", args: []string{"-protocol", "voter", "-topology", "gnp:0.001", "-n", "100"}},
		{name: "fractional degree", args: []string{"-protocol", "voter", "-topology", "random-regular:2.5", "-n", "100"}},
		{name: "degree >= n", args: []string{"-protocol", "voter", "-topology", "annealed:100", "-n", "100"}},
		{name: "odd n*d", args: []string{"-protocol", "voter", "-topology", "random-regular:3", "-n", "99"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(tt.args, &buf); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestRunWorkersFlagApplied: -workers must be translated into a
// WithTrialWorkers option (a silently dropped flag cannot be caught by the
// determinism checks, since results are worker-count independent by
// design). With only -workers set, the built options are exactly WithSeed
// plus WithTrialWorkers.
func TestRunWorkersFlagApplied(t *testing.T) {
	f, err := parseFlags([]string{"-workers", "3"})
	if err != nil {
		t.Fatal(err)
	}
	opts, err := jobOptions(f, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if len(opts) != 2 {
		t.Fatalf("built %d options, want 2 (seed + trial workers)", len(opts))
	}
}

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("plurality %s: %v", strings.Join(args, " "), err)
	}
	return buf.String()
}

// TestRunSynchronousModel: -model synchronous runs the same job as
// -protocol two-choices-sync.
func TestRunSynchronousModel(t *testing.T) {
	a := runOut(t, "-protocol", "two-choices", "-model", "synchronous", "-n", "2000", "-k", "3", "-seed", "11")
	b := runOut(t, "-protocol", "two-choices-sync", "-n", "2000", "-k", "3", "-seed", "11")
	if a != strings.Replace(b, "protocol=two-choices-sync", "protocol=two-choices", 1) || !strings.Contains(a, "rounds=") {
		t.Fatalf("-model synchronous:\n%s\n-protocol two-choices-sync:\n%s", a, b)
	}
}

// TestRunLeapTuningZeroIsDefault: -leap-eps 0 and -ode-theta 0 select the
// engine defaults, as the help says, and -ode-theta -1 still disables the
// ODE regime.
func TestRunLeapTuningZeroIsDefault(t *testing.T) {
	base := []string{"-protocol", "two-choices", "-engine", "leap", "-n", "1000000000000", "-k", "4", "-seed", "15"}
	def := runOut(t, base...)
	if got := runOut(t, append(base, "-leap-eps", "0", "-ode-theta", "0")...); got != def {
		t.Errorf("zero tuning:\n%s\ndefault:\n%s", got, def)
	}
	if got := runOut(t, append(base, "-ode-theta", "-1")...); got == def {
		t.Errorf("-ode-theta -1 ran the default ODE regime:\n%s", got)
	}
}

// TestRunZeroBudgetAdversaryReachesPlanner: a named adversary reaches the
// planner even at zero budget, as in the sweeps, so a path that hosts no
// adversary rejects it.
func TestRunZeroBudgetAdversaryReachesPlanner(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "two-choices", "-engine", "leap", "-adversary", "corrupt", "-budget", "0", "-n", "100000", "-k", "2"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "WithAdversary") {
		t.Fatalf("leap with a zero-budget adversary: %v, want the planner's rejection", err)
	}
	// Where adversaries are hosted, the zero-budget run is the clean run.
	clean := runOut(t, "-protocol", "two-choices", "-model", "poisson", "-n", "2000", "-k", "2", "-seed", "16")
	zero := runOut(t, "-protocol", "two-choices", "-model", "poisson", "-adversary", "corrupt", "-n", "2000", "-k", "2", "-seed", "16")
	if zero != clean {
		t.Fatalf("zero-budget run:\n%s\nclean run:\n%s", zero, clean)
	}
}

// TestRunCoreNoConsensusMessage: an exhausted core budget names the core
// protocol once.
func TestRunCoreNoConsensusMessage(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-protocol", "core", "-n", "2000", "-k", "4", "-maxtime", "5"}, &buf)
	if want := "core: no consensus within time budget (budget 5)"; err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
}

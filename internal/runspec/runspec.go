// Package runspec is the one vocabulary of a run. Each run of the paper's
// protocols is one point in a small space: the protocol, the initial
// counts, the scheduler model, the engine, the adversary and a few
// injections. cmd/plurality's flags, pluralityd's JobSpec and the
// experiment harness's Scenario spell that space in three shapes; each is
// a field-for-field view that fills a Run.
//
// The package holds one table per axis more than one front end spells
// (Models, Engines, Workloads), the grammars of the edge latency, the
// adversary budget and the sweeps' "leap:<eps>" engine, and the one
// builder: Initial and Options turn a Run into the counts and options
// plurality.NewJob takes.
package runspec

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"plurality"
	"plurality/internal/sched"
)

// Model is one scheduler model: its canonical name and library value.
type Model struct {
	Name  string
	Model plurality.Model
}

// Models lists the scheduler models. The first is the library default.
var Models = []Model{
	{"sequential", plurality.Sequential},
	{"poisson", plurality.Poisson},
	{"synchronous", plurality.Synchronous},
}

// Engine is one execution engine: its canonical name, its library value,
// and whether it runs on the colour counts alone, never materializing a
// population.
type Engine struct {
	Name      string
	Engine    plurality.Engine
	Histogram bool
}

// Engines lists the execution engines. The first is the library default,
// which leaves the choice to the planner.
var Engines = []Engine{
	{"auto", plurality.EngineAuto, false},
	{"per-node", plurality.EnginePerNode, false},
	{"occupancy", plurality.EngineOccupancy, true},
	{"leap", plurality.EngineLeap, true},
}

// Workload is one initial distribution of n nodes over k colours. Param
// names its one parameter, which cmd/plurality takes as the flag of that
// name; it is empty for a workload without one.
type Workload struct {
	Name   string
	Param  string
	Counts func(n, k int, param float64) ([]int64, error)
}

// Workloads lists the initial distributions.
var Workloads = []Workload{
	{"biased", "bias", plurality.Biased},
	{"gapsqrt", "z", plurality.GapSqrt},
	{"gapsqrtpolylog", "z", plurality.GapSqrtPolylog},
	{"tinygap", "z", plurality.TinyGap},
	{"uniform", "", func(n, k int, _ float64) ([]int64, error) { return plurality.Uniform(n, k) }},
	{"zipf", "zipf-s", plurality.Zipf},
}

func (m Model) String() string    { return m.Name }
func (e Engine) String() string   { return e.Name }
func (w Workload) String() string { return w.Name }

// Names lists a table's canonical spellings in table order.
func Names[T fmt.Stringer](rows []T) []string {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.String()
	}
	return names
}

func lookup[T fmt.Stringer](axis string, rows []T, name string) (T, error) {
	for _, r := range rows {
		if r.String() == name {
			return r, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (%s)", axis, name, strings.Join(Names(rows), ", "))
}

// LookupModel returns the model spelled name.
func LookupModel(name string) (Model, error) { return lookup("model", Models, name) }

// LookupEngine returns the engine spelled name.
func LookupEngine(name string) (Engine, error) { return lookup("engine", Engines, name) }

// LookupWorkload returns the workload spelled name.
func LookupWorkload(name string) (Workload, error) { return lookup("workload", Workloads, name) }

// ParseEngine splits the sweeps' engine spelling: a name from Engines, or
// "leap:<eps>", the leap engine with its tau-leap error budget in (0, 0.5].
// eps is 0, the engine default, for a plain name.
func ParseEngine(s string) (name string, eps float64, err error) {
	v, ok := strings.CutPrefix(s, "leap:")
	if !ok {
		return s, 0, nil
	}
	eps, err = strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(eps) || eps <= 0 || eps > 0.5 {
		return "", 0, fmt.Errorf("leap engine budget %q, want a number in (0, 0.5]", v)
	}
	return "leap", eps, nil
}

// ParseLatency decodes the edge-latency grammar: "" and "none" (instant
// edges, a nil model), "exp:<mean>" or "uniform:<lo>:<hi>".
func ParseLatency(s string) (plurality.EdgeLatency, error) {
	name, args, _ := strings.Cut(s, ":")
	var v []float64 // the parameters, nil unless all parse
	for _, a := range strings.Split(args, ":") {
		f, err := strconv.ParseFloat(a, 64)
		if err != nil {
			v = nil
			break
		}
		v = append(v, f)
	}
	var m plurality.EdgeLatency
	switch {
	case s == "" || s == "none":
		return nil, nil
	case name == "exp" && len(v) == 1:
		m = plurality.ExpEdgeLatency(v[0])
	case name == "uniform" && len(v) == 2:
		m = plurality.UniformEdgeLatency(v[0], v[1])
	}
	if m == nil || sched.CheckLatency(m) != nil {
		return nil, fmt.Errorf("latency %q, want none, exp:<mean> or uniform:<lo>:<hi>", s)
	}
	return m, nil
}

// ParseBudget decodes an adversary budget f: a non-negative integer, or
// "n^<p>" and "<c>sqrt(n)" (coefficient optional), which resolve against
// n and round to the nearest integer. "" means no budget.
func ParseBudget(s string, n int64) (int64, error) {
	s = strings.TrimSpace(s)
	var v float64 // a symbolic form's value
	var err error
	if p, ok := strings.CutPrefix(s, "n^"); ok {
		var pow float64
		pow, err = strconv.ParseFloat(p, 64)
		v = math.Pow(float64(n), pow)
	} else if coef, ok := strings.CutSuffix(s, "sqrt(n)"); ok {
		c := 1.0
		if coef = strings.TrimSuffix(strings.TrimSpace(coef), "*"); coef != "" {
			c, err = strconv.ParseFloat(coef, 64)
		}
		v = c * math.Sqrt(float64(n))
	} else if s == "" {
		return 0, nil
	} else {
		f, err := strconv.ParseInt(s, 10, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("budget %q: want a non-negative integer, \"n^<p>\" or \"<c>sqrt(n)\"", s)
		}
		return f, nil
	}
	switch {
	case err != nil:
		return 0, fmt.Errorf("budget %q: bad exponent or coefficient", s)
	case n <= 0:
		return 0, fmt.Errorf("budget %q: the symbolic form needs n set first", s)
	case math.IsNaN(v) || v < 0:
		return 0, fmt.Errorf("budget %q: resolves to a negative or undefined budget", s)
	}
	return int64(math.Round(v)), nil
}

// Run is one run in the canonical spellings. A zero field leaves the
// library default: the builder emits an option only for a field that is
// set, and passes any other value on for NewJob to validate.
type Run struct {
	// Protocol is the NewJob spec: "core", "onebit" or a registry protocol.
	Protocol string
	// Counts is the initial histogram. When it is nil, the workload builds
	// it: Workload names a row of Workloads, with N nodes, K colours and
	// Param, the workload's one parameter.
	Counts   []int64
	Workload string
	N, K     int
	Param    float64

	// Seed roots the run; it is always passed on.
	Seed uint64
	// Model and Engine name rows of Models and Engines.
	Model  string
	Engine string
	// LeapEps is the leap engine's tau-leap error budget. ODETheta is its
	// mean-field handoff threshold; a negative θ disables the ODE regime.
	LeapEps  float64
	ODETheta float64

	MaxTime   float64
	MaxRounds int
	MaxPhases int

	Crash         float64
	Churn         float64
	ResponseDelay float64
	// Latency is the edge-latency model in ParseLatency's grammar.
	Latency string

	// Adversary is a registry name, or "name:<lag>" for the lagged
	// adversaries; "" and "none" mean no adversary. Budget is its power f
	// in ParseBudget's grammar, and Lag the observation lag ℓ when the
	// name carries none. A named adversary reaches the planner even at
	// zero budget, where it is inert: a path that hosts no adversary
	// rejects it either way.
	Adversary string
	Budget    string
	Lag       float64
}

// n is the run's node count: the histogram total, or N.
func (r Run) n() int64 {
	if r.Counts == nil {
		return int64(r.N)
	}
	var n int64
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// Initial returns the run's initial counts: Counts, or the workload's.
func (r Run) Initial() ([]int64, error) {
	if r.Counts != nil {
		return r.Counts, nil
	}
	w, err := LookupWorkload(r.Workload)
	if err != nil {
		return nil, err
	}
	return w.Counts(r.N, r.K, r.Param)
}

// AdversarySpec assembles the adversary fields into a budgeted spec for
// WithAdversary: the name resolved against the registry (aliases
// canonicalize), the budget against the run's n, and Lag merged in.
func (r Run) AdversarySpec() (plurality.AdversarySpec, error) {
	spec, err := plurality.ParseAdversary(r.Adversary)
	if err != nil {
		return plurality.AdversarySpec{}, fmt.Errorf("adversary %q: %w", r.Adversary, err)
	}
	if spec.Budget, err = ParseBudget(r.Budget, r.n()); err != nil {
		return plurality.AdversarySpec{}, err
	}
	if spec.Budget > 0 && !named(spec) {
		return plurality.AdversarySpec{}, fmt.Errorf("budget %q set with no adversary to spend it", r.Budget)
	}
	if r.Lag != 0 {
		if spec.Lag != 0 {
			return plurality.AdversarySpec{}, fmt.Errorf("adversary %q already carries a lag; set it once", r.Adversary)
		}
		spec.Lag = r.Lag
	}
	if err := spec.Validate(); err != nil {
		return plurality.AdversarySpec{}, fmt.Errorf("adversary %q: %w", r.Adversary, err)
	}
	return spec, nil
}

func named(spec plurality.AdversarySpec) bool { return spec.Name != "" && spec.Name != "none" }

// Options returns the options NewJob takes for the run, one per set field.
func (r Run) Options() ([]plurality.Option, error) {
	opts := []plurality.Option{plurality.WithSeed(r.Seed)}
	add := func(on bool, opt plurality.Option) {
		if on {
			opts = append(opts, opt)
		}
	}
	if r.Model != "" {
		m, err := LookupModel(r.Model)
		if err != nil {
			return nil, err
		}
		add(true, plurality.WithModel(m.Model))
	}
	if r.Engine != "" {
		e, err := LookupEngine(r.Engine)
		if err != nil {
			return nil, err
		}
		add(e.Engine != plurality.EngineAuto, plurality.WithEngine(e.Engine))
	}
	lat, err := ParseLatency(r.Latency)
	if err != nil {
		return nil, err
	}
	adv, err := r.AdversarySpec()
	if err != nil {
		return nil, err
	}
	add(r.LeapEps != 0, plurality.WithLeapEpsilon(r.LeapEps))
	add(r.ODETheta != 0, plurality.WithODEThreshold(max(r.ODETheta, 0)))
	add(r.MaxTime != 0, plurality.WithMaxTime(r.MaxTime))
	add(r.MaxRounds != 0, plurality.WithMaxRounds(r.MaxRounds))
	add(r.MaxPhases != 0, plurality.WithMaxPhases(r.MaxPhases))
	add(r.Crash != 0, plurality.WithCrashes(r.Crash))
	add(r.Churn != 0, plurality.WithChurn(r.Churn))
	add(r.ResponseDelay != 0, plurality.WithResponseDelay(r.ResponseDelay))
	add(lat != nil, plurality.WithEdgeLatency(lat))
	add(named(adv), plurality.WithAdversary(adv))
	return opts, nil
}

package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"plurality"
	"plurality/internal/graph"
)

// simItem is one run of a simulation workload's fixed list, compiled in
// set-up so the timed loop only calls Job.Run.
type simItem struct {
	label string // the run's span name and per-layer key
	layer string // the module the run exercises
	job   *plurality.Job
	// leap marks the hybrid engine's runs of 10¹² nodes, left out of
	// alloc_bytes_per_node so they do not swamp the exact engines' nodes.
	leap bool
}

// runTotal sums the traced runs of one label.
type runTotal struct {
	d     time.Duration
	ticks int64
	runs  int
}

func (t runTotal) nsPerAct() float64 { return float64(t.d.Nanoseconds()) / float64(t.ticks) }

// simRunner runs a simulation workload: its list of jobs, plus the
// per-layer measurement specific to the workload.
type simRunner struct {
	items   []simItem
	traced  map[string]*runTotal
	measure func(tr *tracer, parent int) ([]metric, error)
}

func (s *simRunner) rep(ctx context.Context, tr *tracer, parent int) (repStats, error) {
	var st repStats
	for _, it := range s.items {
		id := tr.begin(parent, "Job.Run "+it.label, it.layer)
		start := time.Now()
		rep, err := it.job.Run(ctx)
		d := time.Since(start)
		tr.end(id)
		st.attempted++
		st.runs = append(st.runs, runRate{it.label, float64(rep.Ticks) / d.Seconds()})
		st.counts = append(st.counts, rep.Ticks)
		if !it.leap {
			st.nodes += it.job.N()
		}
		if fail := checkRun(it.label, rep, err); fail != "" {
			st.failures = append(st.failures, fail)
		}
		if tr != nil {
			t := s.traced[it.label]
			if t == nil {
				t = &runTotal{}
				s.traced[it.label] = t
			}
			t.d += d
			t.ticks += rep.Ticks
			t.runs++
		}
	}
	return st, nil
}

func (s *simRunner) layers(_ context.Context, tr *tracer, parent int) ([]metric, []string, error) {
	ms, err := s.measure(tr, parent)
	return ms, nil, err
}

func (s *simRunner) close() {}

// checkRun is the correctness check of every simulated or cluster run: it
// converged, and to colour 0, the plurality every workload starts from.
func checkRun(label string, rep plurality.Report, err error) string {
	switch {
	case err != nil:
		return fmt.Sprintf("%s: %v", label, err)
	case !rep.Converged:
		return label + ": did not converge"
	case rep.Winner != 0:
		return fmt.Sprintf("%s: winner %d, want the plurality colour 0", label, rep.Winner)
	}
	return ""
}

// newItem compiles one Poisson-clock run on the Biased(n, 4, eps) start.
func newItem(label, layer, protocol string, n int, eps float64, seed uint64, opts ...plurality.Option) (simItem, error) {
	counts, err := plurality.Biased(n, 4, eps)
	if err != nil {
		return simItem{}, err
	}
	opts = append(opts, plurality.WithSeed(seed), plurality.WithModel(plurality.Poisson))
	job, err := plurality.NewJob(protocol, counts, opts...)
	if err != nil {
		return simItem{}, fmt.Errorf("%s: %w", label, err)
	}
	return simItem{label: label, layer: layer, job: job}, nil
}

// setupSim builds a simulation workload at the env's size and warms it up
// with one untimed pass over the same list at test size.
func setupSim(e env, build func(sz sizes, seed uint64, tr *tracer, parent int) (*simRunner, error)) (runner, error) {
	r, err := build(e.size, e.seed, e.tr, e.parent)
	if err != nil {
		return nil, err
	}
	warm, err := build(testSize, e.seed, nil, 0)
	if err != nil {
		return nil, err
	}
	if _, err := warm.rep(e.ctx, nil, 0); err != nil {
		return nil, err
	}
	return r, nil
}

// --- pernode-clique -------------------------------------------------------

func setupClique(e env) (runner, error) { return setupSim(e, buildClique) }

func buildClique(sz sizes, seed uint64, _ *tracer, _ int) (*simRunner, error) {
	core, err := newItem("core", "internal/core", "core", sz.coreN, 0.5, derive(seed, 1, 0))
	if err != nil {
		return nil, err
	}
	items := []simItem{core}
	for i := 0; i < 2; i++ {
		it, err := newItem("per-node/two-choices", "internal/protocols/dynamics", "two-choices", sz.cliqueN, 1,
			derive(seed, 1, 1+i), plurality.WithEngine(plurality.EnginePerNode))
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}
	r := &simRunner{items: items, traced: map[string]*runTotal{}}
	r.measure = func(tr *tracer, parent int) ([]metric, error) {
		ms, err := microLayers(tr, parent, sz, seed)
		if err != nil {
			return nil, err
		}
		core := r.traced["core"]
		ms = append(ms, metric{"core.ns_per_activation", "ns", core.nsPerAct(), core.runs})
		g, err := graph.NewComplete(sz.cliqueN)
		if err != nil {
			return nil, err
		}
		rs, err := replayLayers(tr, parent, "clique", g, sz.cliqueN, derive(seed, 1, 1), r.traced["per-node/two-choices"])
		return append(ms, rs...), err
	}
	return r, nil
}

// --- pernode-csr ----------------------------------------------------------

func setupCSR(e env) (runner, error) { return setupSim(e, buildCSR) }

func buildCSR(sz sizes, seed uint64, tr *tracer, parent int) (*simRunner, error) {
	id := tr.begin(parent, "RandomRegularGraph", "internal/graph")
	start := time.Now()
	g, err := plurality.RandomRegularGraph(sz.csrN, 8, derive(seed, 2, 0))
	build := time.Since(start)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	csr, ok := g.(*graph.Adjacency)
	if !ok {
		return nil, fmt.Errorf("RandomRegularGraph returned %T, want the CSR *graph.Adjacency", g)
	}
	it, err := newItem("per-node/two-choices/csr", "internal/protocols/dynamics", "two-choices", sz.csrN, 1,
		derive(seed, 2, 1), plurality.WithEngine(plurality.EnginePerNode), plurality.WithGraph(g))
	if err != nil {
		return nil, err
	}
	r := &simRunner{items: []simItem{it}, traced: map[string]*runTotal{}}
	r.measure = func(tr *tracer, parent int) ([]metric, error) {
		ms := []metric{
			{"graph.csr_build_s", "s", build.Seconds(), 1},
			csrSample(tr, parent, csr, sz, seed),
		}
		rs, err := replayLayers(tr, parent, "csr", csr, sz.csrN, derive(seed, 2, 1), r.traced["per-node/two-choices/csr"])
		return append(ms, rs...), err
	}
	return r, nil
}

// --- collapsed ------------------------------------------------------------

// collapsedProtocols are the occupancy runs of the collapsed list, one per
// kernel family whose cost differs.
var collapsedProtocols = []string{"two-choices", "usd", "3-majority", "j-majority:5"}

// metricName turns a protocol spec into a metric-name segment
// ("j-majority:5" → "j-majority-5").
func metricName(spec string) string { return strings.ReplaceAll(spec, ":", "-") }

func setupCollapsed(e env) (runner, error) { return setupSim(e, buildCollapsed) }

func buildCollapsed(sz sizes, seed uint64, tr *tracer, parent int) (*simRunner, error) {
	occN := map[string]int{"two-choices": sz.occTwoChoices, "usd": sz.occUSD, "3-majority": sz.occThreeMaj, "j-majority:5": sz.occJMaj}
	var items []simItem
	for i, p := range collapsedProtocols {
		it, err := newItem("occupancy/"+metricName(p), "internal/occupancy", p, occN[p], 1,
			derive(seed, 3, i), plurality.WithEngine(plurality.EngineOccupancy))
		if err != nil {
			return nil, err
		}
		items = append(items, it)
	}

	id := tr.begin(parent, "RandomGraph", "internal/graph")
	start := time.Now()
	gnp, err := plurality.RandomGraph(sz.lumpedN, 8/float64(sz.lumpedN-1), derive(seed, 3, 10))
	build := time.Since(start)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ann, err := plurality.AnnealedGraph(gnp)
	if err != nil {
		return nil, err
	}
	// Colours occupy contiguous node blocks and the annealed degree classes
	// ascending degree ranges, so colour 0 holds the lowest degrees; at
	// ε = 3 it is still the plurality of half-edges, and wins.
	lum, err := newItem("lumped/two-choices", "internal/lumped", "two-choices", sz.lumpedN, 3,
		derive(seed, 3, 11), plurality.WithGraph(ann), plurality.WithEngine(plurality.EngineOccupancy))
	if err != nil {
		return nil, err
	}
	items = append(items, lum)
	for i := 0; i < sz.leapRuns; i++ {
		it, err := newItem("leap/two-choices", "internal/occupancy", "two-choices", leapN, 1,
			derive(seed, 3, 20+i), plurality.WithEngine(plurality.EngineLeap))
		if err != nil {
			return nil, err
		}
		it.leap = true
		items = append(items, it)
	}

	r := &simRunner{items: items, traced: map[string]*runTotal{}}
	r.measure = func(tr *tracer, parent int) ([]metric, error) {
		ms, err := kernelLayers(tr, parent, sz, seed)
		if err != nil {
			return nil, err
		}
		for _, p := range collapsedProtocols {
			t := r.traced["occupancy/"+metricName(p)]
			ms = append(ms, metric{"occupancy." + metricName(p) + ".ns_per_activation", "ns", t.nsPerAct(), t.runs})
		}
		lt, leap := r.traced["lumped/two-choices"], r.traced["leap/two-choices"]
		return append(ms,
			metric{"lumped.ns_per_activation", "ns", lt.nsPerAct(), lt.runs},
			metric{"occupancy.leap_run_ms", "ms", leap.d.Seconds() * 1e3 / float64(leap.runs), leap.runs},
			metric{"graph.gnp_build_s", "s", build.Seconds(), 1},
		), nil
	}
	return r, nil
}

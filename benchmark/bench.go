package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"time"

	"plurality/internal/rng"
)

// sizes fixes every input size of the five workloads. fullSize is what the
// benchmark measures; testSize is what the smoke test runs and what a traced
// run uses to probe the workloads it was not asked to measure.
type sizes struct {
	// pernode-clique: one core run and two per-node Two-Choices runs.
	coreN, cliqueN int
	// The per-layer microbenchmarks: population size and operations per
	// timing.
	microN, microOps int
	// pernode-csr: one per-node Two-Choices run on a random 8-regular graph.
	csrN int
	// collapsed: occupancy runs per protocol, one degree-class lumped run and
	// leapRuns hybrid leap runs of leapN nodes.
	occTwoChoices, occUSD, occThreeMaj, occJMaj, lumpedN int
	leapRuns                                             int
	// node-fabric: cluster size, and activations per node in the raw fabric
	// timing.
	clusterN, fabricOps int
	// serve: job population size, the length of each rate phase and the two
	// arrival rates in jobs per second.
	jobN              int
	phase             time.Duration
	lowRate, highRate float64
}

var fullSize = sizes{
	coreN: 10_000, cliqueN: 1_000_000,
	microN: 1_000_000, microOps: 1 << 20,
	csrN:          1_000_000,
	occTwoChoices: 3_000_000, occUSD: 1_000_000, occThreeMaj: 1_000_000, occJMaj: 30_000,
	lumpedN: 300_000, leapRuns: 10,
	clusterN: 1024, fabricOps: 16,
	jobN: 100_000, phase: 2 * time.Second, lowRate: 40, highRate: 120,
}

var testSize = sizes{
	coreN: 2_000, cliqueN: 20_000,
	microN: 20_000, microOps: 1 << 12,
	csrN:          20_000,
	occTwoChoices: 100_000, occUSD: 30_000, occThreeMaj: 30_000, occJMaj: 3_000,
	lumpedN: 10_000, leapRuns: 2,
	clusterN: 256, fabricOps: 4,
	jobN: 10_000, phase: 300 * time.Millisecond, lowRate: 20, highRate: 60,
}

// leapN is the population of the hybrid leap engine's runs, at every size:
// the engine exists for populations the exact engines cannot reach.
const leapN = 1_000_000_000_000

// setupRuns is how many times each workload is set up; setup_s is the
// median, and the first set-up is the one measured.
const setupRuns = 5

// metric is one reported number. Samples is how many measurements the value
// summarizes (repetitions, set-ups, runs or requests).
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// repStats is what one repetition of a workload's list delivered.
type repStats struct {
	runs      []runRate // every run's or job's activations per second
	nodes     int64     // nodes simulated: the denominator of alloc_bytes_per_node
	attempted int       // runs or jobs attempted
	failures  []string  // one entry per run or job that failed a check
	counts    []int64   // deterministic counts (activations, messages) of the list
	// fresh marks a list that draws new inputs on every repetition (serve's
	// jobs must miss the cache), so counts differ between repetitions.
	fresh bool
}

// runRate is the activations per second of one run (wall time) or one
// serve job (latency), with the kind of run it was.
type runRate struct {
	kind string
	rate float64
}

// activationsPerS is activations_per_s: the geometric mean over kinds of
// run of each kind's median per-run rate. The kinds differ by orders of
// magnitude in rate, and a seed changes how many activations each kind
// gets; the geometric mean weighs every kind alike regardless.
func activationsPerS(byKind map[string][]float64) float64 {
	logs := 0.0
	for _, rates := range byKind {
		logs += math.Log(median(rates))
	}
	return math.Exp(logs / float64(len(byKind)))
}

// runner is one workload, set up and ready to repeat its list.
type runner interface {
	// rep runs the fixed list once; tr is nil on untraced repetitions.
	rep(ctx context.Context, tr *tracer, parent int) (repStats, error)
	// layers measures the workload's per-layer metrics from its traced
	// repetitions and its own microbenchmarks, returning any failed checks.
	layers(ctx context.Context, tr *tracer, parent int) ([]metric, []string, error)
	close()
}

// env is what a workload's set-up receives: the size, the seed its inputs
// derive from, and where to record spans.
type env struct {
	ctx    context.Context
	size   sizes
	seed   uint64
	tr     *tracer
	parent int
}

type workloadDef struct {
	name  string
	setup func(env) (runner, error)
}

// workloads lists every workload in the order they run. Why each exists is
// declared in BENCHMARK.json.
var workloads = []workloadDef{
	{"pernode-clique", setupClique},
	{"pernode-csr", setupCSR},
	{"collapsed", setupCollapsed},
	{"node-fabric", setupNode},
	{"serve", setupServe},
}

// config is one invocation of the benchmark.
type config struct {
	workloads []string // names to measure; every workload when empty
	seed      uint64
	seconds   float64 // measure each selected workload for at least this long
	minRounds int     // and repeat each list at least this many times
	trace     bool
	size      sizes // size of the selected workloads; other workloads are probed at testSize
}

// result is one workload's outcome.
type result struct {
	Workload  string   `json:"workload"`
	Metrics   []metric `json:"metrics"`
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
	Reps      int      `json:"reps"`
	// Rates holds every untraced run's activations per second by kind of
	// run, in order.
	Rates map[string][]float64 `json:"rates,omitempty"`
	// Counts holds each repetition's deterministic counts, in order.
	Counts [][]int64 `json:"-"`
}

// wstate is a workload during a run.
type wstate struct {
	def      workloadDef
	r        runner
	span     int
	setups   []float64
	untraced map[string][]float64 // every run's activations per second, by kind
	traced   map[string][]float64
	bytes    []float64 // alloc_bytes_per_node of each untraced repetition
	res      result
}

// run measures the selected workloads. Untraced, every workload reports its
// end-to-end metrics. Traced, repetitions alternate untraced and traced, and
// every workload reports its per-layer metrics; workloads that were not
// selected are probed once at testSize, so a traced run of any one
// workload reports every per-layer metric.
func run(ctx context.Context, cfg config) ([]result, *tracer, error) {
	defs, err := selectWorkloads(cfg.workloads)
	if err != nil {
		return nil, nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	states := make([]*wstate, 0, len(defs))
	defer func() {
		for _, s := range states {
			if s.r != nil {
				s.r.close()
			}
		}
	}()
	for _, d := range defs {
		states = append(states, &wstate{def: d, span: tr.begin(0, "workload "+d.name, "bench"), res: result{Workload: d.name},
			untraced: map[string][]float64{}, traced: map[string][]float64{}})
	}

	// One set-up precedes each of the first rounds, so that a short stretch
	// of contention on the machine reaches few of them; their time does not
	// count towards -seconds.
	var measured time.Duration
	for round := 0; ; round++ {
		for _, s := range states {
			if len(s.setups) < setupRuns {
				if err := s.setup(ctx, cfg, tr); err != nil {
					return nil, nil, err
				}
			}
			start := time.Now()
			if err := s.rep(ctx, nil); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", s.def.name, err)
			}
			if cfg.trace {
				if err := s.rep(ctx, tr); err != nil {
					return nil, nil, fmt.Errorf("%s: traced: %w", s.def.name, err)
				}
			}
			measured += time.Since(start)
		}
		if round+1 >= cfg.minRounds && measured.Seconds() >= cfg.seconds*float64(len(states)) {
			break
		}
	}
	for _, s := range states {
		for len(s.setups) < setupRuns {
			if err := s.setup(ctx, cfg, tr); err != nil {
				return nil, nil, err
			}
		}
	}

	results := make([]result, len(states))
	for i, s := range states {
		if cfg.trace {
			ms, fails, err := s.r.layers(ctx, tr, s.span)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: per-layer: %w", s.def.name, err)
			}
			s.res.Failures = append(s.res.Failures, fails...)
			s.res.Metrics = append(ms, metric{"bench.trace_overhead", "ratio",
				activationsPerS(s.traced) / activationsPerS(s.untraced), s.res.Reps / 2})
		} else {
			s.res.Rates = s.untraced
			s.res.Metrics = []metric{
				{"setup_s", "s", median(s.setups), len(s.setups)},
				{"activations_per_s", "1/s", activationsPerS(s.untraced), s.res.Reps},
				{"alloc_bytes_per_node", "B", median(s.bytes), len(s.bytes)},
			}
		}
		tr.end(s.span)
		results[i] = s.res
	}
	if cfg.trace && len(defs) < len(workloads) {
		if err := probe(ctx, cfg, defs, results, tr); err != nil {
			return nil, nil, err
		}
	}
	for i := range results {
		r := &results[i]
		r.Metrics = slices.DeleteFunc(r.Metrics, func(m metric) bool {
			bad := math.IsNaN(m.Value) || math.IsInf(m.Value, 0)
			if bad {
				r.Failures = append(r.Failures, fmt.Sprintf("%s could not be measured (%v)", m.Name, m.Value))
			}
			return bad
		})
		sort.Slice(r.Metrics, func(a, b int) bool { return r.Metrics[a].Name < r.Metrics[b].Name })
	}
	if tr != nil {
		tr.finish()
	}
	return results, tr, nil
}

// probe sets up every workload not in selected once at testSize, runs one
// untraced and one traced repetition and measures its per-layer metrics
// into each selected workload's result.
func probe(ctx context.Context, cfg config, selected []workloadDef, results []result, tr *tracer) error {
	for _, d := range workloads {
		if slices.ContainsFunc(selected, func(s workloadDef) bool { return s.name == d.name }) {
			continue
		}
		span := tr.begin(0, "probe "+d.name, "bench")
		err := probeOne(ctx, cfg.seed, d, results, tr, span)
		tr.end(span)
		if err != nil {
			return fmt.Errorf("probe %s: %w", d.name, err)
		}
	}
	return nil
}

func probeOne(ctx context.Context, seed uint64, d workloadDef, results []result, tr *tracer, span int) error {
	r, err := d.setup(env{ctx: ctx, size: testSize, seed: seed, tr: tr, parent: span})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	attempted := 0
	var fails []string
	for _, t := range []*tracer{nil, tr} {
		id := t.begin(span, "repetition", "bench")
		st, err := r.rep(ctx, t, id)
		t.end(id)
		if err != nil {
			return err
		}
		attempted += st.attempted
		fails = append(fails, st.failures...)
	}
	ms, layerFails, err := r.layers(ctx, tr, span)
	if err != nil {
		return fmt.Errorf("per-layer: %w", err)
	}
	fails = prefix("probe "+d.name, append(fails, layerFails...))
	for i := range results {
		results[i].Metrics = append(results[i].Metrics, ms...)
		results[i].Attempted += attempted
		results[i].Failures = append(results[i].Failures, fails...)
	}
	return nil
}

func selectWorkloads(names []string) ([]workloadDef, error) {
	if len(names) == 0 {
		return workloads, nil
	}
	var out []workloadDef
	for _, name := range names {
		i := slices.IndexFunc(workloads, func(d workloadDef) bool { return d.name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, workloads[i])
	}
	return out, nil
}

// setup sets the workload up once more and times it. The first runner is
// the one measured; later ones only time the set-up and are closed at once.
func (s *wstate) setup(ctx context.Context, cfg config, tr *tracer) error {
	id := tr.begin(s.span, "set-up", "bench")
	start := time.Now()
	r, err := s.def.setup(env{ctx: ctx, size: cfg.size, seed: cfg.seed, tr: tr, parent: id})
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", s.def.name, err)
	}
	s.setups = append(s.setups, d.Seconds())
	if s.r == nil {
		s.r = r
	} else {
		r.close()
	}
	return nil
}

// rep runs one repetition from a collected heap and records its throughput,
// allocation and checks.
func (s *wstate) rep(ctx context.Context, tr *tracer) error {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := tr.begin(s.span, "repetition", "bench")
	st, err := s.r.rep(ctx, tr, id)
	tr.end(id)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	s.res.Reps++
	s.res.Attempted += st.attempted
	s.res.Failures = append(s.res.Failures, st.failures...)
	if !st.fresh && len(s.res.Counts) > 0 && !slices.Equal(st.counts, s.res.Counts[0]) {
		s.res.Failures = append(s.res.Failures, fmt.Sprintf("repetition %d: deterministic counts %v differ from the first repetition's %v", s.res.Reps, st.counts, s.res.Counts[0]))
	}
	s.res.Counts = append(s.res.Counts, st.counts)
	rates := s.traced
	if tr == nil {
		rates = s.untraced
		s.bytes = append(s.bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(st.nodes))
	}
	for _, r := range st.runs {
		rates[r.kind] = append(rates[r.kind], r.rate)
	}
	return nil
}

func prefix(p string, xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = p + ": " + x
	}
	return out
}

// median returns the middle value (the mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile with linear interpolation between order
// statistics; NaN for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// durations converts to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// derive returns the seed of one input, so every input of every workload is
// a function of the benchmark seed alone.
func derive(seed uint64, path ...int) uint64 {
	for _, p := range path {
		seed = rng.At(seed, p).Uint64()
	}
	return seed
}

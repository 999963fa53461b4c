package main

import (
	"fmt"
	"slices"
	"time"

	"plurality"
	"plurality/internal/graph"
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// sink keeps the timed loops' results alive, so the compiler cannot drop
// the calls being measured.
var sink int64

// timeOps times op over ops operations three times and reports the median
// cost of one operation in ns.
func timeOps(tr *tracer, parent int, name, layer string, ops int, op func(ops int)) metric {
	id := tr.begin(parent, name, layer)
	defer tr.end(id)
	ns := make([]float64, 3)
	for i := range ns {
		start := time.Now()
		op(ops)
		ns[i] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	}
	return metric{name, "ns", median(ns), len(ns)}
}

// randomNodes draws ops node indices in [0, n); timed loops read them
// sequentially so the random access under test dominates.
func randomNodes(r *rng.RNG, n, ops int) []int32 {
	idx := make([]int32, ops)
	for i := range idx {
		idx[i] = int32(r.Intn(n))
	}
	return idx
}

// microLayers times the calls the per-node loop makes, each in isolation,
// at population size sz.microN: an RNG draw, a scheduler tick, a colour
// read and write, a clique neighbour sample and one rule update per
// protocol.
func microLayers(tr *tracer, parent int, sz sizes, seed uint64) ([]metric, error) {
	r := rng.New(derive(seed, 6, 0))
	n, ops := sz.microN, sz.microOps
	idx := randomNodes(r, n, ops)
	counts, err := population.BiasedCounts(n, 4, 1)
	if err != nil {
		return nil, err
	}
	pop, err := population.FromCounts(counts)
	if err != nil {
		return nil, err
	}
	s, err := sched.NewPoisson(n, 1, r)
	if err != nil {
		return nil, err
	}
	batch := make([]sched.Tick, sched.BatchSize)
	var complete graph.Graph = graph.Complete{Nodes: n}
	ms := []metric{
		timeOps(tr, parent, "rng.intn_ns", "internal/rng", ops, func(ops int) {
			x := 0
			for i := 0; i < ops; i++ {
				x += r.Intn(n)
			}
			sink += int64(x)
		}),
		timeOps(tr, parent, "rng.exp_ns", "internal/rng", ops, func(ops int) {
			x := 0.0
			for i := 0; i < ops; i++ {
				x += r.ExpFloat64()
			}
			sink += int64(x)
		}),
		timeOps(tr, parent, "sched.poisson_batch_ns_per_tick", "internal/sched", ops, func(ops int) {
			for i := 0; i < ops; i += len(batch) {
				s.NextBatch(batch)
			}
			sink += int64(batch[0].Node)
		}),
		timeOps(tr, parent, "population.color_read_ns", "internal/population", ops, func(ops int) {
			var x population.Color
			for _, u := range idx[:ops] {
				x += pop.ColorOf(int(u))
			}
			sink += int64(x)
		}),
		timeOps(tr, parent, "population.set_color_ns", "internal/population", ops, func(ops int) {
			for i, u := range idx[:ops] {
				pop.SetColor(int(u), population.Color(i&3))
			}
		}),
		timeOps(tr, parent, "graph.complete_sample_ns", "internal/graph", ops, func(ops int) {
			x := 0
			for _, u := range idx[:ops] {
				x += complete.Sample(r, int(u))
			}
			sink += int64(x)
		}),
	}
	for _, spec := range collapsedProtocols {
		m, err := ruleNext(tr, parent, spec, pop, r, ops)
		if err != nil {
			return nil, err
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// ruleNext times one rule update on own colours and samples drawn from pop
// (a tenth undecided for rules with an undecided state).
func ruleNext(tr *tracer, parent int, spec string, pop *population.Population, r *rng.RNG, ops int) (metric, error) {
	_, rule, err := protocols.Lookup(spec)
	if err != nil {
		return metric{}, err
	}
	_, undecided := rule.(occupancy.Undecided)
	draw := func() population.Color {
		if undecided && r.Intn(10) == 0 {
			return population.None
		}
		return pop.ColorOf(r.Intn(pop.N()))
	}
	const tuples = 1 << 12
	s := rule.SampleCount()
	own := make([]population.Color, tuples)
	seen := make([]population.Color, tuples*s)
	for i := range own {
		own[i] = draw()
	}
	for i := range seen {
		seen[i] = draw()
	}
	return timeOps(tr, parent, "rule."+metricName(spec)+".next_ns", "internal/protocols", ops, func(ops int) {
		var x population.Color
		for i := 0; i < ops; i++ {
			j := i & (tuples - 1)
			x += rule.Next(r, own[j], seen[j*s:(j+1)*s])
		}
		sink += int64(x)
	}), nil
}

// kernelLayers times the count-collapsed engines' per-transition work: the
// Gamma and Poisson draws that materialize tick times, and each protocol
// kernel's effective probability and transition sample on a Biased
// histogram of sz.microN nodes.
func kernelLayers(tr *tracer, parent int, sz sizes, seed uint64) ([]metric, error) {
	r := rng.New(derive(seed, 7, 0))
	ops := sz.microOps
	ms := []metric{
		timeOps(tr, parent, "rng.gamma_ns", "internal/rng", ops, func(ops int) {
			x := 0.0
			for i := 0; i < ops; i++ {
				x += r.GammaFloat64(50)
			}
			sink += int64(x)
		}),
		timeOps(tr, parent, "rng.poisson_ns", "internal/rng", ops, func(ops int) {
			var x int64
			for i := 0; i < ops; i++ {
				x += r.PoissonInt64(1e6)
			}
			sink += x
		}),
	}
	counts, err := population.BiasedCounts(sz.microN, 4, 1)
	if err != nil {
		return nil, err
	}
	// The j-majority kernel costs about a microsecond, so kernels get a
	// sixteenth of the operations.
	kops := max(ops/16, 1)
	for _, spec := range collapsedProtocols {
		_, rule, err := protocols.Lookup(spec)
		if err != nil {
			return nil, err
		}
		var or occupancy.Rule = rule
		hist := slices.Clone(counts)
		if u, ok := rule.(occupancy.Undecided); ok {
			or = u.UndecidedRule(len(counts))
			hist = append(hist, int64(sz.microN/10))
		}
		kr, ok := or.(occupancy.Kerneled)
		if !ok {
			return nil, fmt.Errorf("%s has no occupancy kernel", spec)
		}
		k := kr.OccupancyKernel()
		var total int64
		for _, v := range hist {
			total += v
		}
		name := "occupancy.kernel." + metricName(spec)
		ms = append(ms,
			timeOps(tr, parent, name+".effprob_ns", "internal/occupancy", kops, func(ops int) {
				x := 0.0
				for i := 0; i < ops; i++ {
					x += k.EffectiveProb(hist, total, false)
				}
				sink += int64(x)
			}),
			timeOps(tr, parent, name+".sample_ns", "internal/occupancy", kops, func(ops int) {
				x := 0
				for i := 0; i < ops; i++ {
					from, to := k.SampleTransition(r, hist, total, false)
					x += from + to
				}
				sink += int64(x)
			}))
	}
	return ms, nil
}

// csrSample times one neighbour sample of a random node on the workload's
// own CSR graph.
func csrSample(tr *tracer, parent int, g *graph.Adjacency, sz sizes, seed uint64) metric {
	r := rng.New(derive(seed, 8, 0))
	idx := randomNodes(r, g.N(), sz.microOps)
	return timeOps(tr, parent, "graph.csr_sample_ns", "internal/graph", len(idx), func(ops int) {
		x := 0
		for _, u := range idx[:ops] {
			x += g.Sample(r, int(u))
		}
		sink += int64(x)
	})
}

// replayStages are the stages of the per-node loop, in the order the
// replay runs them on each batch, with the module each one calls.
var replayStages = [...]struct{ name, layer string }{
	{"sched", "internal/sched"},
	{"sample", "internal/graph"},
	{"read", "internal/population"},
	{"rule", "internal/protocols"},
	{"apply", "internal/population"},
}

// replayLayers replays one per-node Two-Choices run on g and reports each
// stage's ns per activation, their sum, and the part of the workload's
// end-to-end ns per activation (e2e, from its traced runs) the sum does not
// explain. The unexplained part is what the engine's fused loop costs, or
// saves, beyond its layer calls.
func replayLayers(tr *tracer, parent int, kind string, g graph.Graph, n int, seed uint64, e2e *runTotal) ([]metric, error) {
	counts, err := population.BiasedCounts(n, 4, 1)
	if err != nil {
		return nil, err
	}
	_, rule, err := protocols.Lookup("two-choices")
	if err != nil {
		return nil, err
	}
	id := tr.begin(parent, "replay "+kind, "internal/protocols/dynamics")
	stages, acts, err := replay(tr, id, g, counts, rule, seed)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	var ms []metric
	sum := 0.0
	for i, st := range replayStages {
		v := float64(stages[i].Nanoseconds()) / float64(acts)
		sum += v
		ms = append(ms, metric{"dynamics." + kind + "." + st.name + "_ns", "ns", v, 1})
	}
	return append(ms,
		metric{"dynamics." + kind + ".replay_ns_per_activation", "ns", sum, 1},
		metric{"dynamics." + kind + ".unexplained_ns", "ns", e2e.nsPerAct() - sum, e2e.runs},
	), nil
}

// replay re-composes the per-node engine's loop for one asynchronous run
// from the layer calls it makes, one 512-activation batch at a time: the
// scheduler's batch, every neighbour sample, every colour read, every rule
// update, every colour write. Each stage is timed per batch and recorded
// under parent. Splitting the fused loop into stages means a batch reads
// colours before applying its own updates; the run still converges like
// the engine's, and the stage costs are what the engine's loop pays for
// each call.
func replay(tr *tracer, parent int, g graph.Graph, counts []int64, rule dynamics.Rule, seed uint64) ([len(replayStages)]time.Duration, int64, error) {
	var total [len(replayStages)]time.Duration
	pop, err := population.FromCounts(counts)
	if err != nil {
		return total, 0, err
	}
	n := pop.N()
	r := rng.New(seed)
	s, err := sched.NewPoisson(n, 1, r)
	if err != nil {
		return total, 0, err
	}
	k := rule.SampleCount()
	batch := make([]sched.Tick, sched.BatchSize)
	peers := make([]int, len(batch)*k)
	own := make([]population.Color, len(batch))
	seen := make([]population.Color, len(batch)*k)
	next := make([]population.Color, len(batch))
	// The engine samples the CSR graph through the concrete type and every
	// other graph through the interface; so does the replay.
	csr, _ := g.(*graph.Adjacency)
	var acts int64
	var at [len(replayStages) + 1]time.Time
	for done := false; !done; {
		at[0] = time.Now()
		s.NextBatch(batch)
		at[1] = time.Now()
		if batch[0].Time > plurality.DefaultMaxTime {
			return total, acts, fmt.Errorf("replay did not converge by time %v", plurality.DefaultMaxTime)
		}
		if csr != nil {
			for i, t := range batch {
				for j := 0; j < k; j++ {
					peers[i*k+j] = csr.Sample(r, t.Node)
				}
			}
		} else {
			for i, t := range batch {
				for j := 0; j < k; j++ {
					peers[i*k+j] = g.Sample(r, t.Node)
				}
			}
		}
		at[2] = time.Now()
		for i, t := range batch {
			own[i] = pop.ColorOf(t.Node)
			for j := 0; j < k; j++ {
				seen[i*k+j] = pop.ColorOf(peers[i*k+j])
			}
		}
		at[3] = time.Now()
		for i := range batch {
			next[i] = rule.Next(r, own[i], seen[i*k:(i+1)*k])
		}
		at[4] = time.Now()
		for i, t := range batch {
			acts++
			if c := next[i]; c != pop.ColorOf(t.Node) {
				pop.SetColor(t.Node, c)
				if c != population.None && pop.Count(c) == int64(n) {
					done = true
					break
				}
			}
		}
		at[5] = time.Now()
		for i, st := range replayStages {
			d := at[i+1].Sub(at[i])
			total[i] += d
			tr.stage(parent, st.name, st.layer, d)
		}
	}
	return total, acts, nil
}

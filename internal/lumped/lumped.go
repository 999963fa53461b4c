// Package lumped is the degree-class count-collapsed engine for annealed
// (configuration-model) topologies. Where the occupancy engine collapses
// clique runs to a k-color histogram, this engine collapses runs on any
// graph.Classed topology to a (degree-class × color) count matrix: annealed
// sampling makes nodes exchangeable within a degree class, so the matrix
// evolves as a lumped Markov chain and O(D·k) state replaces O(n) nodes —
// the degree-class mean-field treatment standard since
// Fountoulakis–Panagiotou-style analyses of majority dynamics on random
// graphs.
//
// # Exactness
//
// The collapse is exact for annealed topologies, not an approximation. The
// activated node is uniform, so its class is drawn proportional to class
// node counts and its color proportional to the class row. The sampled
// neighbor follows a uniformly random half-edge of the activated node to a
// fresh partner, so its color is c with probability
//
//	(W[c] − deg_a·[c = own]) / (W − deg_a)
//
// where W[c] is the half-edge mass Σ_b deg_b·M[b][c] of color c, W the
// total mass, and deg_a the activated class's degree (the activated node's
// own half-edges are excluded from the pool). Both laws depend on the
// matrix alone. The KS equivalence tests in this package and the
// topology-equivalence sweep gate the collapse against per-node runs on
// the same annealed graphs.
//
// # Single-class delegation
//
// A single degree class — the annealed form of every vertex-transitive
// d-regular topology: cycles (d=2), tori (d=4), random d-regular graphs —
// degenerates to the clique's uniform-except-self sampling law
// independently of d, so those runs delegate directly to the occupancy
// engine and inherit its closed-form kernels and geometric skips over
// no-op activations. Multi-class partitions (degree-partitioned G(n,p))
// run activation by activation on the matrix in O(s·k) per tick for s
// samples: the activated node's class comes from a table built once per
// run, in about one step instead of a scan over the D classes.
package lumped

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"plurality/internal/graph"
	"plurality/internal/occupancy"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Config configures a lumped run. The engine reuses the occupancy package's
// Rule/Undecided/Snapshot/Result contracts and error sentinels
// (occupancy.ErrTimeLimit, occupancy.ErrStopped): it is the same
// count-collapse idea with the class dimension added.
type Config struct {
	// Classes is the degree-class partition (graph.Classed.Classes()).
	// Required; class counts must match the matrix row sums.
	Classes []graph.Class
	// Scheduler supplies the asynchronous time model. Required: a
	// sched.TimeScheduler whose node count equals the class total.
	Scheduler sched.Scheduler
	// Rand drives all engine sampling. Required.
	Rand *rng.RNG
	// MaxTime bounds the run in parallel time. Required (> 0).
	MaxTime float64
	// Churn is the per-activation probability of a churn event: the
	// activated node is replaced by a fresh joiner with a uniformly random
	// opinion. The joiner occupies the same graph position, so it stays in
	// the same degree class.
	Churn float64
	// Stop, OnObserve and ObserveInterval follow occupancy.Config.
	Stop            func() bool
	ObserveInterval float64
	OnObserve       func(occupancy.Snapshot)
	// ForceMatrix disables the single-class delegation to the occupancy
	// engine, used by the equivalence tests to compare the two paths.
	ForceMatrix bool
}

// Run executes rule on the (class × color) count matrix m — row-major, one
// row of k color counts per class, mutated in place to the final matrix.
// und, when non-nil, holds the per-class undecided counts for rules
// implementing occupancy.Undecided and is mutated to the final per-class
// undecided counts; it must be nil or all-zero for other rules.
func Run(m, und []int64, rule occupancy.Rule, cfg Config) (occupancy.Result, error) {
	var rn Runner
	return rn.Run(m, und, rule, cfg)
}

// Runner reuses the engine's scratch buffers across runs so trial loops are
// allocation-free in steady state. Not safe for concurrent use.
type Runner struct {
	occ     occupancy.Runner
	ext     []int64
	w       []int64
	colTot  []int64
	classes classTable
	deg     []int64
	sampled []population.Color
	times   []float64
}

// Run is Runner's buffer-reusing equivalent of the package-level Run.
func (rn *Runner) Run(m, und []int64, rule occupancy.Rule, cfg Config) (occupancy.Result, error) {
	if rule == nil {
		return occupancy.Result{}, errors.New("lumped: nil rule")
	}
	D := len(cfg.Classes)
	if D == 0 {
		return occupancy.Result{}, errors.New("lumped: no degree classes")
	}
	if len(m) == 0 || len(m)%D != 0 {
		return occupancy.Result{}, fmt.Errorf("lumped: matrix of %d counts does not factor into %d class rows", len(m), D)
	}
	k := len(m) / D
	if und != nil && len(und) != D {
		return occupancy.Result{}, fmt.Errorf("lumped: %d undecided classes, want %d", len(und), D)
	}
	var undTotal int64
	for a := range und {
		if und[a] < 0 {
			return occupancy.Result{}, fmt.Errorf("lumped: negative undecided count %d for class %d", und[a], a)
		}
		undTotal += und[a]
	}
	var n int64
	for a, cl := range cfg.Classes {
		if cl.Degree < 1 || cl.Count < 1 {
			return occupancy.Result{}, fmt.Errorf("lumped: class %d = %+v, want degree >= 1 and count >= 1", a, cl)
		}
		var row int64
		for c := 0; c < k; c++ {
			if m[a*k+c] < 0 {
				return occupancy.Result{}, fmt.Errorf("lumped: negative count %d for class %d color %d", m[a*k+c], a, c)
			}
			row += m[a*k+c]
		}
		if und != nil {
			row += und[a]
		}
		if row != cl.Count {
			return occupancy.Result{}, fmt.Errorf("lumped: class %d row sums to %d, want class count %d", a, row, cl.Count)
		}
		n += cl.Count
	}
	if n < 2 {
		return occupancy.Result{}, fmt.Errorf("lumped: class total %d, want >= 2", n)
	}
	if cfg.Scheduler == nil {
		return occupancy.Result{}, errors.New("lumped: nil scheduler")
	}
	if _, ok := cfg.Scheduler.(sched.TimeScheduler); !ok {
		return occupancy.Result{}, fmt.Errorf("lumped: scheduler %T has no NextTimes; use *sched.Sequential or *sched.Poisson", cfg.Scheduler)
	}
	if int64(cfg.Scheduler.N()) != n {
		return occupancy.Result{}, fmt.Errorf("lumped: scheduler has %d nodes, classes total %d", cfg.Scheduler.N(), n)
	}
	if cfg.Rand == nil {
		return occupancy.Result{}, errors.New("lumped: nil rand")
	}
	if cfg.MaxTime <= 0 {
		return occupancy.Result{}, fmt.Errorf("lumped: MaxTime = %v, want > 0", cfg.MaxTime)
	}
	if cfg.Churn < 0 || cfg.Churn >= 1 {
		return occupancy.Result{}, fmt.Errorf("lumped: Churn = %v, want [0, 1)", cfg.Churn)
	}
	if rule.SampleCount() <= 0 {
		return occupancy.Result{}, fmt.Errorf("lumped: rule %s samples %d nodes, want > 0", rule.Name(), rule.SampleCount())
	}
	ur, hasUndecided := rule.(occupancy.Undecided)
	if !hasUndecided && undTotal != 0 {
		return occupancy.Result{}, fmt.Errorf("lumped: rule %s has no undecided state, but %d nodes are undecided", rule.Name(), undTotal)
	}
	if hasUndecided && undTotal == n {
		// Absorbing dead state, mirroring the occupancy engine's check.
		return occupancy.Result{}, errors.New("lumped: undecided-state run needs at least one decided holder")
	}

	// Single-class delegation: the annealed regular model samples uniformly
	// over the n−1 other nodes — exactly the clique without self-sampling —
	// so the run collapses all the way to the occupancy engine (closed-form
	// kernels, geometric no-op skips).
	if D == 1 && !cfg.ForceMatrix {
		occCfg := occupancy.Config{
			Scheduler:       cfg.Scheduler,
			Rand:            cfg.Rand,
			MaxTime:         cfg.MaxTime,
			Churn:           cfg.Churn,
			Stop:            cfg.Stop,
			ObserveInterval: cfg.ObserveInterval,
			OnObserve:       cfg.OnObserve,
		}
		if und != nil {
			occCfg.Undecided = und[0]
		}
		res, err := rn.occ.Run(m, rule, occCfg)
		if und != nil {
			und[0] = res.Undecided
		}
		return res, err
	}

	// Matrix path. Rules with an undecided state get one hidden color
	// column (index k) holding the per-class undecided counts, and execute
	// the histogram-convention rule.
	cols, colors := k, k
	work := m
	execRule := rule
	if hasUndecided {
		cols = k + 1
		execRule = ur.UndecidedRule(k)
		if cap(rn.ext) < D*cols {
			rn.ext = make([]int64, D*cols)
		}
		work = rn.ext[:D*cols]
		for a := 0; a < D; a++ {
			copy(work[a*cols:], m[a*k:(a+1)*k])
			work[a*cols+k] = und[a]
		}
	}
	res, err := rn.runMatrix(work, execRule, cfg, n, cols, colors)
	if hasUndecided {
		res.Undecided = 0
		for a := 0; a < D; a++ {
			copy(m[a*k:(a+1)*k], work[a*cols:a*cols+k])
			und[a] = work[a*cols+k]
			res.Undecided += und[a]
		}
	}
	return res, err
}

// matrixRun is the multi-class per-activation engine state; cols counts the
// matrix columns (colors plus the hidden undecided column when present).
type matrixRun struct {
	m        []int64
	deg      []int64    // per-class degree
	classes  classTable // node index → class (constant through a run)
	w        []int64    // per-color half-edge mass Σ_a deg_a·m[a][c]
	colTot   []int64    // per-color node count Σ_a m[a][c]
	totW     int64
	n        int64
	cols     int
	colors   int
	s        int
	churning bool
	churn    float64
	r        *rng.RNG
	rule     occupancy.Rule
	sampled  []population.Color
	res      occupancy.Result
	done     bool
	badNone  bool

	observing   bool
	nextObserve float64
	observeGap  float64
	lastEmit    int64 // initialized to -1
	onObserve   func(occupancy.Snapshot)
}

// classTable finds the degree class of a node index. Nodes are numbered
// class by class from first[a], with first[D] = n, and guide[i] is the class
// holding node index i<<shift. Built once per run with at most 4D guide
// entries (more than D unless n ≤ D), it starts a lookup at its answer or
// a few classes before it instead of at class 0.
type classTable struct {
	first []int64
	guide []int32
	shift uint
}

// build indexes the partition; classes may be empty, but their total must
// be at least 1.
func (ct *classTable) build(classes []graph.Class) {
	ct.first = append(slices.Grow(ct.first[:0], len(classes)+1), 0)
	for a, cl := range classes {
		ct.first = append(ct.first, ct.first[a]+cl.Count)
	}
	n := ct.first[len(classes)]
	ct.shift = uint(max(0, bits.Len64(uint64(n-1))-bits.Len(uint(len(classes)))-1))
	size := int((n-1)>>ct.shift) + 1
	ct.guide = slices.Grow(ct.guide[:0], size)[:size]
	a := 0
	for i := range ct.guide {
		for ct.first[a+1] <= int64(i)<<ct.shift {
			a++
		}
		ct.guide[i] = int32(a)
	}
}

// find returns the class holding node index x (0 ≤ x < n) and x's offset
// within that class.
func (ct *classTable) find(x int64) (a int, off int64) {
	a = int(ct.guide[x>>ct.shift])
	for x >= ct.first[a+1] {
		a++
	}
	return a, x - ct.first[a]
}

// pickNode draws the activated node's (class, color) under the
// uniform-node law: class proportional to node count, color within the
// class row.
func (mr *matrixRun) pickNode() (a, c int) {
	a, x := mr.classes.find(int64(mr.r.Uint64n(uint64(mr.n))))
	row := mr.m[a*mr.cols : (a+1)*mr.cols]
	for j, v := range row {
		if x < v {
			return a, j
		}
		x -= v
	}
	return a, mr.cols - 1
}

// pickSample draws one sampled neighbor's color for an activation in a
// class of degree da holding own: the followed half-edge lands on color c
// with probability (w[c] − da·[c = own]) / (totW − da).
func (mr *matrixRun) pickSample(da int64, own int) population.Color {
	x := int64(mr.r.Uint64n(uint64(mr.totW - da)))
	for c, v := range mr.w {
		if c == own {
			v -= da
		}
		if x < v {
			return population.Color(c)
		}
		x -= v
	}
	return population.Color(mr.cols - 1)
}

// move transfers one node of class a from color `from` to color `to`,
// maintaining the mass and column totals and the consensus flag.
func (mr *matrixRun) move(a, from, to int) {
	if from == to {
		return
	}
	da := mr.deg[a]
	mr.m[a*mr.cols+from]--
	mr.m[a*mr.cols+to]++
	mr.w[from] -= da
	mr.w[to] += da
	mr.colTot[from]--
	mr.colTot[to]++
	if to < mr.colors && mr.colTot[to] == mr.n {
		mr.done = true
		mr.res.Winner = population.Color(to)
	}
}

// step executes one activation on the matrix.
func (mr *matrixRun) step() {
	if mr.churning && mr.r.Bernoulli(mr.churn) {
		a, victim := mr.pickNode()
		fresh := mr.r.Intn(mr.colors)
		mr.res.Churns++
		mr.move(a, victim, fresh)
		return
	}
	a, own := mr.pickNode()
	da := mr.deg[a]
	for i := 0; i < mr.s; i++ {
		mr.sampled[i] = mr.pickSample(da, own)
	}
	next := mr.rule.Next(mr.r, population.Color(own), mr.sampled)
	if next == population.None {
		// Same contract as the occupancy engine: an undeclared undecided
		// state must fail loudly, not silently map to "keep".
		mr.badNone = true
		return
	}
	mr.move(a, own, int(next))
}

// emit delivers one Snapshot of the current column totals.
func (mr *matrixRun) emit(now float64, ticks int64) {
	var und int64
	for _, v := range mr.colTot[mr.colors:] {
		und += v
	}
	mr.lastEmit = ticks
	mr.onObserve(occupancy.Snapshot{Time: now, Ticks: ticks, Counts: mr.colTot[:mr.colors], Undecided: und})
}

func (mr *matrixRun) maybeObserve(now float64, ticks int64) {
	if !mr.observing || now < mr.nextObserve {
		return
	}
	mr.emit(now, ticks)
	mr.nextObserve = now + mr.observeGap
}

func (mr *matrixRun) finalObserve(now float64, ticks int64) {
	if !mr.observing || mr.lastEmit == ticks {
		return
	}
	mr.emit(now, ticks)
}

// plurality returns the index of the largest count (lowest index on ties),
// matching population.Population.Plurality.
func plurality(counts []int64) population.Color {
	best := 0
	for c := 1; c < len(counts); c++ {
		if counts[c] > counts[best] {
			best = c
		}
	}
	return population.Color(best)
}

// runMatrix executes the per-activation matrix engine, consuming tick times
// from the scheduler in batches; it mirrors the occupancy engine's tick
// mode with the class dimension added.
func (rn *Runner) runMatrix(m []int64, rule occupancy.Rule, cfg Config, n int64, cols, colors int) (occupancy.Result, error) {
	D := len(cfg.Classes)
	s := rule.SampleCount()
	if cap(rn.sampled) < s {
		rn.sampled = make([]population.Color, s)
	}
	if cap(rn.w) < cols {
		rn.w = make([]int64, cols)
	}
	if cap(rn.colTot) < cols {
		rn.colTot = make([]int64, cols)
	}
	if cap(rn.deg) < D {
		rn.deg = make([]int64, D)
	}
	rn.classes.build(cfg.Classes)
	mr := matrixRun{
		m:          m,
		deg:        rn.deg[:D],
		classes:    rn.classes,
		w:          rn.w[:cols],
		colTot:     rn.colTot[:cols],
		n:          n,
		cols:       cols,
		colors:     colors,
		s:          s,
		churning:   cfg.Churn > 0,
		churn:      cfg.Churn,
		r:          cfg.Rand,
		rule:       rule,
		sampled:    rn.sampled[:s],
		observing:  cfg.OnObserve != nil,
		observeGap: cfg.ObserveInterval,
		lastEmit:   -1,
		onObserve:  cfg.OnObserve,
	}
	for c := 0; c < cols; c++ {
		mr.w[c] = 0
		mr.colTot[c] = 0
	}
	for a, cl := range cfg.Classes {
		mr.deg[a] = int64(cl.Degree)
		mr.totW += int64(cl.Degree) * cl.Count
		for c := 0; c < cols; c++ {
			mr.w[c] += int64(cl.Degree) * m[a*cols+c]
			mr.colTot[c] += m[a*cols+c]
		}
	}
	for c := 0; c < colors; c++ {
		if mr.colTot[c] == n {
			return occupancy.Result{Done: true, Winner: population.Color(c)}, nil
		}
	}

	var (
		ticks int64
		last  float64
	)
	finish := func(err error) (occupancy.Result, error) {
		mr.res.Ticks = ticks
		mr.res.Time = last
		mr.finalObserve(last, ticks)
		if mr.done {
			mr.res.Done = true
			return mr.res, nil
		}
		mr.res.Winner = plurality(mr.colTot[:colors])
		return mr.res, err
	}
	badNoneErr := func() error {
		return fmt.Errorf("lumped: rule %s returned population.None; rules with an undecided state must implement occupancy.Undecided", rule.Name())
	}

	sc := cfg.Scheduler.(sched.TimeScheduler) // Run checked
	if cap(rn.times) < sched.BatchSize {
		rn.times = make([]float64, sched.BatchSize)
	}
	buf := rn.times[:sched.BatchSize]
	for {
		if cfg.Stop != nil && cfg.Stop() {
			return finish(occupancy.ErrStopped)
		}
		sc.NextTimes(buf)
		for _, now := range buf {
			if now > cfg.MaxTime {
				return finish(occupancy.ErrTimeLimit)
			}
			ticks++
			last = now
			mr.step()
			if mr.badNone {
				return occupancy.Result{}, badNoneErr()
			}
			mr.maybeObserve(now, ticks)
			if mr.done {
				return finish(nil)
			}
		}
	}
}

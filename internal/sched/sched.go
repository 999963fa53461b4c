// Package sched implements the two asynchronous execution models of the
// paper plus the §4 response-delay extension.
//
// In the *continuous* model every node carries an independent Poisson clock
// with rate λ = 1 and acts whenever its clock ticks. In the *sequential*
// model a discrete step selects one node uniformly at random, and parallel
// time advances by 1/n per step. The paper (citing Mosk-Aoyama & Shah 2008)
// treats the two as run-time equivalent; experiment E11 verifies this on
// the actual protocol.
//
// All engines produce the same Tick stream abstraction so protocols are
// written once and run under either model. The continuous model has two
// engines: Poisson exploits superposition for O(1) work per tick, and
// HeapPoisson is the O(log n) per-node event-heap reference it is validated
// against. Hot loops should prefer the BatchScheduler interface (RunBatch),
// which delivers ticks in chunks and removes per-tick interface dispatch.
package sched

import (
	"container/heap"
	"fmt"
	"math"

	"plurality/internal/rng"
)

// Tick is one activation of a node.
type Tick struct {
	// Node is the index of the activated node.
	Node int
	// Time is the parallel time at which the activation occurs:
	// steps/n for the sequential engine, the Poisson event time for the
	// continuous engine.
	Time float64
	// Seq is the global activation sequence number, starting at 0.
	Seq int64
}

// Scheduler produces an infinite stream of node activations.
type Scheduler interface {
	// Next returns the next activation. Time and Seq are non-decreasing.
	Next() Tick
	// N returns the number of nodes being scheduled.
	N() int
}

// BatchScheduler is a Scheduler that can deliver ticks in bulk. NextBatch
// fills buf with exactly the ticks that len(buf) successive Next calls
// would return, letting hot loops amortize the per-tick interface dispatch.
// All engines in this package implement it.
type BatchScheduler interface {
	Scheduler
	// NextBatch fills every element of buf with the next activations in
	// order.
	NextBatch(buf []Tick)
}

// TimeScheduler is a Scheduler whose activation times are generated
// independently of which node activates, letting exchangeable simulations —
// the count-collapsed occupancy engine, where node identities are
// irrelevant — consume the tick-time stream without paying for the per-tick
// node draw. NextTimes advances the schedule exactly as NextBatch would,
// except that the node choices are never drawn (so the engine's RNG stream
// diverges from NextBatch's after the first call; a run must stick to one
// access mode).
type TimeScheduler interface {
	Scheduler
	// NextTimes fills buf with the times of the next len(buf) activations.
	NextTimes(buf []float64)
}

// Sequential is the paper's sequential asynchronous model: each step
// activates a node chosen uniformly at random and advances parallel time by
// 1/n.
type Sequential struct {
	n   int
	r   *rng.RNG
	seq int64
}

// NewSequential returns a sequential scheduler over n nodes driven by r.
func NewSequential(n int, r *rng.RNG) (*Sequential, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: sequential scheduler needs n > 0, got %d", n)
	}
	return &Sequential{n: n, r: r}, nil
}

// N implements Scheduler.
func (s *Sequential) N() int { return s.n }

// Next implements Scheduler.
func (s *Sequential) Next() Tick {
	t := Tick{
		Node: s.r.Intn(s.n),
		Time: float64(s.seq) / float64(s.n),
		Seq:  s.seq,
	}
	s.seq++
	return t
}

// NextBatch implements BatchScheduler. It draws from a local copy of the
// generator state, written back when the batch is full.
func (s *Sequential) NextBatch(buf []Tick) {
	x, seq := s.r.Xoshiro, s.seq
	n, nf := uint64(s.n), float64(s.n)
	for i := range buf {
		w := x.Uint64()
		v, ok := rng.Bound(w, n)
		if !ok {
			v = x.Reject(w, n)
		}
		// Divide rather than multiply by a precomputed 1/n: the quotient
		// must be bit-identical to Next's.
		buf[i] = Tick{Node: int(v), Time: float64(seq) / nf, Seq: seq}
		seq++
	}
	s.r.Xoshiro, s.seq = x, seq
}

// NextTimes implements TimeScheduler: sequential tick times are the
// deterministic grid seq/n, so no randomness is consumed at all.
func (s *Sequential) NextTimes(buf []float64) {
	n := float64(s.n)
	for i := range buf {
		buf[i] = float64(s.seq) / n
		s.seq++
	}
}

// Poisson is the continuous asynchronous model: every node ticks according
// to an independent Poisson process with the configured rate; events are
// delivered in time order.
//
// The engine exploits Poisson superposition: n independent rate-λ clocks
// are one global rate-nλ process whose events pick a node uniformly at
// random (Mosk-Aoyama & Shah 2008, the equivalence the paper cites). Each
// tick therefore costs O(1) — one exponential gap plus one uniform draw —
// independent of n, where the event-heap formulation (HeapPoisson) pays
// O(log n) heap maintenance per tick. The two engines draw from different
// points of the RNG stream, so tick-for-tick outputs differ for a fixed
// seed, but their distributions are identical; the package tests verify the
// statistical equivalence.
type Poisson struct {
	n        int
	rate     float64
	invTotal float64 // 1 / (n · rate), the mean global inter-event gap
	now      float64
	r        *rng.RNG
	seq      int64
}

// NewPoisson returns a continuous-time scheduler over n nodes with
// per-node Poisson clocks of the given rate (the paper uses rate 1).
func NewPoisson(n int, rate float64, r *rng.RNG) (*Poisson, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: poisson scheduler needs n > 0, got %d", n)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("sched: poisson scheduler needs rate > 0, got %v", rate)
	}
	return &Poisson{
		n:        n,
		rate:     rate,
		invTotal: 1 / (float64(n) * rate),
		r:        r,
	}, nil
}

// N implements Scheduler.
func (p *Poisson) N() int { return p.n }

// Next implements Scheduler.
func (p *Poisson) Next() Tick {
	p.now += p.r.ExpFloat64() * p.invTotal
	t := Tick{Node: p.r.Intn(p.n), Time: p.now, Seq: p.seq}
	p.seq++
	return t
}

// NextBatch implements BatchScheduler. It draws from a local copy of the
// generator state, written back when the batch is full.
func (p *Poisson) NextBatch(buf []Tick) {
	x, now, seq := p.r.Xoshiro, p.now, p.seq
	invTotal, n := p.invTotal, uint64(p.n)
	for i := range buf {
		now += x.ExpFloat64() * invTotal
		w := x.Uint64()
		v, ok := rng.Bound(w, n)
		if !ok {
			v = x.Reject(w, n)
		}
		buf[i] = Tick{Node: int(v), Time: now, Seq: seq}
		seq++
	}
	p.r.Xoshiro, p.now, p.seq = x, now, seq
}

// NextTimes implements TimeScheduler: one exponential gap per tick, no node
// draw.
func (p *Poisson) NextTimes(buf []float64) {
	now, r, invTotal := p.now, p.r, p.invTotal
	for i := range buf {
		now += r.ExpFloat64() * invTotal
		buf[i] = now
		p.seq++
	}
	p.now = now
}

// Rate returns the per-node Poisson clock rate.
func (p *Poisson) Rate() float64 { return p.rate }

// HeapPoisson is the event-heap formulation of the continuous model: every
// node keeps its own next-event time in a priority queue and each delivery
// pays O(log n) heap maintenance. It generates the same process as Poisson
// (see the equivalence tests) and is retained as the reference
// implementation the O(1) engine is validated against.
type HeapPoisson struct {
	n    int
	rate float64
	r    *rng.RNG
	pq   eventHeap
	seq  int64
}

// NewHeapPoisson returns the event-heap continuous-time scheduler.
func NewHeapPoisson(n int, rate float64, r *rng.RNG) (*HeapPoisson, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: poisson scheduler needs n > 0, got %d", n)
	}
	if rate <= 0 {
		return nil, fmt.Errorf("sched: poisson scheduler needs rate > 0, got %v", rate)
	}
	p := &HeapPoisson{
		n:    n,
		rate: rate,
		r:    r,
		pq:   make(eventHeap, 0, n),
	}
	for u := 0; u < n; u++ {
		p.pq = append(p.pq, event{time: r.ExpFloat64() / rate, node: u})
	}
	heap.Init(&p.pq)
	return p, nil
}

// N implements Scheduler.
func (p *HeapPoisson) N() int { return p.n }

// Next implements Scheduler.
func (p *HeapPoisson) Next() Tick {
	ev := p.pq[0]
	t := Tick{Node: ev.node, Time: ev.time, Seq: p.seq}
	p.seq++
	p.pq[0].time = ev.time + p.r.ExpFloat64()/p.rate
	heap.Fix(&p.pq, 0)
	return t
}

// NextBatch implements BatchScheduler.
func (p *HeapPoisson) NextBatch(buf []Tick) {
	for i := range buf {
		buf[i] = p.Next()
	}
}

type event struct {
	time float64
	node int
}

type eventHeap []event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].time < h[j].time }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// RunUntil drives s, invoking step for every tick, until either step
// returns false (the protocol reports completion) or Time exceeds maxTime.
// It returns the last tick delivered and whether the run stopped because
// step returned false. When the first tick already lies beyond maxTime,
// last is Tick{Seq: -1}, so last.Seq+1 counts the ticks delivered either
// way.
func RunUntil(s Scheduler, maxTime float64, step func(Tick) bool) (last Tick, stopped bool) {
	last = Tick{Seq: -1}
	for {
		t := s.Next()
		if t.Time > maxTime {
			return last, false
		}
		last = t
		if !step(t) {
			return last, true
		}
	}
}

// BatchSize is the tick-chunk length used by RunBatch and the specialized
// protocol loops. Large enough to amortize per-batch overhead, small enough
// to stay resident in L1.
const BatchSize = 512

// RunBatch behaves exactly like RunUntil — same ticks in the same order,
// same stopping rule — but pulls ticks from s in BatchSize chunks when s
// implements BatchScheduler, amortizing the per-tick scheduler dispatch.
// The chunks fill buf when it holds at least BatchSize ticks, so a caller
// that pools one pays no allocation per run; otherwise RunBatch allocates
// its own. Ticks generated beyond the stopping point are discarded;
// callers that share one RNG between the scheduler and the protocol should
// not rely on the scheduler's generator state after the run.
func RunBatch(s Scheduler, maxTime float64, buf []Tick, step func(Tick) bool) (last Tick, stopped bool) {
	bs, ok := s.(BatchScheduler)
	if !ok {
		return RunUntil(s, maxTime, step)
	}
	last = Tick{Seq: -1}
	if len(buf) < BatchSize {
		buf = make([]Tick, BatchSize)
	}
	buf = buf[:BatchSize]
	for {
		bs.NextBatch(buf)
		for _, t := range buf {
			if t.Time > maxTime {
				return last, false
			}
			last = t
			if !step(t) {
				return last, true
			}
		}
	}
}

// DelayModel samples the network transit delay of one request/response
// exchange, implementing the §4 extension. The paper's base model has zero
// delay; the extension draws delays from an exponential distribution with a
// constant (n-independent) parameter.
type DelayModel interface {
	// SampleDelay returns a non-negative delay.
	SampleDelay(r *rng.RNG) float64
}

// ZeroDelay is the paper's base model: responses arrive instantly.
type ZeroDelay struct{}

// SampleDelay implements DelayModel.
func (ZeroDelay) SampleDelay(*rng.RNG) float64 { return 0 }

// ExpDelay draws Exp(Rate) delays.
type ExpDelay struct {
	Rate float64
}

// SampleDelay implements DelayModel.
func (d ExpDelay) SampleDelay(r *rng.RNG) float64 { return r.ExpFloat64() / d.Rate }

// LatencyModel samples the transit latency of one edge activation: when
// node u contacts node v, the response travels back over the edge {u, v}
// and arrives after the sampled latency, during which u blocks. This is the
// asynchronous edge-latency extension of Bankhamer, Berenbrink, Hahn,
// Kaaser, Kling & Nowak ("Fast Consensus Protocols in the Asynchronous
// Poisson Clock Model with Edge Latencies"): unlike DelayModel, which
// charges one node-local delay per communicating *step*, a LatencyModel is
// charged once per *edge* used, so a step that contacts two neighbors waits
// for the slower of the two responses.
type LatencyModel interface {
	// SampleLatency returns a non-negative latency for one activation of
	// the edge {u, v}. Implementations may ignore the endpoints (i.i.d.
	// latencies) or derive edge-dependent distributions from them. The
	// engines treat a (contract-violating) negative return as 0, so a bad
	// model can never shorten other blocking such as the §4 delay.
	SampleLatency(r *rng.RNG, u, v int) float64
}

// ExpLatency draws i.i.d. exponential edge latencies with the given mean,
// the distribution Bankhamer et al. analyze.
type ExpLatency struct {
	Mean float64
}

// SampleLatency implements LatencyModel.
func (m ExpLatency) SampleLatency(r *rng.RNG, _, _ int) float64 {
	return r.ExpFloat64() * m.Mean
}

// UniformLatency draws i.i.d. edge latencies uniformly from [Min, Max).
type UniformLatency struct {
	Min, Max float64
}

// SampleLatency implements LatencyModel.
func (m UniformLatency) SampleLatency(r *rng.RNG, _, _ int) float64 {
	return m.Min + (m.Max-m.Min)*r.Float64()
}

// CheckLatency reports an ExpLatency or UniformLatency whose parameters
// are out of range: the mean must be finite and > 0, and 0 <= Min < Max
// with both finite. Other models pass.
func CheckLatency(m LatencyModel) error {
	inf := math.Inf(1)
	switch m := m.(type) {
	case ExpLatency:
		if !(m.Mean > 0 && m.Mean < inf) {
			return fmt.Errorf("sched: exponential latency mean %v, want finite and > 0", m.Mean)
		}
	case UniformLatency:
		if !(0 <= m.Min && m.Min < m.Max && m.Max < inf) {
			return fmt.Errorf("sched: uniform latency on [%v, %v), want 0 <= lo < hi, both finite", m.Min, m.Max)
		}
	}
	return nil
}

// MaxLatency returns the slower of two independent latency draws for the
// edges {u, v1} and {u, v2} — the time until both responses of a
// two-contact step (e.g. a Two-Choices activation) have arrived. Negative
// draws count as 0, per the LatencyModel contract.
func MaxLatency(m LatencyModel, r *rng.RNG, u, v1, v2 int) float64 {
	a := m.SampleLatency(r, u, v1)
	if b := m.SampleLatency(r, u, v2); b > a {
		a = b
	}
	if a < 0 {
		return 0
	}
	return a
}

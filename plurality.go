// Package plurality is a library for distributed plurality consensus on the
// complete graph, reproducing "Brief Announcement: Rapid Asynchronous
// Plurality Consensus" (Elsässer, Friedetzky, Kaaser, Mallmann-Trenn,
// Trinker; PODC 2017).
//
// n nodes each hold one of k opinions (colors); the goal is for every node
// to adopt the *plurality* color — the initially most frequent one — using
// only tiny local samples. The package implements:
//
//   - "core": the paper's main contribution (Theorem 1.3), an asynchronous
//     protocol under unit-rate Poisson clocks that converges in Θ(log n)
//     parallel time given a (1+ε)-multiplicative bias, built from
//     Two-Choices steps, Bit-Propagation, and a Sync Gadget that maintains
//     weak synchronicity.
//   - "onebit": the synchronous phase protocol of Theorem 1.2.
//   - a registry of memoryless sampling dynamics (Protocols): Two-Choices
//     (Theorem 1.1), Voter, 3-Majority, Undecided-State Dynamics and
//     j-Majority, each runnable synchronously, asynchronously per node, or
//     count-collapsed in O(k) memory at n = 10⁸–10⁹.
//
// # Quick start
//
//	counts, _ := plurality.Biased(100_000, 8, 0.5) // c1 = 1.5·c2
//	job, err := plurality.NewJob("core", counts, plurality.WithSeed(42))
//	if err != nil { ... }
//	rep, err := job.Run(ctx)
//	fmt.Println(rep.Winner, rep.ConsensusTime) // 0, Θ(log n)
//
// A Job is the validated, reusable binding of protocol spec × initial
// counts × options; Job.Run honors context cancellation inside every
// engine loop, Job.Trials fans deterministic pooled trials across cores
// for every protocol, and WithObserver streams histogram snapshots from
// any runner. The engine planner decides, once per Job, which execution path
// runs it — and whether it needs a per-node population at all: sampling
// dynamics on the complete graph and on annealed topologies run on their
// counts alone, up to n = 10¹² on the hybrid leap engine.
//
// All runs are deterministic given WithSeed. See docs/ARCHITECTURE.md for
// the code layers, EXPERIMENTS.md for the sweeps that gate the paper's
// claims, and `experiments -list` for the paper-reproduction tables.
package plurality

import (
	"plurality/internal/core"
	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/onebit"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// Re-exported core types. The aliases expose the full method sets of the
// underlying implementations without requiring users to import internal
// packages.
type (
	// Color identifies an opinion (0 … k-1); None marks its absence.
	Color = population.Color
	// Population is the mutable opinion state of n nodes over k colors.
	// It stores one byte per node whenever k ≤ 255, and four above that.
	Population = population.Population
	// Graph is a communication topology; the default is the complete
	// graph the paper analyzes.
	Graph = graph.Graph

	// CoreResult describes a run of the asynchronous core protocol.
	CoreResult = core.Result
	// CoreProbe is a periodic synchronization-quality snapshot.
	CoreProbe = core.Probe
	// CoreSpec is the resolved working-time schedule of a core run.
	CoreSpec = core.Spec
	// OneExtraBitResult describes a OneExtraBit run.
	OneExtraBitResult = onebit.Result
	// PhaseInfo is delivered per OneExtraBit phase.
	PhaseInfo = onebit.PhaseInfo

	// EdgeLatency is a per-edge message-latency model for the asynchronous
	// edge-latency extension (after Bankhamer et al.); see WithEdgeLatency.
	EdgeLatency = sched.LatencyModel

	// Protocol describes one registered sampling-dynamics family: its
	// names, update rule, source paper, engine support and the hooks the
	// runners resolve. See Protocols and NewJob.
	Protocol = protocols.Descriptor
)

// Protocols returns the registry of sampling-dynamics protocol families in
// presentation order: Two-Choices, Voter, 3-Majority, Undecided-State
// Dynamics and parameterized j-Majority. Every name-based entry point —
// NewJob, the experiment harness's protocol axis, the CLIs — resolves
// against this registry, so the slice is also the authoritative answer to
// "which protocols does this library run?". (The paper's core protocol and
// OneExtraBit are not sampling dynamics and keep their dedicated runners.)
func Protocols() []Protocol { return protocols.Registry() }

// LookupProtocol resolves a protocol spec — "name" or "name:param", e.g.
// "usd" or "j-majority:5" — against the registry, validating the parameter
// without running anything.
func LookupProtocol(spec string) (Protocol, error) {
	d, _, err := protocols.Lookup(spec)
	return d, err
}

// ExpEdgeLatency returns an edge-latency model drawing i.i.d. exponential
// latencies with the given mean, the distribution Bankhamer et al. analyze.
func ExpEdgeLatency(mean float64) EdgeLatency { return sched.ExpLatency{Mean: mean} }

// UniformEdgeLatency returns an edge-latency model drawing i.i.d. latencies
// uniformly from [lo, hi).
func UniformEdgeLatency(lo, hi float64) EdgeLatency { return sched.UniformLatency{Min: lo, Max: hi} }

// None is the absence of a color.
const None = population.None

// Sentinel errors surfaced by the runners; match with errors.Is.
var (
	// ErrNoConsensus reports a core run that ended without agreement.
	ErrNoConsensus = core.ErrNoConsensus
	// ErrAllHalted reports a core run whose live nodes all halted before
	// agreeing; it matches ErrNoConsensus too.
	ErrAllHalted = core.ErrAllHalted
	// ErrTimeLimit reports a dynamics run that exhausted its budget.
	ErrTimeLimit = dynamics.ErrTimeLimit
	// ErrPhaseLimit reports a OneExtraBit run that exhausted its phases.
	ErrPhaseLimit = onebit.ErrPhaseLimit
)

// NewPopulation creates a population whose color histogram equals counts;
// color j starts with counts[j] supporters.
func NewPopulation(counts []int64) (*Population, error) {
	return population.FromCounts(counts)
}

// Workload constructors: initial color histograms for the regimes the
// paper's theorems address.

// Biased is Theorem 1.3's regime: c1 = (1+eps)·c2 with the remaining nodes
// split evenly over colors 1 … k-1.
func Biased(n, k int, eps float64) ([]int64, error) {
	return population.BiasedCounts(n, k, eps)
}

// GapSqrt is Theorem 1.1's tight regime: c1 − c2 = z·sqrt(n·ln n) with
// c2 = … = ck.
func GapSqrt(n, k int, z float64) ([]int64, error) {
	return population.GapSqrtCounts(n, k, z)
}

// GapSqrtPolylog is Theorem 1.2's regime: c1 − c2 = z·sqrt(n)·ln^1.5 n.
func GapSqrtPolylog(n, k int, z float64) ([]int64, error) {
	return population.GapSqrtPolylogCounts(n, k, z)
}

// TinyGap is the negative-result regime: c1 − c2 = z·sqrt(n), where a
// non-plurality color wins Two-Choices with constant probability.
func TinyGap(n, k int, z float64) ([]int64, error) {
	return population.TinyGapCounts(n, k, z)
}

// Uniform splits n nodes evenly over k colors.
func Uniform(n, k int) ([]int64, error) {
	return population.UniformCounts(n, k)
}

// Zipf assigns supports proportional to 1/(rank+1)^s.
func Zipf(n, k int, s float64) ([]int64, error) {
	return population.ZipfCounts(n, k, s)
}

// Topology constructors beyond the default complete graph (extensions; the
// paper's results are for the clique).

// CompleteGraph returns K_n.
func CompleteGraph(n int) (Graph, error) { return graph.NewComplete(n) }

// CycleGraph returns the n-cycle.
func CycleGraph(n int) (Graph, error) { return graph.NewCycle(n) }

// TorusGraph returns the w×h torus.
func TorusGraph(w, h int) (Graph, error) { return graph.NewTorus(w, h) }

// RandomGraph returns a deterministic Erdős–Rényi G(n, p) sampled from
// seed.
func RandomGraph(n int, p float64, seed uint64) (Graph, error) {
	return graph.NewGNP(n, p, rng.New(seed))
}

// RandomRegularGraph returns a deterministic simple random d-regular graph
// on n nodes sampled from seed via the configuration model (n·d must be
// even). Like every quenched topology it runs per node; see
// AnnealedRegularGraph for the lumpable mean-field counterpart.
func RandomRegularGraph(n, d int, seed uint64) (Graph, error) {
	return graph.NewRandomRegular(n, d, rng.New(seed))
}

// AnnealedRegularGraph returns the annealed (mean-field) d-regular
// configuration model on n nodes: every neighbor sample draws a fresh
// uniformly random partner half-edge instead of following fixed wiring.
// Annealed topologies report their degree-class symmetry, so dynamics runs
// on them collapse to the O(classes × colors) lumped engine.
func AnnealedRegularGraph(n, d int) (Graph, error) {
	return graph.NewAnnealedRegular(n, d)
}

// AnnealedGraph returns the annealed configuration model with g's degree
// sequence: the degree-class lumped mean-field counterpart of any quenched
// topology (for an Erdős–Rényi graph, the degree-partitioned annealed
// G(n, p)).
func AnnealedGraph(g Graph) (Graph, error) {
	return graph.AnnealedOf(g)
}

// PlanCore resolves the core protocol's working-time schedule (block length
// ∆, phase count, gadget length, endgame budget) for n nodes under the
// given options, without running anything.
func PlanCore(n int, opts ...Option) (CoreSpec, error) {
	o := newOptions(opts)
	return core.Plan(o.coreConfig(nil), n)
}

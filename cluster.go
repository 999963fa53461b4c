package plurality

import (
	"context"
	"time"

	"plurality/internal/node"
	"plurality/internal/plan"
)

// Transport selects the message fabric a node-runtime run executes on —
// the live-cluster counterpart of choosing a scheduler engine. Apply one
// with WithTransport (Job API) or NodeConfig.Transport (Cluster API). The
// interface is sealed: the implementations are NewChanTransport,
// NewLossyChanTransport and NewTCPTransport.
type Transport interface {
	// newNetwork builds one transport instance for an n-node cluster.
	newNetwork(n int, seed uint64) (node.Network, error)
}

// chanTransport is the in-process fabric: deterministic-seeded virtual
// time with optional latency/drop/reorder injection.
type chanTransport struct {
	faults node.Faults
}

func (t chanTransport) newNetwork(n int, seed uint64) (node.Network, error) {
	return node.NewFabric(n, seed, t.faults), nil
}

// NewChanTransport returns the in-process transport: nodes exchange real
// request/response messages through a conservative virtual-time fabric
// that dispatches one delivery at a time, so a cluster run is
// bit-deterministic for a fixed seed and its consensus-time distribution
// matches the simulator's Poisson-clock model exactly (the net-equivalence
// sweep gates this). This is the default transport.
func NewChanTransport() Transport {
	return chanTransport{}
}

// NetFaults configures message-level fault injection for
// NewLossyChanTransport. All draws come from a dedicated seeded stream, so
// a faulty cluster is exactly as deterministic as a clean one.
type NetFaults struct {
	// Latency is the mean of the exponential per-message delay in
	// parallel-time units, applied independently to each request and each
	// reply; 0 means instant delivery.
	Latency float64
	// Drop is the probability a message (request or reply) is lost; the
	// affected pull slot times out and the activation is wasted.
	Drop float64
	// Reorder is the probability a message draws a second independent
	// exponential delay, shuffling it behind later traffic.
	Reorder float64
}

// NewLossyChanTransport returns the in-process transport with seeded
// fault injection: exponential latency, drops, and reordering per
// NetFaults. Determinism is preserved — two runs with equal seeds and
// equal faults are bit-identical.
func NewLossyChanTransport(f NetFaults) Transport {
	return chanTransport{faults: node.Faults{Latency: f.Latency, Drop: f.Drop, Reorder: f.Reorder}}
}

// tcpTransport runs the whole cluster over real loopback sockets within
// this process.
type tcpTransport struct {
	unit time.Duration
}

func (t tcpTransport) newNetwork(n int, seed uint64) (node.Network, error) {
	return node.NewTCPMesh([]string{"127.0.0.1:0"}, 0, n, t.unit)
}

// NewTCPTransport returns the socket transport: every node in this
// process, pulling over real loopback TCP connections with the
// length-prefixed binary codec, clocks scaled so one parallel-time unit
// lasts unit of wall clock (0 means the 10ms default). TCP runs are
// subject to real scheduling noise, so they are gated end-to-end
// (consensus reached), not bit-for-bit; cross-process clusters are
// launched with cmd/pluralitynode instead.
func NewTCPTransport(unit time.Duration) Transport {
	return tcpTransport{unit: unit}
}

// WithTransport routes the job onto the node runtime: instead of the
// simulator's global scheduler, the run launches one goroutine-backed node
// per participant, each with a local Poisson clock, pulling sampled peers
// through t and stopping via a local termination gadget. Registry sampling
// dynamics only; options tied to simulator internals (adversaries,
// observers, delay models, engines, graphs, churn) are rejected by
// Validate with an explanation. The implied model is Poisson —
// WithModel(Poisson) is accepted, other models are rejected.
func WithTransport(t Transport) Option {
	return optionFunc(func(o *options) { o.mark(plan.Transport); o.transport = t })
}

// NodeConfig configures a Cluster: the direct, transport-first way to run
// a protocol as live message-passing processes (the Job API reaches the
// same runtime via WithTransport).
type NodeConfig struct {
	// Protocol is a registry protocol spec ("two-choices", "voter",
	// "3-majority", "usd", "j-majority:5").
	Protocol string
	// Counts is the initial opinion histogram (Counts[c] nodes of color c).
	Counts []int64
	// Seed roots every per-node rng stream; 0 means the default seed 1.
	Seed uint64
	// MaxTime is the parallel-time budget; 0 means DefaultMaxTime.
	MaxTime float64
	// PullTimeout is the per-pull reply timeout in parallel-time units;
	// 0 means the runtime default.
	PullTimeout float64
	// Transport is the message fabric; nil means NewChanTransport.
	Transport Transport
}

// Cluster is a compiled node-runtime run: n live nodes bound to a
// protocol, a seed family, and a transport. Build one with NewCluster and
// execute it with Run; a Cluster is immutable and safe to Run repeatedly
// (each Run builds a fresh transport instance and fresh nodes).
type Cluster struct {
	job     *Job
	timeout float64
}

// NewCluster compiles and validates a cluster run; see NodeConfig.
func NewCluster(cfg NodeConfig) (*Cluster, error) {
	tr := cfg.Transport
	if tr == nil {
		tr = NewChanTransport()
	}
	opts := []Option{WithModel(Poisson), WithTransport(tr)}
	if cfg.Seed != 0 {
		opts = append(opts, WithSeed(cfg.Seed))
	}
	if cfg.MaxTime > 0 {
		opts = append(opts, WithMaxTime(cfg.MaxTime))
	}
	job, err := NewJob(cfg.Protocol, cfg.Counts, opts...)
	if err != nil {
		return nil, err
	}
	return &Cluster{job: job, timeout: cfg.PullTimeout}, nil
}

// Job returns the underlying compiled job (useful for Trials fan-out).
func (c *Cluster) Job() *Job { return c.job }

// Run launches the cluster and blocks until it reaches consensus, hits its
// time budget, or ctx is canceled. The Report carries the same fields as a
// simulator run of the same protocol — ConsensusTime is the parallel time
// at which the last dissenting node flipped — plus Messages, the number of
// pull requests the cluster exchanged.
func (c *Cluster) Run(ctx context.Context) (Report, error) {
	return execCluster(ctx, c.job, c.job.o, c.timeout)
}

// execCluster is the node-runtime execution path shared by Cluster.Run and
// Job.Run-with-WithTransport: build a fresh transport instance, run the
// live nodes, convert the cluster result into the unified Report.
func execCluster(ctx context.Context, j *Job, o *options, pullTimeout float64) (Report, error) {
	rep := Report{Kind: KindDynamic, Protocol: j.spec, Engine: plan.Node.String()}
	netw, err := o.transport.newNetwork(int(j.total), o.seed)
	if err != nil {
		return rep, err
	}
	res, err := node.Run(ctx, node.ClusterConfig{
		Rule:    j.rule,
		Counts:  j.counts,
		Seed:    o.seed,
		MaxTime: o.maxTime,
		Timeout: pullTimeout,
		Network: netw,
	})
	rep.Converged = res.Done
	rep.Winner = res.Winner
	rep.ConsensusTime = res.ConsensusTime
	rep.Time = res.Time
	rep.Ticks = res.Ticks
	rep.Undecided = res.Undecided
	rep.Messages = res.Messages
	return rep, ctxErr(ctx, err)
}

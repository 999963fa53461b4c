package node

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
)

// DefaultPullTimeout is the pull timeout, in parallel-time units, used
// when ClusterConfig.Timeout is zero. It dwarfs the zero-latency fabric's
// instant delivery and comfortably covers the injected-latency and TCP
// settings shipped in this repo.
const DefaultPullTimeout = 8

// DefaultMaxTime mirrors the simulator's default parallel-time budget.
const DefaultMaxTime = 1e5

// ClusterConfig wires one cluster run.
type ClusterConfig struct {
	// Rule is the sampling dynamic every node runs (protocols.Lookup).
	Rule dynamics.Rule
	// Counts is the initial opinion distribution: Counts[c] nodes start
	// with color c, assigned in contiguous id blocks (the clique is
	// exchangeable, so block layout loses no generality).
	Counts []int64
	// Seed roots every per-node stream and the transport fault stream.
	Seed uint64
	// MaxTime is the parallel-time budget; 0 means DefaultMaxTime.
	MaxTime float64
	// Timeout is the per-pull reply timeout in parallel-time units;
	// 0 means DefaultPullTimeout.
	Timeout float64
	// StableTarget overrides the gadget's quiet-run length (0 = 3·log2 n + 10).
	StableTarget int
	// ConfirmTarget overrides the gadget's decided-confirmation run (0 = 8).
	ConfirmTarget int
	// Network is the transport instance serving this cluster.
	Network Network
	// Local selects which node ids this process hosts; nil hosts all of
	// them (the single-process case). Remote ids must be served by other
	// processes sharing the same transport mesh.
	Local func(id int) bool
}

// Result is the outcome of a cluster run, assembled from the local nodes'
// exit reports and the change collector.
type Result struct {
	// Done reports consensus among the locally hosted nodes: the
	// collector observed unanimity. When the process hosts all n nodes
	// this is global consensus, measured exactly like the simulator
	// (first instant the last dissenting opinion flipped).
	Done bool
	// Winner is the unanimous color when Done.
	Winner population.Color
	// ConsensusTime is the parallel time at which unanimity first held.
	ConsensusTime float64
	// Time is the latest activation time any local node observed — the
	// full runtime including the termination gadget's tail.
	Time float64
	// Ticks is the total number of node activations.
	Ticks int64
	// Undecided is the number of locally hosted nodes without an opinion
	// at exit (USD's undecided state).
	Undecided int64
	// Halted counts local nodes that exited through the termination
	// gadget; Decided counts those whose decided flag was set at exit.
	Halted int
	// Decided counts local nodes with the decided flag set at exit.
	Decided int
	// Messages is the number of pull requests issued; Responses the
	// replies delivered; Dropped the messages lost. Deterministic on the
	// in-process fabric.
	Messages int64
	// Responses is the number of pull replies delivered.
	Responses int64
	// Dropped is the number of messages lost in transit.
	Dropped int64
}

// collector tracks the locally hosted opinion census from OnChange
// callbacks, giving the cluster a ground-truth consensus measurement that
// does not depend on the termination gadget.
type collector struct {
	mu        sync.Mutex
	counts    map[population.Color]int64
	undecided int64
	total     int64
	done      bool
	when      float64
	winner    population.Color
}

func newCollector(initial []population.Color) *collector {
	c := &collector{counts: make(map[population.Color]int64)}
	for _, op := range initial {
		c.total++
		if op == population.None {
			c.undecided++
		} else {
			c.counts[op]++
		}
	}
	c.check(0)
	return c
}

// change records one opinion flip at parallel time t.
func (c *collector) change(old, next population.Color, t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old == population.None {
		c.undecided--
	} else {
		c.counts[old]--
	}
	if next == population.None {
		c.undecided++
	} else {
		c.counts[next]++
	}
	if !c.done {
		c.check(t)
	}
}

// check latches unanimity. Caller holds c.mu (or has exclusive access).
func (c *collector) check(t float64) {
	for col, cnt := range c.counts {
		if cnt == c.total {
			c.done = true
			c.when = t
			c.winner = col
			return
		}
	}
}

// snapshot returns the final census.
func (c *collector) snapshot() (done bool, when float64, winner population.Color, undecided int64, plurality population.Color) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var best int64 = -1
	for col, cnt := range c.counts {
		if cnt > best || (cnt == best && col < plurality) {
			best = cnt
			plurality = col
		}
	}
	return c.done, c.when, c.winner, c.undecided, plurality
}

// Run executes one cluster: bind every local node, start the transport,
// run the node goroutines to completion, and assemble the Result. The
// context cancels the run by closing the network; nodes then exit with
// ErrStopped semantics. A non-nil error is returned exactly when the
// locally hosted nodes did not reach consensus (time budget, cancellation,
// or transport failure), mirroring the simulator's Run contract, or when
// the Network has an Err method that reports a failure after Close: that
// error comes first, wrapped, even after consensus.
func Run(ctx context.Context, cfg ClusterConfig) (Result, error) {
	if cfg.Rule == nil {
		return Result{}, errors.New("node: ClusterConfig.Rule is nil")
	}
	if cfg.Network == nil {
		return Result{}, errors.New("node: ClusterConfig.Network is nil")
	}
	var n int64
	for _, c := range cfg.Counts {
		if c < 0 {
			return Result{}, fmt.Errorf("node: negative count %d", c)
		}
		n += c
	}
	if n < 2 {
		return Result{}, fmt.Errorf("node: cluster needs at least 2 nodes, got %d", n)
	}
	if cfg.Rule.SampleCount() < 1 {
		return Result{}, errors.New("node: rule samples no peers")
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = DefaultMaxTime
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultPullTimeout
	}
	stable := cfg.StableTarget
	if stable <= 0 {
		stable = defaultStableTarget(int(n))
	}
	confirm := cfg.ConfirmTarget
	if confirm <= 0 {
		confirm = defaultConfirmTarget
	}

	// Initial opinions in contiguous blocks: ids [0,Counts[0]) get color
	// 0, the next block color 1, and so on.
	opinions := make([]population.Color, 0, n)
	for col, cnt := range cfg.Counts {
		for i := int64(0); i < cnt; i++ {
			opinions = append(opinions, population.Color(col))
		}
	}

	local := cfg.Local
	if local == nil {
		local = func(int) bool { return true }
	}
	var initial []population.Color
	var ids []int
	for id := 0; id < int(n); id++ {
		if local(id) {
			ids = append(ids, id)
			initial = append(initial, opinions[id])
		}
	}
	if len(ids) == 0 {
		return Result{}, errors.New("node: no locally hosted nodes")
	}

	coll := newCollector(initial)
	nodes := make([]*Node, len(ids))
	for i, id := range ids {
		nd := newNode(id, int(n), cfg.Rule, opinions[id], cfg.Seed,
			timeout, maxTime, stable, confirm, func(_ int, old, next population.Color, t float64) {
				coll.change(old, next, t)
			})
		conn, err := cfg.Network.Bind(id, nd.handle)
		if err != nil {
			return Result{}, fmt.Errorf("node: bind %d: %w", id, err)
		}
		nd.conn = conn
		nd.clock = cfg.Network.Clock(id)
		nodes[i] = nd
	}
	if err := cfg.Network.Start(); err != nil {
		return Result{}, fmt.Errorf("node: start network: %w", err)
	}
	stop := ctxCloser(ctx, cfg.Network)

	results := make([]nodeResult, len(nodes))
	var wg sync.WaitGroup
	wg.Add(len(nodes))
	for i, nd := range nodes {
		go func(i int, nd *Node) {
			defer wg.Done()
			results[i] = nd.run()
		}(i, nd)
	}
	wg.Wait()
	stop()
	cfg.Network.Close()

	var res Result
	done, when, winner, undecided, plur := coll.snapshot()
	res.Done = done
	res.ConsensusTime = when
	res.Undecided = undecided
	if done {
		res.Winner = winner
	} else {
		res.Winner = plur
	}
	var stopped, timedOut bool
	for i, nr := range results {
		res.Ticks += nr.ticks
		if nr.last > res.Time {
			res.Time = nr.last
		}
		if nr.halted {
			res.Halted++
		}
		if nr.stopped {
			stopped = true
		}
		if nr.timedOut {
			timedOut = true
		}
		if _, decided := unpackState(nodes[i].state.Load()); decided {
			res.Decided++
		}
	}
	st := cfg.Network.Stats()
	res.Messages = st.Requests
	res.Responses = st.Responses
	res.Dropped = st.Dropped

	// A transport that failed (a fabric stall) released its nodes, so they
	// look stopped, or even done; its own error takes precedence.
	if tn, ok := cfg.Network.(interface{ Err() error }); ok {
		if err := tn.Err(); err != nil {
			return res, fmt.Errorf("cluster transport failed at t=%.3f: %w", res.Time, err)
		}
	}
	if !res.Done {
		if ctx != nil && ctx.Err() != nil {
			return res, fmt.Errorf("cluster stopped at t=%.3f: %w", res.Time, dynamics.ErrStopped)
		}
		if stopped && !timedOut {
			return res, fmt.Errorf("cluster stopped at t=%.3f: %w", res.Time, dynamics.ErrStopped)
		}
		return res, fmt.Errorf("cluster reached t=%.3f without consensus: %w", res.Time, dynamics.ErrTimeLimit)
	}
	return res, nil
}

package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"plurality"
	"plurality/internal/node"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// clusterItem is one cluster of the node-fabric list: compiled once through
// the public Cluster API, and described well enough to rebuild the same run
// on an instrumented fabric for the traced repetitions.
type clusterItem struct {
	label  string
	counts []int64
	seed   uint64
	faults plurality.NetFaults
	rule   dynamics.Rule
	cl     *plurality.Cluster
}

// clusterOut is what the benchmark reads from a cluster run, on either
// path.
type clusterOut struct {
	converged       bool
	winner          int
	ticks, messages int64
	time, consensus float64
	events          int64 // fabric events, counted on the traced path only
	err             error
}

type nodeRunner struct {
	items []clusterItem
	n     int
	sz    sizes
	seed  uint64

	// Untraced repetitions only: messages, wall time and the mean wall time
	// per cluster of each repetition.
	msgs     int64
	wall     time.Duration
	repMeans []float64
	// Traced repetitions only.
	tracedTicks, tracedEvents int64
	tails                     []float64
	first                     runTotal // the first (lossless Two-Choices) cluster
}

func setupNode(e env) (runner, error) {
	r, err := buildNode(e.size, e.seed)
	if err != nil {
		return nil, err
	}
	warm, err := buildNode(testSize, e.seed)
	if err != nil {
		return nil, err
	}
	if _, err := warm.rep(e.ctx, nil, 0); err != nil {
		return nil, err
	}
	return r, nil
}

func buildNode(sz sizes, seed uint64) (*nodeRunner, error) {
	counts, err := plurality.Biased(sz.clusterN, 4, 1)
	if err != nil {
		return nil, err
	}
	specs := []struct {
		label, protocol string
		faults          plurality.NetFaults
	}{
		{"two-choices", "two-choices", plurality.NetFaults{}},
		{"usd", "usd", plurality.NetFaults{}},
		// Exponential edge latency (Bankhamer et al.) plus message loss: the
		// timeout and latency events share the fabric's heap.
		{"two-choices/lossy", "two-choices", plurality.NetFaults{Latency: 0.25, Drop: 0.01}},
	}
	r := &nodeRunner{n: sz.clusterN, sz: sz, seed: seed}
	for i, sp := range specs {
		_, rule, err := protocols.Lookup(sp.protocol)
		if err != nil {
			return nil, err
		}
		it := clusterItem{label: sp.label, counts: counts, seed: derive(seed, 4, i), faults: sp.faults, rule: rule}
		it.cl, err = plurality.NewCluster(plurality.NodeConfig{
			Protocol:  sp.protocol,
			Counts:    counts,
			Seed:      it.seed,
			Transport: plurality.NewLossyChanTransport(sp.faults),
		})
		if err != nil {
			return nil, err
		}
		r.items = append(r.items, it)
	}
	return r, nil
}

func (r *nodeRunner) rep(ctx context.Context, tr *tracer, parent int) (repStats, error) {
	var (
		st   repStats
		wall time.Duration
	)
	for i, it := range r.items {
		id := tr.begin(parent, "Cluster.Run "+it.label, "internal/node")
		start := time.Now()
		var out clusterOut
		if tr == nil {
			rep, err := it.cl.Run(ctx)
			out = clusterOut{rep.Converged, int(rep.Winner), rep.Ticks, rep.Messages, rep.Time, rep.ConsensusTime, 0, err}
		} else {
			out = it.runCounted(ctx, r.n)
		}
		d := time.Since(start)
		tr.end(id)

		st.attempted++
		st.runs = append(st.runs, runRate{it.label, float64(out.ticks) / d.Seconds()})
		wall += d
		st.nodes += int64(r.n)
		st.counts = append(st.counts, out.ticks, out.messages)
		switch {
		case out.err != nil:
			st.failures = append(st.failures, fmt.Sprintf("%s: %v", it.label, out.err))
		case !out.converged:
			st.failures = append(st.failures, it.label+": did not converge")
		case out.winner != 0:
			st.failures = append(st.failures, fmt.Sprintf("%s: winner %d, want the plurality colour 0", it.label, out.winner))
		case out.messages != out.ticks*int64(it.rule.SampleCount()):
			// Every activation pulls SampleCount peers, dropped or not.
			st.failures = append(st.failures, fmt.Sprintf("%s: %d messages, want ticks × samples = %d × %d",
				it.label, out.messages, out.ticks, it.rule.SampleCount()))
		}
		if tr == nil {
			r.msgs += out.messages
			r.wall += d
			continue
		}
		r.tracedTicks += out.ticks
		r.tracedEvents += out.events
		r.tails = append(r.tails, (out.time-out.consensus)/out.time)
		if i == 0 {
			r.first.d += d
			r.first.ticks += out.ticks
			r.first.runs++
		}
	}
	if tr == nil {
		r.repMeans = append(r.repMeans, wall.Seconds()/float64(len(r.items)))
	}
	return st, nil
}

// runCounted runs the item on the same fabric the public Cluster builds,
// wrapped so every fabric event the cluster causes is counted where it is
// scheduled.
func (it clusterItem) runCounted(ctx context.Context, n int) clusterOut {
	net := &countingNet{Network: node.NewFabric(n, it.seed, node.Faults{
		Latency: it.faults.Latency, Drop: it.faults.Drop, Reorder: it.faults.Reorder,
	})}
	res, err := node.Run(ctx, node.ClusterConfig{
		Rule:    it.rule,
		Counts:  it.counts,
		Seed:    it.seed,
		MaxTime: plurality.DefaultMaxTime,
		Network: net,
	})
	// Every pull schedules one timeout and every delivered request one
	// reply, which is delivered unless it is dropped: Requests − Dropped
	// replies in total.
	events := net.sleeps.Load() + net.pulls.Load() + net.handled.Load() + res.Messages - res.Dropped
	return clusterOut{res.Done, int(res.Winner), res.Ticks, res.Messages, res.Time, res.ConsensusTime, events, err}
}

func (r *nodeRunner) layers(ctx context.Context, tr *tracer, parent int) ([]metric, []string, error) {
	sleep, err := fabricTiming(tr, parent, r.n, r.sz.fabricOps, false, derive(r.seed, 9, 0))
	if err != nil {
		return nil, nil, err
	}
	pull, err := fabricTiming(tr, parent, r.n, r.sz.fabricOps, true, derive(r.seed, 9, 1))
	if err != nil {
		return nil, nil, err
	}
	tail := 0.0
	for _, x := range r.tails {
		tail += x
	}
	firstUS := r.first.nsPerAct() / 1e3
	return []metric{
		{"node.fabric_sleep_us", "us", sleep, 1},
		{"node.fabric_pull_us", "us", pull, 1},
		{"node.unexplained_us", "us", firstUS - pull, r.first.runs},
		{"node.events_per_activation", "count", float64(r.tracedEvents) / float64(r.tracedTicks), len(r.tails)},
		{"node.gadget_tail_share", "ratio", tail / float64(len(r.tails)), len(r.tails)},
		{"node.messages_per_s", "1/s", float64(r.msgs) / r.wall.Seconds(), len(r.repMeans)},
		{"node.run_s_p50", "s", median(r.repMeans), len(r.repMeans)},
	}, nil, nil
}

func (r *nodeRunner) close() {}

// fabricTiming drives a raw fabric of n nodes from outside: every node
// sleeps an exponential gap ops times, and with pull also pulls two peers
// per wake, whose handler answers at once. It returns the wall time per
// activation in microseconds — the fabric's own cost, without any protocol.
func fabricTiming(tr *tracer, parent, n, ops int, pull bool, seed uint64) (float64, error) {
	name := "fabric sleep"
	if pull {
		name = "fabric sleep+pull"
	}
	id := tr.begin(parent, name, "internal/node")
	defer tr.end(id)
	f := node.NewFabric(n, seed, node.Faults{})
	defer f.Close()
	reply := node.Message{Kind: node.KindReply}
	conns := make([]node.Conn, n)
	for i := range conns {
		var err error
		if conns[i], err = f.Bind(i, func(node.Message) node.Message { return reply }); err != nil {
			return 0, err
		}
	}
	if err := f.Start(); err != nil {
		return 0, err
	}
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			clock := f.Clock(i)
			defer clock.Done()
			r := rng.At(seed, i)
			peers := make([]int, 2)
			for k := 0; k < ops; k++ {
				if _, ok := clock.Sleep(r.ExpFloat64()); !ok {
					return
				}
				if pull {
					peers[0], peers[1] = r.IntnExcept(n, i), r.IntnExcept(n, i)
					conns[i].Pull(peers, node.DefaultPullTimeout)
				}
			}
		}(i)
	}
	wg.Wait()
	if err := f.Err(); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds() * 1e6 / float64(n*ops), nil
}

// countingNet wraps a node.Network and counts, at the fabric's boundary,
// the events a cluster schedules: clock wakes, pulls (each schedules one
// timeout) and request deliveries.
type countingNet struct {
	node.Network
	sleeps, pulls, handled atomic.Int64
}

func (c *countingNet) Bind(id int, h node.Handler) (node.Conn, error) {
	conn, err := c.Network.Bind(id, func(m node.Message) node.Message {
		c.handled.Add(1)
		return h(m)
	})
	if err != nil {
		return nil, err
	}
	return countingConn{conn, c}, nil
}

func (c *countingNet) Clock(id int) node.Clock { return countingClock{c.Network.Clock(id), c} }

type countingConn struct {
	node.Conn
	c *countingNet
}

func (cc countingConn) Pull(peers []int, timeout float64) []node.PullReply {
	cc.c.pulls.Add(1)
	return cc.Conn.Pull(peers, timeout)
}

type countingClock struct {
	node.Clock
	c *countingNet
}

func (cc countingClock) Sleep(d float64) (float64, bool) {
	cc.c.sleeps.Add(1)
	return cc.Clock.Sleep(d)
}

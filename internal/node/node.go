package node

import (
	"sync/atomic"

	"plurality/internal/population"
	"plurality/internal/protocols/dynamics"
	"plurality/internal/rng"
)

// Per-cluster rng stream layout. Node i draws every local decision — clock
// gaps, peer picks, rule randomness — from the single stream
// nodeStreamBase+i, far above the streams the simulator and the experiment
// harness claim, so a cluster and a simulation of the same seed never
// share draws.
const (
	nodeStreamBase = 1 << 21
	faultStream    = nodeStreamBase - 1
)

// Node is one live participant: a protocol loop with a local Poisson
// clock, plus an always-responsive handler serving its atomically
// published state to peers.
type Node struct {
	id   int
	n    int
	rule dynamics.Rule
	rng  *rng.RNG

	clock   Clock
	conn    Conn
	timeout float64
	maxTime float64

	// state packs (opinion << 1) | decided into one atomic word so the
	// handler always serves a consistent opinion/decided pair without
	// touching the protocol loop.
	state atomic.Int64

	gad      gadget
	onChange func(id int, old, next population.Color, t float64)

	peers   []int
	sampled []population.Color

	ticks int64
	last  float64
}

// nodeResult is one node's exit report.
type nodeResult struct {
	ticks    int64
	last     float64 // clock reading at the final activation
	halted   bool    // exited through the termination gadget
	timedOut bool    // exited at maxTime
	stopped  bool    // released by a closing network
}

func packState(op population.Color, decided bool) int64 {
	v := int64(op) << 1
	if decided {
		v |= 1
	}
	return v
}

func unpackState(v int64) (population.Color, bool) {
	return population.Color(v >> 1), v&1 == 1
}

// newNode wires one participant. The caller binds handle to the network
// before starting run.
func newNode(id, n int, rule dynamics.Rule, initial population.Color, seed uint64,
	timeout, maxTime float64, stableTarget, confirmTarget int,
	onChange func(id int, old, next population.Color, t float64)) *Node {
	s := rule.SampleCount()
	nd := &Node{
		id:       id,
		n:        n,
		rule:     rule,
		rng:      rng.At(seed, nodeStreamBase+id),
		timeout:  timeout,
		maxTime:  maxTime,
		onChange: onChange,
		peers:    make([]int, s),
		sampled:  make([]population.Color, s),
	}
	nd.gad = gadget{stableTarget: stableTarget, confirmTarget: confirmTarget}
	nd.state.Store(packState(initial, false))
	return nd
}

// handle serves one inbound pull. It runs on the transport's delivery
// path — on the fabric, whichever node goroutine blocked last and is
// dispatching; on TCP, a serve goroutine — reads only the packed atomic
// state, and never blocks.
func (nd *Node) handle(req Message) Message {
	op, decided := unpackState(nd.state.Load())
	return Message{
		Kind:    KindReply,
		To:      req.From,
		From:    uint32(nd.id),
		Seq:     req.Seq,
		Opinion: int32(op),
		Decided: decided,
	}
}

// run is the protocol loop: sleep an Exp(1) gap, pull s uniformly chosen
// peers (excluding self, matching the clique's sampling law), apply the
// rule, feed the termination gadget. It exits when the gadget halts, the
// clock passes maxTime, or the network shuts down.
func (nd *Node) run() nodeResult {
	defer nd.clock.Done()
	for {
		gap := nd.rng.ExpFloat64()
		t, ok := nd.clock.Sleep(gap)
		if !ok {
			return nodeResult{ticks: nd.ticks, last: nd.last, stopped: true}
		}
		if t > nd.maxTime {
			return nodeResult{ticks: nd.ticks, last: nd.last, timedOut: true}
		}
		nd.ticks++
		nd.last = t
		for i := range nd.peers {
			nd.peers[i] = nd.rng.IntnExcept(nd.n, nd.id)
		}
		replies := nd.conn.Pull(nd.peers, nd.timeout)
		own, _ := unpackState(nd.state.Load())
		complete := true
		for i, rep := range replies {
			if !rep.OK {
				complete = false
				break
			}
			nd.sampled[i] = rep.Opinion
		}
		if !complete {
			// A lost activation: no state change, no gadget progress —
			// the same shape as a tick spent waiting in the simulator's
			// delay extension.
			nd.gad.miss()
			continue
		}
		next := nd.rule.Next(nd.rng, own, nd.sampled)
		if next != own {
			nd.state.Store(packState(next, false))
			if nd.onChange != nil {
				nd.onChange(nd.id, own, next, t)
			}
		}
		quiet := next == own && own != population.None
		allDecided := quiet
		if quiet {
			for _, rep := range replies {
				if rep.Opinion != own {
					quiet = false
					allDecided = false
					break
				}
				if !rep.Decided {
					allDecided = false
				}
			}
		}
		decided, halt := nd.gad.observe(quiet, allDecided)
		nd.state.Store(packState(next, decided))
		if halt {
			return nodeResult{ticks: nd.ticks, last: nd.last, halted: true}
		}
	}
}

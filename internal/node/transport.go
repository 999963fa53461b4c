// Package node is the networked runtime: plurality consensus as live
// message-passing processes instead of a centrally scheduled simulation.
// Every participant is a goroutine-backed Node running a registered
// sampling dynamic against its peers — a local Poisson clock (per-node
// exponential timer off a dedicated rng stream), pull-based neighbor
// sampling over a Transport, and a local termination gadget that detects
// consensus without any global view.
//
// Two transports ship. The in-process fabric (NewFabric) delivers messages
// over a conservative virtual-time event heap with no coordinator: node
// goroutines block in Sleep/Pull, and the last one to block advances the
// shared clock to the earliest pending event and fires events one at a
// time until one wakes a node, which it hands control to. Exactly one
// goroutine is runnable at any moment, and the event order (time, then
// schedule order) and every fault draw are functions of the seed alone, so
// a cluster is bit-deterministic for a fixed seed while still exchanging
// real request/response messages; which goroutine dispatches changes only
// who does the work. Because every node draws unit-rate exponential clock
// gaps, the superposition of the n local clocks is exactly the simulator's
// rate-n Poisson process with uniform node choice — which is what the
// net-equivalence sweep (internal/exp) verifies with a KS gate against the
// simulator oracle. The TCP mesh (NewTCPMesh) runs the same node loop over
// length-prefixed frames on real sockets with wall-clock timers, and
// scales across processes.
package node

import (
	"context"

	"plurality/internal/population"
)

// Message kinds carried by the wire codec.
const (
	// KindPull is a pull request: "send me your current opinion".
	KindPull uint8 = 1
	// KindReply answers a pull with the responder's opinion and its
	// termination-gadget decided flag.
	KindReply uint8 = 2
)

// Message is the single wire unit of the runtime: pull requests and their
// replies share one fixed frame layout (see codec.go). Request fields are
// To/From/Seq; replies add Opinion and Decided.
type Message struct {
	// Kind is KindPull or KindReply.
	Kind uint8
	// To is the destination node id (multi-node processes demux on it).
	To uint32
	// From is the sending node id.
	From uint32
	// Seq matches a reply to its request on a shared connection.
	Seq uint64
	// Opinion is the responder's current color; -1 encodes the undecided
	// state (population.None). Meaningful on replies only.
	Opinion int32
	// Decided is the responder's termination-gadget flag: it has seen a
	// long unanimous run and considers its opinion final (revocable until
	// it halts). Meaningful on replies only.
	Decided bool
}

// PullReply is one slot of a completed Pull: the sampled opinion plus the
// responder's decided flag. OK is false when the request or its reply was
// dropped, timed out, or failed in transit — the slot then carries no
// opinion and the activation is lost, exactly like a tick spent waiting in
// the simulator's delay extension.
type PullReply struct {
	// Opinion is the sampled color (population.None for USD-undecided).
	Opinion population.Color
	// Decided is the responder's termination-gadget flag.
	Decided bool
	// OK reports whether the reply actually arrived.
	OK bool
}

// Handler answers one inbound request from a node's always-responsive
// network layer. It must not block: implementations read the node's
// atomically published state, never its protocol loop.
type Handler func(req Message) Message

// Conn is a node's bound endpoint for issuing pull requests.
type Conn interface {
	// Pull requests the current opinion of every listed peer concurrently
	// and blocks until each reply arrived or the timeout (in parallel-time
	// units) expired; replies[i] corresponds to peers[i]. Peers may repeat
	// (sampling is with replacement across activations, and a node may
	// draw the same peer twice).
	Pull(peers []int, timeout float64) []PullReply
}

// Network is a transport instance serving one cluster: nodes bind their
// request handlers, then Start begins delivery. Implementations also own
// the cluster's notion of time (Clock), because the in-process fabric runs
// on virtual time while the TCP mesh runs on scaled wall clock.
type Network interface {
	// Bind registers node id's request handler and returns its endpoint.
	// All Binds must precede Start.
	Bind(id int, h Handler) (Conn, error)
	// Clock returns node id's clock. Valid after Bind(id).
	Clock(id int) Clock
	// Start begins delivery. The fabric starts no goroutine of its own:
	// it arms its counters, and from then on the last node goroutine to
	// block dispatches virtual time.
	Start() error
	// Close releases every blocked node and stops delivery; idempotent.
	Close() error
	// Stats reports message accounting; call after the cluster finished.
	Stats() Stats
}

// Stats is a transport's message accounting. On the deterministic
// in-process fabric every field is a pure function of the cluster seed,
// which is what lets CI baselines diff message counts.
type Stats struct {
	// Requests is the number of pull requests issued.
	Requests int64
	// Responses is the number of replies delivered back to a requester.
	Responses int64
	// Dropped is the number of messages lost: fault injection on the
	// fabric, timeouts and transport errors on TCP.
	Dropped int64
}

// Clock is a node's local time source. The fabric hands out virtual
// clocks on its shared event heap, advanced by whichever node blocks last;
// the TCP mesh hands out scaled wall clocks.
type Clock interface {
	// Sleep blocks the caller for d units of parallel time and returns
	// the clock reading after waking; ok is false when the cluster is
	// shutting down and the node must exit.
	Sleep(d float64) (now float64, ok bool)
	// Done marks the caller permanently finished; it must be called
	// exactly once, after which the node may not touch the clock again.
	Done()
}

// ctxCloser closes a Network when ctx is canceled; the returned stop
// function ends the watch (idempotent).
func ctxCloser(ctx context.Context, n Network) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	quit := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			n.Close()
		case <-quit:
		}
	}()
	var once bool
	return func() {
		if !once {
			once = true
			close(quit)
		}
	}
}

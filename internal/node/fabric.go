package node

import (
	"errors"
	"fmt"
	"iter"
	"sync"

	"plurality/internal/population"
	"plurality/internal/rng"
)

// Faults configures message-level fault injection on the in-process
// fabric. All draws come from the fabric's own seeded stream, so a faulty
// cluster is exactly as deterministic as a clean one.
type Faults struct {
	// Latency is the mean of the exponential per-message delay, in
	// parallel-time units, applied independently to each request and each
	// reply. Zero means instant delivery (the oracle-equivalent setting).
	Latency float64
	// Drop is the probability a message (request or reply) is lost.
	Drop float64
	// Reorder is the probability a message draws a second independent
	// exponential delay on top of Latency, shuffling it behind later
	// traffic.
	Reorder float64
}

// errStall reports a fabric where every live node blocked with no pending
// event — a runtime bug by construction (every Sleep and every Pull
// schedules a wake). The dispatcher that finds it closes the fabric and
// releases every live node, so the run ends and reports it instead of
// deadlocking.
var errStall = errors.New("node: fabric stalled with no pending events")

// Event kinds on the virtual timeline.
const (
	evWake    uint8 = iota // a Sleep ends
	evRequest              // a pull request reaches its responder
	evReply                // a reply reaches its requester
	evTimeout              // a pull gives up on its missing replies
)

// event is one scheduled occurrence on the virtual timeline: a plain value
// in one of the fabric's queue lanes, so scheduling allocates nothing.
type event struct {
	at   float64
	seq  int64 // tiebreaker: schedule order
	kind uint8
	// decided and opinion are the responder's answer (evReply).
	decided bool
	opinion int32
	node    int32  // the node woken, or the requester of a pull
	peer    int32  // the responder (evRequest)
	slot    int32  // the reply slot (evRequest, evReply)
	gen     uint32 // the requester's pull generation (evRequest, evReply)
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// fabNode is the fabric's side of one bound node: its handler, the way
// control reaches it, and its in-flight pull.
type fabNode struct {
	handler Handler
	// A node Run drives is a coroutine on Run's goroutine: resume switches
	// to it from Run's loop, and yield suspends it back there.
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
	// wake is set instead for a node that its caller's goroutine drives
	// after Start. It carries the one token that resumes the node's parked
	// Sleep or Pull. Its buffer lets the dispatcher hand control on, under
	// f.mu, without waiting for the woken goroutine to be scheduled. The
	// send never blocks: a parked node is released exactly once (by its
	// wake, or by its pull's last reply or timeout, whichever fires first),
	// and it takes the token before it can park again.
	wake chan struct{}
	// gen numbers the node's pulls. It advances when a pull completes or
	// times out, so a reply that lands after that is a no-op.
	gen uint32
	// replies is the reply buffer every Pull of the node returns, cleared
	// by the next one.
	replies []PullReply
	missing int
	// timeout is the in-flight pull's timeout event; prev and next link it
	// into the fabric's timeout lane.
	timeout    event
	prev, next int32
	live       bool // driven by Run or Start, and Done not called yet
}

// Fabric is the in-process transport: a conservative virtual-time event
// queue with no dispatcher of its own. Nodes only ever block inside Sleep
// or Pull, and the last one to block — the call that brings running to 0 —
// dispatches: it pops the earliest pending event (ties broken by schedule
// order), advances the shared clock and fires it, until an event wakes a
// node. It then hands control to that node, or simply keeps running when
// the node woken is itself (a pull whose replies all arrive at once). The
// nodes Run drives are coroutines on Run's goroutine, so handing control on
// is a coroutine switch through Run's loop; the nodes of a fabric armed by
// Start run on their callers' goroutines and park on a channel each, which
// the dispatcher sends the woken node's token on. Either way exactly one
// node runs at any moment, so execution is globally sequential and
// bit-deterministic for a fixed seed, while the nodes still communicate
// exclusively through messages. The events fired, their order and every
// fault-stream draw depend only on the seed, not on which node dispatches
// or how control moves between nodes.
type Fabric struct {
	n      int
	faults Faults
	frng   *rng.RNG

	mu sync.Mutex
	// Pending events wait in three lanes under the one (at, seq) order, and
	// pop takes the least of their heads. instant[head:] holds the events
	// due at the current time in schedule order (every lossless request and
	// reply); the timeout lane links the in-flight pulls' timeouts through
	// their nodes, first to fire at tHead; events is a min-heap of the rest
	// (wakes and delayed messages).
	instant      []event
	head         int
	tHead, tTail int32 // -1: no pull in flight
	events       []event
	seq          int64
	now          float64
	running      int     // nodes not blocked in Sleep/Pull
	live         int     // nodes that have not called Done
	ready        []int32 // coroutine nodes handed control, for Run to resume
	closed       bool
	started      bool
	err          error

	nodes []fabNode
	bound int
	stats Stats
}

// NewFabric creates an in-process fabric for n nodes. The fault stream is
// seeded independently of every node stream, so enabling faults does not
// shift the nodes' own random draws.
func NewFabric(n int, seed uint64, f Faults) *Fabric {
	return &Fabric{
		n:      n,
		faults: f,
		frng:   rng.At(seed, faultStream),
		tHead:  -1,
		tTail:  -1,
		nodes:  make([]fabNode, n),
	}
}

// Bind implements Network.
func (f *Fabric) Bind(id int, h Handler) (Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return nil, errors.New("node: Bind after the fabric started")
	}
	if id < 0 || id >= f.n {
		return nil, fmt.Errorf("node: Bind id %d out of range [0,%d)", id, f.n)
	}
	if f.nodes[id].handler != nil {
		return nil, fmt.Errorf("node: node %d already bound", id)
	}
	f.nodes[id] = fabNode{handler: h}
	f.bound++
	return fabConn{f: f, id: id}, nil
}

// Clock implements Network. The fabric's clocks are all views of the one
// shared virtual timeline.
func (f *Fabric) Clock(id int) Clock {
	return fabClock{f: f, id: id}
}

// Run implements Network: it runs body(i), the loop of node ids[i], for
// every i as a coroutine on the caller's goroutine, and returns once every
// body has returned. Each node counts as running until its first Sleep, and
// the last of them to sleep dispatches the first event; from then on Run
// resumes whichever node a dispatch wakes. It fails, running no body, when
// the fabric was started already or an id is unbound or repeated.
func (f *Fabric) Run(ids []int, body func(i int)) error {
	if err := f.arm(ids, body); err != nil {
		return err
	}
	for {
		f.mu.Lock()
		last := len(f.ready) - 1
		if last < 0 {
			f.mu.Unlock()
			return nil
		}
		w := f.ready[last]
		f.ready = f.ready[:last]
		f.mu.Unlock()
		f.nodes[w].resume()
	}
}

// arm checks Run's ids, makes each node's coroutine and stacks them all as
// ready to start, ids[0] on top.
func (f *Fabric) arm(ids []int, body func(i int)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return errors.New("node: fabric started twice")
	}
	for k, id := range ids {
		if id < 0 || id >= f.n || f.nodes[id].handler == nil || f.nodes[id].live {
			for _, id := range ids[:k] {
				f.nodes[id].live = false
			}
			return fmt.Errorf("node: Run of node %d, which is unbound or listed twice", id)
		}
		f.nodes[id].live = true
	}
	f.started = true
	f.running, f.live = len(ids), len(ids)
	for i := len(ids) - 1; i >= 0; i-- {
		nd := &f.nodes[ids[i]]
		nd.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
			nd.yield = yield
			body(i)
		})
		f.ready = append(f.ready, int32(ids[i]))
	}
	return nil
}

// Start arms the fabric for callers that drive its nodes from goroutines of
// their own instead of through Run: it makes each bound node's wake channel
// and arms the running/live counters to the bound-node count. The caller
// must then start exactly one goroutine per bound node. Each counts as
// running until its first Sleep, and the last of them to sleep dispatches
// the first event.
func (f *Fabric) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started {
		return errors.New("node: fabric started twice")
	}
	f.started = true
	for i := range f.nodes {
		if nd := &f.nodes[i]; nd.handler != nil {
			nd.wake = make(chan struct{}, 1)
			nd.live = true
		}
	}
	f.running = f.bound
	f.live = f.bound
	return nil
}

// Close implements Network: it marks the fabric closed and drains the
// queue, which releases every blocked node (their Sleep/Pull calls return
// with ok=false / missing replies); later calls return at once. Holding
// f.mu, it never runs during a dispatch. Idempotent, and safe from any
// goroutine.
func (f *Fabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	f.drain()
	return nil
}

// Stats implements Network.
func (f *Fabric) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// Err reports a stall — every live node blocked with no pending event, which
// the dispatching node detects — and nil otherwise. A stall closes the
// fabric and releases every live node; Run reports it ahead of any
// consensus outcome.
func (f *Fabric) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// schedule enqueues ev at virtual time at: in the instant lane when it is
// due now, on the heap otherwise. Caller holds f.mu.
func (f *Fabric) schedule(at float64, ev event) {
	ev.at, ev.seq = at, f.seq
	f.seq++
	if at == f.now {
		f.instant = append(f.instant, ev)
		return
	}
	f.events = append(f.events, ev)
	f.up(len(f.events) - 1)
}

// scheduleTimeout enqueues node id's pull timeout at virtual time at, in
// the timeout lane after every timeout that fires first. node.Run passes
// one timeout to every pull, so that is the tail. Caller holds f.mu.
func (f *Fabric) scheduleTimeout(id int32, at float64) {
	nd := &f.nodes[id]
	nd.timeout = event{at: at, seq: f.seq, kind: evTimeout, node: id}
	f.seq++
	p := f.tTail
	for p >= 0 && nd.timeout.before(&f.nodes[p].timeout) {
		p = f.nodes[p].prev
	}
	nd.prev = p
	if p >= 0 {
		nd.next, f.nodes[p].next = f.nodes[p].next, id
	} else {
		nd.next, f.tHead = f.tHead, id
	}
	if nd.next >= 0 {
		f.nodes[nd.next].prev = id
	} else {
		f.tTail = id
	}
}

// unlinkTimeout takes node id's pull timeout out of the timeout lane.
// Caller holds f.mu.
func (f *Fabric) unlinkTimeout(id int32) {
	nd := &f.nodes[id]
	if nd.prev >= 0 {
		f.nodes[nd.prev].next = nd.next
	} else {
		f.tHead = nd.next
	}
	if nd.next >= 0 {
		f.nodes[nd.next].prev = nd.prev
	} else {
		f.tTail = nd.prev
	}
}

// pop removes and returns the earliest pending event, the least of the three
// lanes' heads, and false when no event is pending. Caller holds f.mu.
func (f *Fabric) pop() (event, bool) {
	var ev *event
	if f.head < len(f.instant) {
		ev = &f.instant[f.head]
	}
	fromHeap := len(f.events) > 0 && (ev == nil || f.events[0].before(ev))
	if fromHeap {
		ev = &f.events[0]
	}
	if h := f.tHead; h >= 0 && (ev == nil || f.nodes[h].timeout.before(ev)) {
		f.unlinkTimeout(h)
		return f.nodes[h].timeout, true
	}
	if ev == nil {
		return event{}, false
	}
	top := *ev
	if fromHeap {
		last := len(f.events) - 1
		f.events[0] = f.events[last]
		f.events = f.events[:last]
		f.down(0)
		return top, true
	}
	f.head++
	if f.head == len(f.instant) {
		f.instant, f.head = f.instant[:0], 0
	}
	return top, true
}

func (f *Fabric) up(i int) {
	ev := f.events[i]
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&f.events[p]) {
			break
		}
		f.events[i] = f.events[p]
		i = p
	}
	f.events[i] = ev
}

func (f *Fabric) down(i int) {
	n := len(f.events)
	if i >= n {
		return
	}
	ev := f.events[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && f.events[r].before(&f.events[c]) {
			c = r
		}
		if !f.events[c].before(&ev) {
			break
		}
		f.events[i] = f.events[c]
		i = c
	}
	f.events[i] = ev
}

// fire applies one event and returns the node it wakes, or -1. Caller
// holds f.mu. On a closed fabric requests and replies are no-ops, while
// wakes and timeouts still release their node: that is the drain.
func (f *Fabric) fire(ev *event) int {
	switch ev.kind {
	case evWake:
		return int(ev.node)
	case evRequest:
		if f.closed {
			return -1
		}
		// The handler is the responder's always-responsive network layer:
		// it reads atomically published state, so invoking it here never
		// wakes or blocks the responder's protocol loop.
		resp := f.nodes[ev.peer].handler(Message{Kind: KindPull, To: uint32(ev.peer), From: uint32(ev.node)})
		if f.drop() {
			f.stats.Dropped++
			return -1
		}
		f.schedule(f.now+f.delay(), event{kind: evReply, node: ev.node, slot: ev.slot, gen: ev.gen,
			opinion: resp.Opinion, decided: resp.Decided})
		return -1
	case evReply:
		nd := &f.nodes[ev.node]
		if f.closed || ev.gen != nd.gen {
			return -1 // closing, or the pull already timed out
		}
		f.stats.Responses++
		nd.replies[ev.slot] = PullReply{Opinion: population.Color(ev.opinion), Decided: ev.decided, OK: true}
		nd.missing--
		if nd.missing > 0 {
			return -1
		}
		f.unlinkTimeout(ev.node)
	}
	// The pull is over: its last reply landed, or it timed out (a timeout
	// still in its lane always belongs to the node's in-flight pull).
	f.nodes[ev.node].gen++
	return int(ev.node)
}

// dispatch pops and fires events until one wakes a node, and returns that
// node, now counted as running. It returns -1 when no live node is left, or
// when it finds a stall, which closes the fabric and hands control to every
// live node (all parked, the caller too if it is one). Caller holds f.mu,
// and running is 0.
func (f *Fabric) dispatch() int {
	for f.live > 0 {
		ev, ok := f.pop()
		if !ok {
			// Unreachable by construction; fail loudly, not silently.
			f.err = errStall
			f.closed = true
			for i := range f.nodes {
				if f.nodes[i].live {
					f.running++
					f.handOff(i)
				}
			}
			return -1
		}
		f.now = ev.at
		if w := f.fire(&ev); w >= 0 {
			f.running++
			return w
		}
	}
	return -1
}

// drain fires every remaining event on the closed fabric, which releases
// every blocked node: each parked node has exactly one event that wakes it
// (its wake, or its pull's timeout) and a running node has none, so no
// node is handed control twice. Caller holds f.mu.
func (f *Fabric) drain() {
	for {
		ev, ok := f.pop()
		if !ok {
			return
		}
		if w := f.fire(&ev); w >= 0 {
			f.running++
			f.handOff(w)
		}
	}
}

// handOff gives control to node w, which an event just woke: a coroutine
// goes on the stack Run resumes from, a goroutine gets its token. Caller
// holds f.mu.
func (f *Fabric) handOff(w int) {
	if nd := &f.nodes[w]; nd.wake != nil {
		nd.wake <- struct{}{}
		return
	}
	f.ready = append(f.ready, int32(w))
}

// wait suspends node id until it is handed control again: a coroutine
// yields to Run's loop, a goroutine takes its token. Caller holds f.mu,
// which wait releases meanwhile and holds again on return.
func (f *Fabric) wait(id int) {
	nd := &f.nodes[id]
	f.mu.Unlock()
	if nd.wake != nil {
		<-nd.wake
	} else {
		nd.yield(struct{}{})
	}
	f.mu.Lock()
}

// park blocks node id until an event it scheduled wakes it, and returns
// the clock reading then, with ok false when the fabric closed meanwhile.
// Caller holds f.mu, which park releases. If id was the last node running,
// it dispatches first: when the event that wakes a node wakes id itself,
// id keeps running without a switch; otherwise it hands control on and
// waits its turn.
func (f *Fabric) park(id int) (now float64, ok bool) {
	f.running--
	if f.running == 0 {
		w := f.dispatch()
		if w == id {
			now = f.now
			f.mu.Unlock()
			return now, true
		}
		if w >= 0 {
			f.handOff(w)
		}
	}
	f.wait(id)
	now, ok = f.now, !f.closed
	f.mu.Unlock()
	return now, ok
}

// delay draws one message delay from the fault stream. Caller holds f.mu.
func (f *Fabric) delay() float64 {
	if f.faults.Latency <= 0 && f.faults.Reorder <= 0 {
		return 0
	}
	mean := f.faults.Latency
	if mean <= 0 {
		mean = reorderBaseDelay
	}
	var d float64
	if f.faults.Latency > 0 {
		d = f.frng.ExpFloat64() * f.faults.Latency
	}
	if f.faults.Reorder > 0 && f.frng.Bernoulli(f.faults.Reorder) {
		d += f.frng.ExpFloat64() * mean
	}
	return d
}

// reorderBaseDelay is the mean of the extra reorder delay when no base
// latency is configured (pure-reorder fault injection still needs a
// timescale to shuffle messages across).
const reorderBaseDelay = 0.5

// drop draws one drop decision from the fault stream. Caller holds f.mu.
func (f *Fabric) drop() bool {
	return f.faults.Drop > 0 && f.frng.Bernoulli(f.faults.Drop)
}

// fabClock is node id's view of the fabric's shared virtual timeline.
type fabClock struct {
	f  *Fabric
	id int
}

// Sleep implements Clock: it schedules a wake event d units ahead and
// parks the caller; if it was the last node running, it dispatches until
// some node wakes, possibly itself. On a closed fabric it returns at once.
func (c fabClock) Sleep(d float64) (float64, bool) {
	f := c.f
	f.mu.Lock()
	if f.closed {
		now := f.now
		f.mu.Unlock()
		return now, false
	}
	f.schedule(f.now+d, event{kind: evWake, node: int32(c.id)})
	return f.park(c.id)
}

// Done implements Clock: the node is finished for good. If it was the last
// node running it dispatches, and hands control to the node woken, before
// it returns.
func (c fabClock) Done() {
	f := c.f
	f.mu.Lock()
	defer f.mu.Unlock()
	f.running--
	f.live--
	f.nodes[c.id].live = false
	if !f.closed && f.running == 0 {
		if w := f.dispatch(); w >= 0 {
			f.handOff(w)
		}
	}
}

// fabConn is node id's endpoint on the fabric.
type fabConn struct {
	f  *Fabric
	id int
}

// Pull implements Conn. Each request is delivered to the responder's
// handler after its (possibly zero) latency draw; the reply travels back
// with an independent draw. The requester wakes when all replies landed,
// which unlinks its timeout, or at the timeout — the release path when
// replies were dropped or the fabric closes. The replies are the node's
// own buffer, which its next Pull clears and refills.
func (c fabConn) Pull(peers []int, timeout float64) []PullReply {
	f := c.f
	f.mu.Lock()
	nd := &f.nodes[c.id]
	if cap(nd.replies) < len(peers) {
		nd.replies = make([]PullReply, len(peers))
	}
	nd.replies = nd.replies[:len(peers)]
	replies := nd.replies
	clear(replies)
	if f.closed {
		f.mu.Unlock()
		return replies
	}
	nd.missing = len(peers)
	for i, p := range peers {
		f.stats.Requests++
		if f.drop() {
			// Lost request: the slot stays !OK and the requester waits out
			// the timeout — it has no way to know the message vanished.
			f.stats.Dropped++
			continue
		}
		f.schedule(f.now+f.delay(), event{kind: evRequest, node: int32(c.id), peer: int32(p), slot: int32(i), gen: nd.gen})
	}
	f.scheduleTimeout(int32(c.id), f.now+timeout)
	f.park(c.id)
	return replies
}

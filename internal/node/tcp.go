package node

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"plurality/internal/population"
)

// DefaultUnit is the wall-clock length of one parallel-time unit on the
// TCP mesh when the caller passes 0.
const DefaultUnit = 10 * time.Millisecond

// TCP is the socket transport: one listener per process, length-prefixed
// binary frames, per-peer-host connection reuse with pipelined
// request/reply matching, and graceful shutdown. Node id is hosted by
// process id % len(hosts); a process demuxes inbound requests to its
// local nodes by Message.To. Time is scaled wall clock (Unit per
// parallel-time unit), so TCP runs exercise the real asynchronous model —
// they are gated end-to-end (consensus reached), not distributionally.
type TCP struct {
	hosts []string
	local int
	n     int
	unit  time.Duration

	lis   net.Listener
	start time.Time

	mu       sync.Mutex
	handlers map[int]Handler
	conns    map[net.Conn]struct{}
	closed   bool

	peers []*peerConn

	stop chan struct{}

	requests  atomic.Int64
	responses atomic.Int64
	dropped   atomic.Int64

	lastInbound atomic.Int64 // unix nanos of the last inbound request
}

// peerConn is the reusable client side toward one peer process.
type peerConn struct {
	addr string

	mu      sync.Mutex // guards conn/pending lifecycle
	conn    net.Conn
	pending map[uint64]chan Message

	wmu sync.Mutex // serializes frame writes
	seq atomic.Uint64
}

// NewTCPMesh creates the socket transport for an n-node cluster spread
// over the processes at hosts; local is this process's index into hosts.
// The listener binds immediately on hosts[local] — pass a ":0" port to let
// the kernel pick one (Addr reports the bound address). unit 0 means
// DefaultUnit.
func NewTCPMesh(hosts []string, local, n int, unit time.Duration) (*TCP, error) {
	if len(hosts) == 0 {
		return nil, errors.New("node: tcp mesh needs at least one host")
	}
	if local < 0 || local >= len(hosts) {
		return nil, fmt.Errorf("node: local index %d out of range [0,%d)", local, len(hosts))
	}
	if unit <= 0 {
		unit = DefaultUnit
	}
	lis, err := net.Listen("tcp", hosts[local])
	if err != nil {
		return nil, fmt.Errorf("node: listen %s: %w", hosts[local], err)
	}
	t := &TCP{
		hosts:    append([]string(nil), hosts...),
		local:    local,
		n:        n,
		unit:     unit,
		lis:      lis,
		handlers: make(map[int]Handler),
		conns:    make(map[net.Conn]struct{}),
		peers:    make([]*peerConn, len(hosts)),
		stop:     make(chan struct{}),
	}
	t.hosts[local] = lis.Addr().String()
	for i, h := range t.hosts {
		t.peers[i] = &peerConn{addr: h, pending: make(map[uint64]chan Message)}
	}
	return t, nil
}

// Addr is the listener's bound address (useful with a ":0" listen spec).
func (t *TCP) Addr() string { return t.lis.Addr().String() }

// Owner maps a node id to the index of its hosting process.
func (t *TCP) Owner(id int) int { return id % len(t.hosts) }

// Bind implements Network.
func (t *TCP) Bind(id int, h Handler) (Conn, error) {
	if t.Owner(id) != t.local {
		return nil, fmt.Errorf("node: node %d is owned by host %d, not %d", id, t.Owner(id), t.local)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.handlers[id]; dup {
		return nil, fmt.Errorf("node: node %d already bound", id)
	}
	t.handlers[id] = h
	return tcpConn{t: t, id: id}, nil
}

// Clock implements Network: scaled wall clock, shared shutdown signal.
func (t *TCP) Clock(id int) Clock {
	return &tcpClock{t: t}
}

// Run implements Network: it launches the accept loop, runs every body on
// a goroutine of its own, and waits for all of them. The listener is
// already bound (NewTCPMesh), so peers that started earlier can connect
// even before Run — their frames queue in the kernel until the serve loop
// drains them.
//
// On a multi-host mesh Run then keeps serving: the peers' nodes may still
// be running, and their last pulls, the termination gadget's confirmations
// among them, need answers from this process's halted nodes. It returns
// once inbound pulls have been idle for lingerIdle, after lingerMax at
// most, or when Close stops the mesh.
func (t *TCP) Run(ids []int, body func(i int)) error {
	t.start = time.Now()
	go t.acceptLoop()
	var wg sync.WaitGroup
	wg.Add(len(ids))
	for i := range ids {
		go func() {
			defer wg.Done()
			body(i)
		}()
	}
	wg.Wait()
	if len(t.hosts) > 1 {
		t.linger()
	}
	return nil
}

// How long a multi-host mesh keeps serving after its local nodes halt.
const (
	lingerIdle = 250 * time.Millisecond
	lingerMax  = 10 * time.Second
)

// linger serves inbound pulls until they have been idle for lingerIdle,
// lingerMax has passed, or the mesh closes.
func (t *TCP) linger() {
	deadline := time.Now().Add(lingerMax)
	t.lastInbound.CompareAndSwap(0, time.Now().UnixNano())
	for {
		idle := time.Since(time.Unix(0, t.lastInbound.Load()))
		wait := min(lingerIdle-idle, time.Until(deadline))
		if wait <= 0 {
			return
		}
		select {
		case <-t.stop:
			return
		case <-time.After(wait):
		}
	}
}

// Close implements Network: it stops the accept loop, closes every
// connection, and releases blocked clocks and pulls. Idempotent.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	t.lis.Close()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	for _, p := range t.peers {
		p.mu.Lock()
		if p.conn != nil {
			p.conn.Close()
			p.conn = nil
		}
		for seq, ch := range p.pending {
			close(ch)
			delete(p.pending, seq)
		}
		p.mu.Unlock()
	}
	return nil
}

// Stats implements Network.
func (t *TCP) Stats() Stats {
	return Stats{
		Requests:  t.requests.Load(),
		Responses: t.responses.Load(),
		Dropped:   t.dropped.Load(),
	}
}

func (t *TCP) acceptLoop() {
	for {
		c, err := t.lis.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		go t.serve(c)
	}
}

// serve handles one inbound connection: read a request frame, demux to
// the local node's handler, write the reply. Replies for one connection
// are written sequentially by this goroutine, so no write lock is needed.
func (t *TCP) serve(c net.Conn) {
	defer func() {
		c.Close()
		t.mu.Lock()
		delete(t.conns, c)
		t.mu.Unlock()
	}()
	for {
		m, err := ReadMessage(c)
		if err != nil {
			return
		}
		if m.Kind != KindPull {
			return
		}
		t.lastInbound.Store(time.Now().UnixNano())
		t.mu.Lock()
		h := t.handlers[int(m.To)]
		t.mu.Unlock()
		if h == nil {
			// Not ours (or not bound yet): drop the request; the
			// requester times out on this slot.
			continue
		}
		if err := WriteMessage(c, h(m)); err != nil {
			return
		}
	}
}

// request sends one pull from node from to peer id and waits for its
// reply or deadline.
func (t *TCP) request(from, id int, deadline time.Time) (Message, bool) {
	p := t.peers[t.Owner(id)]
	seq := p.seq.Add(1)
	ch := make(chan Message, 1)

	p.mu.Lock()
	if p.conn == nil {
		select {
		case <-t.stop:
			p.mu.Unlock()
			return Message{}, false
		default:
		}
		c, err := net.DialTimeout("tcp", p.addr, time.Until(deadline))
		if err != nil {
			p.mu.Unlock()
			return Message{}, false
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			p.mu.Unlock()
			c.Close()
			return Message{}, false
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		p.conn = c
		go t.readReplies(p, c)
	}
	conn := p.conn
	p.pending[seq] = ch
	p.mu.Unlock()

	req := Message{Kind: KindPull, To: uint32(id), From: uint32(from), Seq: seq}
	p.wmu.Lock()
	err := WriteMessage(conn, req)
	p.wmu.Unlock()
	if err != nil {
		t.failPeer(p, conn)
		return Message{}, false
	}

	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case m, ok := <-ch:
		if !ok {
			return Message{}, false
		}
		return m, true
	case <-timer.C:
		p.mu.Lock()
		delete(p.pending, seq)
		p.mu.Unlock()
		return Message{}, false
	case <-t.stop:
		p.mu.Lock()
		delete(p.pending, seq)
		p.mu.Unlock()
		return Message{}, false
	}
}

// readReplies is the one reader goroutine for a dialed peer connection:
// it routes reply frames to their waiting request by Seq and fails all
// pending requests when the connection dies (the next request redials).
func (t *TCP) readReplies(p *peerConn, c net.Conn) {
	for {
		m, err := ReadMessage(c)
		if err != nil {
			t.failPeer(p, c)
			return
		}
		if m.Kind != KindReply {
			t.failPeer(p, c)
			return
		}
		p.mu.Lock()
		ch := p.pending[m.Seq]
		delete(p.pending, m.Seq)
		p.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// failPeer tears down one dialed connection, releases its waiters (their
// requests come back !OK and the next request redials), and drops the
// transport's bookkeeping entry.
func (t *TCP) failPeer(p *peerConn, c net.Conn) {
	c.Close()
	p.mu.Lock()
	if p.conn == c {
		p.conn = nil
		for seq, ch := range p.pending {
			close(ch)
			delete(p.pending, seq)
		}
	}
	p.mu.Unlock()
	t.mu.Lock()
	delete(t.conns, c)
	t.mu.Unlock()
}

// tcpConn is node id's endpoint on the mesh.
type tcpConn struct {
	t  *TCP
	id int
}

// Pull implements Conn: the requests go out concurrently, each with the
// shared deadline; slots whose reply misses the deadline come back !OK.
func (c tcpConn) Pull(peers []int, timeout float64) []PullReply {
	t := c.t
	replies := make([]PullReply, len(peers))
	deadline := time.Now().Add(time.Duration(timeout * float64(t.unit)))
	var wg sync.WaitGroup
	wg.Add(len(peers))
	for i, p := range peers {
		go func(i, p int) {
			defer wg.Done()
			t.requests.Add(1)
			m, ok := t.request(c.id, p, deadline)
			if !ok {
				t.dropped.Add(1)
				return
			}
			t.responses.Add(1)
			replies[i] = PullReply{Opinion: population.Color(m.Opinion), Decided: m.Decided, OK: true}
		}(i, p)
	}
	wg.Wait()
	return replies
}

// tcpClock scales wall clock into parallel time.
type tcpClock struct {
	t *TCP
}

// Sleep implements Clock.
func (c *tcpClock) Sleep(d float64) (float64, bool) {
	t := c.t
	timer := time.NewTimer(time.Duration(d * float64(t.unit)))
	defer timer.Stop()
	select {
	case <-timer.C:
		return float64(time.Since(t.start)) / float64(t.unit), true
	case <-t.stop:
		return float64(time.Since(t.start)) / float64(t.unit), false
	}
}

// Done implements Clock; the TCP mesh needs no liveness accounting.
func (c *tcpClock) Done() {}

package node

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"plurality/internal/protocols/dynamics"
)

// TestFabricAllocsPerActivation guards the fabric's allocation budget: a
// warmed 256-node Two-Choices cluster, lossless and lossy, allocates at
// most half an object per activation over the whole run. Events are values
// in the queue lanes, every Pull of a node returns the node's one reply
// buffer and only Start-driven nodes get a wake channel, so what is left is
// the cluster's per-node set-up, each node's coroutine included.
func TestFabricAllocsPerActivation(t *testing.T) {
	for _, faults := range []Faults{{}, {Latency: 0.25, Drop: 0.01}} {
		run := func() Result {
			res, err := runFabricCluster(t, "two-choices", []int64{120, 70, 66}, 5, faults)
			if err != nil {
				t.Fatalf("%+v: %v", faults, err)
			}
			return res
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := run()
		runtime.ReadMemStats(&after)
		perTick := float64(after.Mallocs-before.Mallocs) / float64(res.Ticks)
		t.Logf("%+v: %.2f allocations per activation", faults, perTick)
		if perTick > 0.5 {
			t.Errorf("%+v: %.2f allocations per activation, want <= 0.5", faults, perTick)
		}
	}
}

// TestFabricStallReleases forces the stall that Sleep and Pull rule out: a
// lone node parks with nothing scheduled, once on a goroutine of its own
// after Start and once as a coroutine of Run. The dispatcher must record
// it, close the fabric and release the node instead of deadlocking.
func TestFabricStallReleases(t *testing.T) {
	for _, coroutine := range []bool{false, true} {
		f := NewFabric(1, 1, Faults{})
		if _, err := f.Bind(0, func(Message) Message { return Message{} }); err != nil {
			t.Fatal(err)
		}
		parked := make(chan bool, 1)
		stall := func(int) {
			f.mu.Lock()
			_, ok := f.park(0)
			parked <- ok
		}
		ran := make(chan error, 1)
		if coroutine {
			go func() { ran <- f.Run([]int{0}, stall) }()
		} else {
			if err := f.Start(); err != nil {
				t.Fatal(err)
			}
			go func() {
				stall(0)
				ran <- nil
			}()
		}
		select {
		case err := <-ran:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("coroutine=%v: the stalled node was never released", coroutine)
		}
		select {
		case ok := <-parked:
			if ok {
				t.Errorf("coroutine=%v: a stalled fabric must read as closed", coroutine)
			}
		default:
			t.Fatalf("coroutine=%v: Run returned with the stalled node still parked", coroutine)
		}
		if !errors.Is(f.Err(), errStall) {
			t.Fatalf("coroutine=%v: Err() = %v, want the stall", coroutine, f.Err())
		}
	}
}

// TestFabricTimeoutsFireInOrder drives a raw fabric that drops every
// message, so each pull ends at its timeout, and gives the three nodes'
// pulls timeouts 3, 1 and 2: they must wake in the order their timeouts
// expire. node.Run passes every pull the same timeout, so only callers like
// this one reach the timeout lane's insert ahead of its tail.
func TestFabricTimeoutsFireInOrder(t *testing.T) {
	f := NewFabric(3, 1, Faults{Drop: 1})
	conns := make([]Conn, 3)
	for i := range conns {
		var err error
		if conns[i], err = f.Bind(i, func(Message) Message { return Message{} }); err != nil {
			t.Fatal(err)
		}
	}
	type wake struct {
		id int
		at float64
	}
	var woke []wake
	timeouts := []float64{3, 1, 2}
	err := f.Run([]int{0, 1, 2}, func(i int) {
		defer f.Clock(i).Done()
		replies := conns[i].Pull([]int{(i + 1) % 3, (i + 2) % 3}, timeouts[i])
		for _, r := range replies {
			if r.OK {
				t.Errorf("node %d got a reply through a fabric that drops everything", i)
			}
		}
		f.mu.Lock()
		woke = append(woke, wake{i, f.now})
		f.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []wake{{1, 1}, {2, 2}, {0, 3}}; !slices.Equal(woke, want) {
		t.Errorf("nodes woke as %v, want %v", woke, want)
	}
	if st := f.Stats(); st.Requests != 6 || st.Dropped != 6 || st.Responses != 0 {
		t.Errorf("stats %+v, want 6 requests, all dropped", st)
	}
}

// stalledNet is a fabric that reports a stall once the run is over, as if
// its dispatcher had found every node blocked with nothing scheduled.
type stalledNet struct{ *Fabric }

func (stalledNet) Err() error { return errStall }

// TestClusterReportsTransportErr: a transport error outranks the run's own
// outcome, so a stall after consensus is not reported as success.
func TestClusterReportsTransportErr(t *testing.T) {
	res, err := Run(context.Background(), ClusterConfig{
		Rule:    lookupRule(t, "two-choices"),
		Counts:  []int64{40, 24},
		Seed:    7,
		Network: stalledNet{NewFabric(64, 7, Faults{})},
	})
	if !errors.Is(err, errStall) {
		t.Fatalf("got %v, want the transport's stall error", err)
	}
	if !res.Done {
		t.Error("the stub stalls only after the run; consensus should still be reported")
	}
}

// TestFabricCancelMidRun cancels lossy clusters at random points of their
// run, from the context watcher while some node goroutine is dispatching,
// and checks that every Run returns, with a stop or success.
func TestFabricCancelMidRun(t *testing.T) {
	rule := lookupRule(t, "two-choices")
	r := rand.New(rand.NewSource(1))
	rounds := 20
	if testing.Short() {
		rounds = 5
	}
	for i := 0; i < rounds; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func(seed uint64) {
			_, err := Run(ctx, ClusterConfig{
				Rule:    rule,
				Counts:  []int64{50, 50},
				Seed:    seed,
				Network: NewFabric(100, seed, Faults{Latency: 0.1, Drop: 0.05, Reorder: 0.2}),
			})
			done <- err
		}(uint64(i + 1))
		time.Sleep(time.Duration(r.Intn(10000)) * time.Microsecond)
		cancel()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, dynamics.ErrStopped) {
				t.Fatalf("round %d: got %v, want ErrStopped or success", i, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: canceled cluster never returned", i)
		}
	}
}

// TestFabricRunRejects: Run runs no body for an unbound or repeated id, or
// on a fabric already started, and a rejected Run leaves the fabric as it
// was, so a valid Run still runs every body.
func TestFabricRunRejects(t *testing.T) {
	f := NewFabric(3, 1, Faults{})
	for _, id := range []int{0, 1} {
		if _, err := f.Bind(id, func(Message) Message { return Message{} }); err != nil {
			t.Fatal(err)
		}
	}
	ran := 0
	body := func(int) { ran++ }
	for _, ids := range [][]int{{0, 2}, {0, 1, 0}, {-1}} {
		if err := f.Run(ids, body); err == nil {
			t.Errorf("Run(%v) accepted", ids)
		}
	}
	if ran != 0 {
		t.Fatalf("rejected Runs ran %d bodies", ran)
	}
	if err := f.Run([]int{0, 1}, func(i int) { ran++; f.Clock(i).Done() }); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Errorf("Run ran %d bodies, want 2", ran)
	}
	if err := f.Run([]int{0, 1}, body); err == nil {
		t.Error("a second Run accepted")
	}
	if err := f.Start(); err == nil {
		t.Error("Start after Run accepted")
	}
}

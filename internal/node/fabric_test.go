package node

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"plurality/internal/protocols/dynamics"
)

// TestFabricAllocsPerActivation guards the fabric's allocation budget: a
// warmed 256-node Two-Choices cluster, lossless and lossy, allocates at
// most two objects per activation over the whole run. Events are values on
// the heap and each node's wake channel is made once at Bind, so what is
// left is the []PullReply each Pull returns plus the cluster's per-node
// set-up.
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
		if perTick > 2 {
			t.Errorf("%+v: %.2f allocations per activation, want <= 2", faults, perTick)
		}
	}
}

// TestFabricStallReleases forces the stall that Sleep and Pull rule out: a
// lone node parks with nothing scheduled. The dispatcher must record it,
// close the fabric and release the node instead of deadlocking.
func TestFabricStallReleases(t *testing.T) {
	f := NewFabric(1, 1, Faults{})
	if _, err := f.Bind(0, func(Message) Message { return Message{} }); err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	parked := make(chan bool, 1)
	go func() {
		f.mu.Lock()
		_, ok := f.park(0)
		parked <- ok
	}()
	select {
	case ok := <-parked:
		if ok {
			t.Error("a stalled fabric must read as closed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the stalled node was never released")
	}
	if !errors.Is(f.Err(), errStall) {
		t.Fatalf("Err() = %v, want the stall", f.Err())
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

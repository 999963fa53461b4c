package node

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"plurality/internal/protocols/dynamics"
)

// waitGoroutines retries until the goroutine count settles at or below
// bound (exits of finished goroutines lag their wg.Done), mirroring
// internal/service's SSE leak test.
func waitGoroutines(t *testing.T, bound int) {
	t.Helper()
	var g int
	for i := 0; i < 100; i++ {
		g = runtime.NumGoroutine()
		if g <= bound {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d alive, want <= %d", g, bound)
}

// TestClusterShutdownNoGoroutineLeak starts and stops 100-node fabric
// clusters — some to completion, some canceled mid-run — and asserts the
// goroutine count returns to baseline each round.
func TestClusterShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	rule := lookupRule(t, "two-choices")
	for round := 0; round < 3; round++ {
		// To completion.
		if _, err := Run(context.Background(), ClusterConfig{
			Rule:    rule,
			Counts:  []int64{60, 40},
			Seed:    uint64(round + 1),
			Network: NewFabric(100, uint64(round+1), Faults{}),
		}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// Canceled almost immediately: every node must still unwind.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(time.Millisecond)
			cancel()
		}()
		Run(ctx, ClusterConfig{
			Rule:    rule,
			Counts:  []int64{50, 50},
			Seed:    uint64(round + 1),
			Network: NewFabric(100, uint64(round+1), Faults{Latency: 0.05, Drop: 0.02}),
		})
		waitGoroutines(t, before+3)
	}
}

// TestClusterCanceledBeforeRun: a context canceled before the run starts
// closes the network before any node runs, so no node activates, Run
// reports ErrStopped, and every node's coroutine still unwinds. In the
// two-node cluster a single activation would reach consensus.
func TestClusterCanceledBeforeRun(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, counts := range [][]int64{{1, 1}, {60, 40}} {
		n := int(counts[0] + counts[1])
		res, err := Run(ctx, ClusterConfig{
			Rule:    lookupRule(t, "two-choices"),
			Counts:  counts,
			Seed:    1,
			Network: NewFabric(n, 1, Faults{}),
		})
		if !errors.Is(err, dynamics.ErrStopped) {
			t.Fatalf("%v: got %v, want ErrStopped", counts, err)
		}
		if res.Ticks != 0 || res.Messages != 0 {
			t.Errorf("%v: %d activations and %d messages after cancellation, want none", counts, res.Ticks, res.Messages)
		}
		waitGoroutines(t, before)
	}
}

// TestTCPShutdownClosesSockets runs a 100-node TCP cluster, then asserts
// goroutines return to baseline and the listener socket actually closed
// (a fresh dial must fail).
func TestTCPShutdownClosesSockets(t *testing.T) {
	before := runtime.NumGoroutine()
	mesh, err := NewTCPMesh([]string{"127.0.0.1:0"}, 0, 100, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	addr := mesh.Addr()
	res, err := Run(context.Background(), ClusterConfig{
		Rule:    lookupRule(t, "two-choices"),
		Counts:  []int64{60, 40},
		Seed:    2,
		MaxTime: 5000,
		Network: mesh,
	})
	if err != nil {
		t.Fatalf("tcp cluster: %v", err)
	}
	if !res.Done {
		t.Fatal("tcp cluster did not converge")
	}
	waitGoroutines(t, before+3)
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatalf("listener %s still accepting after Close", addr)
	}
}

// TestTCPCancelClosesEverything cancels a TCP cluster mid-run; sockets
// and goroutines must still unwind.
func TestTCPCancelClosesEverything(t *testing.T) {
	before := runtime.NumGoroutine()
	mesh, err := NewTCPMesh([]string{"127.0.0.1:0"}, 0, 100, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	addr := mesh.Addr()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	Run(ctx, ClusterConfig{
		Rule:    lookupRule(t, "voter"),
		Counts:  []int64{50, 50},
		Seed:    3,
		Network: mesh,
	})
	waitGoroutines(t, before+3)
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatalf("listener %s still accepting after cancel", addr)
	}
}

package node

import (
	"context"
	"errors"
	"net"
	"testing"
	"testing/quick"
	"time"

	"plurality/internal/population"
	"plurality/internal/protocols"
	"plurality/internal/protocols/dynamics"
)

func lookupRule(t testing.TB, spec string) dynamics.Rule {
	t.Helper()
	_, rule, err := protocols.Lookup(spec)
	if err != nil {
		t.Fatalf("lookup %s: %v", spec, err)
	}
	return rule
}

func runFabricCluster(t testing.TB, spec string, counts []int64, seed uint64, faults Faults) (Result, error) {
	t.Helper()
	var n int64
	for _, c := range counts {
		n += c
	}
	return Run(context.Background(), ClusterConfig{
		Rule:    lookupRule(t, spec),
		Counts:  counts,
		Seed:    seed,
		Network: NewFabric(int(n), seed, faults),
	})
}

func TestClusterConvergesCleanFabric(t *testing.T) {
	for _, spec := range []string{"two-choices", "3-majority", "usd"} {
		res, err := runFabricCluster(t, spec, []int64{40, 24}, 7, Faults{})
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !res.Done || res.Winner != 0 {
			t.Fatalf("%s: done=%v winner=%d, want majority win", spec, res.Done, res.Winner)
		}
		if res.Halted != 64 {
			t.Errorf("%s: %d/64 nodes halted through the gadget", spec, res.Halted)
		}
		if res.ConsensusTime <= 0 || res.Time < res.ConsensusTime {
			t.Errorf("%s: consensus %.3f, total %.3f", spec, res.ConsensusTime, res.Time)
		}
		if res.Messages <= 0 || res.Responses != res.Messages || res.Dropped != 0 {
			t.Errorf("%s: messages=%d responses=%d dropped=%d on a clean fabric",
				spec, res.Messages, res.Responses, res.Dropped)
		}
	}
}

func TestClusterConvergesLossyFabric(t *testing.T) {
	res, err := runFabricCluster(t, "two-choices", []int64{40, 24}, 3,
		Faults{Latency: 0.02, Drop: 0.05, Reorder: 0.1})
	if err != nil {
		t.Fatalf("lossy cluster: %v", err)
	}
	if !res.Done {
		t.Fatal("lossy cluster did not converge")
	}
	if res.Dropped == 0 {
		t.Error("drop injection at 5% produced no drops")
	}
	if res.Responses >= res.Messages {
		t.Errorf("responses %d not below requests %d under drops", res.Responses, res.Messages)
	}
}

// TestClusterDeterministic is the quick.Check determinism property: for
// any seed and any (bounded) fault mix, two runs of the same cluster are
// field-for-field identical, including message accounting.
func TestClusterDeterministic(t *testing.T) {
	property := func(seed uint64, latP, dropP, reoP uint8) bool {
		faults := Faults{
			Latency: float64(latP%50) / 100,  // 0 … 0.49 time units
			Drop:    float64(dropP%16) / 100, // 0 … 15%
			Reorder: float64(reoP%30) / 100,  // 0 … 29%
		}
		a, errA := runFabricCluster(t, "two-choices", []int64{24, 16}, seed, faults)
		b, errB := runFabricCluster(t, "two-choices", []int64{24, 16}, seed, faults)
		if (errA == nil) != (errB == nil) {
			return false
		}
		return a == b
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestClusterUSDUndecidedAccounting(t *testing.T) {
	// USD passes through the undecided state; at exit the cluster must be
	// unanimous with zero undecided nodes.
	res, err := runFabricCluster(t, "usd", []int64{30, 18}, 5, Faults{})
	if err != nil {
		t.Fatalf("usd: %v", err)
	}
	if res.Undecided != 0 {
		t.Errorf("undecided=%d at consensus", res.Undecided)
	}
}

func TestClusterMaxTime(t *testing.T) {
	// Voter from a dead-even split with a tiny budget: the cluster must
	// report ErrTimeLimit, not hang and not halt.
	var n int64 = 40
	res, err := Run(context.Background(), ClusterConfig{
		Rule:    lookupRule(t, "voter"),
		Counts:  []int64{n / 2, n / 2},
		Seed:    1,
		MaxTime: 0.5,
		Network: NewFabric(int(n), 1, Faults{}),
	})
	if !errors.Is(err, dynamics.ErrTimeLimit) {
		t.Fatalf("got %v, want ErrTimeLimit", err)
	}
	if res.Done {
		t.Error("Done=true on a budget-limited run")
	}
}

func TestClusterContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	// An even voter split takes a long time at n=512; cancellation must
	// cut it short with ErrStopped semantics.
	res, err := Run(ctx, ClusterConfig{
		Rule:    lookupRule(t, "voter"),
		Counts:  []int64{256, 256},
		Seed:    1,
		Network: NewFabric(512, 1, Faults{}),
	})
	if err == nil {
		t.Fatalf("canceled run returned nil error (done=%v)", res.Done)
	}
	if !errors.Is(err, dynamics.ErrStopped) && !errors.Is(err, dynamics.ErrTimeLimit) {
		t.Fatalf("got %v, want ErrStopped", err)
	}
}

func TestClusterInitialUnanimity(t *testing.T) {
	res, err := runFabricCluster(t, "two-choices", []int64{16}, 1, Faults{})
	if err != nil {
		t.Fatalf("unanimous start: %v", err)
	}
	if !res.Done || res.ConsensusTime != 0 || res.Winner != 0 {
		t.Fatalf("unanimous start: done=%v t=%.3f winner=%d", res.Done, res.ConsensusTime, res.Winner)
	}
}

func TestClusterRejectsBadConfig(t *testing.T) {
	rule := lookupRule(t, "two-choices")
	cases := []ClusterConfig{
		{Counts: []int64{4, 4}, Network: NewFabric(8, 1, Faults{})},          // nil rule
		{Rule: rule, Counts: []int64{4, 4}},                                  // nil network
		{Rule: rule, Counts: []int64{1}, Network: NewFabric(1, 1, Faults{})}, // n < 2
		{Rule: rule, Counts: []int64{-1, 4}, Network: NewFabric(3, 1, Faults{})},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// TestTCPClusterConverges: on wall clock the winner is not a function of
// the seed, so the start is one whose minority never won over 10⁴ seeds on
// the lossless fabric; a transport that biases runs toward the minority
// still fails the majority check.
func TestTCPClusterConverges(t *testing.T) {
	mesh, err := NewTCPMesh([]string{"127.0.0.1:0"}, 0, 48, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), ClusterConfig{
		Rule:    lookupRule(t, "two-choices"),
		Counts:  []int64{40, 8},
		Seed:    9,
		MaxTime: 2000,
		Network: mesh,
	})
	if err != nil {
		t.Fatalf("tcp cluster: %v", err)
	}
	if !res.Done || res.Winner != 0 {
		t.Fatalf("tcp cluster: done=%v winner=%d", res.Done, res.Winner)
	}
	if res.Messages == 0 {
		t.Error("tcp cluster exchanged no messages")
	}
}

// TestTCPTwoProcessMesh exercises the multi-process demux path in one
// process: two meshes on distinct listeners, each hosting half the node
// ids, pulling across real sockets. Each mesh keeps serving after its own
// nodes halt, so neither side loses a pull: the unit is long enough that
// no pull times out on a loaded machine, and the side that halts first
// still answers the other's last ones. From 27:5 the minority never won
// over 10⁴ seeds on the lossless fabric.
func TestTCPTwoProcessMesh(t *testing.T) {
	const n = 32
	// Reserve two concrete loopback addresses so both meshes can be built
	// with the full host list (the usual bind-then-close port pattern;
	// Go's listeners set SO_REUSEADDR).
	free := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	hosts := []string{free(), free()}
	const unit = 25 * time.Millisecond // an 8-unit pull timeout is 200ms
	lisA, err := NewTCPMesh(hosts, 0, n, unit)
	if err != nil {
		t.Fatal(err)
	}
	lisB, err := NewTCPMesh(hosts, 1, n, unit)
	if err != nil {
		t.Fatal(err)
	}
	defer lisA.Close()
	defer lisB.Close()

	counts := []int64{27, 5}
	rule := lookupRule(t, "two-choices")
	type out struct {
		res Result
		err error
	}
	results := make(chan out, 2)
	for i, mesh := range []*TCP{lisA, lisB} {
		go func() {
			res, err := Run(context.Background(), ClusterConfig{
				Rule:    rule,
				Counts:  counts,
				Seed:    13,
				MaxTime: 2000,
				Network: mesh,
				Local:   func(id int) bool { return id%2 == i },
			})
			results <- out{res, err}
		}()
	}
	var winners []population.Color
	for i := 0; i < 2; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("process %d: %v", i, o.err)
		}
		if !o.res.Done {
			t.Fatalf("process %d: no local consensus", i)
		}
		if o.res.Dropped != 0 {
			t.Errorf("process %d: %d of %d pulls dropped", i, o.res.Dropped, o.res.Messages)
		}
		winners = append(winners, o.res.Winner)
	}
	if winners[0] != winners[1] {
		t.Fatalf("split brain: winners %v", winners)
	}
	if winners[0] != 0 {
		t.Errorf("winner %d, want majority color 0", winners[0])
	}
}

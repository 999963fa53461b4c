package plurality_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"plurality"
)

// TestNodeRuntimeOptionRejections is the regression contract of the
// WithTransport validation mapping: every simulator-only option must be
// rejected at NewJob, and every rejection must name the node runtime so
// the caller knows which execution path refused it — never the bare
// "would be silently ignored" mask error.
func TestNodeRuntimeOptionRejections(t *testing.T) {
	adv, err := plurality.ParseAdversary("corrupt")
	if err != nil {
		t.Fatal(err)
	}
	adv.Budget = 4
	graph, err := plurality.AnnealedRegularGraph(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opt  plurality.Option
	}{
		{"WithAdversary", plurality.WithAdversary(adv)},
		{"WithObserver", plurality.WithObserver(1, func(plurality.Snapshot) {})},
		{"WithResponseDelay", plurality.WithResponseDelay(0.5)},
		{"WithEdgeLatency", plurality.WithEdgeLatency(plurality.ExpEdgeLatency(0.1))},
		{"WithChurn", plurality.WithChurn(0.01)},
		{"WithEngine", plurality.WithEngine(plurality.EngineOccupancy)},
		{"WithGraph", plurality.WithGraph(graph)},
		{"WithCrashes", plurality.WithCrashes(0.1)},
		{"WithDesync", plurality.WithDesync(0.5, 3)},
		{"WithMaxRounds", plurality.WithMaxRounds(100)},
		{"WithLeapEpsilon", plurality.WithLeapEpsilon(0.1)},
		{"WithODEThreshold", plurality.WithODEThreshold(0.01)},
	}
	for _, tc := range cases {
		_, err := plurality.NewJob("two-choices", []int64{40, 24},
			plurality.WithTransport(plurality.NewChanTransport()), tc.opt)
		if err == nil {
			t.Errorf("%s: accepted on the node runtime", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "node runtime") {
			t.Errorf("%s: rejection does not name the node runtime: %v", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: rejection does not name the option: %v", tc.name, err)
		}
	}
}

func TestNodeRuntimeRejectsNonDynamicSpecs(t *testing.T) {
	for _, spec := range []string{"core", "onebit"} {
		_, err := plurality.NewJob(spec, []int64{40, 24},
			plurality.WithTransport(plurality.NewChanTransport()))
		if err == nil || !strings.Contains(err.Error(), "node runtime") {
			t.Errorf("%s: got %v, want a node-runtime rejection", spec, err)
		}
	}
	// Registry protocol, but the synchronous model — also simulator-only.
	_, err := plurality.NewJob("two-choices", []int64{40, 24},
		plurality.WithTransport(plurality.NewChanTransport()),
		plurality.WithModel(plurality.Synchronous))
	if err == nil || !strings.Contains(err.Error(), "node runtime") {
		t.Errorf("synchronous: got %v, want a node-runtime rejection", err)
	}
	// Asynchronous but not Poisson: the node runtime cannot emulate the
	// sequential schedule.
	_, err = plurality.NewJob("two-choices", []int64{40, 24},
		plurality.WithTransport(plurality.NewChanTransport()),
		plurality.WithModel(plurality.Sequential))
	if err == nil || !strings.Contains(err.Error(), "node runtime") {
		t.Errorf("sequential: got %v, want a node-runtime rejection", err)
	}
	// A nil transport is a configuration bug, not a silent fallback.
	_, err = plurality.NewJob("two-choices", []int64{40, 24}, plurality.WithTransport(nil))
	if err == nil || !strings.Contains(err.Error(), "node runtime") {
		t.Errorf("nil transport: got %v, want a node-runtime rejection", err)
	}
}

func TestClusterAPI(t *testing.T) {
	c, err := plurality.NewCluster(plurality.NodeConfig{
		Protocol: "two-choices",
		Counts:   []int64{40, 24},
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("converged=%v winner=%d", rep.Converged, rep.Winner)
	}
	if rep.Kind != plurality.KindDynamic || rep.Protocol != "two-choices" {
		t.Errorf("kind=%v protocol=%q", rep.Kind, rep.Protocol)
	}
	if rep.Messages == 0 {
		t.Error("cluster run reports zero messages")
	}
	if rep.ConsensusTime <= 0 || rep.Time < rep.ConsensusTime {
		t.Errorf("consensus time %.3f, total %.3f", rep.ConsensusTime, rep.Time)
	}
	// Re-running the same cluster is allowed and bit-identical.
	rep2, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep != rep2 {
		t.Errorf("re-run drifted: %+v vs %+v", rep, rep2)
	}
}

func TestClusterTrialsDeterministic(t *testing.T) {
	job, err := plurality.NewJob("usd", []int64{30, 18},
		plurality.WithSeed(5),
		plurality.WithTransport(plurality.NewLossyChanTransport(plurality.NetFaults{
			Latency: 0.05, Drop: 0.02, Reorder: 0.1,
		})))
	if err != nil {
		t.Fatal(err)
	}
	a, err := job.Trials(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := job.Trials(context.Background(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d drifted:\n%+v\n%+v", i, a[i], b[i])
		}
	}
	// Trial 0 must equal a plain Run (the Trials seed contract).
	rep, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != rep {
		t.Fatalf("trial 0 %+v != Run %+v", a[0], rep)
	}
}

// TestClusterTCPTransport starts from 40:8: on wall clock the winner is not
// a function of the seed, and from there the minority never won over 10⁴
// seeds on the lossless fabric.
func TestClusterTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets and wall-clock timers")
	}
	c, err := plurality.NewCluster(plurality.NodeConfig{
		Protocol:  "two-choices",
		Counts:    []int64{40, 8},
		Seed:      5,
		MaxTime:   2000,
		Transport: plurality.NewTCPTransport(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Converged || rep.Winner != 0 {
		t.Fatalf("tcp: converged=%v winner=%d", rep.Converged, rep.Winner)
	}
}

func TestClusterRunOnRejected(t *testing.T) {
	job, err := plurality.NewJob("two-choices", []int64{8, 8},
		plurality.WithTransport(plurality.NewChanTransport()))
	if err != nil {
		t.Fatal(err)
	}
	pop, err := plurality.NewPopulation([]int64{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.RunOn(context.Background(), pop); err == nil {
		t.Error("RunOn accepted a node-runtime job")
	}
}

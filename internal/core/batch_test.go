package core

import (
	"testing"

	"plurality/internal/graph"
	"plurality/internal/population"
	"plurality/internal/rng"
	"plurality/internal/sched"
)

// nextOnly hides a scheduler's NextBatch so Run falls back to the per-tick
// path, letting tests compare the two drivers on identical tick streams.
type nextOnly struct{ s sched.Scheduler }

func (w nextOnly) Next() sched.Tick { return w.s.Next() }
func (w nextOnly) N() int           { return w.s.N() }

// TestBatchedRunMatchesPerTick pins down the batching refactor: for a fixed
// seed, Run must produce bit-identical results whether ticks are delivered
// one at a time or in batches, under every engine and under the probe/delay
// configurations that route through the general path. On the clique the
// Poisson runs outlast the feed's synchronous prefix, so the fast loop's
// draw-ahead path is pinned too.
func TestBatchedRunMatchesPerTick(t *testing.T) {
	const n = 600
	mkSched := map[string]func(r *rng.RNG) (sched.Scheduler, error){
		"sequential": func(r *rng.RNG) (sched.Scheduler, error) { return sched.NewSequential(n, r) },
		"poisson":    func(r *rng.RNG) (sched.Scheduler, error) { return sched.NewPoisson(n, 1, r) },
		"heap":       func(r *rng.RNG) (sched.Scheduler, error) { return sched.NewHeapPoisson(n, 1, r) },
	}
	variants := map[string]func(*Config){
		"base":   func(*Config) {},
		"probe":  func(cfg *Config) { cfg.ProbeInterval = 5; cfg.OnProbe = func(Probe) {} },
		"delay":  func(cfg *Config) { cfg.Delay = sched.ExpDelay{Rate: 4} },
		"faults": func(cfg *Config) { cfg.CrashFraction = 0.1; cfg.DesyncFraction = 0.1; cfg.DesyncSpread = 50 },
	}

	for schedName, mk := range mkSched {
		for varName, mutate := range variants {
			runOnce := func(batched bool) Result {
				counts, err := population.BiasedCounts(n, 4, 1)
				if err != nil {
					t.Fatal(err)
				}
				pop, err := population.FromCounts(counts)
				if err != nil {
					t.Fatal(err)
				}
				g, err := graph.NewComplete(n)
				if err != nil {
					t.Fatal(err)
				}
				s, err := mk(rng.At(77, 0))
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{Graph: g, Scheduler: s, Rand: rng.At(77, 1), MaxTime: 1e5}
				if !batched {
					cfg.Scheduler = nextOnly{s}
				}
				mutate(&cfg)
				res, err := Run(pop, cfg)
				if err != nil {
					t.Fatalf("%s/%s batched=%v: %v", schedName, varName, batched, err)
				}
				return res
			}
			a, b := runOnce(false), runOnce(true)
			if a != b {
				t.Errorf("%s/%s: per-tick result %+v != batched result %+v", schedName, varName, a, b)
			}
			// Past the feed's synchronous prefix the batched Poisson runs
			// of the fast loop take their ticks from its producer.
			if schedName == "poisson" && b.Ticks <= sched.FeedSyncTicks {
				t.Errorf("%s/%s: %d ticks end the run before the feed runs ahead", schedName, varName, b.Ticks)
			}
		}
	}
}

// TestSmallPopulations is the n < 20 regression suite: probing and fault
// injection on single-digit populations must not panic on degenerate
// quantile indices and must still reach consensus.
func TestSmallPopulations(t *testing.T) {
	for n := 4; n < 20; n++ {
		counts := make([]int64, 2)
		counts[0] = int64(n) - int64(n)/2
		counts[1] = int64(n) / 2
		pop, err := population.FromCounts(counts)
		if err != nil {
			t.Fatal(err)
		}
		g, err := graph.NewComplete(n)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sched.NewPoisson(n, 1, rng.At(uint64(n), 0))
		if err != nil {
			t.Fatal(err)
		}
		probes := 0
		cfg := Config{
			Graph:          g,
			Scheduler:      s,
			Rand:           rng.At(uint64(n), 1),
			MaxTime:        1e6,
			DesyncFraction: 0.05,
			DesyncSpread:   3,
			ProbeInterval:  50,
			OnProbe: func(p Probe) {
				probes++
				if p.Spread90 < 0 || p.MaxAbsDev < 0 || p.Active < 0 {
					t.Errorf("n=%d: malformed probe %+v", n, p)
				}
			},
		}
		res, err := Run(pop, cfg)
		if err != nil {
			t.Errorf("n=%d: %v", n, err)
			continue
		}
		if !res.Done {
			t.Errorf("n=%d: no consensus: %+v", n, res)
		}
		if probes == 0 {
			t.Errorf("n=%d: probe never fired", n)
		}
	}
}

// TestDesyncAtLeastOneNode: a positive DesyncFraction must desynchronize at
// least one node even when fraction·n rounds down to zero.
func TestDesyncAtLeastOneNode(t *testing.T) {
	const n = 10
	counts := []int64{6, 4}
	pop, err := population.FromCounts(counts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.NewComplete(n)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.NewSequential(n, rng.At(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: g, Scheduler: s, Rand: rng.At(3, 1), MaxTime: 1e5,
		DesyncFraction: 0.05, // 0.05·10 = 0.5 → rounds down to zero nodes
		DesyncSpread:   1000,
	}
	spec, err := Plan(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	var st state
	if err := st.reset(pop, cfg, spec); err != nil {
		t.Fatal(err)
	}
	desynced := 0
	for u := 0; u < n; u++ {
		if st.working[u] != 0 {
			desynced++
		}
	}
	if desynced != 1 {
		t.Errorf("desynced %d nodes, want exactly 1 (rounded up from 0.5)", desynced)
	}
}

func TestQuantileIndex(t *testing.T) {
	cases := []struct{ n, pct, want int }{
		{1, 5, 0}, {1, 95, 0},
		{3, 5, 0}, {3, 95, 2},
		{19, 5, 0}, {19, 95, 18},
		{100, 5, 5}, {100, 95, 95},
		{1, 100, 0}, // degenerate pct clamps instead of indexing past the end
		{5, 0, 0},
	}
	for _, c := range cases {
		if got := quantileIndex(c.n, c.pct); got != c.want {
			t.Errorf("quantileIndex(%d, %d) = %d, want %d", c.n, c.pct, got, c.want)
		}
	}
}

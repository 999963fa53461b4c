package plurality

import (
	"context"
	"errors"
	"strings"
	"testing"
)

func mustCounts(t *testing.T, n, k int) []int64 {
	t.Helper()
	counts, err := Biased(n, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func advSpec(t *testing.T, s string, budget int64) AdversarySpec {
	t.Helper()
	spec, err := ParseAdversary(s)
	if err != nil {
		t.Fatal(err)
	}
	spec.Budget = budget
	return spec
}

// TestAdversaryRegistryExports: the public re-exports resolve the same
// registry the engines use.
func TestAdversaryRegistryExports(t *testing.T) {
	if len(Adversaries()) != 5 {
		t.Fatalf("Adversaries() lists %d entries, want 5", len(Adversaries()))
	}
	d, ok := LookupAdversary("liar")
	if !ok || d.Name != "byzantine" || d.Family != AdversaryByzantine {
		t.Fatalf("LookupAdversary(liar) = %+v, %v", d, ok)
	}
	if _, ok := LookupAdversary("bogus"); ok {
		t.Fatal("LookupAdversary accepted an unknown name")
	}
}

// TestJobRejectsIncapableAdversaryPairs: every engine/family combination
// the engines cannot host must fail at NewJob, not at run time.
func TestJobRejectsIncapableAdversaryPairs(t *testing.T) {
	counts := mustCounts(t, 1024, 2)
	for _, tc := range []struct {
		name    string
		spec    string
		opts    []Option
		adv     AdversarySpec
		wantErr string
	}{
		{
			name: "leap engine rejects adversaries wholesale (mask)",
			spec: "two-choices", opts: []Option{WithEngine(EngineLeap)},
			adv:     advSpec(t, "corrupt", 8),
			wantErr: "WithAdversary",
		},
		{
			name:    "onebit rejects adversaries wholesale (mask)",
			spec:    "onebit",
			adv:     advSpec(t, "corrupt", 8),
			wantErr: "WithAdversary",
		},
		{
			name:    "core rejects byzantine lying",
			spec:    "core",
			adv:     advSpec(t, "byzantine", 8),
			wantErr: "no lying channel",
		},
		{
			name: "synchronous rounds reject scheduling bias",
			spec: "two-choices", opts: []Option{WithModel(Synchronous)},
			adv:     advSpec(t, "minority-bias", 8),
			wantErr: "no activation order",
		},
		{
			name: "occupancy rejects per-node victim sets",
			spec: "two-choices", opts: []Option{WithEngine(EngineOccupancy)},
			adv:     advSpec(t, "delay-set", 8),
			wantErr: "does not track",
		},
		{
			name:    "late needs a lag",
			spec:    "two-choices",
			adv:     AdversarySpec{Name: "late", Budget: 8},
			wantErr: "needs a positive lag",
		},
		{
			name:    "negative budget",
			spec:    "two-choices",
			adv:     AdversarySpec{Name: "corrupt", Budget: -1},
			wantErr: "budget",
		},
	} {
		opts := append([]Option{WithSeed(1)}, tc.opts...)
		opts = append(opts, WithAdversary(tc.adv))
		_, err := NewJob(tc.spec, counts, opts...)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: NewJob err = %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestJobAcceptsCapableAdversaryPairs: the supported matrix compiles.
func TestJobAcceptsCapableAdversaryPairs(t *testing.T) {
	counts := mustCounts(t, 1024, 2)
	for _, tc := range []struct {
		name string
		spec string
		opts []Option
		adv  AdversarySpec
	}{
		{name: "core + scheduling", spec: "core", adv: advSpec(t, "minority-bias", 8)},
		{name: "core + corruption", spec: "core", adv: advSpec(t, "corrupt", 8)},
		{name: "per-node + byzantine", spec: "two-choices", adv: advSpec(t, "byzantine", 8)},
		{name: "per-node + delay-set", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode)}, adv: advSpec(t, "delay-set", 8)},
		{name: "per-node + late", spec: "two-choices", adv: advSpec(t, "late:2", 8)},
		{name: "occupancy + corrupt", spec: "two-choices", opts: []Option{WithEngine(EngineOccupancy)}, adv: advSpec(t, "corrupt", 8)},
		{name: "occupancy + byzantine", spec: "voter", opts: []Option{WithEngine(EngineOccupancy)}, adv: advSpec(t, "byzantine", 8)},
		{name: "sync + corrupt", spec: "3-majority", opts: []Option{WithModel(Synchronous)}, adv: advSpec(t, "corrupt", 8)},
		{name: "sync + byzantine", spec: "3-majority", opts: []Option{WithModel(Synchronous)}, adv: advSpec(t, "byzantine", 8)},
		{name: "zero budget is inactive and fine anywhere", spec: "core", adv: advSpec(t, "byzantine", 0)},
	} {
		opts := append([]Option{WithSeed(1)}, tc.opts...)
		opts = append(opts, WithAdversary(tc.adv))
		if _, err := NewJob(tc.spec, counts, opts...); err != nil {
			t.Errorf("%s: NewJob: %v", tc.name, err)
		}
	}
}

// reportFields flattens the comparable outcome of a report.
type reportFields struct {
	converged   bool
	winner      Color
	time        float64
	ticks       int64
	rounds      int
	corruptions int64
	biased      int64
}

func fieldsOf(rep Report) reportFields {
	return reportFields{rep.Converged, rep.Winner, rep.Time, rep.Ticks, rep.Rounds, rep.Corruptions, rep.Biased}
}

// TestZeroBudgetBitIdentity: on every engine, a zero-budget adversary is
// bit-identical to not passing WithAdversary at all — no hooks, no RNG
// draws, same trajectory tick for tick.
func TestZeroBudgetBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec string
		opts []Option
	}{
		{name: "core", spec: "core"},
		{name: "per-node", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode), WithModel(Poisson)}},
		{name: "occupancy", spec: "two-choices", opts: []Option{WithEngine(EngineOccupancy), WithModel(Poisson)}},
		{name: "auto", spec: "3-majority", opts: []Option{WithModel(Poisson)}},
		{name: "sync", spec: "two-choices", opts: []Option{WithModel(Synchronous)}},
	} {
		counts := mustCounts(t, 2048, 2)
		run := func(extra ...Option) Report {
			t.Helper()
			job, err := NewJob(tc.spec, counts, append(append([]Option{WithSeed(7)}, tc.opts...), extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := job.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		clean := run()
		zero := run(WithAdversary(advSpec(t, "corrupt", 0)))
		if fieldsOf(clean) != fieldsOf(zero) {
			t.Errorf("%s: zero-budget adversary perturbed the run:\n  clean: %+v\n  zero:  %+v",
				tc.name, fieldsOf(clean), fieldsOf(zero))
		}
		if zero.Corruptions != 0 || zero.Biased != 0 {
			t.Errorf("%s: inactive adversary recorded interventions: %+v", tc.name, fieldsOf(zero))
		}
	}
}

// TestAdversaryCountersSurface: each family's counters reach the public
// Report on the engines that host it.
func TestAdversaryCountersSurface(t *testing.T) {
	for _, tc := range []struct {
		name        string
		spec        string
		opts        []Option
		adv         AdversarySpec
		corruptions bool
		biased      bool
	}{
		{name: "per-node corrupt", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode), WithModel(Poisson)}, adv: advSpec(t, "corrupt", 8), corruptions: true},
		// The byzantine and delay-set rows never converge (a 25% lie rate;
		// victims that never update), and their counters fire within the
		// first unit of time, so a short budget keeps them from burning
		// 2·10⁸ activations each up to DefaultMaxTime.
		{name: "per-node byzantine", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode), WithModel(Poisson), WithMaxTime(50)}, adv: advSpec(t, "byzantine", 512), corruptions: true},
		{name: "per-node minority-bias", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode), WithModel(Poisson)}, adv: advSpec(t, "minority-bias", 16), biased: true},
		{name: "per-node delay-set", spec: "two-choices", opts: []Option{WithEngine(EnginePerNode), WithModel(Poisson), WithMaxTime(50)}, adv: advSpec(t, "delay-set", 256), biased: true},
		{name: "occupancy corrupt", spec: "two-choices", opts: []Option{WithEngine(EngineOccupancy), WithModel(Poisson)}, adv: advSpec(t, "corrupt", 8), corruptions: true},
		{name: "sync corrupt", spec: "two-choices", opts: []Option{WithModel(Synchronous)}, adv: advSpec(t, "corrupt", 8), corruptions: true},
		{name: "core corrupt", spec: "core", adv: advSpec(t, "corrupt", 8), corruptions: true},
		{name: "core minority-bias", spec: "core", adv: advSpec(t, "minority-bias", 16), biased: true},
	} {
		counts := mustCounts(t, 2048, 2)
		job, err := NewJob(tc.spec, counts, append(append([]Option{WithSeed(3)}, tc.opts...), WithAdversary(tc.adv))...)
		if err != nil {
			t.Fatalf("%s: NewJob: %v", tc.name, err)
		}
		rep, err := job.Run(context.Background())
		if err != nil && !errors.Is(err, ErrNoConsensus) && !errors.Is(err, ErrTimeLimit) {
			t.Fatalf("%s: Run: %v", tc.name, err)
		}
		if tc.corruptions && rep.Corruptions == 0 {
			t.Errorf("%s: adversary ran but Report.Corruptions = 0 (biased = %d)", tc.name, rep.Biased)
		}
		if tc.biased && rep.Biased == 0 {
			t.Errorf("%s: adversary ran but Report.Biased = 0 (corruptions = %d)", tc.name, rep.Corruptions)
		}
	}
}

// TestAdversaryTrialsDeterministic: pooled trials under an adversary are a
// pure function of the seed — each trial constructs its own adversary from
// its derived trial seed.
func TestAdversaryTrialsDeterministic(t *testing.T) {
	counts := mustCounts(t, 1024, 2)
	run := func() []Report {
		job, err := NewJob("two-choices", counts,
			WithSeed(11), WithModel(Poisson), WithEngine(EnginePerNode),
			WithAdversary(advSpec(t, "corrupt", 6)))
		if err != nil {
			t.Fatal(err)
		}
		reps, err := job.Trials(context.Background(), 4)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}
	a, b := run(), run()
	distinct := false
	for i := range a {
		if fieldsOf(a[i]) != fieldsOf(b[i]) {
			t.Fatalf("trial %d diverged across identical runs:\n  %+v\n  %+v", i, fieldsOf(a[i]), fieldsOf(b[i]))
		}
		if a[i].Corruptions == 0 {
			t.Errorf("trial %d ran adversary-free", i)
		}
		if i > 0 && fieldsOf(a[i]) != fieldsOf(a[0]) {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all trials produced identical reports; trial seeds are not deriving")
	}
}

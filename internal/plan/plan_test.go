package plan

import (
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"plurality/internal/adversary"
	"plurality/internal/graph"
)

// lacks re-derives, column by column, what row is missing to host r — the
// reference the flattened bit test in Choose is checked against.
func lacks(row Row, r Request) Set {
	var m Set
	runner, want := r.Runner, r.Want
	if runner == 0 {
		runner = RunDynamic
	}
	if want == 0 {
		want = WantAuto
	}
	if row.Runner != runner {
		m |= Of(runner)
	}
	if !row.Want.Has(want) {
		m |= Of(want)
	}
	if topo := Clique + Cap(r.Topology); !row.Topology.Has(topo) {
		m |= Of(topo)
	}
	if r.Model != 0 && !row.Models.Has(r.Model) {
		m |= Of(r.Model)
	}
	for c := Cap(0); c < numCaps; c++ {
		if r.Opts.Has(c) && (!row.Options.Has(c) || row.CliqueOnly.Has(c) && r.Topology != graph.SymClique) {
			m |= Of(c)
		}
	}
	if fam := familyCap(r.Family); fam != 0 && !row.Adversaries.Has(fam) {
		m |= Of(fam)
	}
	if r.PerNode && !row.Adversaries.Has(PerNodeAdversary) {
		m |= Of(PerNodeAdversary)
	}
	if row.Needs.Has(FlowLaw) && !r.FlowLaw {
		m |= Of(FlowLaw)
	}
	if row.Needs.Has(Transport) && !r.Opts.Has(Transport) {
		m |= Of(Transport)
	}
	if r.Histogram && !row.Histogram {
		m |= Of(Histogram)
	}
	if row.AutoN > 0 && want == WantAuto && !(r.Histogram && r.N >= row.AutoN) {
		m |= Of(AutoN)
	}
	return m
}

func familyCap(f adversary.Family) Cap {
	switch f {
	case adversary.FamilyScheduling:
		return Scheduling
	case adversary.FamilyCorruption:
		return Corruption
	case adversary.FamilyByzantine:
		return Byzantine
	}
	return 0
}

// requests enumerates the whole finite request space: runner × runtime ×
// requested engine × topology class × model × each single option × adversary
// {none, each family, a per-node one} × flow law × histogram-only, at a
// small n and at LeapAutoN.
func requests(yield func(Request)) {
	type adv struct {
		f       adversary.Family
		perNode bool
	}
	advs := []adv{{}, {adversary.FamilyScheduling, false}, {adversary.FamilyCorruption, false},
		{adversary.FamilyByzantine, false}, {adversary.FamilyScheduling, true}}
	var opts []Set
	opts = append(opts, 0)
	for c := Seed; c <= TickObserver; c++ {
		opts = append(opts, Of(c))
	}
	for _, runner := range []Cap{RunDynamic, RunSync, RunCore, RunOneBit} {
		for _, runtime := range []Set{0, Of(Transport)} {
			for _, want := range []Cap{WantAuto, WantPerNode, WantOccupancy, WantLeap} {
				for topo := graph.SymClique; topo <= graph.SymQuenched; topo++ {
					for _, model := range []Cap{0, Sequential, Poisson, Synchronous} {
						for _, o := range opts {
							for _, a := range advs {
								for _, flow := range []bool{false, true} {
									for _, hist := range []bool{false, true} {
										for _, n := range []int64{64, LeapAutoN} {
											yield(Request{Runner: runner, Want: want, Topology: topo, Model: model,
												Opts: o | runtime, Family: a.f, PerNode: a.perNode,
												FlowLaw: flow, Histogram: hist, N: n})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestChooseExhaustive: over the whole request space, an admitted request's
// row hosts every item and no earlier row does; a rejection names a row and
// a capability that row lacks, and no row hosts the request.
func TestChooseExhaustive(t *testing.T) {
	var admitted, rejected int
	requests(func(r Request) {
		eng, err := Choose(r)
		first := -1
		for i, row := range rows {
			if lacks(row, r) == 0 {
				first = i
				break
			}
		}
		if err == nil {
			admitted++
			if first < 0 || rows[first].Engine != eng {
				t.Fatalf("%+v: Choose = %v, but the first hosting row is %d", r, eng, first)
			}
			return
		}
		rejected++
		var rej *Rejection
		if !errors.As(err, &rej) {
			t.Fatalf("%+v: error %v is not a Rejection", r, err)
		}
		if first >= 0 {
			t.Fatalf("%+v: rejected (%v), but row %v hosts it", r, err, rows[first].Engine)
		}
		if !lacks(rows[slices.IndexFunc(rows, func(r Row) bool { return r.Engine == rej.Engine })], r).Has(rej.Missing) {
			t.Fatalf("%+v: rejection %v names a capability its row does not lack", r, err)
		}
		if msg := err.Error(); !strings.Contains(msg, engineNames[rej.Engine][1]) || !strings.Contains(msg, rej.Missing.String()) {
			t.Fatalf("rejection text %q names neither path nor capability", msg)
		}
	})
	if admitted == 0 || rejected == 0 {
		t.Fatalf("admitted %d, rejected %d: the space is degenerate", admitted, rejected)
	}
}

// TestChoosePreference pins the auto preference order and the leap
// escalation bound.
func TestChoosePreference(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    Request
		want Engine
	}{
		{"clique population", Request{Topology: graph.SymClique}, Occupancy},
		{"annealed population", Request{Topology: graph.SymAnnealed}, Lumped},
		{"quenched population", Request{Topology: graph.SymQuenched}, PerNode},
		{"edge latency", Request{Opts: Of(EdgeLatency)}, PerNode},
		{"per-node adversary", Request{Opts: Of(Adversary), Family: adversary.FamilyScheduling, PerNode: true}, PerNode},
		{"annealed adversary", Request{Topology: graph.SymAnnealed, Opts: Of(Adversary), Family: adversary.FamilyCorruption}, PerNode},
		{"large histogram", Request{Histogram: true, FlowLaw: true, N: LeapAutoN}, Leap},
		{"small histogram", Request{Histogram: true, FlowLaw: true, N: LeapAutoN - 1}, Occupancy},
		{"large population", Request{FlowLaw: true, N: LeapAutoN}, Occupancy},
		{"large churning histogram", Request{Histogram: true, FlowLaw: true, N: LeapAutoN, Opts: Of(Churn)}, Occupancy},
		{"leap requested", Request{Want: WantLeap, FlowLaw: true}, Leap},
		{"occupancy on annealed", Request{Want: WantOccupancy, Topology: graph.SymAnnealed}, Lumped},
		{"core", Request{Runner: RunCore, Want: WantPerNode}, Core},
		{"node", Request{Opts: Of(Transport, Model), Model: Poisson}, Node},
	} {
		if got, err := Choose(tc.r); err != nil || got != tc.want {
			t.Errorf("%s: Choose = %v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
}

// TestChooseRejectionText pins the rejection template and the refusal the
// tie rule names.
func TestChooseRejectionText(t *testing.T) {
	for _, tc := range []struct {
		r    Request
		want string
	}{
		{Request{Want: WantOccupancy, Topology: graph.SymQuenched},
			"the lumped engine cannot host a quenched topology (quenched wiring is per-node state; only the complete graph and degree-class lumpable (annealed) topologies are count-collapsible)"},
		{Request{Want: WantLeap, Opts: Of(Adversary), Family: adversary.FamilyCorruption, FlowLaw: true},
			"the leap engine cannot host WithAdversary"},
		{Request{Runner: RunCore, Opts: Of(Transport)}, "the node runtime cannot host the core protocol"},
		{Request{Runner: RunCore, Want: WantOccupancy}, "the core protocol cannot host WithEngine(EngineOccupancy)"},
		{Request{Histogram: true, Want: WantPerNode}, "the per-node engine cannot host a histogram-only run"},
	} {
		_, err := Choose(tc.r)
		if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want prefix %q", tc.r, err, tc.want)
		}
	}
}

// TestChooseAdmitsWithoutAllocating: the planner runs on every job the
// service compiles and every collapsed run; an admitted request costs no
// allocation.
func TestChooseAdmitsWithoutAllocating(t *testing.T) {
	r := Request{Topology: graph.SymAnnealed, Opts: Of(Seed, Model, GraphOpt, Churn), Model: Poisson}
	if a := testing.AllocsPerRun(100, func() { _, _ = Choose(r) }); a != 0 {
		t.Fatalf("Choose allocates %v times per admitted request", a)
	}
}

// TestReadmeHostsMatrixInSync: the README's hosts matrix is generated from
// the table; regenerate it with MarkdownTable when a row changes.
func TestReadmeHostsMatrixInSync(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), MarkdownTable()) {
		t.Fatalf("README.md hosts matrix drifted from the plan table; replace it with:\n%s", MarkdownTable())
	}
}

package exp

import (
	"fmt"
	"math"

	"plurality"
	"plurality/internal/stats"
)

// NamedSweep is a registered sweep: a grid builder (full and down-scaled
// smoke variants) plus an optional Check that turns the expected result
// shape into gates recorded on the report.
type NamedSweep struct {
	// Name is the -sweep identifier.
	Name string
	// Description is one line for listings and EXPERIMENTS.md.
	Description string
	// Build materializes the grid. smoke selects the CI-sized variant;
	// trials overrides the per-cell trial count when positive.
	Build func(smoke bool, seed uint64, trials int) Sweep
	// Check appends statistical gates to the executed report; nil means
	// no gates beyond baseline comparison.
	Check func(rep *Report)
}

// Named returns every registered sweep, in presentation order.
func Named() []NamedSweep {
	return []NamedSweep{lognScaling(), engineEquivalence(), scaleSweep(), leapBudget(), leapCalibration(), protocolRace(), latencySweep(), churnSweep(), topologySweep(), topologyEquivalence(), adversaryThreshold(), netEquivalence()}
}

// NamedByName resolves one registered sweep.
func NamedByName(name string) (NamedSweep, bool) {
	for _, ns := range Named() {
		if ns.Name == name {
			return ns, true
		}
	}
	return NamedSweep{}, false
}

func pickTrials(trials, def int) int {
	if trials > 0 {
		return trials
	}
	return def
}

// agreeCell reports whether two cells' consensus-time statistics agree:
// overlapping bootstrap CIs, with a relative-band fallback for the
// occasional narrow-CI draw. It is the shared equivalence test of the
// engine-equivalence and topology-equivalence sweeps.
func agreeCell(a, b *CellResult) (bool, float64) {
	overlap := a.CILo <= b.CIHi && b.CILo <= a.CIHi
	rel := (a.Mean - b.Mean) / a.Mean
	if rel < 0 {
		rel = -rel
	}
	return overlap || rel <= 0.35, rel
}

// lognScaling is the paper's headline claim (Theorem 1.3) as a regression
// test: consensus time of the core protocol on the clique must grow like
// log n. The gate fits mean consensus time against ln n and requires both a
// high coefficient of determination and a stable slope across the lower and
// upper halves of the grid — a superlogarithmic trend bends the fit and
// breaks the half-slope ratio.
func lognScaling() NamedSweep {
	return NamedSweep{
		Name:        "logn-scaling",
		Description: "core protocol consensus time vs n on the clique; fits T(n) ~ a·ln n + b and gates on fit quality and slope stability (Theorem 1.3)",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			// Consensus time is quantized to phase boundaries (7∆ each), so
			// the log n trend only emerges once trial noise is averaged
			// down; the grids trade n-range against trials accordingly.
			ns := []string{"8192", "16384", "32768", "65536", "131072", "262144"}
			def := 12
			if smoke {
				ns = []string{"256", "512", "1024", "2048", "4096", "8192", "16384"}
				def = 24
			}
			return Sweep{
				Name: "logn-scaling",
				Base: Scenario{
					Protocol: "core", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes:   []Axis{{Name: "n", Values: ns}},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			var ns, means []float64
			for _, c := range rep.Cells {
				if c.Trials-c.Failures == 0 {
					continue
				}
				ns = append(ns, float64(c.N))
				means = append(means, c.Mean)
			}
			fit, err := stats.LogFit(ns, means)
			if err != nil {
				rep.addGate("logn-fit", false, "fit failed: %v", err)
				return
			}
			rep.addGate("logn-fit", fit.R2 >= 0.85 && fit.Slope > 0,
				"T(n) ~ %.2f·ln n + %.2f, R2 = %.4f (want R2 >= 0.85, slope > 0)", fit.Slope, fit.Intercept, fit.R2)
			if len(ns) < 4 {
				rep.addGate("logn-slope-stable", false, "only %d converged cells, need >= 4", len(ns))
				return
			}
			mid := len(ns) / 2
			lower, errL := stats.LogFit(ns[:mid+1], means[:mid+1])
			upper, errU := stats.LogFit(ns[mid:], means[mid:])
			if errL != nil || errU != nil {
				rep.addGate("logn-slope-stable", false, "half fits failed: %v / %v", errL, errU)
				return
			}
			ratio := upper.Slope / lower.Slope
			rep.addGate("logn-slope-stable", ratio >= 0.4 && ratio <= 2.5,
				"half-grid slopes %.2f (lower) vs %.2f (upper), ratio %.2f (want in [0.4, 2.5])",
				lower.Slope, upper.Slope, ratio)
		},
	}
}

// engineEquivalence runs the same Two-Choices grid under the per-node, the
// count-collapsed occupancy, and the hybrid leap engine. The collapse is
// exact, so at every n the first two engines' consensus-time statistics
// must agree — a live, sweep-level restatement of the package-level KS
// equivalence gates that also catches a silently diverging engine in CI.
// The leap engine is approximate by design; its cells gate against the
// occupancy cells under the same agreement band, pinning the leaping error
// at sizes where the exact law is available.
func engineEquivalence() NamedSweep {
	return NamedSweep{
		Name:        "engine-equivalence",
		Description: "Two-Choices consensus time under the per-node vs the count-collapsed occupancy vs the hybrid leap engine; gates on convergence, on per-node/occupancy agreeing (the collapse is exact) and on leap staying within the same band of occupancy",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			ns := []string{"65536", "262144", "1048576"}
			def := 10
			if smoke {
				ns = []string{"4096", "16384", "65536"}
				def = 8
			}
			return Sweep{
				Name: "engine-equivalence",
				Base: Scenario{
					Protocol: "two-choices", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: ns},
					{Name: "engine", Values: []string{"per-node", "occupancy", "leap"}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			agree, leapAgree := true, true
			detail, leapDetail := "", ""
			seen := map[string]bool{}
			for _, c := range rep.Cells {
				nv := c.Params["n"]
				if seen[nv] {
					continue
				}
				seen[nv] = true
				var per, occ, leap *CellResult
				for i := range rep.Cells {
					cc := &rep.Cells[i]
					if cc.Params["n"] != nv {
						continue
					}
					switch cc.Params["engine"] {
					case "per-node":
						per = cc
					case "occupancy":
						occ = cc
					case "leap":
						leap = cc
					}
				}
				if per == nil || occ == nil || per.Trials == per.Failures || occ.Trials == occ.Failures {
					agree = false
					detail += fmt.Sprintf(" n=%s: missing or unconverged engine cell;", nv)
					continue
				}
				if ok, rel := agreeCell(per, occ); !ok {
					agree = false
					detail += fmt.Sprintf(" n=%s: per-node mean %.2f vs occupancy %.2f (rel %.2f, disjoint CIs);",
						nv, per.Mean, occ.Mean, rel)
				}
				if leap == nil || leap.Trials == leap.Failures {
					leapAgree = false
					leapDetail += fmt.Sprintf(" n=%s: missing or unconverged leap cell;", nv)
				} else if ok, rel := agreeCell(occ, leap); !ok {
					leapAgree = false
					leapDetail += fmt.Sprintf(" n=%s: occupancy mean %.2f vs leap %.2f (rel %.2f, disjoint CIs);",
						nv, occ.Mean, leap.Mean, rel)
				}
			}
			rep.addGate("engines-agree", agree, "per-node and occupancy statistics agree at every n;%s", detail)
			rep.addGate("leap-agrees", leapAgree, "leap statistics stay within the agreement band of occupancy at every n;%s", leapDetail)
		},
	}
}

// scaleSweep is the workload only the count-collapsed engine can carry: the
// occupancy engine at population sizes far beyond what O(n) simulation
// reaches, up to n = 10⁸ in the full grid (O(k) memory per cell). It keeps
// the Θ(log n) shape of Theorem-1.3-adjacent dynamics observable at scale.
func scaleSweep() NamedSweep {
	return NamedSweep{
		Name:        "scale",
		Description: "count-collapsed occupancy engine at n up to 1e8 (O(k) memory; per-node engines stop near 1e6); gates on convergence, plurality wins, and consensus time growing with n",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			ns := []string{"1000000", "10000000", "100000000"}
			def := 4
			if smoke {
				ns = []string{"262144", "1048576", "4194304"}
			}
			return Sweep{
				Name: "scale",
				Base: Scenario{
					Protocol: "two-choices", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
					Engine: "occupancy",
				},
				Axes:   []Axis{{Name: "n", Values: ns}},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			wins := true
			detail := ""
			for _, c := range rep.Cells {
				if conv := c.Trials - c.Failures; conv > 0 && c.PluralityWins < conv {
					wins = false
					detail += fmt.Sprintf(" %q: %d/%d;", c.Label, c.PluralityWins, conv)
				}
			}
			rep.addGate("plurality-wins", wins, "plurality color won every converged trial;%s", detail)
			if len(rep.Cells) >= 2 {
				first, last := rep.Cells[0], rep.Cells[len(rep.Cells)-1]
				if first.Trials-first.Failures > 0 && last.Trials-last.Failures > 0 {
					rep.addGate("time-grows", last.Mean > first.Mean,
						"mean consensus time %.2f at n=%d vs %.2f at n=%d (want growth with n)",
						last.Mean, last.N, first.Mean, first.N)
				} else {
					rep.addGate("time-grows", false, "first or last cell unconverged")
				}
			}
		},
	}
}

// leapBudget sweeps the hybrid engine's tau-leap error budget: the same
// biased instance under eps from loose to tight must converge, let the
// plurality win, and agree on mean consensus time across budgets — the
// knob trades steps for accuracy, not for a different answer.
func leapBudget() NamedSweep {
	const tightest = "leap:0.002"
	return NamedSweep{
		Name:        "leap-budget",
		Description: "hybrid leap engine across tau-leap error budgets (engine leap:<eps>) on one biased clique instance; gates on convergence, plurality wins, and budget-invariant consensus times",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			n, def := "1000000000", 8
			if smoke {
				n, def = "10000000", 8
			}
			return Sweep{
				Name: "leap-budget",
				Base: Scenario{
					Protocol: "two-choices", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: []string{n}},
					{Name: "engine", Values: []string{"leap:0.05", "leap:0.01", tightest}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			wins := true
			detail := ""
			for _, c := range rep.Cells {
				if conv := c.Trials - c.Failures; conv > 0 && c.PluralityWins < conv {
					wins = false
					detail += fmt.Sprintf(" %q: %d/%d;", c.Label, c.PluralityWins, conv)
				}
			}
			rep.addGate("plurality-wins", wins, "plurality color won every converged trial;%s", detail)
			ref := cellByParam(rep, "engine", tightest)
			if ref == nil || ref.Trials == ref.Failures {
				rep.addGate("budget-invariant", false, "tightest-budget cell missing/unconverged")
				return
			}
			invariant := true
			detail = ""
			for _, c := range rep.Cells {
				if c.Params["engine"] == tightest || c.Trials == c.Failures {
					continue
				}
				overlap := c.CILo <= ref.CIHi && ref.CILo <= c.CIHi
				rel := (c.Mean - ref.Mean) / ref.Mean
				if rel < 0 {
					rel = -rel
				}
				if !overlap && rel > 0.35 {
					invariant = false
					detail += fmt.Sprintf(" %q: mean %.2f vs %.2f at %s (rel %.2f, disjoint CIs);",
						c.Label, c.Mean, ref.Mean, tightest, rel)
				}
			}
			rep.addGate("budget-invariant", invariant,
				"mean consensus time agrees with the tightest budget across eps;%s", detail)
		},
	}
}

// leapCalibration measures the hybrid engine's consensus-time error against
// the exact occupancy engine at the largest size where the exact engine
// still affords a dozen trials per protocol. The leaping bias itself is well
// under 1% at the default budget; the 8% ceiling adds about three standard
// errors of the two 12-trial means on top.
func leapCalibration() NamedSweep {
	const maxRelErr = 0.08
	specs := []string{"two-choices", "usd"}
	return NamedSweep{
		Name:        "leap-calibration",
		Description: "Two-Choices and USD at n = 1e7 on the exact occupancy engine vs the hybrid leap engine; gates on convergence and on leap's mean consensus time staying within 8% of exact per protocol",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			return Sweep{
				Name: "leap-calibration",
				Base: Scenario{
					N: 10_000_000, K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "protocol", Values: specs},
					{Name: "engine", Values: []string{"occupancy", "leap"}},
				},
				Trials: pickTrials(trials, 12),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			calibrated, detail := true, ""
			for _, p := range specs {
				var exact, leap *CellResult
				for i := range rep.Cells {
					c := &rep.Cells[i]
					if c.Params["protocol"] != p || c.Trials == c.Failures {
						continue
					}
					switch c.Params["engine"] {
					case "occupancy":
						exact = c
					case "leap":
						leap = c
					}
				}
				if exact == nil || leap == nil {
					calibrated = false
					detail += fmt.Sprintf(" %s: missing or unconverged engine cell;", p)
					continue
				}
				rel := math.Abs(leap.Mean-exact.Mean) / exact.Mean
				if rel > maxRelErr {
					calibrated = false
				}
				detail += fmt.Sprintf(" %s: leap %.2f vs exact %.2f (rel %.3f);", p, leap.Mean, exact.Mean, rel)
			}
			rep.addGate("leap-calibrated", calibrated,
				"leap mean consensus time within %.0f%% of the exact engine per protocol;%s", maxRelErr*100, detail)
		},
	}
}

// protocolRace runs every registered sampling dynamic on one biased
// instance — the registry's race specs form the protocol axis, so a newly
// registered protocol joins the race (and its gates) automatically. Gates:
// every cell converges; every protocol with a plurality guarantee lets the
// plurality win every converged trial (Voter is exempt — its winner is the
// martingale draw); and Two-Choices beats Voter on mean consensus time
// (drift versus a lazy random walk).
func protocolRace() NamedSweep {
	var specs []string
	plur := map[string]bool{}
	for _, d := range plurality.Protocols() {
		specs = append(specs, d.RaceSpec)
		plur[d.RaceSpec] = d.PluralityWins
	}
	return NamedSweep{
		Name:        "protocol-race",
		Description: "every registered sampling dynamic on one biased clique instance; gates on convergence, plurality wins (where guaranteed), and Two-Choices beating Voter",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			n, def := "8192", 8
			if smoke {
				n, def = "2048", 8
			}
			return Sweep{
				Name: "protocol-race",
				Base: Scenario{
					K:    4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: []string{n}},
					{Name: "protocol", Values: specs},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			wins := true
			detail := ""
			for _, c := range rep.Cells {
				if !plur[c.Params["protocol"]] {
					continue
				}
				if conv := c.Trials - c.Failures; conv > 0 && c.PluralityWins < conv {
					wins = false
					detail += fmt.Sprintf(" %q: %d/%d;", c.Label, c.PluralityWins, conv)
				}
			}
			rep.addGate("plurality-wins", wins,
				"plurality color won every converged trial of every plurality-guaranteeing protocol;%s", detail)
			tc := cellByParam(rep, "protocol", "two-choices")
			vt := cellByParam(rep, "protocol", "voter")
			if tc == nil || vt == nil || tc.Trials == tc.Failures || vt.Trials == vt.Failures {
				rep.addGate("two-choices-beats-voter", false, "two-choices or voter cell missing/unconverged")
				return
			}
			rep.addGate("two-choices-beats-voter", tc.Mean <= vt.Mean,
				"mean(two-choices) = %.2f vs mean(voter) = %.2f (want two-choices <= voter)", tc.Mean, vt.Mean)
		},
	}
}

// latencySweep exercises the Bankhamer et al. edge-latency extension on the
// core protocol: exponential and uniform per-edge latencies of growing mean
// must slow convergence monotonically from the instant-edge baseline, and
// every cell must still converge.
func latencySweep() NamedSweep {
	return NamedSweep{
		Name:        "latency",
		Description: "core protocol under per-edge exponential/uniform latencies (Bankhamer et al. model); gates on convergence and on latency slowing the run",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			n, def := "16384", 8
			if smoke {
				n, def = "1024", 5
			}
			return Sweep{
				Name: "latency",
				Base: Scenario{
					Protocol: "core", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: []string{n}},
					{Name: "latency", Values: []string{"none", "exp:0.5", "exp:1", "exp:2", "uniform:0:2"}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			base := cellByParam(rep, "latency", "none")
			slow := cellByParam(rep, "latency", "exp:2")
			if base == nil || slow == nil || base.Trials == base.Failures || slow.Trials == slow.Failures {
				rep.addGate("latency-slows", false, "baseline or exp:2 cell missing/unconverged")
				return
			}
			rep.addGate("latency-slows", slow.Mean > base.Mean,
				"mean(exp:2) = %.2f vs mean(none) = %.2f (want slower)", slow.Mean, base.Mean)
		},
	}
}

// churnSweep injects node churn at rates around the 1/n consensus
// threshold: fresh joiners with random opinions and reset schedules must be
// absorbed by the Sync Gadget and the endgame without losing convergence.
func churnSweep() NamedSweep {
	return NamedSweep{
		Name:        "churn",
		Description: "core protocol under node churn (leave/join with fresh random opinions) at rates scaled to 1/n; gates on convergence and on churn actually firing",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			n, def := "8192", 8
			if smoke {
				n, def = "1024", 5
			}
			return Sweep{
				Name: "churn",
				Base: Scenario{
					Protocol: "core", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: []string{n}},
					{Name: "churn", Values: []string{"0", "0.1/n", "0.25/n", "0.5/n"}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			fired := true
			detail := ""
			for _, c := range rep.Cells {
				if c.Params["churn"] != "0" && c.Churns == 0 {
					fired = false
					detail += fmt.Sprintf(" %q injected no churn;", c.Label)
				}
			}
			rep.addGate("churn-fires", fired, "every churn>0 cell injected events;%s", detail)
		},
	}
}

// topologySweep runs the Two-Choices dynamic beyond the paper's clique:
// torus and Erdős–Rényi substrates. The clique must stay the fastest
// substrate and every topology must still reach consensus.
func topologySweep() NamedSweep {
	return NamedSweep{
		Name:        "topology",
		Description: "Two-Choices dynamic on complete/torus/G(n,p) substrates; gates on convergence and on the clique being fastest",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			n, def := "16384", 8
			if smoke {
				n, def = "1024", 5
			}
			return Sweep{
				Name: "topology",
				Base: Scenario{
					Protocol: "two-choices", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: []string{n}},
					{Name: "topology", Values: []string{"complete", "torus", "gnp:0.01", "gnp:0.05", "random-regular:8"}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			clique := cellByParam(rep, "topology", "complete")
			torus := cellByParam(rep, "topology", "torus")
			if clique == nil || torus == nil || clique.Trials == clique.Failures || torus.Trials == torus.Failures {
				rep.addGate("clique-fastest", false, "complete or torus cell missing/unconverged")
				return
			}
			rep.addGate("clique-fastest", clique.Mean <= torus.Mean,
				"mean(complete) = %.2f vs mean(torus) = %.2f (want clique <= torus)", clique.Mean, torus.Mean)
		},
	}
}

// topologyEquivalence is the CI gate for the degree-class lumped engine: the
// same Two-Choices instance on annealed configuration-model topologies under
// the per-node engine (which simulates the annealed sampling law node by
// node) versus engine auto (which collapses to the lumped count matrix). The
// lumping is exact, so the two executions are draws from the same law and
// their consensus-time statistics must agree at every degree. A quenched
// random-regular cell rides along to pin the mean-field approximation: on an
// expander the quenched run must stay near its annealed counterpart.
func topologyEquivalence() NamedSweep {
	annealed := []string{"annealed:2", "annealed:4", "annealed:8"}
	return NamedSweep{
		Name:        "topology-equivalence",
		Description: "Two-Choices on annealed regular topologies under the per-node vs the degree-class lumped engine (auto), plus a quenched random-regular control; gates on convergence, per-node/lumped agreement per degree (the lumping is exact), and quenched d=8 staying near its annealed law",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			n, def := "4096", 10
			if smoke {
				n, def = "1024", 6
			}
			return Sweep{
				Name: "topology-equivalence",
				Base: Scenario{
					Protocol: "two-choices", K: 4,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "n", Values: []string{n}},
					{Name: "topology", Values: append(append([]string{}, annealed...), "random-regular:8")},
					{Name: "engine", Values: []string{"per-node", "auto"}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			cell := func(topo, engine string) *CellResult {
				for i := range rep.Cells {
					c := &rep.Cells[i]
					if c.Params["topology"] == topo && c.Params["engine"] == engine {
						return c
					}
				}
				return nil
			}
			exact, detail := true, ""
			for _, topo := range annealed {
				per, auto := cell(topo, "per-node"), cell(topo, "auto")
				if per == nil || auto == nil || per.Trials == per.Failures || auto.Trials == auto.Failures {
					exact = false
					detail += fmt.Sprintf(" %s: missing or unconverged cell;", topo)
					continue
				}
				if ok, rel := agreeCell(per, auto); !ok {
					exact = false
					detail += fmt.Sprintf(" %s: per-node mean %.2f vs lumped %.2f (rel %.2f, disjoint CIs);",
						topo, per.Mean, auto.Mean, rel)
				}
			}
			rep.addGate("lumping-exact", exact,
				"per-node and lumped statistics agree on every annealed degree;%s", detail)
			quench, ann := cell("random-regular:8", "per-node"), cell("annealed:8", "auto")
			if quench == nil || ann == nil || quench.Trials == quench.Failures || ann.Trials == ann.Failures {
				rep.addGate("mean-field-approx", false, "quenched random-regular:8 or annealed:8 cell missing/unconverged")
				return
			}
			rel := (quench.Mean - ann.Mean) / ann.Mean
			if rel < 0 {
				rel = -rel
			}
			// The quenched 8-regular graph is an expander, but its fixed
			// wiring is a genuinely different (slower) process — about 1.7×
			// the annealed consensus time at these sizes. The gate is a
			// control, not an exactness claim: the quenched run must stay
			// within 2× of its annealed law.
			rep.addGate("mean-field-approx", rel <= 1.0,
				"quenched random-regular:8 mean %.2f vs annealed:8 lumped mean %.2f (rel %.2f, want <= 1.0)",
				quench.Mean, ann.Mean, rel)
		},
	}
}

// adversaryThreshold drives the corruption adversary's budget f across the
// √n threshold on Two-Choices: with f = n^0.3 flips per window the protocol
// repairs corrupted nodes faster than the adversary plants them and the
// plurality survives almost every trial, while f = 4√n re-seeds more minority
// opinions per window than an endgame can absorb and consensus never closes.
// Survival is strict — the run converged AND the initial plurality won — so
// the gates pin the survive/fail phase transition to straddle the √n scaling
// at every n, with a zero-budget control that must be indistinguishable from
// a clean run.
func adversaryThreshold() NamedSweep {
	survival := func(c *CellResult) float64 {
		if c.Trials == 0 {
			return 0
		}
		return float64(c.PluralityWins) / float64(c.Trials)
	}
	return NamedSweep{
		Name:        "adversary-threshold",
		Description: "Two-Choices under the corruption adversary: consensus survival vs budget f across n; gates on the survive/fail transition straddling sqrt(n) (f=n^0.3 survives, f=4sqrt(n) fails) plus a zero-budget control",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			def, maxTime := 20, 120.0
			if smoke {
				def, maxTime = 8, 80.0
			}
			return Sweep{
				Name: "adversary-threshold",
				Base: Scenario{
					Protocol: "two-choices", K: 2,
					Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
					Engine:    "occupancy",
					Adversary: "corrupt",
					MaxTime:   maxTime,
				},
				Axes: []Axis{
					{Name: "n", Values: []string{"1024", "4096", "16384"}},
					{Name: "budget", Values: []string{"0", "n^0.3", "4sqrt(n)"}},
				},
				Trials: pickTrials(trials, def),
				Seed:   seed,
			}
		},
		Check: func(rep *Report) {
			// No all-converged gate here: the f = 4√n cells are supposed to
			// exhaust their budget — that is the failure side of the
			// transition the sweep exists to demonstrate.
			clean, cleanDetail := true, ""
			survive, surviveDetail := true, ""
			fail, failDetail := true, ""
			fired, firedDetail := true, ""
			for i := range rep.Cells {
				c := &rep.Cells[i]
				s := survival(c)
				switch c.Params["budget"] {
				case "0":
					if c.Failures > 0 || c.PluralityWins < c.Trials || c.Corruptions != 0 {
						clean = false
						cleanDetail += fmt.Sprintf(" %q: wins %d/%d, failures %d, corruptions %d;",
							c.Label, c.PluralityWins, c.Trials, c.Failures, c.Corruptions)
					}
					continue
				case "n^0.3":
					if s < 0.95 {
						survive = false
						surviveDetail += fmt.Sprintf(" %q: survival %.2f;", c.Label, s)
					}
				case "4sqrt(n)":
					if s > 0.2 {
						fail = false
						failDetail += fmt.Sprintf(" %q: survival %.2f;", c.Label, s)
					}
				}
				if c.Corruptions == 0 {
					fired = false
					firedDetail += fmt.Sprintf(" %q injected no corruption;", c.Label)
				}
			}
			rep.addGate("zero-budget-clean", clean,
				"budget=0 cells converge, win and stay uncorrupted;%s", cleanDetail)
			rep.addGate("survives-below-threshold", survive,
				"survival >= 0.95 at f = n^0.3 for every n;%s", surviveDetail)
			rep.addGate("fails-above-threshold", fail,
				"survival <= 0.2 at f = 4sqrt(n) for every n;%s", failDetail)
			rep.addGate("corruption-fires", fired,
				"every budget>0 cell recorded corruption flips;%s", firedDetail)
		},
	}
}

// netEquivalence is the oracle gate for the networked node runtime: the
// same (protocol, n) instance on the simulator's Poisson engine versus real
// goroutine-backed node processes exchanging pull messages over the
// deterministic in-process transport. Per-node Exp(1) clocks superpose to
// the simulator's rate-n Poisson process with a uniformly random activating
// node, and zero-fault message delivery reproduces the simulator's
// atomic-sample semantics, so the two consensus-time distributions are
// draws from the same law — the gate requires the two-sample KS statistic
// below the alpha = 0.01 rejection threshold for every (protocol, n) pair.
// Fixed-seed CI runs are deterministic on both sides, so the gate cannot
// flake. TCP cells stay out of the grid (wall-clock sockets would serialize
// the sweep); the tcp runtime is covered by its own unit tests and the
// quickstart script.
func netEquivalence() NamedSweep {
	return NamedSweep{
		Name:        "net-equivalence",
		Description: "Two-Choices and USD on the simulator vs the networked node runtime (one process per node, pull messages); gates on convergence, per-(protocol, n) KS agreement of the consensus-time distributions, and message flow",
		Build: func(smoke bool, seed uint64, trials int) Sweep {
			ns, def := []string{"256", "1024", "4096"}, 48
			if smoke {
				ns, def = []string{"256", "1024"}, 30
			}
			return Sweep{
				Name: "net-equivalence",
				Base: Scenario{
					K: 2, Bias: "biased", BiasParam: 1,
					Topology: "complete", Model: "poisson",
				},
				Axes: []Axis{
					{Name: "protocol", Values: []string{"two-choices", "usd"}},
					{Name: "n", Values: ns},
					{Name: "runtime", Values: []string{"sim", "node"}},
				},
				Trials:    pickTrials(trials, def),
				Seed:      seed,
				KeepTimes: true,
			}
		},
		Check: func(rep *Report) {
			gateAllConverged(rep)
			simCell := func(protocol, n string) *CellResult {
				for i := range rep.Cells {
					c := &rep.Cells[i]
					if c.Params["runtime"] == "sim" && c.Params["protocol"] == protocol && c.Params["n"] == n {
						return c
					}
				}
				return nil
			}
			match, matchDetail := true, ""
			flow, flowDetail := true, ""
			for i := range rep.Cells {
				c := &rep.Cells[i]
				if c.Params["runtime"] != "node" {
					continue
				}
				if c.Messages == 0 {
					flow = false
					flowDetail += fmt.Sprintf(" %q exchanged no messages;", c.Label)
				}
				sim := simCell(c.Params["protocol"], c.Params["n"])
				if sim == nil || len(sim.Times) == 0 || len(c.Times) == 0 {
					match = false
					matchDetail += fmt.Sprintf(" %q: missing sim sibling or no recorded times;", c.Label)
					continue
				}
				// KSStatistic sorts in place; hand it copies so the
				// report's recorded samples stay untouched.
				a := append([]float64(nil), sim.Times...)
				b := append([]float64(nil), c.Times...)
				d := stats.KSStatistic(a, b)
				thr := stats.KSThreshold(0.01, len(a), len(b))
				if d > thr {
					match = false
					matchDetail += fmt.Sprintf(" %s n=%s: KS %.3f > threshold %.3f (sim mean %.2f vs node mean %.2f);",
						c.Params["protocol"], c.Params["n"], d, thr, sim.Mean, c.Mean)
				}
			}
			rep.addGate("distribution-match", match,
				"node consensus-time distribution KS-matches the simulator for every (protocol, n);%s", matchDetail)
			rep.addGate("messages-flow", flow,
				"every node cell exchanged pull messages;%s", flowDetail)
		},
	}
}

// gateAllConverged records the universal gate: no cell may lose trials to
// the time budget.
func gateAllConverged(rep *Report) {
	failed := 0
	detail := ""
	for _, c := range rep.Cells {
		if c.Failures > 0 {
			failed++
			detail += fmt.Sprintf(" %q: %d/%d;", c.Label, c.Failures, c.Trials)
		}
	}
	rep.addGate("all-converged", failed == 0, "cells with timed-out trials: %d;%s", failed, detail)
}

// cellByParam returns the first cell whose axis param matches, or nil.
func cellByParam(rep *Report, name, value string) *CellResult {
	for i := range rep.Cells {
		if rep.Cells[i].Params[name] == value {
			return &rep.Cells[i]
		}
	}
	return nil
}

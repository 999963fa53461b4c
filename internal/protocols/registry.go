// Package protocols is the first-class registry of the sampling-dynamics
// family: every memoryless protocol the engines can execute — Two-Choices,
// Voter, 3-Majority, Undecided-State Dynamics, parameterized j-Majority —
// is one Descriptor here, and every layer that needs to resolve a protocol
// by name (the public Run wrappers, the experiment harness's protocol
// axis, both CLIs, the README protocol table) resolves it through Lookup
// instead of maintaining its own enumeration. Adding a protocol is one
// entry in registry() plus its rule package; the engines, the sweep
// compiler, the protocol-race sweep and the docs table pick it up from
// there.
//
// The descriptor also owns the cross-cutting validation that used to live
// in the public wrappers — the O(k)-memory guards of the histogram
// (counts) entry points — so a new protocol cannot silently skip them.
package protocols

import (
	"fmt"
	"strconv"
	"strings"

	"plurality/internal/protocols/dynamics"
	"plurality/internal/protocols/jmajority"
	"plurality/internal/protocols/threemajority"
	"plurality/internal/protocols/twochoices"
	"plurality/internal/protocols/usd"
	"plurality/internal/protocols/voter"
)

// Descriptor describes one registered protocol family: the metadata every
// layer renders (names, one-line rule, source paper) plus the hooks the
// engines resolve (rule construction, validation).
type Descriptor struct {
	// Name is the canonical registry name, e.g. "two-choices".
	Name string
	// Aliases are alternate spellings Lookup accepts, e.g. "three-majority"
	// for "3-majority".
	Aliases []string
	// Param documents the ":<param>" suffix of parameterized families
	// ("" for parameterless ones), e.g. "j, the sample size".
	Param string
	// ParamName is the short placeholder the renderers use for the
	// parameter ("j" → "j-majority:<j>"); "" for parameterless families.
	ParamName string
	// Samples is the per-activation sample count as displayed in tables
	// ("j" for parameterized families).
	Samples string
	// Summary is the one-line update rule for listings and the README
	// protocol table.
	Summary string
	// Source is the paper the rule comes from.
	Source string
	// RaceSpec is the spec the protocol-race sweep runs for this family;
	// parameterized families pin a representative instance.
	RaceSpec string
	// PluralityWins reports whether the dynamic drives the initial
	// plurality to win w.h.p. under a (1+ε) bias — the protocol-race
	// sweep's plurality-wins gate covers exactly these protocols (Voter's
	// winner is the martingale draw, so it is exempt).
	PluralityWins bool
	// Kerneled reports whether the rule exposes an exact occupancy kernel,
	// letting count-collapsed runs leap over no-op activations.
	Kerneled bool
	// Leapable reports whether the rule's kernel also exposes the
	// closed-form flow law (occupancy.FlowKernel) that the hybrid
	// tau-leap/mean-field engine needs — the n ≥ 10¹⁰ regime.
	Leapable bool
	// Undecided reports whether the rule uses the undecided (None) state.
	Undecided bool

	// rule materializes the per-node update rule; param is the raw text
	// after ":" in the lookup spec ("" when absent).
	rule func(param string) (dynamics.Rule, error)
}

// Rule materializes the family's update rule for the given parameter text
// ("" for parameterless families).
func (d Descriptor) Rule(param string) (dynamics.Rule, error) {
	return d.rule(param)
}

// noParam wraps a fixed rule as a parameterless family constructor.
func noParam(name string, rule dynamics.Rule) func(string) (dynamics.Rule, error) {
	return func(param string) (dynamics.Rule, error) {
		if param != "" {
			return nil, fmt.Errorf("protocols: %s takes no parameter, got %q", name, param)
		}
		return rule, nil
	}
}

// registry returns every registered protocol family, in presentation
// order. Registering a protocol here is the single step that exposes it to
// the public Job API, the experiment harness's protocol axis, the
// protocol-race sweep, both CLIs and the README table.
func registry() []Descriptor {
	return []Descriptor{
		{
			Name:          "two-choices",
			Samples:       "2",
			Summary:       "adopt the sampled color iff both samples agree",
			Source:        "Cooper, Elsässer & Radzik (ICALP '14); Theorem 1.1 of the source paper",
			RaceSpec:      "two-choices",
			PluralityWins: true,
			Kerneled:      true,
			Leapable:      true,
			rule:          noParam("two-choices", twochoices.Rule{}),
		},
		{
			Name:     "voter",
			Samples:  "1",
			Summary:  "adopt the sampled color unconditionally",
			Source:   "classic Voter model (Holley & Liggett '75)",
			RaceSpec: "voter",
			// The winner is the martingale draw — each color wins with
			// probability proportional to its initial support — so no
			// plurality guarantee.
			Kerneled: true,
			Leapable: true,
			rule:     noParam("voter", voter.Rule{}),
		},
		{
			Name:          "3-majority",
			Aliases:       []string{"three-majority"},
			Samples:       "3",
			Summary:       "adopt the majority of three samples, first sample on three-way ties",
			Source:        "Becchetti et al. (SODA '16)",
			RaceSpec:      "3-majority",
			PluralityWins: true,
			Kerneled:      true,
			Leapable:      true,
			rule:          noParam("3-majority", threemajority.Rule{}),
		},
		{
			Name:          "usd",
			Aliases:       []string{"undecided-state", "undecided"},
			Samples:       "1",
			Summary:       "undecided nodes adopt the sampled opinion; disagreeing nodes go undecided",
			Source:        "Becchetti, Clementi, Natale, Pasquale & Silvestri (SODA '15)",
			RaceSpec:      "usd",
			PluralityWins: true,
			Kerneled:      true,
			Leapable:      true,
			Undecided:     true,
			rule:          noParam("usd", usd.Rule{}),
		},
		{
			Name:          "j-majority",
			Aliases:       []string{"jmajority", "jmaj"},
			Param:         fmt.Sprintf("j, the sample size (1 ≤ j ≤ %d); j=1 is Voter, j=3 is 3-Majority", jmajority.MaxJ),
			ParamName:     "j",
			Samples:       "j",
			Summary:       "adopt the most frequent of j samples, uniform tie-break",
			Source:        "h-majority family (Becchetti et al.; Ghaffari & Parter)",
			RaceSpec:      "j-majority:5",
			PluralityWins: true,
			Kerneled:      true,
			Leapable:      true,
			rule: func(param string) (dynamics.Rule, error) {
				if param == "" {
					return nil, fmt.Errorf("protocols: j-majority needs a sample size, e.g. %q", "j-majority:3")
				}
				j, err := strconv.Atoi(param)
				if err != nil {
					return nil, fmt.Errorf("protocols: bad j-majority parameter %q: %v", param, err)
				}
				r, err := jmajority.New(j)
				if err != nil {
					return nil, err
				}
				return r, nil
			},
		},
	}
}

// descriptors is the registry materialized once at init; the resolution
// helpers below read it so per-cell sweep validation does not rebuild the
// slice on every lookup.
var descriptors = registry()

// Registry returns every registered protocol family, in presentation
// order. The slice is a copy; descriptors themselves are immutable values.
func Registry() []Descriptor {
	out := make([]Descriptor, len(descriptors))
	copy(out, descriptors)
	return out
}

// Names returns the canonical names in presentation order.
func Names() []string {
	names := make([]string, len(descriptors))
	for i, d := range descriptors {
		names[i] = d.Name
	}
	return names
}

// ByName resolves a family by canonical name or alias (no parameter).
func ByName(name string) (Descriptor, bool) {
	for _, d := range descriptors {
		if d.Name == name {
			return d, true
		}
		for _, a := range d.Aliases {
			if a == name {
				return d, true
			}
		}
	}
	return Descriptor{}, false
}

// Lookup resolves a protocol spec — "name" or "name:param" — to its
// descriptor and a materialized rule. It is the single resolution point
// the public wrappers, the sweep compiler and the CLIs share.
func Lookup(spec string) (Descriptor, dynamics.Rule, error) {
	name, param, _ := strings.Cut(spec, ":")
	d, ok := ByName(name)
	if !ok {
		return Descriptor{}, nil, fmt.Errorf("protocols: unknown protocol %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	rule, err := d.Rule(param)
	if err != nil {
		return Descriptor{}, nil, err
	}
	return d, rule, nil
}

// ValidateCounts enforces the shared contract of every histogram a run
// starts from, including the O(k)-memory runs that exist for populations
// too large to materialize per node. The guards live on the descriptor so a
// newly registered protocol cannot silently skip them: counts must be
// non-negative with a total of at least 2 that fits the scheduler's node
// index. (Which schedulers a counts run may use is the engine planner's
// call.) It returns the histogram total.
func (d Descriptor) ValidateCounts(counts []int64) (int64, error) {
	var n int64
	for _, v := range counts {
		if v < 0 {
			return 0, fmt.Errorf("plurality: negative count %d", v)
		}
		n += v
	}
	if n < 2 {
		return 0, fmt.Errorf("plurality: histogram total %d, want >= 2", n)
	}
	if n != int64(int(n)) {
		return 0, fmt.Errorf("plurality: histogram total %d overflows the scheduler's node index", n)
	}
	return n, nil
}

// MarkdownTable renders the registry as the README's protocol table; a
// test keeps the committed README in sync with it, so the table is
// generated from the registry rather than maintained by hand.
func MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| Protocol | Samples | Rule | Plurality guarantee | Engines | Source |\n")
	b.WriteString("|---|---|---|---|---|---|\n")
	for _, d := range descriptors {
		name := "`" + d.Name + "`"
		if d.ParamName != "" {
			name = "`" + d.Name + ":<" + d.ParamName + ">`"
		}
		plur := "—"
		if d.PluralityWins {
			plur = "yes"
		}
		engines := "sync · async · counts"
		if d.Kerneled {
			engines += " (skip kernel)"
		}
		if d.Leapable {
			engines += " · leap"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %s | %s |\n",
			name, d.Samples, d.Summary, plur, engines, d.Source)
	}
	return b.String()
}

// Package plan decides which execution path hosts a run. Every path — the
// dynamics engines (leap, occupancy, lumped, per-node), the synchronous
// engine, the core and OneExtraBit runners and the node runtime — is one row
// of a declarative table (table.go) listing what it hosts. Choose walks the
// table in preference order and returns the first row that hosts a request,
// or a Rejection naming the refusing row and the first capability it lacks.
package plan

import (
	"math/bits"

	"plurality/internal/adversary"
	"plurality/internal/graph"
)

// Engine is an execution path: one row of the table. The zero value means
// no path ran.
type Engine uint8

const (
	None Engine = iota
	Leap
	Occupancy
	Lumped
	PerNode
	Sync
	Core
	OneBit
	Node
)

// engineNames holds each path's short name and its name in rejection text.
var engineNames = [...][2]string{
	None: {"", ""}, Leap: {"leap", "leap engine"}, Occupancy: {"occupancy", "occupancy engine"},
	Lumped: {"lumped", "lumped engine"}, PerNode: {"per-node", "per-node engine"},
	Sync: {"sync", "synchronous engine"}, Core: {"core", "core protocol"},
	OneBit: {"onebit", "OneExtraBit protocol"}, Node: {"node", "node runtime"},
}

// String returns the path's stable short name ("" for None).
func (e Engine) String() string { return engineNames[e][0] }

// Cap is one capability a request may need: a public option, a topology
// class, a scheduler model, an adversary family, or a fact about the run.
// The constant order is the order Choose checks them in, so a rejection
// names the earliest capability a path lacks.
type Cap uint8

const (
	// Transport is WithTransport: the node runtime instead of the simulator.
	Transport Cap = iota
	// The runner a protocol spec selects.
	RunDynamic
	RunSync
	RunCore
	RunOneBit
	// The engine a request names (WithEngine).
	WantAuto
	WantPerNode
	WantOccupancy
	WantLeap
	// Histogram marks a run with no per-node population, only colour counts.
	Histogram
	// Topology classes, in graph.Symmetry order.
	Clique
	Annealed
	Quenched
	// The public options, one per With… constructor (Transport above).
	Seed
	Model
	MaxTime
	MaxRounds
	ResponseDelay
	EdgeLatency
	Churn
	EngineOpt
	GraphOpt
	Probe
	PhaseObserver
	Observer
	Delta
	Phases
	GadgetSamples
	EndgameTicks
	PropagationRounds
	MaxPhases
	NoSyncGadget
	EndgameOnly
	RunToHalt
	TrialWorkers
	Crashes
	Desync
	LeapEps
	ODEThreshold
	Adversary
	// TickObserver is the dynamics engine's per-tick OnTick hook.
	TickObserver
	// Scheduler models.
	Sequential
	Poisson
	Synchronous
	// Adversary families, and adversaries that target individual nodes.
	Scheduling
	Corruption
	Byzantine
	PerNodeAdversary
	// FlowLaw marks a protocol with a mean-field flow law.
	FlowLaw
	// AutoN stands for EngineAuto's escalation bound (Row.AutoN).
	AutoN
	numCaps
)

var capNames = [numCaps]string{
	Transport: "WithTransport", RunDynamic: "asynchronous registry dynamics",
	RunSync: "the synchronous model", RunCore: "the core protocol", RunOneBit: "the OneExtraBit protocol",
	WantAuto: "WithEngine(EngineAuto)", WantPerNode: "WithEngine(EnginePerNode)",
	WantOccupancy: "WithEngine(EngineOccupancy)", WantLeap: "WithEngine(EngineLeap)",
	Histogram: "a histogram-only run",
	Seed:      "WithSeed", Model: "WithModel", MaxTime: "WithMaxTime", MaxRounds: "WithMaxRounds",
	ResponseDelay: "WithResponseDelay", EdgeLatency: "WithEdgeLatency", Churn: "WithChurn",
	EngineOpt: "WithEngine", GraphOpt: "WithGraph", Probe: "WithProbe", PhaseObserver: "WithPhaseObserver",
	Observer: "WithObserver", Delta: "WithDelta", Phases: "WithPhases", GadgetSamples: "WithGadgetSamples",
	EndgameTicks: "WithEndgameTicks", PropagationRounds: "WithPropagationRounds", MaxPhases: "WithMaxPhases",
	NoSyncGadget: "WithoutSyncGadget", EndgameOnly: "WithEndgameOnly", RunToHalt: "WithRunToHalt",
	TrialWorkers: "WithTrialWorkers", Crashes: "WithCrashes", Desync: "WithDesync",
	LeapEps: "WithLeapEpsilon", ODEThreshold: "WithODEThreshold", Adversary: "WithAdversary",
	TickObserver: "an OnTick observer",
	Clique:       "the complete topology", Annealed: "an annealed topology", Quenched: "a quenched topology",
	Sequential: "WithModel(Sequential)", Poisson: "WithModel(Poisson)", Synchronous: "WithModel(Synchronous)",
	Scheduling: "a scheduling adversary", Corruption: "a corruption adversary",
	Byzantine: "a Byzantine adversary", PerNodeAdversary: "a per-node adversary",
	FlowLaw: "a protocol without a flow law", AutoN: "automatic escalation below LeapAutoN",
}

// String returns the capability's name: the With… constructor for an
// option, a phrase otherwise.
func (c Cap) String() string { return capNames[c] }

// Set is a set of capabilities.
type Set uint64

// Of returns the set holding cs.
func Of(cs ...Cap) Set {
	var s Set
	for _, c := range cs {
		s |= 1 << c
	}
	return s
}

// Has reports whether c is in s.
func (s Set) Has(c Cap) bool { return s&(1<<c) != 0 }

// Request is what a run needs from its execution path.
type Request struct {
	Runner   Cap            // RunDynamic (also the zero value), RunSync, RunCore or RunOneBit
	Want     Cap            // WantAuto (also the zero value), WantPerNode, WantOccupancy or WantLeap
	Topology graph.Symmetry // the communication graph's class
	Model    Cap            // Sequential, Poisson, Synchronous; 0 leaves it open
	Opts     Set            // the applied options, and TickObserver
	// Family is the active adversary's family (0: none); PerNode marks one
	// that targets individual nodes.
	Family  adversary.Family
	PerNode bool
	FlowLaw bool // the protocol has a mean-field flow law
	// Histogram marks a run on colour counts alone, N their total.
	Histogram bool
	N         int64
}

var familyCaps = [...]Cap{adversary.FamilyScheduling: Scheduling, adversary.FamilyCorruption: Corruption, adversary.FamilyByzantine: Byzantine}

// caps flattens the request into the capability set the rows test.
func (r Request) caps() Set {
	return r.Opts | Of(max(r.Runner, RunDynamic), max(r.Want, WantAuto), Clique+Cap(r.Topology)) |
		bit(r.Model != 0, r.Model) | bit(r.Family != 0, familyCaps[r.Family]) |
		bit(r.PerNode, PerNodeAdversary) | bit(r.FlowLaw, FlowLaw) | bit(r.Histogram, Histogram)
}

func bit(on bool, c Cap) Set {
	if on {
		return 1 << c
	}
	return 0
}

// Rejection is Choose's answer when no path hosts a request: Engine is the
// path that came closest, Missing the first capability it lacks.
type Rejection struct {
	Engine  Engine
	Missing Cap
}

// Error renders "the <path> cannot host <capability> (<why>)".
func (r *Rejection) Error() string {
	return "the " + engineNames[r.Engine][1] + " cannot host " + r.Missing.String() + " (" + why(r.Engine, r.Missing) + ")"
}

// Choose returns the first row in preference order that hosts r. When none
// does, the rejection names the row that got furthest through the
// capability order (on a tie, the later row: the fallback) and the
// capability that stopped it.
func Choose(r Request) (Engine, error) {
	have := r.caps()
	best, bestAt := 0, -1
	for i := range rows {
		miss := rows[i].missing(have, r)
		if miss == 0 {
			return rows[i].Engine, nil
		}
		if at := bits.TrailingZeros64(uint64(miss)); at >= bestAt {
			best, bestAt = i, at
		}
	}
	return None, &Rejection{Engine: rows[best].Engine, Missing: Cap(bestAt)}
}

// missing returns the capabilities of have that the row lacks, plus what
// the row needs that have lacks.
func (row *Row) missing(have Set, r Request) Set {
	m := have&^row.hosts | row.Needs&^have
	if !have.Has(Clique) {
		m |= have & row.CliqueOnly
	}
	if row.AutoN > 0 && have.Has(WantAuto) && !(r.Histogram && r.N >= row.AutoN) {
		m |= 1 << AutoN
	}
	return m
}

package plan

import (
	"strconv"
	"strings"
)

// LeapAutoN is the histogram total from which EngineAuto escalates
// histogram-only runs to the hybrid leap engine: beyond the exact engine's
// practical ceiling, so smaller runs keep the exact engine.
const LeapAutoN int64 = 10_000_000_000

// Row is one execution path and what it hosts: a request is hosted when
// each capability it carries is in one of the row's columns and it carries
// everything in Needs.
type Row struct {
	Engine      Engine
	Runner      Cap   // RunDynamic, RunSync, RunCore or RunOneBit
	Want        Set   // the requested engines that resolve to the path
	Options     Set   // the public options the path consumes
	CliqueOnly  Set   // hosted options that hold on the clique only
	Topology    Set   // topology classes
	Models      Set   // scheduler models
	Adversaries Set   // adversary families, with PerNodeAdversary when it tracks node identity
	Histogram   bool  // the path runs on the colour histogram alone
	Needs       Set   // what a request must carry: a flow law (leap), WithTransport (node)
	AutoN       int64 // when positive, EngineAuto picks the path only for histogram-only runs of at least AutoN nodes

	hosts Set
}

var (
	common      = Of(Seed, TrialWorkers, Observer)
	async       = common | Of(Model, MaxTime, GraphOpt, EngineOpt)
	asyncModels = Of(Sequential, Poisson, HeapPoisson)
	o1Models    = Of(Sequential, Poisson) // the models with an O(1)-state clock
	everywhere  = Of(Clique, Annealed, Quenched)
	perNode     = Of(WantAuto, WantPerNode)
)

// rows is the table in preference order: EngineAuto takes the first
// dynamics row that hosts a run — leap, then occupancy, lumped, per-node.
var rows = []Row{
	{Engine: Leap, Runner: RunDynamic, Want: Of(WantAuto, WantLeap), Options: async | Of(LeapEps, ODEThreshold),
		Topology: Of(Clique), Models: o1Models, Histogram: true, Needs: Of(FlowLaw), AutoN: LeapAutoN},
	{Engine: Occupancy, Runner: RunDynamic, Want: Of(WantAuto, WantOccupancy), Options: async | Of(Churn, Adversary),
		Topology: Of(Clique), Models: o1Models, Adversaries: Of(Scheduling, Corruption, Byzantine), Histogram: true},
	{Engine: Lumped, Runner: RunDynamic, Want: Of(WantAuto, WantOccupancy), Options: async | Of(Churn, Adversary),
		Topology: Of(Annealed), Models: o1Models, Histogram: true},
	{Engine: PerNode, Runner: RunDynamic, Want: perNode, Options: async | Of(ResponseDelay, EdgeLatency, TickObserver, Churn, Adversary),
		Topology: everywhere, Models: asyncModels, Adversaries: Of(Scheduling, Corruption, Byzantine, PerNodeAdversary)},
	{Engine: Sync, Runner: RunSync, Want: perNode, Options: common | Of(Model, MaxRounds, GraphOpt, EngineOpt, Adversary),
		Topology: everywhere, Models: Of(Synchronous), Adversaries: Of(Corruption, Byzantine, PerNodeAdversary)},
	{Engine: Core, Runner: RunCore, Want: perNode, Options: async | Of(ResponseDelay, EdgeLatency, Churn, Probe, Delta,
		Phases, GadgetSamples, EndgameTicks, NoSyncGadget, EndgameOnly, RunToHalt, Crashes, Desync, Adversary),
		CliqueOnly: Of(Crashes), Topology: everywhere, Models: asyncModels, Adversaries: Of(Scheduling, Corruption, PerNodeAdversary)},
	{Engine: OneBit, Runner: RunOneBit, Want: perNode, Options: common | Of(GraphOpt, EngineOpt, MaxPhases,
		PropagationRounds, PhaseObserver), Topology: everywhere},
	{Engine: Node, Runner: RunDynamic, Want: Of(WantAuto), Options: Of(Seed, TrialWorkers, Model, MaxTime, Transport),
		Topology: Of(Clique), Models: Of(Poisson), Needs: Of(Transport)},
}

func init() {
	for i := range rows {
		r := &rows[i]
		// A flow law is something a path may need, never one it refuses.
		r.hosts = 1<<r.Runner | r.Want | r.Options | r.Topology | r.Models | r.Adversaries | 1<<FlowLaw
		if r.Histogram {
			r.hosts |= 1 << Histogram
		}
	}
}

// whys explains why a path lacks a capability; entries for None apply to
// every path without an entry of its own.
var whys = []struct {
	e    Engine
	caps Set
	text string
}{
	{Leap, Of(Annealed, Quenched), "its flow laws need the complete topology"},
	{Leap, Of(Churn), "churn breaks its flow laws; use EngineOccupancy"},
	{Leap, Of(Adversary), "corruption and bias break its exchangeability-preserving flow laws; use an exact engine"},
	{Leap, Of(HeapPoisson), "tau-leaping needs an O(1) rate law: the Sequential or Poisson model"},
	{Leap, Of(FlowLaw), "tau-leaping advances the histogram along the protocol's flow law"},
	{Occupancy, Of(Annealed, Quenched), "only the complete topology collapses to colour counts"},
	{Occupancy, Of(HeapPoisson), heapPoissonWhy},
	{Occupancy, Of(PerNodeAdversary), "it targets individual nodes, which the count-collapsed engine does not track"},
	{Lumped, Of(Scheduling, Corruption, Byzantine, PerNodeAdversary), "the degree-class matrix represents neither the concrete nodes nor the clique histogram that bias and corruption act on"},
	{Lumped, Of(Quenched), "quenched wiring is per-node state; only the complete graph and degree-class lumpable (annealed) topologies are count-collapsible"},
	{Lumped, Of(Clique), "the clique collapses in the occupancy engine"},
	{Lumped, Of(HeapPoisson), heapPoissonWhy},
	{PerNode, Of(Histogram), "it needs a per-node population; materialize one for the per-node engine"},
	{Sync, Of(WantOccupancy, WantLeap), "synchronous rounds run every node each round"},
	{Sync, Of(Scheduling), "synchronous rounds have no activation order to bias"},
	{Sync, Of(MaxTime), "synchronous runs are bounded in rounds (WithMaxRounds)"},
	{Core, Of(WantOccupancy, WantLeap), "its working-time schedule is per-node state"},
	{Core, Of(Crashes), "crashed nodes remain sampled, so crash injection needs the complete topology: a sparse neighborhood of crashed nodes would deadlock"},
	{Core, Of(Byzantine), "no lying channel: its samples carry bits and real times alongside colors, so a Byzantine node cannot lie about them"},
	{Core, Of(Synchronous), "the core protocol is asynchronous; the synchronous model applies to registry sampling dynamics"},
	{OneBit, Of(WantOccupancy, WantLeap), "its phases run every node each round"},
	{OneBit, Of(Model), "OneExtraBit is synchronous by construction"},
	{OneBit, Of(Adversary), "OneExtraBit has no adversary hooks"},
	{Node, Of(RunSync, RunCore, RunOneBit), "it runs asynchronous registry sampling dynamics only (two-choices, voter, 3-majority, usd, j-majority)"},
	{Node, Of(WantPerNode, WantOccupancy, WantLeap, EngineOpt), "engines select simulator execution strategies; an engine choice does not apply to the node runtime, its own execution path"},
	{Node, Of(GraphOpt, Annealed, Quenched), "live nodes sample every peer uniformly, so it needs the complete topology; topologies (WithGraph) are simulator-only"},
	{Node, Of(Sequential, HeapPoisson), "each node runs a local Exp(1) clock: use the poisson model (WithModel(Poisson)) or omit WithModel"},
	{Node, Of(ResponseDelay, EdgeLatency), "response delays and edge latencies are a transport property on the node runtime; inject latency with NewLossyChanTransport"},
	{Node, Of(Churn, Observer, Crashes, Desync, Adversary, LeapEps, ODEThreshold), "live nodes share no global scheduler or engine state: churn, crash schedules, desynchronized starts, snapshot observation, adversaries and the leap error budget are simulator-only"},
	{None, Of(ResponseDelay, EdgeLatency, TickObserver), "response delays, edge latencies and per-tick observers need per-node pending state"},
	{None, Of(Probe, Delta, Phases, GadgetSamples, EndgameTicks, NoSyncGadget, EndgameOnly, RunToHalt, Desync), "it tunes the core protocol only"},
	{None, Of(MaxPhases, PropagationRounds, PhaseObserver), "it tunes OneExtraBit only"},
	{None, Of(LeapEps, ODEThreshold), "it tunes the leap engine only"},
	{None, Of(MaxRounds), "rounds bound the synchronous runners only"},
	{None, Of(Crashes), "crash injection is defined for the core protocol only"},
}

// heapPoissonWhy is why the count-collapsed engines refuse the O(n)-state
// event-heap scheduler.
const heapPoissonWhy = "counts runs promise O(k) memory, but the HeapPoisson scheduler is O(n); use Poisson (the same process) or Sequential"

// why explains the path's lack of c.
func why(e Engine, c Cap) string {
	for _, owner := range [2]Engine{e, None} {
		for _, w := range whys {
			if w.e == owner && w.caps.Has(c) {
				return w.text
			}
		}
	}
	return "the " + engineNames[e][1] + " would silently ignore it"
}

// MarkdownTable renders the table as the README's hosts matrix; a test
// keeps the committed README in sync with it.
func MarkdownTable() string {
	runners := map[Cap]string{RunDynamic: "registry dynamics (async)", RunSync: "registry dynamics (sync)", RunCore: "core protocol", RunOneBit: "OneExtraBit"}
	trim := func(prefix string) func(Cap) string {
		return func(c Cap) string { return strings.TrimSuffix(strings.TrimPrefix(c.String(), prefix), ")") }
	}
	word := func(c Cap) string { return strings.Fields(c.String())[1] }
	var b strings.Builder
	b.WriteString("| Path | Runs | Selected by | Topologies | Models | Adversaries | Histogram only | Options beyond WithSeed, WithTrialWorkers |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		cells := []string{"`" + r.Engine.String() + "`", runners[r.Runner], list(r.Want, trim("WithEngine(")),
			list(r.Topology, word), list(r.Models, trim("WithModel(")), list(r.Adversaries, word), "—",
			list(r.Options&^Of(Seed, TrialWorkers, TickObserver), func(c Cap) string {
				if r.CliqueOnly.Has(c) {
					return c.String() + " (clique only)"
				}
				return c.String()
			})}
		if r.Histogram {
			cells[6] = "yes"
		}
		if r.Needs.Has(FlowLaw) {
			cells[1] += ", needs a flow law"
		}
		if r.AutoN > 0 {
			cells[2] += " (auto: histogram-only runs of at least " + strconv.FormatInt(r.AutoN, 10) + " nodes)"
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return b.String()
}

func list(s Set, name func(Cap) string) string {
	var parts []string
	for c := Cap(0); c < numCaps; c++ {
		if s.Has(c) {
			parts = append(parts, name(c))
		}
	}
	if len(parts) == 0 {
		return "—"
	}
	return strings.Join(parts, ", ")
}

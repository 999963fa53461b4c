package plurality

import "plurality/internal/protocols/dynamics"

// Kind classifies which runner family produced a Report (or which one a Job
// is bound to).
type Kind int

const (
	// KindCore is the paper's asynchronous core protocol (Theorem 1.3).
	KindCore Kind = iota + 1
	// KindDynamic is an asynchronous sampling dynamic from the protocol
	// registry, on either the per-node or the count-collapsed engine.
	KindDynamic
	// KindSyncDynamic is a sampling dynamic in the synchronous model
	// (discrete simultaneous rounds; WithModel(Synchronous)).
	KindSyncDynamic
	// KindOneExtraBit is the synchronous OneExtraBit protocol
	// (Theorem 1.2).
	KindOneExtraBit
)

// String returns the kind's stable textual name.
func (k Kind) String() string {
	switch k {
	case KindCore:
		return "core"
	case KindDynamic:
		return "dynamic"
	case KindSyncDynamic:
		return "sync-dynamic"
	case KindOneExtraBit:
		return "one-extra-bit"
	default:
		return "unknown"
	}
}

// Report is the unified result of any protocol run: every runner family —
// core, asynchronous and synchronous sampling dynamics, OneExtraBit — fills
// the shared fields, and the typed accessors (Core, Phases) expose the
// protocol-specific detail.
//
// A Report is valid even for runs that failed to converge (time/round
// budget exhausted, context canceled): Converged is false and the
// progress-so-far fields describe where the run stopped.
type Report struct {
	// Kind identifies the runner family that produced the report.
	Kind Kind
	// Protocol is the resolved protocol spec ("core", "onebit", or a
	// registry spec such as "j-majority:5").
	Protocol string
	// Converged reports whether the run reached consensus (all live nodes
	// agreeing on one color) within its budget.
	Converged bool
	// Winner is the consensus color if Converged, else the plurality when
	// the run ended.
	Winner Color
	// ConsensusTime is the parallel time at which consensus completed
	// (asynchronous runners; valid when Converged).
	ConsensusTime float64
	// Time is the parallel time of the last delivered activation
	// (asynchronous runners).
	Time float64
	// Rounds is the number of synchronous rounds executed (synchronous
	// runners; 0 for asynchronous ones).
	Rounds int
	// Ticks is the number of asynchronous activations delivered (0 for
	// synchronous runners).
	Ticks int64
	// Undecided is the number of nodes left in USD's undecided state when
	// the run ended; always 0 for rules without an undecided state.
	Undecided int64
	// Churns is the total number of churn events injected.
	Churns int64
	// Corruptions is the number of opinions the adversary rewrote:
	// corruption flips plus Byzantine lies (WithAdversary; 0 otherwise).
	Corruptions int64
	// Biased is the number of activations the adversary redirected or
	// suppressed (WithAdversary; 0 otherwise).
	Biased int64
	// Messages is the number of pull requests exchanged by a node-runtime
	// run (WithTransport / Cluster); 0 for simulator runs, which do not
	// pass messages at all. Deterministic on the in-process transport.
	Messages int64
	// Engine is the execution path that ran: "per-node", "occupancy",
	// "lumped", "leap", "sync", "core", "onebit" or "node".
	Engine string

	core   *CoreResult
	onebit *OneExtraBitResult
}

// Core returns the full core-protocol result (halt times, jump statistics,
// endgame safety) of a KindCore report; ok is false for any other kind.
func (r Report) Core() (res CoreResult, ok bool) {
	if r.core == nil {
		return CoreResult{}, false
	}
	return *r.core, true
}

// Phases returns the phase-structured detail (phase and round counts) of a
// KindOneExtraBit report; ok is false for any other kind. Per-phase
// trajectories are available through WithPhaseObserver or WithObserver.
func (r Report) Phases() (res OneExtraBitResult, ok bool) {
	if r.onebit == nil {
		return OneExtraBitResult{}, false
	}
	return *r.onebit, true
}

// reportFromCore converts a core-protocol result into a Report.
func reportFromCore(res CoreResult) Report {
	return Report{
		Kind:          KindCore,
		Converged:     res.Done,
		Winner:        res.Winner,
		ConsensusTime: res.ConsensusTime,
		Time:          res.Time,
		Ticks:         res.Ticks,
		Churns:        res.Churns,
		Corruptions:   res.Corruptions,
		Biased:        res.Biased,
		Engine:        "core",
		core:          &res,
	}
}

// reportFromAsync converts an asynchronous-dynamics result into a Report.
func reportFromAsync(res dynamics.AsyncResult) Report {
	rep := Report{
		Kind:        KindDynamic,
		Converged:   res.Done,
		Winner:      res.Winner,
		Time:        res.Time,
		Ticks:       res.Ticks,
		Undecided:   res.Undecided,
		Churns:      res.Churns,
		Corruptions: res.Corruptions,
		Biased:      res.Biased,
		Engine:      res.Engine.String(),
	}
	if res.Done {
		// The asynchronous dynamics complete consensus on their final tick.
		rep.ConsensusTime = res.Time
	}
	return rep
}

// reportFromSync converts a synchronous-dynamics result into a Report.
func reportFromSync(res dynamics.SyncResult) Report {
	return Report{
		Kind:        KindSyncDynamic,
		Converged:   res.Done,
		Winner:      res.Winner,
		Rounds:      res.Rounds,
		Undecided:   res.Undecided,
		Corruptions: res.Corruptions,
		Biased:      res.Biased,
		Engine:      "sync",
	}
}

// reportFromOneExtraBit converts a OneExtraBit result into a Report.
func reportFromOneExtraBit(res OneExtraBitResult) Report {
	return Report{
		Kind:      KindOneExtraBit,
		Converged: res.Done,
		Winner:    res.Winner,
		Rounds:    res.Rounds,
		Engine:    "onebit",
		onebit:    &res,
	}
}

package podc

import (
	"context"
	"fmt"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/mc"
)

// This file is the public face of the evidence subsystem: when a
// correspondence fails or a specification is refuted, the library answers
// with a machine-checked explanation instead of a bare boolean — a
// distinguishing formula replayed through the model checker (Theorem 2/5
// run backwards: non-equivalent states must disagree on some CTL*-X
// formula, and here is one), a witness or counterexample trace, and the
// decisive game path.  Request it with WithEvidence on correspondence
// operations, or with Verifier.Explain for model-checking verdicts.

// Evidence explains a failed correspondence.  Its Formula is a closed
// CTL* (no nexttime) formula over the compared vocabulary that is true at
// LeftState of the left (small) structure and false at RightState of the
// right (large) one — for indexed correspondences, over the normalised
// reductions of the failing index pair.  Every Evidence returned by this
// package has been replayed through the model checker on both sides;
// Confirmed records that.
type Evidence struct {
	// Reason identifies the violated clause of the correspondence
	// definition (initial states distinguished, a state unmatched, or the
	// index relation not total).
	Reason string `json:"reason"`
	// Pair is the failing index pair (zero for plain correspondences and
	// index-relation failures).
	Pair IndexPair `json:"pair"`
	// Formula is the distinguishing formula (invalid when the index
	// relation itself failed; check Formula.IsValid).
	Formula Formula `json:"-"`
	// FormulaText is the printed form of Formula ("" when none), for
	// serialisation.
	FormulaText string `json:"formula,omitempty"`
	// LeftState / RightState are the states Formula separates.
	LeftState  State `json:"left_state"`
	RightState State `json:"right_state"`
	// GamePath demonstrates the decisive condition (a stuttering path, a
	// divergence lasso, or the path to an unmatched state) on the side
	// named by GameSide; GameLoop is the index a trailing loop re-enters,
	// or -1.
	GamePath []State `json:"game_path,omitempty"`
	GameSide string  `json:"game_side,omitempty"`
	GameLoop int     `json:"game_loop"`
	// Confirmed reports that the formula was replayed through the model
	// checker and evaluated true on the left side and false on the right.
	Confirmed bool `json:"confirmed"`
}

// String renders the evidence on one line.
func (e *Evidence) String() string {
	if e == nil {
		return "<no evidence>"
	}
	if e.FormulaText == "" {
		return e.Reason
	}
	return fmt.Sprintf("%s: %s (replay confirmed: %v)", e.Reason, e.FormulaText, e.Confirmed)
}

// wrapRawEvidence packages raw bisim evidence for the public API;
// confirmed records whether its formula has already been replayed through
// the model checker.
func wrapRawEvidence(ev *bisim.Evidence, pair bisim.IndexPair, confirmed bool) *Evidence {
	out := &Evidence{
		Reason:     string(ev.Reason),
		Pair:       IndexPair{I: pair.I, I2: pair.I2},
		LeftState:  State(ev.LeftState),
		RightState: State(ev.RightState),
		GamePath:   statesFromRaw(ev.GamePath),
		GameSide:   ev.GameSide,
		GameLoop:   ev.GameLoop,
	}
	if ev.Formula != nil {
		out.Formula = wrapFormula(ev.Formula)
		out.FormulaText = out.Formula.String()
		out.Confirmed = confirmed
	}
	return out
}

// evidenceFromBisim replays raw evidence through the model checker and
// wraps it for the public API.  A replay mismatch is an error: the
// subsystem never hands out an unchecked distinguishing formula.
func evidenceFromBisim(ctx context.Context, ev *bisim.Evidence, pair bisim.IndexPair) (*Evidence, error) {
	if ev == nil {
		return nil, nil
	}
	if ev.Formula == nil {
		return wrapRawEvidence(ev, pair, false), nil
	}
	if err := mc.ReplayEvidence(ctx, ev); err != nil {
		return nil, fmt.Errorf("podc: evidence rejected by replay: %w", err)
	}
	return wrapRawEvidence(ev, pair, true), nil
}

// evidenceFromFamily wraps already-replayed family evidence.
func evidenceFromFamily(ev *family.Evidence) *Evidence {
	if ev == nil {
		return nil
	}
	out := &Evidence{
		Reason:    "index-relation-not-total",
		Pair:      IndexPair{I: ev.Pair.I, I2: ev.Pair.I2},
		Confirmed: ev.Confirmed,
		GameLoop:  -1,
	}
	if d := ev.Detail; d != nil {
		out.Reason = string(d.Reason)
		out.LeftState = State(d.LeftState)
		out.RightState = State(d.RightState)
		out.GamePath = statesFromRaw(d.GamePath)
		out.GameSide = d.GameSide
		out.GameLoop = d.GameLoop
		if d.Formula != nil {
			out.Formula = wrapFormula(d.Formula)
			out.FormulaText = out.Formula.String()
		}
	}
	return out
}

// Explanation is an explained model-checking verdict: the instantiated
// formula, whether it holds, the decisive subformula the diagnosis
// descended to, and — when that subformula has a diagnosable CTL shape —
// the witness or counterexample trace demonstrating it (a lasso for
// liveness violations).
type Explanation struct {
	// Formula is the queried formula after instantiating indexed
	// quantifiers.
	Formula Formula
	// Holds is the verdict at the queried state.
	Holds bool
	// Decisive is the subformula the trace attaches to: the failing
	// conjunct, the satisfied disjunct, the refuted universal property.
	Decisive Formula
	// DecisiveHolds is Decisive's verdict (polarity can flip under
	// negations).
	DecisiveHolds bool
	// Trace demonstrates Decisive (nil when its shape admits no
	// single-path evidence, e.g. a true universal property).
	Trace *Trace
	// Note says in words what the trace shows, or why there is none.
	Note string
}

// Explain reports whether the closed formula f holds in the initial state
// and explains the verdict with a decisive subformula and, where the shape
// admits one, a witness or counterexample trace.  Every false universal
// verdict of CTL shape yields a counterexample path (a lasso for liveness)
// and every true existential verdict a witness path.
func (v *Verifier) Explain(ctx context.Context, f Formula) (*Explanation, error) {
	if !f.IsValid() {
		return nil, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	raw, err := v.checker.Explain(ctx, f.raw(), v.checker.Structure().Initial())
	if err != nil {
		return nil, err
	}
	out := &Explanation{
		Formula:       wrapFormula(raw.Formula),
		Holds:         raw.Holds,
		DecisiveHolds: raw.DecisiveHolds,
		Note:          raw.Note,
	}
	if raw.Decisive != nil {
		out.Decisive = wrapFormula(raw.Decisive)
	}
	if raw.Trace != nil {
		out.Trace = wrapTrace(raw.Trace, v.checker.Structure())
	}
	return out, nil
}

package podc

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/kripke"
	"repro/internal/mc"
)

// Verifier model checks formulas against one structure.  Satisfaction sets
// are memoised per subformula, so repeated queries against the same
// structure are cheap; a Verifier is safe for concurrent use (queries are
// serialised internally so they can share the memo table).
//
// With WithMinimize the verifier first quotients the structure by its
// verified maximal self-correspondence, which preserves all CTL* (no
// nexttime) answers while shrinking the state space.
type Verifier struct {
	mu       sync.Mutex
	checker  *mc.Checker
	original *Structure
	checked  *Structure
	min      bool
}

// NewVerifier returns a Verifier for m.  When WithMinimize is given the
// quotient is computed under ctx (it runs the correspondence engine, so it
// is cancellable); other options select the comparison vocabulary used by
// the quotient.
func NewVerifier(ctx context.Context, m *Structure, opts ...Option) (*Verifier, error) {
	return newVerifier(ctx, m, buildConfig(opts))
}

func newVerifier(ctx context.Context, m *Structure, cfg config) (*Verifier, error) {
	if m == nil || m.raw() == nil {
		return nil, fmt.Errorf("podc: NewVerifier: nil structure")
	}
	v := &Verifier{original: m, checked: m}
	if cfg.minimize {
		checker, minres, err := mc.NewMinimized(ctx, m.raw(), cfg.bisimOptions())
		if err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		v.checker = checker
		if minres != nil {
			v.checked = wrapStructure(minres.Quotient)
			v.min = true
		}
	} else {
		v.checker = mc.New(m.raw())
	}
	// WithWorkers(n > 1) also unlocks the checker's word-at-a-time worker
	// pools (frontier gathers, packed tableau passes); answers are identical
	// at every setting.
	if v.checker != nil {
		v.checker.SetWorkers(cfg.workers)
	}
	return v, nil
}

// Structure returns the structure the verifier actually checks: the
// quotient when minimization succeeded, the original otherwise.
func (v *Verifier) Structure() *Structure { return v.checked }

// Original returns the structure the verifier was created for.
func (v *Verifier) Original() *Structure { return v.original }

// Minimized reports whether the verifier checks a verified quotient.
func (v *Verifier) Minimized() bool { return v.min }

// Check reports whether the closed formula f holds in the initial state.
func (v *Verifier) Check(ctx context.Context, f Formula) (bool, error) {
	if !f.IsValid() {
		return false, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.checker.Holds(ctx, f.raw())
}

// CheckAt reports whether f holds at state s.
func (v *Verifier) CheckAt(ctx context.Context, f Formula, s State) (bool, error) {
	if !f.IsValid() {
		return false, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.checker.HoldsAt(ctx, f.raw(), kripke.State(s))
}

// CountSat returns how many states satisfy f.
func (v *Verifier) CountSat(ctx context.Context, f Formula) (int, error) {
	if !f.IsValid() {
		return 0, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.checker.CountSat(ctx, f.raw())
}

// SatStates returns the states satisfying f in increasing order.
func (v *Verifier) SatStates(ctx context.Context, f Formula) ([]State, error) {
	if !f.IsValid() {
		return nil, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	ss, err := v.checker.SatStates(ctx, f.raw())
	if err != nil {
		return nil, err
	}
	return statesFromRaw(ss), nil
}

// MemoStats reports how many satisfaction sets the verifier has memoised
// and their size in bytes.  It does not wait for a running query.
func (v *Verifier) MemoStats() (entries, bytes int) { return v.checker.MemoStats() }

// Witness returns a trace demonstrating that the existential CTL formula f
// holds in the initial state (EX g, EF g, E[g U h], EG g shapes, possibly
// under instantiated indexed quantifiers).
func (v *Verifier) Witness(ctx context.Context, f Formula) (*Trace, error) {
	if !f.IsValid() {
		return nil, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	tr, err := v.checker.Witness(ctx, f.raw(), v.checker.Structure().Initial())
	if err != nil {
		return nil, err
	}
	return wrapTrace(tr, v.checker.Structure()), nil
}

// Counterexample returns a trace demonstrating that the universal CTL
// formula f fails in the initial state (AG g, AF g, A[g U h], AX g shapes).
func (v *Verifier) Counterexample(ctx context.Context, f Formula) (*Trace, error) {
	if !f.IsValid() {
		return nil, errInvalidFormula()
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	tr, err := v.checker.Counterexample(ctx, f.raw(), v.checker.Structure().Initial())
	if err != nil {
		return nil, err
	}
	return wrapTrace(tr, v.checker.Structure()), nil
}

// Trace is a finite path through a structure, possibly ending in a loop
// back to the state at index LoopStart (LoopStart < 0 means a plain finite
// path).  Traces are produced as witnesses and counterexamples.
type Trace struct {
	// States is the sequence of visited states.
	States []State
	// LoopStart is the index the trailing loop re-enters, or -1.
	LoopStart int

	text string
}

func wrapTrace(mt *mc.Trace, m *kripke.Structure) *Trace {
	if mt == nil {
		return nil
	}
	return &Trace{
		States:    statesFromRaw(mt.States),
		LoopStart: mt.LoopStart,
		text:      mt.Format(m),
	}
}

// IsLasso reports whether the trace ends in a loop.
func (t *Trace) IsLasso() bool { return t != nil && t.LoopStart >= 0 }

// String renders the trace with each state's label, in the form the command
// line tools print.
func (t *Trace) String() string {
	if t == nil {
		return "<no trace>"
	}
	return t.text
}

// Package mc implements explicit-state model checking for the logics of
// package logic over the Kripke structures of package kripke.
//
// Two engines are provided behind a single API:
//
//   - the linear-time CTL labelling algorithm of Clarke, Emerson and Sistla
//     (1986), which the paper uses in Section 5 to verify the mutual
//     exclusion properties on the two-process ring, and
//   - a full CTL* engine that handles arbitrary path formulas by the
//     classical tableau construction (maximal state subformulas are replaced
//     by fresh atoms, then E ψ is decided by searching the product of the
//     structure with the tableau of ψ for a path into a self-fulfilling
//     strongly connected component).
//
// Indexed CTL* formulas are evaluated on a concrete structure by
// instantiating the ∧i / ∨i quantifiers over the structure's index set
// (logic.Instantiate); the "exactly one" atoms O_i P_i are evaluated
// directly from the structure's labelling.  One exception: a checker given
// a verified symmetry action (SetIndexAction) answers Holds/HoldsAt for a
// top-level ∧i φ(i) or ∨i φ(i) whose body mentions only the bound index by
// computing the satisfaction set of φ(rep) once per orbit representative
// and testing the image of the queried state for each index (orbit.go).
// Sat, CountSat, SatStates, witnesses, counterexamples and explanations
// always instantiate.
//
// A Checker memoises the satisfaction set of every subformula it evaluates
// as a kripke.BitSet — one bit per state — so repeated queries against the
// same structure are cheap and each memo entry costs n/8 bytes.  NewMinimized
// (minimize.go) additionally routes the checker through the correspondence
// engine of package bisim: the structure is quotiented by its verified
// maximal self-correspondence first, which preserves all CTL* (no nexttime)
// answers while shrinking the state space.
package mc

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// Checker evaluates formulas over a fixed Kripke structure.  A Checker is
// not safe for concurrent use; create one per goroutine (they are cheap, the
// underlying structure is shared).  MemoStats alone may be called while a
// query runs.
type Checker struct {
	m *kripke.Structure
	// cache is the memo.  Its entries are never modified once inserted, so
	// atom entries may alias the structure's StatesWith sets.
	cache map[string]kripke.BitSet
	stats Stats

	// memoEntries and memoBytes track the memo's size for MemoStats.
	memoEntries, memoBytes atomic.Int64

	// workers caps the worker pools of the word-at-a-time engines (the
	// frontier gather in vector.go, the packed tableau's edge and component
	// passes).  Zero or one means fully sequential evaluation; the output is
	// identical at every setting.
	workers int

	// ctx is the context of the public query currently being evaluated; the
	// engines poll it at subformula boundaries and inside the tableau
	// product so long-running checks are cancellable.
	ctx context.Context

	// action, when set, is a verified index-permutation action on m that
	// Holds/HoldsAt use to evaluate top-level index quantifiers once per
	// orbit (orbit.go).
	action *kripke.IndexAction
}

// SetWorkers caps the checker's internal worker pools at n (0 or 1 disables
// fan-out).  Satisfaction sets, stats counters, witnesses and errors are
// independent of the setting; only wall-clock time changes.  It returns the
// checker for chaining and must not be called while a query is running.
func (c *Checker) SetWorkers(n int) *Checker {
	if n < 0 {
		n = 0
	}
	c.workers = n
	return c
}

// bind installs ctx for the duration of one public query.  A nil context is
// treated as context.Background so zero-value-style callers keep working.
func (c *Checker) bind(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
}

// cancelled polls the query context without blocking.
func (c *Checker) cancelled() error {
	if c.ctx == nil {
		return nil
	}
	select {
	case <-c.ctx.Done():
		return c.ctx.Err()
	default:
		return nil
	}
}

// Stats reports work counters accumulated by a Checker.  They are used by
// the experiment harness to compare the direct and the parameterized
// verification routes.
type Stats struct {
	// StateSetsComputed counts distinct subformulas whose satisfaction set
	// was computed (cache misses).
	StateSetsComputed int
	// FixpointIterations counts iterations of the EU/EG fixpoint loops.
	FixpointIterations int
	// TableauNodes counts nodes constructed across all tableau products.
	TableauNodes int
	// TableauRuns counts how many E-path formulas required the CTL* engine.
	TableauRuns int
	// CTLFastPath counts how many E-path formulas were CTL-shaped and used
	// the labelling algorithm.
	CTLFastPath int
}

// New returns a Checker for m.
func New(m *kripke.Structure) *Checker {
	return &Checker{m: m, cache: make(map[string]kripke.BitSet)}
}

// Structure returns the structure the checker operates on.
func (c *Checker) Structure() *kripke.Structure { return c.m }

// Stats returns the accumulated work counters.
func (c *Checker) Stats() Stats { return c.stats }

// MemoStats reports how many satisfaction sets the checker has memoised and
// their size in bytes: the sets' words plus the text of their keys.  The
// counters are atomics updated on every memo insert, so MemoStats may be
// called while a query is running.
func (c *Checker) MemoStats() (entries, bytes int) {
	return int(c.memoEntries.Load()), int(c.memoBytes.Load())
}

// Holds reports whether the closed formula f holds in the initial state of
// the structure, i.e. whether M, s0 ⊨ f.  Cancelling ctx aborts the
// evaluation at the next subformula or tableau boundary.
func (c *Checker) Holds(ctx context.Context, f logic.Formula) (bool, error) {
	return c.HoldsAt(ctx, f, c.m.Initial())
}

// HoldsAt reports whether f holds at state s.
func (c *Checker) HoldsAt(ctx context.Context, f logic.Formula, s kripke.State) (bool, error) {
	// Satisfaction sets are rounded up to whole words, so the bound is the
	// structure's state count; it is checked before any set is computed.
	if n := c.m.NumStates(); int(s) < 0 || int(s) >= n {
		return false, fmt.Errorf("mc: state %d out of range [0,%d)", s, n)
	}
	if q, ok := c.orbitQuantifier(f); ok {
		c.bind(ctx)
		return c.holdsByOrbit(q, s)
	}
	sat, err := c.Sat(ctx, f)
	if err != nil {
		return false, err
	}
	return sat.Get(int(s)), nil
}

// Sat returns the satisfaction set of the state formula f: a BitSet over the
// structure's states holding exactly the states satisfying f.  Indexed
// quantifiers are instantiated over the structure's index set first.  The
// returned set is shared with the checker's memo and must not be modified.
func (c *Checker) Sat(ctx context.Context, f logic.Formula) (kripke.BitSet, error) {
	if f == nil {
		return nil, fmt.Errorf("mc: nil formula")
	}
	c.bind(ctx)
	inst := f
	if logic.HasIndexedQuantifier(f) || len(logic.FreeIndexVars(f)) > 0 {
		g, err := logic.Instantiate(f, c.m.IndexValues())
		if err != nil {
			return nil, err
		}
		inst = g
	}
	if !logic.IsStateFormula(inst) {
		return nil, fmt.Errorf("mc: %s is not a state formula (wrap path formulas in A or E)", f)
	}
	return c.satState(inst)
}

// CountSat returns how many states satisfy f.
func (c *Checker) CountSat(ctx context.Context, f logic.Formula) (int, error) {
	sat, err := c.Sat(ctx, f)
	if err != nil {
		return 0, err
	}
	return sat.Count(), nil
}

// SatStates returns the states satisfying f in increasing order.
func (c *Checker) SatStates(ctx context.Context, f logic.Formula) ([]kripke.State, error) {
	sat, err := c.Sat(ctx, f)
	if err != nil {
		return nil, err
	}
	var out []kripke.State
	sat.ForEach(func(s int) bool {
		out = append(out, kripke.State(s))
		return true
	})
	return out, nil
}

// satState evaluates a state formula that contains no indexed quantifiers
// and no free index variables.
func (c *Checker) satState(f logic.Formula) (kripke.BitSet, error) {
	key := logic.Key(f)
	if sat, ok := c.cache[key]; ok {
		return sat, nil
	}
	if err := c.cancelled(); err != nil {
		return nil, err
	}
	sat, err := c.computeState(f)
	if err != nil {
		return nil, err
	}
	c.cache[key] = sat
	c.memoEntries.Add(1)
	c.memoBytes.Add(int64(len(key) + 8*len(sat)))
	c.stats.StateSetsComputed++
	return sat, nil
}

// computeState returns a set the memo may keep: every combinator below
// writes into a fresh set and leaves its operands untouched.
func (c *Checker) computeState(f logic.Formula) (kripke.BitSet, error) {
	n := c.m.NumStates()
	switch node := f.(type) {
	case *logic.Const:
		return constSet(n, node.Value), nil
	case *logic.Atom:
		return c.atomSet(kripke.P(node.Name)), nil
	case *logic.InstAtom:
		return c.atomSet(kripke.PI(node.Prop, node.Index)), nil
	case *logic.IndexedAtom:
		return nil, fmt.Errorf("mc: formula contains free indexed proposition %s", node)
	case *logic.One:
		sat := kripke.NewBitSet(n)
		for s := 0; s < n; s++ {
			if c.m.ExactlyOne(kripke.State(s), node.Prop) {
				sat.Set(s)
			}
		}
		return sat, nil
	case *logic.Not:
		inner, err := c.satState(node.F)
		if err != nil {
			return nil, err
		}
		return inner.Complement(n), nil
	case *logic.And:
		sat := constSet(n, true)
		for _, g := range node.Fs {
			gs, err := c.satState(g)
			if err != nil {
				return nil, err
			}
			sat.And(gs)
		}
		return sat, nil
	case *logic.Or:
		sat := constSet(n, false)
		for _, g := range node.Fs {
			gs, err := c.satState(g)
			if err != nil {
				return nil, err
			}
			sat.Or(gs)
		}
		return sat, nil
	case *logic.Implies:
		return c.satState(logic.Disj(logic.Neg(node.L), node.R))
	case *logic.Iff:
		l, err := c.satState(node.L)
		if err != nil {
			return nil, err
		}
		r, err := c.satState(node.R)
		if err != nil {
			return nil, err
		}
		// l ↔ r holds where both hold or neither does.
		sat := intersect(l, r)
		neither := l.Complement(n)
		neither.AndNot(r)
		sat.Or(neither)
		return sat, nil
	case *logic.A:
		// A p ≡ ¬ E ¬p.
		inner, err := c.satExistsPath(logic.Neg(node.F))
		if err != nil {
			return nil, err
		}
		return inner.Complement(n), nil
	case *logic.E:
		return c.satExistsPath(node.F)
	case *logic.ForallIndex, *logic.ExistsIndex:
		return nil, fmt.Errorf("mc: internal error: indexed quantifier survived instantiation in %s", f)
	default:
		return nil, fmt.Errorf("mc: %s is not a state formula (a bare temporal operator must be wrapped in A or E)", f)
	}
}

// satExistsPath evaluates E p for a path formula p.  It takes the CTL fast
// path when p is a single temporal operator over state formulas and falls
// back to the tableau engine otherwise.
func (c *Checker) satExistsPath(p logic.Formula) (kripke.BitSet, error) {
	// E applied to a state formula adds nothing (every state starts some
	// path when the relation is total; on partial structures we interpret
	// E f over finite or infinite paths, which agrees for state formulas).
	if logic.IsStateFormula(p) {
		return c.satState(p)
	}
	if sat, ok, err := c.tryCTL(p); err != nil {
		return nil, err
	} else if ok {
		c.stats.CTLFastPath++
		return sat, nil
	}
	c.stats.TableauRuns++
	return c.satExistsLTL(p)
}

// tryCTL recognises E applied to a single temporal operator whose operands
// are state formulas and evaluates it with the labelling algorithm.  The
// derived operators F, G, R and W are rewritten to EU/EG combinations first,
// and a negated operator is pushed through its dual (E ¬X g ≡ EX ¬g,
// E ¬(g U h) ≡ E[¬h U (¬g ∧ ¬h)] ∨ EG ¬h, E ¬F g ≡ EG ¬g, E ¬G g ≡ EF ¬g) —
// the same identities the counterexample extractor in witness.go relies on.
// Like the positive EU/EG fast paths, the negation rewrites agree with the
// tableau engine on total transition relations (every structure the repo
// builds is total via MakeTotal).
func (c *Checker) tryCTL(p logic.Formula) (kripke.BitSet, bool, error) {
	switch node := p.(type) {
	case *logic.X:
		if !logic.IsStateFormula(node.F) {
			return nil, false, nil
		}
		inner, err := c.satState(node.F)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEX(inner)
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	case *logic.U:
		if !logic.IsStateFormula(node.L) || !logic.IsStateFormula(node.R) {
			return nil, false, nil
		}
		l, err := c.satState(node.L)
		if err != nil {
			return nil, false, err
		}
		r, err := c.satState(node.R)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEU(l, r)
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	case *logic.Ev:
		if !logic.IsStateFormula(node.F) {
			return nil, false, nil
		}
		r, err := c.satState(node.F)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEU(constSet(c.m.NumStates(), true), r)
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	case *logic.Alw:
		if !logic.IsStateFormula(node.F) {
			return nil, false, nil
		}
		inner, err := c.satState(node.F)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEG(inner)
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	case *logic.R:
		// E[g R h] ≡ E[h U (g ∧ h)] ∨ EG h.
		if !logic.IsStateFormula(node.L) || !logic.IsStateFormula(node.Rhs) {
			return nil, false, nil
		}
		g, err := c.satState(node.L)
		if err != nil {
			return nil, false, err
		}
		h, err := c.satState(node.Rhs)
		if err != nil {
			return nil, false, err
		}
		return c.euOrEG(h, intersect(g, h), h)
	case *logic.W:
		// E[g W h] ≡ E[g U h] ∨ EG g.
		if !logic.IsStateFormula(node.L) || !logic.IsStateFormula(node.R) {
			return nil, false, nil
		}
		g, err := c.satState(node.L)
		if err != nil {
			return nil, false, err
		}
		h, err := c.satState(node.R)
		if err != nil {
			return nil, false, err
		}
		return c.euOrEG(g, h, g)
	case *logic.Not:
		return c.tryCTLNegated(node.F)
	default:
		return nil, false, nil
	}
}

// euOrEG evaluates E[f U g] ∨ EG h, the shape shared by the R, W and
// negated-U rewrites.
func (c *Checker) euOrEG(f, g, h kripke.BitSet) (kripke.BitSet, bool, error) {
	sat, err := c.satEU(f, g)
	if err != nil {
		return nil, false, err
	}
	eg, err := c.satEG(h)
	if err != nil {
		return nil, false, err
	}
	sat.Or(eg)
	return sat, true, nil
}

// tryCTLNegated handles E ¬p.  A negated state formula is itself a state
// formula; a negated single temporal operator over state formulas is pushed
// through its dual so it stays on the labelling fast path instead of falling
// to the tableau.  Deeper negations return ok=false.
func (c *Checker) tryCTLNegated(p logic.Formula) (kripke.BitSet, bool, error) {
	n := c.m.NumStates()
	if logic.IsStateFormula(p) {
		inner, err := c.satState(p)
		if err != nil {
			return nil, false, err
		}
		return inner.Complement(n), true, nil
	}
	switch node := p.(type) {
	case *logic.X:
		// E ¬X g ≡ EX ¬g.
		if !logic.IsStateFormula(node.F) {
			return nil, false, nil
		}
		inner, err := c.satState(node.F)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEX(inner.Complement(n))
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	case *logic.U:
		// E ¬(g U h) ≡ E[¬h U (¬g ∧ ¬h)] ∨ EG ¬h.
		if !logic.IsStateFormula(node.L) || !logic.IsStateFormula(node.R) {
			return nil, false, nil
		}
		g, err := c.satState(node.L)
		if err != nil {
			return nil, false, err
		}
		h, err := c.satState(node.R)
		if err != nil {
			return nil, false, err
		}
		notH := h.Complement(n)
		return c.euOrEG(notH, intersect(g.Complement(n), notH), notH)
	case *logic.Ev:
		// E ¬F g ≡ EG ¬g.
		if !logic.IsStateFormula(node.F) {
			return nil, false, nil
		}
		inner, err := c.satState(node.F)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEG(inner.Complement(n))
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	case *logic.Alw:
		// E ¬G g ≡ EF ¬g.
		if !logic.IsStateFormula(node.F) {
			return nil, false, nil
		}
		inner, err := c.satState(node.F)
		if err != nil {
			return nil, false, err
		}
		sat, err := c.satEU(constSet(n, true), inner.Complement(n))
		if err != nil {
			return nil, false, err
		}
		return sat, true, nil
	default:
		return nil, false, nil
	}
}

// atomSet returns the satisfaction set of an atomic proposition: the
// structure's precomputed per-prop state set itself, shared rather than
// copied (memo entries are never modified), or an empty set when no state
// carries p.
func (c *Checker) atomSet(p kripke.Prop) kripke.BitSet {
	if bs := c.m.StatesWith(p); bs != nil {
		return bs
	}
	return kripke.NewBitSet(c.m.NumStates())
}

// constSet returns a fresh set over n states holding all of them (v) or
// none.
func constSet(n int, v bool) kripke.BitSet {
	sat := kripke.NewBitSet(n)
	if v {
		return sat.Complement(n)
	}
	return sat
}

// intersect returns a fresh set a ∩ b.
func intersect(a, b kripke.BitSet) kripke.BitSet {
	out := a.Clone()
	out.And(b)
	return out
}

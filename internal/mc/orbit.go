package mc

import (
	"fmt"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// SetIndexAction gives the checker a verified index-permutation action on
// its structure (nil removes it).  With an action, Holds and HoldsAt decide
// a top-level ∧i φ(i) or ∨i φ(i) whose body φ mentions the bound index and
// no other — no index constants, no nested index quantifier — from one
// satisfaction set per orbit of indices: s ⊨ φ(k) iff t ⊨ φ(rep) for the
// state t and representative rep that kripke.IndexAction.ToRepresentative
// gives for k.  Every other query, and every formula of another shape,
// instantiates as before.  The orbit path evaluates exactly the subformulas
// instantiation evaluates for the representatives, under the same memo
// keys, so both paths share one memo.  SetIndexAction must not be called
// while a query is running.
func (c *Checker) SetIndexAction(a *kripke.IndexAction) error {
	if a != nil && a.Structure() != c.m {
		return fmt.Errorf("mc: index action was verified on %q, not on the checker's structure %q", a.Structure().Name(), c.m.Name())
	}
	c.action = a
	return nil
}

// orbitQuery is a top-level index quantifier that orbit evaluation
// answers: the bound variable, its body and which quantifier it is.
type orbitQuery struct {
	variable string
	body     logic.Formula
	forall   bool
}

// orbitQuantifier reports whether f is a query orbit evaluation applies to
// (see SetIndexAction).
func (c *Checker) orbitQuantifier(f logic.Formula) (orbitQuery, bool) {
	if c.action == nil {
		return orbitQuery{}, false
	}
	var q orbitQuery
	switch node := f.(type) {
	case *logic.ForallIndex:
		q = orbitQuery{variable: node.Var, body: node.Body, forall: true}
	case *logic.ExistsIndex:
		q = orbitQuery{variable: node.Var, body: node.Body}
	default:
		return orbitQuery{}, false
	}
	if !logic.IsStateFormula(q.body) {
		return orbitQuery{}, false
	}
	mentioned, other := false, false
	logic.Walk(q.body, func(g logic.Formula) bool {
		switch node := g.(type) {
		case *logic.IndexedAtom:
			if node.Var == q.variable {
				mentioned = true
			} else {
				other = true
			}
		case *logic.InstAtom, *logic.ForallIndex, *logic.ExistsIndex:
			other = true
		}
		return !other
	})
	return q, mentioned && !other
}

// holdsByOrbit decides q at state s.  The satisfaction set of each orbit's
// instance φ(rep) is computed (or read from the memo) the first time an
// index of that orbit is reached, and the scan stops at the first index
// that decides the quantifier, as the instantiated conjunction or
// disjunction would.
func (c *Checker) holdsByOrbit(q orbitQuery, s kripke.State) (bool, error) {
	reps := c.action.Representatives()
	sats := make([]kripke.BitSet, len(reps))
	for k := range c.m.IndexValues() {
		t, o := c.action.ToRepresentative(k, s)
		if sats[o] == nil {
			sat, err := c.satState(logic.Substitute(q.body, q.variable, reps[o]))
			if err != nil {
				return false, err
			}
			sats[o] = sat
		}
		if sats[o].Get(int(t)) != q.forall {
			return !q.forall, nil
		}
	}
	return q.forall, nil
}

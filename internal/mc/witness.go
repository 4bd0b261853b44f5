package mc

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// This file produces witnesses and counterexamples for the CTL fragment.
// A witness for an existential property (EF g, E[f U g], EG f, EX f) is a
// concrete path demonstrating it; a counterexample for a universal property
// (AG f, AF f, A[f U g], AX f) is a witness for the dual existential
// property of the negation.  These are exactly the diagnostics the original
// EMC model checker produced and are what cmd/ringverify prints when a
// property fails.

// Trace is a finite path, possibly ending in a loop back to the state at
// index LoopStart (LoopStart < 0 means the trace is a plain finite path).
type Trace struct {
	States    []kripke.State
	LoopStart int
}

// IsLasso reports whether the trace ends in a loop.
func (t *Trace) IsLasso() bool { return t != nil && t.LoopStart >= 0 }

// Format renders the trace using the structure's labels.
func (t *Trace) Format(m *kripke.Structure) string {
	if t == nil || len(t.States) == 0 {
		return "(empty trace)"
	}
	var sb strings.Builder
	for i, s := range t.States {
		if i > 0 {
			sb.WriteString(" -> ")
		}
		if t.LoopStart == i {
			sb.WriteString("[loop: ")
		}
		fmt.Fprintf(&sb, "s%d%v", s, m.Label(s))
	}
	if t.IsLasso() {
		sb.WriteString(" ...]")
	}
	return sb.String()
}

// Witness returns a trace demonstrating that the existential CTL formula f
// holds at state s, or an error if f does not hold at s or is not of a
// supported shape (EX g, EF g, E[g U h], EG g, possibly under instantiated
// indexed quantifiers).
func (c *Checker) Witness(ctx context.Context, f logic.Formula, s kripke.State) (*Trace, error) {
	holds, err := c.HoldsAt(ctx, f, s)
	if err != nil {
		return nil, err
	}
	if !holds {
		return nil, fmt.Errorf("mc: %s does not hold at state %d; no witness exists", f, s)
	}
	e, ok := f.(*logic.E)
	if !ok {
		return nil, fmt.Errorf("mc: witnesses are produced for E-rooted CTL formulas, got %s", f)
	}
	switch node := e.F.(type) {
	case *logic.X:
		inner, err := c.Sat(ctx, node.F)
		if err != nil {
			return nil, err
		}
		if t := c.succIn(s, inner); t != kripke.NoState {
			return &Trace{States: []kripke.State{s, t}, LoopStart: -1}, nil
		}
	case *logic.Ev:
		goal, err := c.Sat(ctx, node.F)
		if err != nil {
			return nil, err
		}
		all := constSet(c.m.NumStates(), true)
		return c.untilWitness(s, all, goal)
	case *logic.U:
		through, err := c.Sat(ctx, node.L)
		if err != nil {
			return nil, err
		}
		goal, err := c.Sat(ctx, node.R)
		if err != nil {
			return nil, err
		}
		return c.untilWitness(s, through, goal)
	case *logic.Alw:
		inv, err := c.Sat(ctx, node.F)
		if err != nil {
			return nil, err
		}
		return c.lassoWitness(s, inv)
	}
	return nil, fmt.Errorf("mc: unsupported witness shape E %s", e.F)
}

// Counterexample returns a trace demonstrating that the universal CTL
// formula f fails at state s.  Supported shapes: AG g (path to a ¬g state),
// AF g (a ¬g lasso), A[g U h] and AX g.
func (c *Checker) Counterexample(ctx context.Context, f logic.Formula, s kripke.State) (*Trace, error) {
	holds, err := c.HoldsAt(ctx, f, s)
	if err != nil {
		return nil, err
	}
	if holds {
		return nil, fmt.Errorf("mc: %s holds at state %d; no counterexample exists", f, s)
	}
	a, ok := f.(*logic.A)
	if !ok {
		return nil, fmt.Errorf("mc: counterexamples are produced for A-rooted CTL formulas, got %s", f)
	}
	switch node := a.F.(type) {
	case *logic.Alw:
		// ¬AG g has an EF ¬g witness.
		return c.Witness(ctx, logic.EF(logic.Neg(node.F)), s)
	case *logic.Ev:
		// ¬AF g has an EG ¬g witness.
		return c.Witness(ctx, logic.EG(logic.Neg(node.F)), s)
	case *logic.X:
		return c.Witness(ctx, logic.EX(logic.Neg(node.F)), s)
	case *logic.U:
		// ¬A[g U h] ≡ E[¬h U (¬g ∧ ¬h)] ∨ EG ¬h.
		notH := logic.Neg(node.R)
		alt1 := logic.EU(notH, logic.Conj(logic.Neg(node.L), notH))
		if holds, err := c.HoldsAt(ctx, alt1, s); err == nil && holds {
			return c.Witness(ctx, alt1, s)
		}
		return c.Witness(ctx, logic.EG(notH), s)
	}
	return nil, fmt.Errorf("mc: unsupported counterexample shape A %s", a.F)
}

// untilWitness finds a shortest path from s to a goal state travelling
// through "through" states (the start state may be a goal state itself).
func (c *Checker) untilWitness(s kripke.State, through, goal kripke.BitSet) (*Trace, error) {
	if goal.Get(int(s)) {
		return &Trace{States: []kripke.State{s}, LoopStart: -1}, nil
	}
	if !through.Get(int(s)) {
		return nil, fmt.Errorf("mc: state %d satisfies neither operand of the until", s)
	}
	prev := make([]kripke.State, c.m.NumStates())
	seen := make([]bool, c.m.NumStates())
	for i := range prev {
		prev[i] = kripke.NoState
	}
	queue := []kripke.State{s}
	seen[s] = true
	var target = kripke.NoState
bfs:
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range c.m.Succ(u) {
			if seen[v] {
				continue
			}
			seen[v] = true
			prev[v] = u
			if goal.Get(int(v)) {
				target = v
				break bfs
			}
			if through.Get(int(v)) {
				queue = append(queue, v)
			}
		}
	}
	if target == kripke.NoState {
		return nil, fmt.Errorf("mc: internal error: until witness search failed from state %d", s)
	}
	var rev []kripke.State
	for v := target; v != kripke.NoState; v = prev[v] {
		rev = append(rev, v)
	}
	states := make([]kripke.State, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		states = append(states, rev[i])
	}
	return &Trace{States: states, LoopStart: -1}, nil
}

// lassoWitness finds a path from s that stays in inv forever: a stem leading
// to a cycle entirely inside inv.
func (c *Checker) lassoWitness(s kripke.State, inv kripke.BitSet) (*Trace, error) {
	// Greedy walk inside states satisfying EG inv (which s does, since the
	// caller established EG inv at s): repeatedly move to a successor that
	// still satisfies EG inv until a state repeats.
	egInv, err := c.satEG(inv)
	if err != nil {
		return nil, err
	}
	if !egInv.Get(int(s)) {
		return nil, fmt.Errorf("mc: internal error: lasso witness requested at a non-EG state %d", s)
	}
	visitedAt := map[kripke.State]int{}
	var states []kripke.State
	cur := s
	for {
		if at, ok := visitedAt[cur]; ok {
			return &Trace{States: states, LoopStart: at}, nil
		}
		visitedAt[cur] = len(states)
		states = append(states, cur)
		next := c.succIn(cur, egInv)
		if next == kripke.NoState {
			return nil, fmt.Errorf("mc: internal error: EG witness walk stuck at state %d", cur)
		}
		cur = next
	}
}

// succIn returns the first successor of s in set, or kripke.NoState.
func (c *Checker) succIn(s kripke.State, set kripke.BitSet) kripke.State {
	for _, t := range c.m.Succ(s) {
		if set.Get(int(t)) {
			return t
		}
	}
	return kripke.NoState
}

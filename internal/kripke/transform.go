package kripke

import "fmt"

// This file implements the structural operations on Kripke structures that
// the paper relies on:
//
//   - RestrictReachable: the restriction of a (possibly non-total)
//     transition graph to the states reachable from the initial state, which
//     is how Section 5 turns the mutual-exclusion graph G_r into a Kripke
//     structure M_r;
//   - Reduce: the reduction M|i of Section 4 that erases all indexed
//     propositions except those of process i;
//   - Reindex: renaming of index values, used to compare reductions taken at
//     different index values ((i,i')-correspondence compares M|i with
//     M'|i' after renaming both to a canonical index);
//   - MakeTotal: adding self loops to deadlock states (a convenience for
//     user-supplied models; the paper's example never needs it);
//   - Induced: the substructure induced by an arbitrary state subset.

// ReachableStates returns the set of states reachable from the initial
// state (including it), in increasing order.  The slice is fresh and may be
// modified by the caller; Reachable returns the shared set without copying.
func (m *Structure) ReachableStates() []State {
	reach := m.Reachable()
	out := make([]State, 0, reach.Count())
	reach.ForEach(func(s int) bool {
		out = append(out, State(s))
		return true
	})
	return out
}

// RestrictReachable returns the substructure induced by the states reachable
// from the initial state.  State identifiers are renumbered densely; the
// returned mapping old[newState] = oldState records the renumbering.
func (m *Structure) RestrictReachable() (*Structure, []State) {
	return m.Induced(m.ReachableStates())
}

// Induced returns the substructure induced by keep (which must contain the
// initial state), with states renumbered densely in the order given.  The
// second result maps new state identifiers back to the original ones.
func (m *Structure) Induced(keep []State) (*Structure, []State) {
	oldToNew := make(map[State]State, len(keep))
	for i, s := range keep {
		oldToNew[s] = State(i)
	}
	b := NewBuilder(m.name)
	for _, s := range keep {
		ns := b.AddState(m.Label(s)...)
		// Preserve the derived "exactly one" truth values even when m is a
		// reduction whose labels no longer determine them.
		_ = b.SetOnes(ns, m.ones[s])
	}
	for _, i := range m.indexValues {
		b.DeclareIndex(i)
	}
	for _, s := range keep {
		for _, t := range m.Succ(s) {
			if nt, ok := oldToNew[t]; ok {
				// Both endpoints kept: add the edge (errors are impossible
				// because the states were just added).
				_ = b.AddTransition(oldToNew[s], nt)
			}
		}
	}
	if init, ok := oldToNew[m.initial]; ok {
		_ = b.SetInitial(init)
	} else {
		_ = b.SetInitial(0)
	}
	out, err := b.BuildPartial()
	if err != nil {
		// Unreachable: keep is non-empty whenever m is non-empty.
		out = m
	}
	oldOf := make([]State, len(keep))
	copy(oldOf, keep)
	return out, oldOf
}

// Reduce returns the reduction M|i of Section 4: a structure identical to m
// except that every indexed proposition whose index is not i is removed from
// the labels.  Plain propositions — including the derived "exactly one"
// propositions, which the paper places in AP — are preserved.
func (m *Structure) Reduce(i int) *Structure {
	return m.reduceWith(i, i)
}

// ReduceNormalized is Reduce followed by renaming the surviving index i to
// the canonical index 0.  Two normalized reductions M|i and M'|i' are
// directly comparable state-by-state, which is how the bisimulation engine
// implements (i,i')-correspondence.
func (m *Structure) ReduceNormalized(i int) *Structure {
	return m.reduceWith(i, 0)
}

func (m *Structure) reduceWith(keep, renameTo int) *Structure {
	n := m.NumStates()
	out := &Structure{
		name:      fmt.Sprintf("%s|%d", m.name, keep),
		initial:   m.initial,
		succEdges: m.succEdges, // the relation is untouched; share the CSR arrays
		succOff:   m.succOff,
		predEdges: m.predEdges,
		predOff:   m.predOff,
		reach:     m.reach, // same relation and initial state, same reachable set
		ones:      m.ones,  // the O_i P_i atoms live in AP and are preserved verbatim
	}
	// The reduction of a label set depends only on the set, so the work is
	// done once per distinct LabelID of m — the correspondence engine
	// rebuilds reductions constantly, and per-state label work dominated
	// this function's cost before labels were interned.  Distinct labels of
	// m may collapse onto one reduced label (a family instance has a label
	// per state but only a handful of reduced ones), so each reduced label
	// is built in scratch space and cloned only the first time it appears.
	intern := make(map[string]LabelID)
	idMap := make([]LabelID, m.NumLabels())
	var reduced []Prop
	var scratch []byte
	for id, lbl := range m.labelSets {
		reduced = reduced[:0]
		for _, p := range lbl {
			switch {
			case !p.Indexed:
				reduced = append(reduced, p)
			case p.Index == keep:
				reduced = append(reduced, PI(p.Name, renameTo))
			}
		}
		// Insertion sort: surviving labels have at most a handful of props.
		for i := 1; i < len(reduced); i++ {
			for j := i; j > 0 && reduced[j].Less(reduced[j-1]); j-- {
				reduced[j], reduced[j-1] = reduced[j-1], reduced[j]
			}
		}
		scratch = appendLabelKey(scratch[:0], reduced)
		rid, ok := intern[string(scratch)]
		if !ok {
			rid = LabelID(len(out.labelSets))
			key := string(scratch)
			intern[key] = rid
			out.labelSets = append(out.labelSets, append(make([]Prop, 0, len(reduced)), reduced...))
			out.labelKeys = append(out.labelKeys, key)
		}
		idMap[id] = rid
	}
	out.labelIDs = make([]LabelID, n)
	for s, id := range m.labelIDs {
		out.labelIDs[s] = idMap[id]
	}
	out.props = &propCache{}
	out.indexValues = []int{renameTo}
	return out
}

// MakeTotal returns a structure in which every deadlock state of m has been
// given a self loop, making the transition relation total.  If m is already
// total, m itself is returned.
func (m *Structure) MakeTotal() *Structure {
	dead := m.DeadlockStates()
	if len(dead) == 0 {
		return m
	}
	b := NewBuilder(m.name)
	for s := 0; s < m.NumStates(); s++ {
		ns := b.AddState(m.Label(State(s))...)
		_ = b.SetOnes(ns, m.ones[s])
	}
	for _, i := range m.indexValues {
		b.DeclareIndex(i)
	}
	for s := 0; s < m.NumStates(); s++ {
		for _, t := range m.Succ(State(s)) {
			_ = b.AddTransition(State(s), t)
		}
	}
	for _, s := range dead {
		_ = b.AddTransition(s, s)
	}
	_ = b.SetInitial(m.initial)
	out, err := b.BuildPartial()
	if err != nil {
		return m
	}
	return out
}

// Reindex returns a copy of m in which every indexed proposition's index is
// replaced according to rename (indices not present in rename are kept).
// The structure's index set is renamed accordingly.
func (m *Structure) Reindex(rename map[int]int) *Structure {
	b := NewBuilder(m.name)
	for s := 0; s < m.NumStates(); s++ {
		lbl := make([]Prop, 0, len(m.Label(State(s))))
		for _, p := range m.Label(State(s)) {
			if p.Indexed {
				if to, ok := rename[p.Index]; ok {
					p = PI(p.Name, to)
				}
			}
			lbl = append(lbl, p)
		}
		b.AddState(lbl...)
	}
	for _, i := range m.indexValues {
		if to, ok := rename[i]; ok {
			b.DeclareIndex(to)
		} else {
			b.DeclareIndex(i)
		}
	}
	for s := 0; s < m.NumStates(); s++ {
		for _, t := range m.Succ(State(s)) {
			_ = b.AddTransition(State(s), t)
		}
	}
	_ = b.SetInitial(m.initial)
	out, err := b.BuildPartial()
	if err != nil {
		return m
	}
	return out
}

// Rename returns a copy of m with a different name, sharing all other data.
func (m *Structure) Rename(name string) *Structure {
	cp := *m
	cp.name = name
	return &cp
}

// Stats summarises the size of a structure.
type Stats struct {
	Name           string
	States         int
	Transitions    int
	ReachableState int
	Deadlocks      int
	AtomNames      []string
	IndexedProps   []string
	IndexValues    []int
}

// ComputeStats returns size statistics for m.
func (m *Structure) ComputeStats() Stats {
	return Stats{
		Name:           m.name,
		States:         m.NumStates(),
		Transitions:    m.NumTransitions(),
		ReachableState: len(m.ReachableStates()),
		Deadlocks:      len(m.DeadlockStates()),
		AtomNames:      m.AtomNames(),
		IndexedProps:   m.IndexedPropNames(),
		IndexValues:    m.IndexValues(),
	}
}

// String renders the statistics on one line.
func (st Stats) String() string {
	return fmt.Sprintf("%s: %d states, %d transitions, %d reachable, %d deadlocks",
		st.Name, st.States, st.Transitions, st.ReachableState, st.Deadlocks)
}

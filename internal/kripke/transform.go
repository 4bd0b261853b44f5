package kripke

import (
	"fmt"
	"slices"
)

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
// second result maps new state identifiers back to the original ones.  The
// kept states keep their label rows and "exactly one" atoms (so a
// reduction's carried values survive); the vocabulary shrinks to the
// propositions the kept states use.
func (m *Structure) Induced(keep []State) (*Structure, []State) {
	oldOf := slices.Clone(keep)
	if len(keep) == 0 {
		return m, oldOf
	}
	oldToNew := make(map[State]State, len(keep))
	for i, s := range keep {
		oldToNew[s] = State(i)
	}
	out := &Structure{
		name:        m.name,
		labelIDs:    make([]LabelID, len(keep)),
		ones:        m.ones,
		onesIDs:     make([]int32, len(keep)),
		props:       &propCache{},
		keys:        &keyCache{},
		reach:       &reachCache{},
		indexValues: m.indexValues,
	}
	// Kept labels are renumbered in first-sight order.
	idMap := make([]LabelID, m.NumLabels())
	for id := range idMap {
		idMap[id] = -1
	}
	var rows []uint64
	for i, s := range keep {
		id := m.labelIDs[s]
		if idMap[id] < 0 {
			idMap[id] = LabelID(len(rows) / m.words)
			rows = append(rows, m.row(id)...)
		}
		out.labelIDs[i] = idMap[id]
		out.onesIDs[i] = m.onesIDs[s]
	}
	out.vocab, out.rows, out.words = canonical(m.vocab, rows, m.words)
	var edges []uint64
	for _, s := range keep {
		for _, t := range m.Succ(s) {
			if nt, ok := oldToNew[t]; ok {
				edges = append(edges, uint64(oldToNew[s])<<32|uint64(nt))
			}
		}
	}
	out.setEdges(len(keep), edges)
	if init, ok := oldToNew[m.initial]; ok {
		out.initial = init
	}
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

// reduceWith keeps the plain propositions and those of index keep, renamed
// to renameTo.  The reduction of a label depends only on the label, so the
// work is done once per distinct LabelID of m: a family instance has a label
// per state but only a handful of reduced ones.
func (m *Structure) reduceWith(keep, renameTo int) *Structure {
	return m.relabel(fmt.Sprintf("%s|%d", m.name, keep), []int{renameTo}, func(p Prop) (Prop, bool) {
		switch {
		case !p.Indexed:
			return p, true
		case p.Index == keep:
			return PI(p.Name, renameTo), true
		}
		return p, false
	})
}

// MakeTotal returns a structure in which every deadlock state of m has been
// given a self loop, making the transition relation total.  If m is already
// total, m itself is returned.  The labelling is shared with m.
func (m *Structure) MakeTotal() *Structure {
	dead := m.DeadlockStates()
	if len(dead) == 0 {
		return m
	}
	edges := make([]uint64, 0, m.NumTransitions()+len(dead))
	for s := 0; s < m.NumStates(); s++ {
		for _, t := range m.Succ(State(s)) {
			edges = append(edges, uint64(s)<<32|uint64(t))
		}
	}
	for _, s := range dead {
		edges = append(edges, uint64(s)<<32|uint64(s))
	}
	out := *m
	out.reach = &reachCache{}
	out.setEdges(m.NumStates(), edges)
	return &out
}

// Reindex returns a copy of m in which every indexed proposition's index is
// replaced according to rename (indices not present in rename are kept).
// The structure's index set is renamed accordingly.  The "exactly one"
// atoms live in AP, so they are carried over unchanged.
func (m *Structure) Reindex(rename map[int]int) *Structure {
	to := func(i int) int {
		if j, ok := rename[i]; ok {
			return j
		}
		return i
	}
	var idx []int
	for _, i := range m.indexValues {
		idx = append(idx, to(i))
	}
	slices.Sort(idx)
	return m.relabel(m.name, slices.Compact(idx), func(p Prop) (Prop, bool) {
		if p.Indexed {
			p.Index = to(p.Index)
		}
		return p, true
	})
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

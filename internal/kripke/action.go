package kripke

import (
	"fmt"
	"slices"
)

// IndexGenerator is one generator of an index action: a permutation π of a
// structure's states together with the permutation σ of its index set that
// π induces on the indexed propositions.
type IndexGenerator struct {
	// States holds π: States[s] is the image of state s.
	States []int32
	// Index holds σ: Index[k] is the image of index value k, so that
	// P_k ∈ L(s) iff P_σ(k) ∈ L(π(s)) for every indexed proposition P.
	Index map[int]int
}

// IndexAction is a verified action of a group of index permutations on the
// states of one Structure: every generator π is an automorphism of the
// transition relation that moves the indexed propositions along its index
// permutation σ and fixes every plain proposition.  By induction on
// formulas, s ⊨ φ iff π(s) ⊨ σ(φ) for every instantiated CTL* formula φ,
// nexttime included, where σ(φ) renames the index of every indexed atom.
// The action therefore lets a checker decide φ(k) at s by deciding
// φ(rep) at the image of s, where rep is the representative of k's orbit
// (Emerson & Sistla, "Symmetry and model checking", 1996).
//
// An IndexAction is immutable and safe for concurrent use.  It can only be
// obtained from NewIndexAction, which checks the automorphism property
// exhaustively, so holders need not trust whoever supplied the tables.
type IndexAction struct {
	m *Structure
	// states[g] is generator g's state permutation.
	states [][]int32
	// reps are the orbit representatives (index values), one per orbit,
	// each the least index of its orbit, ascending.
	reps []int
	// orbit[k] is the orbit number of the index at position k of
	// m.IndexValues(); words[k] lists the generators whose composite,
	// applied in order, maps that index to its orbit's representative.
	orbit []int32
	words [][]int32
}

// NewIndexAction verifies that gens act on m as described at IndexAction
// and returns the action.  It checks, for every generator and every state
// s, that π is a bijection of the states, that σ is a permutation of the
// index set, that the label of π(s) is σ applied to the label of s (plain
// propositions unchanged), that the "exactly one" atoms of π(s) are those
// of s, and that π maps the successor row of s onto the successor row of
// π(s).  The first violation is returned as an error naming the generator
// and the state.  The cost is O(generators × (states + transitions)).
func NewIndexAction(m *Structure, gens []IndexGenerator) (*IndexAction, error) {
	n := m.NumStates()
	idx := m.IndexValues()
	a := &IndexAction{m: m, states: make([][]int32, len(gens))}
	// index[g][k] is the position of σ_g(idx[k]) in idx.
	index := make([][]int32, len(gens))
	seen := NewBitSet(n)
	sets := m.propSets()
	props := make([]Prop, 0, len(sets))
	//lint:ordered keys are collected then sorted immediately below
	for p := range sets {
		props = append(props, p)
	}
	slices.SortFunc(props, compareProps)
	for g, gen := range gens {
		if len(gen.States) != n {
			return nil, fmt.Errorf("kripke: %s: generator %d: state table has %d entries for %d states", m.name, g, len(gen.States), n)
		}
		perm, err := indexPositions(idx, gen.Index)
		if err != nil {
			return nil, fmt.Errorf("kripke: %s: generator %d: %w", m.name, g, err)
		}
		clear(seen)
		for s, t := range gen.States {
			if t < 0 || int(t) >= n {
				return nil, fmt.Errorf("kripke: %s: generator %d maps state %d to %d, outside [0,%d)", m.name, g, s, t, n)
			}
			if seen.Get(int(t)) {
				return nil, fmt.Errorf("kripke: %s: generator %d maps state %d onto state %d, the image of an earlier state", m.name, g, s, t)
			}
			seen.Set(int(t))
		}
		if err := checkLabels(m, props, gen); err != nil {
			return nil, fmt.Errorf("kripke: %s: generator %d, %w", m.name, g, err)
		}
		for s, t := range gen.States {
			if err := checkImage(m, State(s), State(t), gen.States); err != nil {
				return nil, fmt.Errorf("kripke: %s: generator %d, state %d (image %d): %w", m.name, g, s, t, err)
			}
		}
		// A copy, so the caller cannot change a verified table.
		a.states[g] = slices.Clone(gen.States)
		index[g] = perm
	}
	a.orbits(idx, index)
	return a, nil
}

// indexPositions checks that sigma permutes the index set idx and returns
// it by position: out[k] is the position of sigma(idx[k]).
func indexPositions(idx []int, sigma map[int]int) ([]int32, error) {
	if len(sigma) != len(idx) {
		return nil, fmt.Errorf("index map has %d entries for the %d indices %v", len(sigma), len(idx), idx)
	}
	out := make([]int32, len(idx))
	hit := make([]bool, len(idx))
	for k, v := range idx {
		img, ok := sigma[v]
		if !ok {
			return nil, fmt.Errorf("index map has no image for index %d", v)
		}
		p, found := slices.BinarySearch(idx, img)
		if !found || hit[p] {
			return nil, fmt.Errorf("index map sends %d to %d, which is not an unused index of %v", v, img, idx)
		}
		hit[p] = true
		out[k] = int32(p)
	}
	return out, nil
}

// checkLabels checks σ(p) ∈ L(π(s)) for every proposition p (props, in
// order) and every state s with p ∈ L(s), one pass over p's state set.
// Together with the per-state label sizes checkImage compares, and σ
// being injective, that makes L(π(s)) = σ(L(s)) for every state.
func checkLabels(m *Structure, props []Prop, gen IndexGenerator) error {
	var err error
	for _, p := range props {
		q := p
		if q.Indexed {
			q.Index = gen.Index[q.Index]
		}
		img := m.StatesWith(q)
		m.StatesWith(p).ForEach(func(s int) bool {
			if t := int(gen.States[s]); img == nil || !img.Get(t) {
				err = fmt.Errorf("state %d (image %d): label %v does not map onto the image's label %v: %v missing",
					s, t, m.Label(State(s)), m.Label(State(t)), q)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkImage checks state s against its image t under the state
// permutation pi: label sizes, equal "exactly one" atoms and mapped
// successor rows.
func checkImage(m *Structure, s, t State, pi []int32) error {
	if from, to := m.Label(s), m.Label(t); len(from) != len(to) {
		return fmt.Errorf("label %v does not map onto the image's label %v", from, to)
	}
	if !slices.Equal(m.OneProps(s), m.OneProps(t)) {
		return fmt.Errorf("exactly-one atoms %v differ from the image's %v", m.OneProps(s), m.OneProps(t))
	}
	row, img := m.Succ(s), m.Succ(t)
	if len(row) != len(img) {
		return fmt.Errorf("%d successors, the image has %d", len(row), len(img))
	}
	// π is injective, so π(row) ⊆ img with equal sizes is equality.
	for _, u := range row {
		if _, ok := slices.BinarySearch(img, State(pi[u])); !ok {
			return fmt.Errorf("successor %d maps to %d, which is not a successor of the image", u, pi[u])
		}
	}
	return nil
}

// compareProps orders propositions as Prop.Less does.
func compareProps(a, b Prop) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// orbits partitions the index positions into orbits and records, for each
// position, a generator word to its orbit's least index.  It searches
// backwards from each representative: if word w takes index c to the
// representative and σ_g(c') = c, then g followed by w takes c' there.
func (a *IndexAction) orbits(idx []int, index [][]int32) {
	inv := make([][]int32, len(index))
	for g, perm := range index {
		inv[g] = make([]int32, len(perm))
		for k, img := range perm {
			inv[g][img] = int32(k)
		}
	}
	a.orbit = make([]int32, len(idx))
	a.words = make([][]int32, len(idx))
	for k := range a.orbit {
		a.orbit[k] = -1
	}
	var queue []int32
	for k := range idx {
		if a.orbit[k] >= 0 {
			continue
		}
		o := int32(len(a.reps))
		a.reps = append(a.reps, idx[k])
		a.orbit[k] = o
		queue = append(queue[:0], int32(k))
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for g := range inv {
				p := inv[g][c]
				if a.orbit[p] >= 0 {
					continue
				}
				a.orbit[p] = o
				a.words[p] = append([]int32{int32(g)}, a.words[c]...)
				queue = append(queue, p)
			}
		}
	}
}

// Structure returns the structure the action was verified on.
func (a *IndexAction) Structure() *Structure { return a.m }

// Representatives returns the orbit representatives, one index value per
// orbit, ascending; orbit numbers index this slice.  The slice is shared
// and must not be modified.
func (a *IndexAction) Representatives() []int { return a.reps }

// ToRepresentative maps state s, seen from the index at position k of the
// structure's IndexValues, to the view of that index's orbit
// representative: it returns a state t and the orbit number o such that
// s ⊨ φ(IndexValues()[k]) iff t ⊨ φ(Representatives()[o]) for every
// formula φ whose only index is the one shown.
func (a *IndexAction) ToRepresentative(k int, s State) (State, int) {
	for _, g := range a.words[k] {
		s = State(a.states[g][s])
	}
	return s, int(a.orbit[k])
}

// Orbit returns the orbit number of the index at position k of the
// structure's IndexValues; Representatives()[Orbit(k)] is its
// representative.
func (a *IndexAction) Orbit(k int) int { return int(a.orbit[k]) }

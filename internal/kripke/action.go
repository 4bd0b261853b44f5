package kripke

import (
	"fmt"
	"math/bits"
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
// index set, that the label row of π(s) equals σ applied to the label row
// of s (plain propositions unchanged), that the "exactly one" atoms of π(s)
// are those of s, and that π maps the successor row of s onto the
// successor row of π(s).  The first violation is returned as an error
// naming the generator and the state.  The cost is O(generators × (states
// + transitions)).
func NewIndexAction(m *Structure, gens []IndexGenerator) (*IndexAction, error) {
	n := m.NumStates()
	idx := m.IndexValues()
	a := &IndexAction{m: m, states: make([][]int32, len(gens))}
	// index[g][k] is the position of σ_g(idx[k]) in idx.
	index := make([][]int32, len(gens))
	seen := NewBitSet(n)
	// sigma[p] is the prop id of σ applied to prop p, or -1 when no label
	// carries the image; scratch holds σ(row(s)).
	sigma := make([]int32, len(m.vocab))
	scratch := make([]uint64, m.words)
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
		for p, prop := range m.vocab {
			q, ok := m.propID(sigmaProp(prop, gen.Index))
			sigma[p] = int32(q)
			if !ok {
				sigma[p] = -1
			}
		}
		for s, t := range gen.States {
			if err := checkImage(m, State(s), State(t), gen, sigma, scratch); err != nil {
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

// sigmaProp applies the index permutation sigma to p: an indexed
// proposition moves to its index's image, a plain one stays.
func sigmaProp(p Prop, sigma map[int]int) Prop {
	if p.Indexed {
		p.Index = sigma[p.Index]
	}
	return p
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

// checkImage checks state s against its image t under generator gen:
// row(t) = σ(row(s)) exactly (sigma maps prop ids, -1 for an image no label
// carries; scratch is one row), equal "exactly one" atoms and mapped
// successor rows.
func checkImage(m *Structure, s, t State, gen IndexGenerator, sigma []int32, scratch []uint64) error {
	clear(scratch)
	for k, word := range m.row(m.labelIDs[s]) {
		for word != 0 {
			p := k<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if sigma[p] < 0 {
				return labelMismatch(m, s, t, sigmaProp(m.vocab[p], gen.Index), "missing")
			}
			setBit(scratch, int(sigma[p]))
		}
	}
	img := m.row(m.labelIDs[t])
	for k := range scratch {
		if diff := scratch[k] &^ img[k]; diff != 0 {
			return labelMismatch(m, s, t, m.vocab[k<<6|bits.TrailingZeros64(diff)], "missing")
		}
		if diff := img[k] &^ scratch[k]; diff != 0 {
			return labelMismatch(m, s, t, m.vocab[k<<6|bits.TrailingZeros64(diff)], "extra")
		}
	}
	if !slices.Equal(m.OneProps(s), m.OneProps(t)) {
		return fmt.Errorf("exactly-one atoms %v differ from the image's %v", m.OneProps(s), m.OneProps(t))
	}
	row, succ := m.Succ(s), m.Succ(t)
	if len(row) != len(succ) {
		return fmt.Errorf("%d successors, the image has %d", len(row), len(succ))
	}
	// π is injective, so π(row) ⊆ succ with equal sizes is equality.
	for _, u := range row {
		if _, ok := slices.BinarySearch(succ, State(gen.States[u])); !ok {
			return fmt.Errorf("successor %d maps to %d, which is not a successor of the image", u, gen.States[u])
		}
	}
	return nil
}

// labelMismatch reports that σ(L(s)) and L(t) differ at proposition q,
// which is missing from or extra in the image's label.
func labelMismatch(m *Structure, s, t State, q Prop, how string) error {
	return fmt.Errorf("label %v does not map onto the image's label %v: %v %s", m.Label(s), m.Label(t), q, how)
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

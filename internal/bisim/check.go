package bisim

import (
	"fmt"
	"math/bits"

	"repro/internal/kripke"
)

// This file verifies that a *given* relation with degrees satisfies the
// definition of a correspondence relation (Section 3, clauses 1, 2a, 2b, 2c,
// plus totality).  It is used to machine-check hand-built relations such as
// the rank-based relation of the paper's Section 5 / Appendix, and to
// re-validate transfer certificates produced by Compute.
//
// Clause reading (see DESIGN.md): the stuttering disjuncts require a degree
// strictly smaller than the pair's own degree; the matched-move disjunct may
// use any degree.

// Violation describes one way in which a relation fails to be a
// correspondence relation.
type Violation struct {
	Clause string       // "1", "2a", "2b", "2c", "total-left", "total-right", "degree"
	S      kripke.State // state of the first structure (when applicable)
	T      kripke.State // state of the second structure (when applicable)
	Detail string
}

// Error implements the error interface.
func (v Violation) Error() string {
	return fmt.Sprintf("bisim: clause %s violated at pair (%d,%d): %s", v.Clause, v.S, v.T, v.Detail)
}

// Check verifies that rel is a correspondence relation between m and m2
// under the given options.  It returns the list of violations found (nil if
// rel is a valid correspondence relation).  Following the paper, the check
// requires:
//
//  1. the initial states are related (with some degree);
//     2a. related states have identical labels (including the O_i P_i atoms
//     selected by opts.OneProps);
//     2b. / 2c. the transfer conditions with degrees;
//     total: every state of each structure (or every reachable state when
//     opts.ReachableOnly is set) appears in some pair.
func Check(m, m2 *kripke.Structure, rel *Relation, opts Options) []Violation {
	var out []Violation
	n, n2 := rel.Dims()
	if n != m.NumStates() || n2 != m2.NumStates() {
		return []Violation{{
			Clause: "degree",
			Detail: fmt.Sprintf("relation dimensions %dx%d do not match structures %dx%d", n, n2, m.NumStates(), m2.NumStates()),
		}}
	}

	if _, ok := rel.Degree(m.Initial(), m2.Initial()); !ok {
		out = append(out, Violation{
			Clause: "1", S: m.Initial(), T: m2.Initial(),
			Detail: "initial states are not related",
		})
	}

	out = append(out, checkTotality(m, m2, rel, opts)...)

	ix, ones := newPairIndex(rel), opts.normalizedOneProps()
	keys, keys2 := newLabelKeys(m, ones), newLabelKeys(m2, ones)
	rel.eachPair(func(s, t kripke.State, degree int) {
		if degree < 0 {
			out = append(out, Violation{Clause: "degree", S: s, T: t,
				Detail: fmt.Sprintf("degree %d is negative", degree)})
			return
		}
		if keys.of(s) != keys2.of(t) {
			out = append(out, Violation{Clause: "2a", S: s, T: t,
				Detail: fmt.Sprintf("labels differ: %v vs %v", m.Label(s), m2.Label(t))})
			return
		}
		if !clause2b(m, m2, ix, s, t, degree) {
			out = append(out, Violation{Clause: "2b", S: s, T: t,
				Detail: fmt.Sprintf("transfer condition fails at degree %d", degree)})
		}
		if !clause2c(m, m2, ix, s, t, degree) {
			out = append(out, Violation{Clause: "2c", S: s, T: t,
				Detail: fmt.Sprintf("transfer condition fails at degree %d", degree)})
		}
	})
	return out
}

// labelKeys computes each state's clause-2a label key at most once: a
// relation relates a state to many states of the other structure, and
// building the key is the costly part of comparing two labels.
type labelKeys struct {
	m    *kripke.Structure
	ones []string
	keys []string
	done kripke.BitSet
}

func newLabelKeys(m *kripke.Structure, ones []string) *labelKeys {
	n := m.NumStates()
	return &labelKeys{m: m, ones: ones, keys: make([]string, n), done: kripke.NewBitSet(n)}
}

// of returns m.LabelKeyWithOnes(s, ones).
func (lk *labelKeys) of(s kripke.State) string {
	if !lk.done.Get(int(s)) {
		lk.keys[s] = lk.m.LabelKeyWithOnes(s, lk.ones)
		lk.done.Set(int(s))
	}
	return lk.keys[s]
}

func checkTotality(m, m2 *kripke.Structure, rel *Relation, opts Options) []Violation {
	var out []Violation
	leftCovered, rightCovered := rel.coverage()
	eachInScope(m, opts, func(s int) bool {
		if !leftCovered.Get(s) {
			out = append(out, Violation{Clause: "total-left", S: kripke.State(s), T: kripke.NoState,
				Detail: fmt.Sprintf("state %d of %s is unrelated", s, m.Name())})
		}
		return true
	})
	eachInScope(m2, opts, func(t int) bool {
		if !rightCovered.Get(t) {
			out = append(out, Violation{Clause: "total-right", S: kripke.NoState, T: kripke.State(t),
				Detail: fmt.Sprintf("state %d of %s is unrelated", t, m2.Name())})
		}
		return true
	})
	return out
}

// clause2b checks the forward transfer condition for the pair (s, t) at
// degree k:
//
//	[∃ t→t1 with (s,t1) ∈ E and degree(s,t1) < k]  ∨
//	[∀ s→s1:  ((s1,t) ∈ E and degree(s1,t) < k)  ∨  (∃ t→t1 with (s1,t1) ∈ E)]
func clause2b(m, m2 *kripke.Structure, ix *pairIndex, s, t kripke.State, k int) bool {
	// First disjunct: the second structure stutters, with a smaller degree.
	for _, t1 := range m2.Succ(t) {
		if d, ok := ix.degree(s, t1); ok && d < k {
			return true
		}
	}
	// Second disjunct: every move of the first structure is either a
	// stutter (smaller degree) or matched by a move of the second.
	for _, s1 := range m.Succ(s) {
		if d, ok := ix.degree(s1, t); ok && d < k {
			continue
		}
		matched := false
		for _, t1 := range m2.Succ(t) {
			if _, ok := ix.degree(s1, t1); ok {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// clause2c is the mirror image of clause2b (roles of the structures
// swapped).
func clause2c(m, m2 *kripke.Structure, ix *pairIndex, s, t kripke.State, k int) bool {
	for _, s1 := range m.Succ(s) {
		if d, ok := ix.degree(s1, t); ok && d < k {
			return true
		}
	}
	for _, t1 := range m2.Succ(t) {
		if d, ok := ix.degree(s, t1); ok && d < k {
			continue
		}
		matched := false
		for _, s1 := range m.Succ(s) {
			if _, ok := ix.degree(s1, t1); ok {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// pairIndex looks pairs up for Check, whose transfer clauses probe the
// relation several times per pair.  Row s is cut into buckets of
// 2^shift[s] states of the second structure, about one bucket per pair of
// the row, and dir records where each bucket starts, so a lookup scans one
// bucket (about one pair when the row's states are spread out) instead of
// searching the whole row.  Like the relation, it grows with the related
// pairs: at most 8 bytes per pair plus 13 per state of the first structure.
type pairIndex struct {
	rel    *Relation
	shift  []uint8
	dirOff []int32 // row s's bucket starts, then its end, are dir[dirOff[s]:dirOff[s+1]]
	dir    []int32
}

func newPairIndex(rel *Relation) *pairIndex {
	ix := &pairIndex{rel: rel, shift: make([]uint8, rel.n), dirOff: make([]int32, rel.n+1)}
	width := bits.Len(uint(rel.n2 - 1))
	for s := 0; s < rel.n; s++ {
		lo, hi := rel.span(kripke.State(s))
		size := 0
		if hi > lo {
			k := max(width-bits.Len(uint(hi-lo)), 0)
			ix.shift[s] = uint8(k)
			size = (rel.n2-1)>>k + 2
		}
		ix.dirOff[s+1] = ix.dirOff[s] + int32(size)
	}
	ix.dir = make([]int32, ix.dirOff[rel.n])
	for s := 0; s < rel.n; s++ {
		lo, hi := rel.span(kripke.State(s))
		d, k, p := ix.dir[ix.dirOff[s]:ix.dirOff[s+1]], ix.shift[s], lo
		for b := range d {
			for p < hi && int(rel.cols[p])>>k < b {
				p++
			}
			d[b] = int32(p)
		}
	}
	return ix
}

// degree is rel.Degree(s, t).
func (ix *pairIndex) degree(s, t kripke.State) (int, bool) {
	off := ix.dirOff[s]
	if off == ix.dirOff[s+1] {
		return 0, false
	}
	b := off + int32(int(t)>>ix.shift[s])
	for i := ix.dir[b]; i < ix.dir[b+1]; i++ {
		if c := ix.rel.cols[i]; c >= int32(t) {
			if c != int32(t) {
				break
			}
			return int(ix.rel.degs[i]), true
		}
	}
	return 0, false
}

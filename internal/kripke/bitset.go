package kripke

import "math/bits"

// This file provides a bitset-based representation of the transition
// relation.  The partition-refinement correspondence engine (package bisim)
// works on sets of states — blocks, splitters, marked sets — and the
// operations it performs most often are intersections, differences and
// emptiness tests of such sets.  Storing the sets (and, for moderate state
// counts, the successor/predecessor rows of the transition relation) as
// packed 64-bit words makes every one of those operations word-parallel: one
// machine instruction processes 64 states at a time.

// BitSet is a fixed-capacity set of dense non-negative integers (states,
// vertices) packed 64 per word.  The zero value is an empty set of capacity
// zero; use NewBitSet to allocate capacity.
type BitSet []uint64

// NewBitSet returns an empty set with capacity for the integers [0, n).
func NewBitSet(n int) BitSet {
	return make(BitSet, (n+63)/64)
}

// Set adds i to the set.
func (b BitSet) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i from the set.
func (b BitSet) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether i is in the set.
func (b BitSet) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of elements in the set.
func (b BitSet) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (b BitSet) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (b BitSet) Clone() BitSet {
	out := make(BitSet, len(b))
	copy(out, b)
	return out
}

// CopyFrom overwrites the set with the contents of x (same capacity).
func (b BitSet) CopyFrom(x BitSet) { copy(b, x) }

// And intersects the set with x in place (b &= x).
func (b BitSet) And(x BitSet) {
	for i := range b {
		b[i] &= x[i]
	}
}

// AndNot removes the elements of x from the set in place (b &^= x).
func (b BitSet) AndNot(x BitSet) {
	for i := range b {
		b[i] &^= x[i]
	}
}

// Or adds the elements of x to the set in place (b |= x).
func (b BitSet) Or(x BitSet) {
	for i := range b {
		b[i] |= x[i]
	}
}

// Intersects reports whether the set and x have an element in common,
// without materialising the intersection.
func (b BitSet) Intersects(x BitSet) bool {
	for i := range b {
		if b[i]&x[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether the set and x contain exactly the same elements.
func (b BitSet) Equal(x BitSet) bool {
	for i := range b {
		if b[i] != x[i] {
			return false
		}
	}
	return true
}

// ForEach calls fn on every element in increasing order; fn returning false
// stops the iteration.
func (b BitSet) ForEach(fn func(i int) bool) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}

// ClearAll empties the set in place, keeping its capacity.
func (b BitSet) ClearAll() {
	for i := range b {
		b[i] = 0
	}
}

// Complement returns a fresh set holding the integers of [0, n) that are not
// in b, for a set created with NewBitSet(n).  The bits at and above n in the
// last word stay clear, so Count, Empty and Equal never see phantom
// elements.
func (b BitSet) Complement(n int) BitSet {
	out := make(BitSet, len(b))
	out.SetComplement(b, n)
	return out
}

// SetComplement overwrites the set with the integers of [0, n) that are not
// in x, for sets of the same capacity created with NewBitSet(n); x may be
// the receiver itself.  Like Complement it keeps the bits at and above n
// clear.
func (b BitSet) SetComplement(x BitSet, n int) {
	for i, w := range x {
		b[i] = ^w
	}
	if rem := uint(n) & 63; rem != 0 {
		b[n>>6] &= 1<<rem - 1
	}
}

// ForEachWord calls fn on every non-zero word together with its word index,
// in increasing order.  Callers that fan a sweep out across workers use the
// word index to partition the set without touching individual bits.
func (b BitSet) ForEachWord(fn func(wi int, w uint64) bool) {
	for wi, w := range b {
		if w != 0 && !fn(wi, w) {
			return
		}
	}
}

// TransitionMatrix is the transition relation of one structure (or of the
// disjoint union of two structures) stored as bitset rows: Succ(i) and
// Pred(i) are BitSets over the vertex range.  It costs O(n²/8) bytes, so
// callers working with large structures should gate on N before building one
// (the refinement engine falls back to adjacency lists beyond a threshold).
type TransitionMatrix struct {
	n          int
	succ, pred []BitSet
}

// NewTransitionMatrix returns an empty matrix over n vertices.  All rows
// share one backing array, so the matrix costs two allocations regardless
// of n.
func NewTransitionMatrix(n int) *TransitionMatrix {
	words := (n + 63) / 64
	backing := make(BitSet, 2*n*words)
	m := &TransitionMatrix{n: n, succ: make([]BitSet, n), pred: make([]BitSet, n)}
	for i := 0; i < n; i++ {
		m.succ[i] = backing[i*words : (i+1)*words]
		m.pred[i] = backing[(n+i)*words : (n+i+1)*words]
	}
	return m
}

// N returns the number of vertices the matrix is defined over.
func (t *TransitionMatrix) N() int { return t.n }

// Add records the edge u -> v.
func (t *TransitionMatrix) Add(u, v int) {
	t.succ[u].Set(v)
	t.pred[v].Set(u)
}

// Succ returns the successor row of u.  The returned set must not be
// modified.
func (t *TransitionMatrix) Succ(u int) BitSet { return t.succ[u] }

// Pred returns the predecessor row of u.  The returned set must not be
// modified.
func (t *TransitionMatrix) Pred(u int) BitSet { return t.pred[u] }

// TransitionMatrix builds the bitset representation of the structure's
// transition relation.  It is built fresh on every call; callers that need it
// repeatedly should keep the result.
func (m *Structure) TransitionMatrix() *TransitionMatrix {
	t := NewTransitionMatrix(m.NumStates())
	for s := 0; s < m.NumStates(); s++ {
		for _, v := range m.Succ(State(s)) {
			t.Add(s, int(v))
		}
	}
	return t
}

// UnionTransitionMatrix builds the bitset transition relation of the
// disjoint union of m and m2: states of m keep their numbers, states of m2
// are offset by m.NumStates().  This is the representation the
// partition-refinement correspondence engine splits on.
func UnionTransitionMatrix(m, m2 *Structure) *TransitionMatrix {
	n := m.NumStates()
	t := NewTransitionMatrix(n + m2.NumStates())
	for s := 0; s < n; s++ {
		for _, v := range m.Succ(State(s)) {
			t.Add(s, int(v))
		}
	}
	for s := 0; s < m2.NumStates(); s++ {
		for _, v := range m2.Succ(State(s)) {
			t.Add(n+s, n+int(v))
		}
	}
	return t
}

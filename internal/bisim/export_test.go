package bisim

import (
	"context"

	"repro/internal/kripke"
)

// SetMaskDegreeBlockLimit is a test hook: it lets the external test package
// force the generic degree path and returns the previous limit.
func SetMaskDegreeBlockLimit(v int) int {
	old := maskDegreeBlockLimit
	maskDegreeBlockLimit = v
	return old
}

// SetPackedLeftLimit is a test hook: lowering the limit to zero makes the
// packed degree pass step aside, so the external test package can force
// maskedFinish on any input.  It returns the previous limit.
func SetPackedLeftLimit(v int) int {
	old := packedLeftLimit
	packedLeftLimit = v
	return old
}

// RelationBytes returns the bytes a relation's pair storage holds: the
// capacity of its row offsets, right states and degrees.
func RelationBytes(r *Relation) int {
	return 4 * (cap(r.rowOff) + cap(r.cols) + cap(r.degs))
}

// Totality returns the totality flags of rel between m and m2 under opts.
func Totality(m, m2 *kripke.Structure, rel *Relation, opts Options) (left, right bool) {
	return totality(m, m2, rel, opts)
}

// CheckLookup returns the pair lookup Check's transfer clauses use on r.
func CheckLookup(r *Relation) func(s, t kripke.State) (int, bool) {
	return newPairIndex(r).degree
}

// MaxDenseMatrixStates is the contracted-union size past which the refiner
// keeps adjacency lists instead of bitset transition rows.
const MaxDenseMatrixStates = maxDenseMatrixStates

// ContractedStates returns the number of contracted nodes the refiner
// works on for the union of m and m2.
func ContractedStates(m, m2 *kripke.Structure, opts Options) int {
	r, _, err := newRefiner(context.Background(), m, m2, opts)
	if err != nil {
		panic(err)
	}
	return r.cN
}

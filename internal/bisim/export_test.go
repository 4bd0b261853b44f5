package bisim

import "repro/internal/kripke"

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

// CheckLookup returns the pair lookup Check's transfer clauses use on r.
func CheckLookup(r *Relation) func(s, t kripke.State) (int, bool) {
	return newPairIndex(r).degree
}

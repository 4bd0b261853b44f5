package bisim

import (
	"context"

	"repro/internal/kripke"
)

// DegreePass runs Compute's degree pass, on a fresh arena, on the
// partition stateBlock of the union of m and m2 (block ids
// 0..numBlocks-1, second structure offset by m's state count), whatever
// the partition's quality.
func DegreePass(m, m2 *kripke.Structure, stateBlock []int32, numBlocks int, opts Options) (*Result, error) {
	return degreePass(context.Background(), m, m2, stateBlock, numBlocks, opts, new(computeArena), &Result{})
}

// Partition runs Compute up to its stable partition — preprocessing,
// initial partition and refinement — and returns the block id of every
// union state (second structure offset by m's state count) and the number
// of blocks, the input of DegreePass.
func Partition(m, m2 *kripke.Structure, opts Options) ([]int32, int) {
	ctx := context.Background()
	r, compLabel, err := newRefiner(ctx, m, m2, opts, new(computeArena))
	if err != nil {
		panic(err)
	}
	r.initPartition(compLabel)
	if err := r.stabilize(ctx, &Result{}); err != nil {
		panic(err)
	}
	stateBlock := make([]int32, len(r.comp))
	for u, c := range r.comp {
		stateBlock[u] = r.blockOf[c]
	}
	return stateBlock, len(r.blocks)
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
	r, _, err := newRefiner(context.Background(), m, m2, opts, new(computeArena))
	if err != nil {
		panic(err)
	}
	return r.cN
}

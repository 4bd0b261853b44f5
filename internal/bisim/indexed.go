package bisim

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/kripke"
)

// This file implements the indexed correspondence of Section 4.
//
// Two structures M and M' with index sets I and I' indexed-correspond when
// there is a relation IN ⊆ I × I', total for both I and I', such that for
// every (i, i') ∈ IN the reductions M|i and M'|i' correspond in the sense of
// Section 3.  Theorem 5: indexed-corresponding structures satisfy exactly
// the same closed formulas of the restricted logic ICTL*.
//
// Reductions are normalised (the surviving index is renamed to 0 on both
// sides) so that the label comparison of the plain correspondence can be
// reused unchanged.

// IndexPair is one element of the index relation IN.
type IndexPair struct {
	I  int `json:"i"`
	I2 int `json:"i2"`
}

// IndexedResult is the outcome of IndexedCompute.
type IndexedResult struct {
	// Pairs holds the per-index-pair correspondence results, in the order of
	// the IN relation supplied.
	Pairs map[IndexPair]*Result
	// INTotalLeft / INTotalRight report whether IN covers every index value
	// of the first / second structure.
	INTotalLeft  bool
	INTotalRight bool
}

// Corresponds reports whether the structures indexed-correspond: IN is total
// on both index sets and every (i, i') pair's reductions correspond.
func (r *IndexedResult) Corresponds() bool {
	if r == nil || !r.INTotalLeft || !r.INTotalRight || len(r.Pairs) == 0 {
		return false
	}
	for _, res := range r.Pairs {
		if !res.Corresponds() {
			return false
		}
	}
	return true
}

// FailingPairs returns the index pairs whose reductions do not correspond,
// sorted.
func (r *IndexedResult) FailingPairs() []IndexPair {
	var out []IndexPair
	for p, res := range r.Pairs {
		if !res.Corresponds() {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].I != out[b].I {
			return out[a].I < out[b].I
		}
		return out[a].I2 < out[b].I2
	})
	return out
}

// DefaultIndexRelation builds the index relation the paper uses for the
// token ring (Section 5): index 1 of the small structure is paired with
// index 1 of the large one, and index 2 of the small structure is paired
// with every remaining index of the large one.  More generally, the first
// index of m is paired with the first index of m2 and the last index of m
// with every remaining index of m2; it is returned sorted.
//
// This heuristic is appropriate whenever the small structure's first process
// plays a distinguished role (holds the token initially) and all other
// processes are interchangeable.  Callers with different symmetry should
// supply their own IN relation.
func DefaultIndexRelation(m, m2 *kripke.Structure) []IndexPair {
	is := m.IndexValues()
	js := m2.IndexValues()
	if len(is) == 0 || len(js) == 0 {
		return nil
	}
	var out []IndexPair
	out = append(out, IndexPair{I: is[0], I2: js[0]})
	last := is[len(is)-1]
	for _, j := range js[1:] {
		out = append(out, IndexPair{I: last, I2: j})
	}
	// Ensure totality on the left for small structures with more than two
	// indices: pair middle indices with the last index of m2.
	if len(js) > 1 {
		lastJ := js[len(js)-1]
		for _, i := range is[1 : len(is)-1] {
			out = append(out, IndexPair{I: i, I2: lastJ})
		}
	}
	return out
}

// IndexedCompute checks the (i, i')-correspondence of the reductions for
// every pair of the IN relation, using Compute on the normalised reductions.
// The pairs are independent of one another, so they are decided on a worker
// pool sized to the machine; the result is deterministic regardless of
// scheduling.  Cancelling ctx stops the pool promptly: each worker checks
// the context before claiming the next pair and the per-pair Compute polls
// it at its pass boundaries; every worker goroutine exits before
// IndexedCompute returns the context's error.
func IndexedCompute(ctx context.Context, m, m2 *kripke.Structure, in []IndexPair, opts Options) (*IndexedResult, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("bisim: IndexedCompute: empty index relation")
	}
	// Deduplicate while preserving first occurrence, and build the
	// normalised reductions once per index value (the IN relations of
	// interest pair one small index with every large index, so reductions
	// repeat heavily).
	var todo []IndexPair
	seen := make(map[IndexPair]bool, len(in))
	leftRed := make(map[int]*kripke.Structure)
	rightRed := make(map[int]*kripke.Structure)
	for _, p := range in {
		// Each distinct index value costs a full ReduceNormalized pass, so
		// the dedup loop itself is a batch boundary.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		todo = append(todo, p)
		if _, ok := leftRed[p.I]; !ok {
			leftRed[p.I] = m.ReduceNormalized(p.I)
		}
		if _, ok := rightRed[p.I2]; !ok {
			rightRed[p.I2] = m2.ReduceNormalized(p.I2)
		}
	}

	results := make([]*Result, len(todo))
	errs := make([]error, len(todo))
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The pool exists to overlap pair decisions on real cores.  More pool
	// goroutines than cores buy no overlap but each would grow its own
	// arena slabs, so cap the pool at the core budget.
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}
	if workers > len(todo) {
		workers = len(todo)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one scratch arena, allocated lazily on its
			// first claimed pair and reset between pair computes, so a run
			// over many index pairs reuses the engine's big flat buffers
			// instead of reallocating them per pair — and a worker that
			// never claims a pair never pays for slabs.
			wOpts := opts
			for {
				if err := cancelled(ctx); err != nil {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= len(todo) {
					return
				}
				p := todo[k]
				if wOpts.arena == nil {
					wOpts.arena = &computeArena{}
				} else {
					wOpts.arena.reset()
				}
				r, err := Compute(ctx, leftRed[p.I], rightRed[p.I2], wOpts)
				if err != nil {
					errs[k] = fmt.Errorf("bisim: IndexedCompute(%d,%d): %w", p.I, p.I2, err)
					return
				}
				results[k] = r
			}
		}()
	}
	wg.Wait()

	if err := cancelled(ctx); err != nil {
		return nil, err
	}
	for k := range todo {
		if errs[k] != nil {
			return nil, errs[k]
		}
	}
	res := &IndexedResult{Pairs: make(map[IndexPair]*Result, len(todo))}
	for k, p := range todo {
		res.Pairs[p] = results[k]
	}
	res.INTotalLeft, res.INTotalRight = indexTotality(m, m2, in)
	return res, nil
}

// IndexedCorrespond reports whether the two structures indexed-correspond
// over the given IN relation.
func IndexedCorrespond(ctx context.Context, m, m2 *kripke.Structure, in []IndexPair, opts Options) (bool, error) {
	res, err := IndexedCompute(ctx, m, m2, in, opts)
	if err != nil {
		return false, err
	}
	return res.Corresponds(), nil
}

func indexTotality(m, m2 *kripke.Structure, in []IndexPair) (left, right bool) {
	leftCovered := map[int]bool{}
	rightCovered := map[int]bool{}
	for _, p := range in {
		leftCovered[p.I] = true
		rightCovered[p.I2] = true
	}
	left, right = true, true
	for _, i := range m.IndexValues() {
		if !leftCovered[i] {
			left = false
			break
		}
	}
	for _, j := range m2.IndexValues() {
		if !rightCovered[j] {
			right = false
			break
		}
	}
	return left, right
}

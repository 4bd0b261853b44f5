package bisim

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
	// indices: pair middle indices with the last index of m2.  A single
	// left index has no middle ones; the loop above already paired it with
	// every index of m2.
	if len(is) > 1 && len(js) > 1 {
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
//
// With Options.LeftAction and Options.RightAction the pairs are decided
// once per orbit class.  Pair (i, j) belongs to the class of
// (rep(i), rep(j)), its indices' orbit representatives; only these basis
// pairs are reduced and computed.  Let τ_i map a state of m to its view
// from rep(i) (IndexAction.ToRepresentative) and τ_j likewise on m2.  τ_i
// is an isomorphism of the normalised reductions M|i → M|rep(i) that
// ignores initial states, and Compute's maximal correspondence ranges
// over all states, so R_(i,j) = {(s, t) : (τ_i s, τ_j t) ∈ R_basis} with
// the same degrees.  Each transported pair gets its own relation, and its
// initial-state verdict and totality are recomputed on it, so the result
// is identical to deciding every pair; only OuterIterations and
// DegreeRounds are the basis's.  A pair with an index the action's
// structure does not have is decided by its own Compute.
func IndexedCompute(ctx context.Context, m, m2 *kripke.Structure, in []IndexPair, opts Options) (*IndexedResult, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("bisim: IndexedCompute: empty index relation")
	}
	left, err := newOrbitView(opts.LeftAction, m, "left")
	if err != nil {
		return nil, err
	}
	right, err := newOrbitView(opts.RightAction, m2, "right")
	if err != nil {
		return nil, err
	}
	// Deduplicate while preserving first occurrence, and assign each pair
	// its basis pair (rep(i), rep(j)), which need not itself be in IN.
	var todo []IndexPair
	var basisOf []int
	var bases []IndexPair
	seen := make(map[IndexPair]bool, len(in))
	basisID := make(map[IndexPair]int, len(in))
	//lint:ctxloop map lookups per IN pair; the reductions below poll ctx
	for _, p := range in {
		if seen[p] {
			continue
		}
		seen[p] = true
		b := p
		ri, _, okI := left.rep(p.I)
		rj, _, okJ := right.rep(p.I2)
		if okI && okJ {
			b = IndexPair{I: ri, I2: rj}
		}
		id, ok := basisID[b]
		if !ok {
			id = len(bases)
			basisID[b] = id
			bases = append(bases, b)
		}
		todo = append(todo, p)
		basisOf = append(basisOf, id)
	}
	// Build the normalised reductions once per index value of a basis
	// pair (the IN relations of interest pair one small index with every
	// large index, so reductions repeat heavily).
	leftRed := make(map[int]*kripke.Structure)
	rightRed := make(map[int]*kripke.Structure)
	for _, b := range bases {
		// Each distinct index value costs a full ReduceNormalized pass, so
		// the loop itself is a batch boundary.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if _, ok := leftRed[b.I]; !ok {
			leftRed[b.I] = m.ReduceNormalized(b.I)
		}
		if _, ok := rightRed[b.I2]; !ok {
			rightRed[b.I2] = m2.ReduceNormalized(b.I2)
		}
	}

	computed, err := computeBases(ctx, bases, leftRed, rightRed, opts)
	if err != nil {
		return nil, err
	}
	res := &IndexedResult{Pairs: make(map[IndexPair]*Result, len(todo))}
	var tr transporter
	for k, p := range todo {
		b := bases[basisOf[k]]
		if p == b {
			res.Pairs[p] = computed[basisOf[k]]
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Pairs[p] = tr.transport(m, m2, computed[basisOf[k]], left.toRep(p.I), right.toRep(p.I2), opts)
	}
	res.INTotalLeft, res.INTotalRight = indexTotality(m, m2, in)
	return res, nil
}

// computeBases decides the basis pairs on the worker pool.
func computeBases(ctx context.Context, bases []IndexPair, leftRed, rightRed map[int]*kripke.Structure, opts Options) ([]*Result, error) {
	results := make([]*Result, len(bases))
	errs := make([]error, len(bases))
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
	if workers > len(bases) {
		workers = len(bases)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one scratch arena, allocated lazily on its
			// first claimed pair and reset between pair computes, so a run
			// over several basis pairs reuses the engine's big flat
			// buffers instead of reallocating them per pair — and a worker
			// that never claims a pair never pays for slabs.
			wOpts := opts
			for {
				if err := cancelled(ctx); err != nil {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= len(bases) {
					return
				}
				p := bases[k]
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
	for k := range bases {
		if errs[k] != nil {
			return nil, errs[k]
		}
	}
	return results, nil
}

// orbitView is one side of IndexedCompute's orbit classes: the verified
// action on that side's structure, or nil for none.
type orbitView struct {
	a   *kripke.IndexAction
	tau []int32 // the table toRep returns, reused
}

// newOrbitView checks that a, if any, was verified on m.
func newOrbitView(a *kripke.IndexAction, m *kripke.Structure, side string) (*orbitView, error) {
	if a != nil && a.Structure() != m {
		return nil, fmt.Errorf("bisim: IndexedCompute: the %s index action was verified on structure %q, not on the %s structure %q",
			side, a.Structure().Name(), side, m.Name())
	}
	return &orbitView{a: a}, nil
}

// rep returns the representative of index i's orbit and i's position in
// the structure's index values: i itself without an action, and false
// when the action's structure has no index i.
func (v *orbitView) rep(i int) (rep, k int, ok bool) {
	if v.a == nil {
		return i, 0, true
	}
	if k, ok = slices.BinarySearch(v.a.Structure().IndexValues(), i); !ok {
		return 0, 0, false
	}
	return v.a.Representatives()[v.a.Orbit(k)], k, true
}

// toRep returns τ_i as a state table, or nil for the identity.  The table
// is overwritten by the next call.
func (v *orbitView) toRep(i int) []int32 {
	rep, k, ok := v.rep(i)
	if !ok || rep == i {
		return nil
	}
	if v.tau == nil {
		v.tau = make([]int32, v.a.Structure().NumStates())
	}
	for s := range v.tau {
		t, _ := v.a.ToRepresentative(k, kripke.State(s))
		v.tau[s] = int32(t)
	}
	return v.tau
}

// transporter carries basis results to the other pairs of their class.
// Its buffers are reused across pairs: the inverse of the left map, and
// the columns of the last basis relation transported.
type transporter struct {
	inv    []int32
	of     *Relation
	colOff []int32 // column t' spans colOff[t']:colOff[t'+1] of rows and degs
	rows   []int32
	degs   []int32
}

// transport returns the result of a pair from its basis's: (s, t) is
// related with degree d iff (left[s], right[t]) is, with d, in the basis
// relation (nil tables are the identity).  The rows are filled column by
// column in increasing t, through the basis's columns, so each comes out
// sorted.  The initial-state verdict and the totality flags are
// recomputed on the new relation; the reductions share m's and m2's
// initial states and reachable sets, so m and m2 stand in for them.
func (tr *transporter) transport(m, m2 *kripke.Structure, basis *Result, left, right []int32, opts Options) *Result {
	b := basis.Relation
	tr.columns(b)
	tr.inv = slices.Grow(tr.inv[:0], b.n)[:b.n]
	for s := range tr.inv {
		tr.inv[s] = int32(s)
	}
	for s, img := range left {
		tr.inv[img] = int32(s)
	}
	rel, cursor := newRelationRows(b.n, b.n2, func(s int) int {
		if left != nil {
			s = int(left[s])
		}
		return int(b.rowOff[s+1] - b.rowOff[s])
	})
	for t := 0; t < b.n2; t++ {
		img := int32(t)
		if right != nil {
			img = right[t]
		}
		for x := tr.colOff[img]; x < tr.colOff[img+1]; x++ {
			s := tr.inv[tr.rows[x]]
			c := cursor[s]
			rel.cols[c], rel.degs[c] = int32(t), tr.degs[x]
			cursor[s]++
		}
	}
	res := &Result{Relation: rel, OuterIterations: basis.OuterIterations, DegreeRounds: basis.DegreeRounds}
	_, res.InitialRelated = rel.Degree(m.Initial(), m2.Initial())
	res.TotalLeft, res.TotalRight = totality(m, m2, rel, opts)
	return res
}

// columns loads the transpose of b into the column buffers, unless they
// already hold it.
func (tr *transporter) columns(b *Relation) {
	if tr.of == b {
		return
	}
	tr.of = b
	tr.colOff = slices.Grow(tr.colOff[:0], b.n2+1)[:b.n2+1]
	clear(tr.colOff)
	for _, t := range b.cols {
		tr.colOff[t+1]++
	}
	for t := 0; t < b.n2; t++ {
		tr.colOff[t+1] += tr.colOff[t]
	}
	tr.rows = slices.Grow(tr.rows[:0], len(b.cols))[:len(b.cols)]
	tr.degs = slices.Grow(tr.degs[:0], len(b.cols))[:len(b.cols)]
	// colOff[t] serves as column t's cursor and ends at column t+1's
	// start, so one shift restores the offsets.
	for s := 0; s < b.n; s++ {
		for x := b.rowOff[s]; x < b.rowOff[s+1]; x++ {
			t := b.cols[x]
			c := tr.colOff[t]
			tr.rows[c], tr.degs[c] = int32(s), b.degs[x]
			tr.colOff[t]++
		}
	}
	copy(tr.colOff[1:], tr.colOff[:b.n2])
	tr.colOff[0] = 0
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

package bisim

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
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

// IndexedResult is the outcome of IndexedCompute.  The pairs of one orbit
// class share a basis result.  Each pair carries its own verdict flags,
// decided through its transport maps, and its relation is materialised
// only when asked for, by Pair or Pairs.  An IndexedResult is never
// modified after construction and is safe for concurrent use.
type IndexedResult struct {
	// INTotalLeft / INTotalRight report whether IN covers every index value
	// of the first / second structure.
	INTotalLeft  bool
	INTotalRight bool

	bases []*Result
	pairs []pairEntry // sorted by (I, I2)
	// left and right are the actions τ_i and τ_j are read from; nil when
	// that side's maps are all the identity.
	left, right *kripke.IndexAction
}

// pairEntry is one pair of IN: its basis, the positions ki and kj of its
// indices in the actions' index values (-1 where τ is the identity), and
// its verdict flags.
type pairEntry struct {
	IndexPair
	basis                                 int32
	ki, kj                                int32
	initialRelated, totalLeft, totalRight bool
}

func (e *pairEntry) corresponds() bool { return e.initialRelated && e.totalLeft && e.totalRight }

// NewIndexedResult assembles an indexed result from per-pair results,
// every pair its own basis: the form a stored correspondence is read back
// in.  Every result must be non-nil.
func NewIndexedResult(pairs map[IndexPair]*Result, inTotalLeft, inTotalRight bool) *IndexedResult {
	r := &IndexedResult{INTotalLeft: inTotalLeft, INTotalRight: inTotalRight}
	for p, res := range pairs {
		r.pairs = append(r.pairs, pairEntry{
			IndexPair: p, basis: int32(len(r.bases)), ki: -1, kj: -1,
			initialRelated: res.InitialRelated, totalLeft: res.TotalLeft, totalRight: res.TotalRight,
		})
		r.bases = append(r.bases, res)
	}
	slices.SortFunc(r.pairs, func(a, b pairEntry) int { return indexPairCmp(a.IndexPair, b.IndexPair) })
	return r
}

func indexPairCmp(a, b IndexPair) int {
	return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.I2, b.I2))
}

// Len returns the number of index pairs.
func (r *IndexedResult) Len() int { return len(r.pairs) }

// Corresponds reports whether the structures indexed-correspond: IN is total
// on both index sets and every (i, i') pair's reductions correspond.
func (r *IndexedResult) Corresponds() bool {
	if r == nil || !r.INTotalLeft || !r.INTotalRight || len(r.pairs) == 0 {
		return false
	}
	for k := range r.pairs {
		if !r.pairs[k].corresponds() {
			return false
		}
	}
	return true
}

// FailingPairs returns the index pairs whose reductions do not correspond,
// sorted.
func (r *IndexedResult) FailingPairs() []IndexPair {
	var out []IndexPair
	for k := range r.pairs {
		if !r.pairs[k].corresponds() {
			out = append(out, r.pairs[k].IndexPair)
		}
	}
	return out
}

// MaxDegree returns the largest minimal degree over all pairs' relations.
// τ_i × τ_j is a bijection of state pairs, so a transported relation holds
// its basis's degrees, and every basis is some pair's.
func (r *IndexedResult) MaxDegree() int {
	d := 0
	for _, b := range r.bases {
		d = max(d, b.Relation.MaxDegree())
	}
	return d
}

// Pair returns the result of index pair p, materialising its relation if
// it was transported, and whether p is in IN.
func (r *IndexedResult) Pair(p IndexPair) (*Result, bool) {
	k, ok := slices.BinarySearchFunc(r.pairs, p, func(e pairEntry, p IndexPair) int { return indexPairCmp(e.IndexPair, p) })
	if !ok {
		return nil, false
	}
	var tr transporter
	return tr.result(r, &r.pairs[k]), true
}

// Pairs yields every index pair with its result, sorted by (I, I2),
// materialising the relations of transported pairs one at a time.
func (r *IndexedResult) Pairs(yield func(IndexPair, *Result) bool) {
	var tr transporter
	for k := range r.pairs {
		if !yield(r.pairs[k].IndexPair, tr.result(r, &r.pairs[k])) {
			return
		}
	}
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
// the same degrees.  A transported pair's flags are decided through τ
// without building R_(i,j): its initial states are related iff their
// images are in the basis, and it is total iff the basis covers the image
// of every state in scope.  Its relation is materialised only by Pair or
// Pairs, so the result answers exactly as deciding every pair would; only
// OuterIterations and DegreeRounds are the basis's.  A pair with an index
// the action's structure does not have is decided by its own Compute.
func IndexedCompute(ctx context.Context, m, m2 *kripke.Structure, in []IndexPair, opts Options) (*IndexedResult, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("bisim: IndexedCompute: empty index relation")
	}
	if err := checkAction(opts.LeftAction, m, "left"); err != nil {
		return nil, err
	}
	if err := checkAction(opts.RightAction, m2, "right"); err != nil {
		return nil, err
	}
	// Deduplicate, and assign each pair its basis pair (rep(i), rep(j)),
	// which need not itself be in IN, and its indices' positions in the
	// actions where τ moves them.
	var pairs []pairEntry
	var bases []IndexPair
	basisID := make(map[IndexPair]int32, len(in))
	//lint:ctxloop map lookups per IN pair; the reductions below poll ctx
	for _, p := range in {
		e := pairEntry{IndexPair: p, ki: -1, kj: -1}
		b := p
		ri, ki, okI := orbitRep(opts.LeftAction, p.I)
		rj, kj, okJ := orbitRep(opts.RightAction, p.I2)
		if okI && okJ {
			b = IndexPair{I: ri, I2: rj}
			if ri != p.I {
				e.ki = int32(ki)
			}
			if rj != p.I2 {
				e.kj = int32(kj)
			}
		}
		id, ok := basisID[b]
		if !ok {
			id = int32(len(bases))
			basisID[b] = id
			bases = append(bases, b)
		}
		e.basis = id
		pairs = append(pairs, e)
	}
	slices.SortFunc(pairs, func(a, b pairEntry) int { return indexPairCmp(a.IndexPair, b.IndexPair) })
	pairs = slices.CompactFunc(pairs, func(a, b pairEntry) bool { return a.IndexPair == b.IndexPair })
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
	res := &IndexedResult{bases: computed, pairs: pairs, left: opts.LeftAction, right: opts.RightAction}
	// Each basis's coverage is computed once, by its first transported
	// pair.
	coverage := make([][2]kripke.BitSet, len(bases))
	for k := range pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := &pairs[k]
		basis := computed[e.basis]
		e.initialRelated, e.totalLeft, e.totalRight = basis.InitialRelated, basis.TotalLeft, basis.TotalRight
		if e.ki < 0 && e.kj < 0 {
			continue
		}
		cov := &coverage[e.basis]
		if cov[0] == nil {
			cov[0], cov[1] = basis.Relation.coverage()
		}
		e.flagsThrough(m, m2, basis.Relation, cov, res, opts)
	}
	res.INTotalLeft, res.INTotalRight = indexTotality(m, m2, in)
	return res, nil
}

// flagsThrough decides a transported pair's flags from its basis relation
// b and b's row and column coverage: (s, t) is related iff (τ_i s, τ_j t)
// is in b, so the pair's initial states are related iff their images are,
// and its row s (column t) is non-empty iff b's row τ_i s (column τ_j t)
// is.  A side whose τ is the identity keeps the basis's totality flag.
// The reductions share m's and m2's initial states and reachable sets, so
// m and m2 stand in for them.
func (e *pairEntry) flagsThrough(m, m2 *kripke.Structure, b *Relation, cov *[2]kripke.BitSet, r *IndexedResult, opts Options) {
	_, e.initialRelated = b.Degree(image(r.left, e.ki, m.Initial()), image(r.right, e.kj, m2.Initial()))
	if e.ki >= 0 {
		e.totalLeft = allInScope(m, opts, func(s int) bool { return cov[0].Get(int(image(r.left, e.ki, kripke.State(s)))) })
	}
	if e.kj >= 0 {
		e.totalRight = allInScope(m2, opts, func(t int) bool { return cov[1].Get(int(image(r.right, e.kj, kripke.State(t)))) })
	}
}

// image returns τ(s) for the index at position k of a's structure; k < 0
// is the identity.
func image(a *kripke.IndexAction, k int32, s kripke.State) kripke.State {
	if k < 0 {
		return s
	}
	t, _ := a.ToRepresentative(int(k), s)
	return t
}

// tauTable returns τ for the index at position k of a's structure as a
// state table, in buf's storage.
func tauTable(a *kripke.IndexAction, k int32, buf []int32) []int32 {
	n := a.Structure().NumStates()
	buf = slices.Grow(buf[:0], n)[:n]
	for s := range buf {
		buf[s] = int32(image(a, k, kripke.State(s)))
	}
	return buf
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
	// goroutines than cores buy no overlap but each would fill its own
	// arena, so cap the pool at the core budget.
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
			// Each worker owns one scratch arena, which every compute
			// leaves empty but keeps the memory of, so a run over several
			// basis pairs reuses the engine's big flat buffers instead of
			// reallocating them per pair.  The arena holds nothing until
			// the worker's first compute.
			var ar computeArena
			for {
				if err := cancelled(ctx); err != nil {
					return
				}
				k := int(next.Add(1)) - 1
				if k >= len(bases) {
					return
				}
				p := bases[k]
				r, err := compute(ctx, leftRed[p.I], rightRed[p.I2], opts, &ar)
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

// checkAction checks that the action on one side, if any, was verified on
// that side's structure m.
func checkAction(a *kripke.IndexAction, m *kripke.Structure, side string) error {
	if a != nil && a.Structure() != m {
		return fmt.Errorf("bisim: IndexedCompute: the %s index action was verified on structure %q, not on the %s structure %q",
			side, a.Structure().Name(), side, m.Name())
	}
	return nil
}

// orbitRep returns the representative of index i's orbit under a and i's
// position in the structure's index values: i itself without an action,
// and false when a's structure has no index i.
func orbitRep(a *kripke.IndexAction, i int) (rep, k int, ok bool) {
	if a == nil {
		return i, 0, true
	}
	if k, ok = slices.BinarySearch(a.Structure().IndexValues(), i); !ok {
		return 0, 0, false
	}
	return a.Representatives()[a.Orbit(k)], k, true
}

// transporter materialises the relations of transported pairs.  Its
// buffers are reused across the pairs of one Pairs call: the τ tables,
// the inverse of the left one, and the columns of the last basis relation
// transported.  Each Pair or Pairs call has its own, so a shared result
// has no mutable state.
type transporter struct {
	tauI, tauJ []int32
	inv        []int32
	of         *Relation
	colOff     []int32 // column t' spans colOff[t']:colOff[t'+1] of rows and degs
	rows       []int32
	degs       []int32
}

// result returns pair e's result: its basis's when both its maps are the
// identity, otherwise the basis relation transported through them, with
// e's flags and the basis's work counters.
func (tr *transporter) result(r *IndexedResult, e *pairEntry) *Result {
	basis := r.bases[e.basis]
	if e.ki < 0 && e.kj < 0 {
		return basis
	}
	var left, right []int32
	if e.ki >= 0 {
		tr.tauI = tauTable(r.left, e.ki, tr.tauI)
		left = tr.tauI
	}
	if e.kj >= 0 {
		tr.tauJ = tauTable(r.right, e.kj, tr.tauJ)
		right = tr.tauJ
	}
	return &Result{
		Relation:        tr.transport(basis.Relation, left, right),
		InitialRelated:  e.initialRelated,
		TotalLeft:       e.totalLeft,
		TotalRight:      e.totalRight,
		OuterIterations: basis.OuterIterations,
		DegreeRounds:    basis.DegreeRounds,
	}
}

// transport returns the relation in which (s, t) is related with degree d
// iff (left[s], right[t]) is, with d, in b (nil tables are the identity).
// The rows are filled column by column in increasing t, through b's
// columns, so each comes out sorted.
func (tr *transporter) transport(b *Relation, left, right []int32) *Relation {
	tr.columns(b)
	tr.inv = slices.Grow(tr.inv[:0], b.n)[:b.n]
	for s := range tr.inv {
		tr.inv[s] = int32(s)
	}
	for s, img := range left {
		tr.inv[img] = int32(s)
	}
	rel := newRelationRows(b.n, b.n2, func(s int) int {
		if left != nil {
			s = int(left[s])
		}
		return int(b.rowOff[s+1] - b.rowOff[s])
	})
	cursor := slices.Clone(rel.rowOff[:b.n])
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
	return rel
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

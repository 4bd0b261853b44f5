package bisim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/kripke"
)

// This file implements the partition-refinement engine behind Compute.
//
// The nested-fixpoint procedure of compute.go works on label-equal state
// *pairs* — O(|S|·|S'|) of them — and re-derives every pair's degree each
// time a pair is discarded.  This engine instead computes the same maximal
// correspondence as a *partition* of the disjoint union of the two state
// sets, in the style of Paige–Tarjan and Groote–Vaandrager: the maximal
// correspondence is exactly the stuttering equivalence of Browne, Clarke and
// Grumberg's companion paper ("Characterizing Kripke structures in temporal
// logic", 1987), and stuttering equivalence is the coarsest refinement of
// the label partition that is
//
//   - stable: for any two blocks B ≠ B', either every state of B or no
//     state of B can reach B' by a path that stays inside B, and
//   - divergence-consistent: within a block, either every state or no state
//     can stutter forever (follow an infinite path that never leaves the
//     block) — the clause that makes the relation sensitive to infinite
//     stuttering, mirroring the finite-degree requirement of the pair view.
//
// The engine preprocesses the union graph by contracting its silent SCCs
// (strongly connected components of the subgraph whose edges connect
// label-equal states): all states of such a component are trivially
// equivalent, every one of them can stutter forever, and after contraction
// the inside of every block is acyclic, so the reachability closures used by
// the splits terminate without cycle checks.  Blocks and splitter sets are
// kripke.BitSet values, so the split arithmetic (intersection with the
// splitter's predecessor set, subtraction of the reachable part) is
// word-parallel; for moderate sizes the transition relation itself is kept
// as bitset rows (kripke.TransitionMatrix).
//
// Once the partition is stable the candidate relation "same block" gets its
// minimal degrees from one pass, degreePass (packed.go), at every number of
// blocks and every block width: it reproduces the inner fixpoint of the
// nested-fixpoint oracle, so the engines return identical results.  Its
// working arrays grow with the related pairs, the union states and the
// transitions, never with |S|·|S'|.  A pair left without a finite degree
// would mean the partition is too coarse; the pass reports it as
// ErrUnresolvedDegree.
//
// Explain (evidence.go) runs this same refiner with a provenance recorder
// attached, so this file holds the only splitter drain and divergence pass.

// maxDenseMatrixStates bounds the contracted-graph size for which the
// engine keeps bitset successor/predecessor rows.  Building the rows costs
// O(cN²/64) words up front, which only pays off while the graph is small
// relative to the splitter traffic; past the threshold the engine uses the
// adjacency lists for the row operations (block and splitter sets stay
// bitsets regardless, so the split arithmetic itself is always
// word-parallel).
const maxDenseMatrixStates = 1 << 10

// csr is an int32 compressed-sparse-row adjacency: the row of node u is
// dst[off[u]:off[u+1]].
type csr struct{ off, dst []int32 }

// row returns the neighbours of node u.
func (g csr) row(u int) []int32 { return g.dst[g.off[u]:g.off[u+1]] }

type refiner struct {
	cN      int     // contracted (silent-SCC) node count
	comp    []int32 // contracted node of every union state
	cSucc   csr     // contracted adjacency, no self edges
	cPred   csr
	mat     *kripke.TransitionMatrix // bitset rows over contracted nodes, nil when too large
	divMask kripke.BitSet            // contracted nodes with an internal silent cycle

	blockOf []int32
	blocks  []*rblock
	queue   []int32
	inQueue []bool

	// Scratch state for the splitter pops of drain and applySplits, reused
	// so the hottest loop allocates nothing: dpScratch holds the splitter's
	// direct predecessors, candScratch the candidate block list, and
	// candStamp (one entry per block, grown like inQueue) marks candidates
	// of the current pop, identified by stamp.
	dpScratch   kripke.BitSet
	candScratch []int32
	candStamp   []int32
	stamp       int32

	// Pool of block-sized BitSets: splits allocate candidate sets on every
	// splitter pop and discard most of them (empty or improper splits), so
	// recycling them keeps the refinement loop allocation free in steady
	// state.  Sets from the pool have arbitrary contents; takers overwrite
	// via CopyFrom.
	freeSets    []kripke.BitSet
	stackBuf    []int32       // closeBackwardWithin worklist
	succScratch kripke.BitSet // enqueueSuccessors accumulator

	// arena backs the block sets and the large arrays; the caller releases
	// them once it has read the partition.
	arena *computeArena

	// prov records every block the refinement creates, for Explain; nil
	// under Compute.
	prov *explainer
}

// getSet returns a block-sized BitSet with arbitrary contents (callers
// overwrite it with CopyFrom).
func (r *refiner) getSet() kripke.BitSet {
	if k := len(r.freeSets); k > 0 {
		bs := r.freeSets[k-1]
		r.freeSets = r.freeSets[:k-1]
		return bs
	}
	return kripke.BitSet(r.arena.bitset(r.cN, false))
}

// putSet returns a BitSet to the pool.
func (r *refiner) putSet(bs kripke.BitSet) { r.freeSets = append(r.freeSets, bs) }

type rblock struct {
	set  kripke.BitSet // members, over contracted nodes
	size int
}

// computeRefined computes the maximal correspondence between m and m2 by
// partition refinement of their disjoint union, on the scratch memory of
// ar, which it leaves as it found it.
func computeRefined(ctx context.Context, m, m2 *kripke.Structure, opts Options, ar *computeArena) (*Result, error) {
	defer ar.release(ar.mark())
	N := m.NumStates() + m2.NumStates()
	// Per-union-state block id: s ~ t iff stateBlock[s] == stateBlock[n+t].
	// It outlives the refiner, so it is taken below the refiner's arrays.
	stateBlock := ar.i32s(N, false)
	refining := ar.mark()
	r, compLabel, err := newRefiner(ctx, m, m2, opts, ar)
	if err != nil {
		return nil, err
	}

	// Initial partition: one block per label class.
	r.initPartition(compLabel)
	res := &Result{}
	if err := r.stabilize(ctx, res); err != nil {
		return nil, err
	}
	for u := 0; u < N; u++ {
		stateBlock[u] = r.blockOf[r.comp[u]]
	}
	numBlocks := len(r.blocks)
	// Nothing the refiner holds is read again: the degree pass takes its
	// arrays from the same memory.
	ar.release(refining)

	// Minimal degrees of the same-block relation, in one word-parallel pass
	// at any number and width of blocks (packed.go).
	return degreePass(ctx, m, m2, stateBlock, numBlocks, opts, ar, res)
}

// newRefiner preprocesses the disjoint union of m and m2 (second structure
// offset by n) for refinement: it interns every union state's compared
// label, contracts the silent SCCs, and builds the contracted adjacency and
// divergence mask.  It returns the refiner, whose partition initPartition
// then seeds, and the label class of every contracted node.  Compute and
// Explain share it, so both refine the same graph.  The refiner's arrays
// come from ar.  Every loop over the union polls ctx once per 1,024 states.
func newRefiner(ctx context.Context, m, m2 *kripke.Structure, opts Options, ar *computeArena) (*refiner, []int32, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	N := n + n2
	if m.NumTransitions()+m2.NumTransitions() > math.MaxInt32 {
		return nil, nil, fmt.Errorf("bisim: the union of %s and %s has more transitions than int32 row offsets hold", m.Name(), m2.Name())
	}

	// Canonical label of every union state, interned to dense ids.  The two
	// structures intern labels independently (kripke.LabelID), so only the
	// *distinct* label keys are string-hashed — once per structure — and the
	// per-state key is a pair of small integers: the cross-structure key id
	// and the truth bits of the "exactly one" atoms, which is exactly the
	// comparison Options.labelOf performs.
	oneProps := opts.normalizedOneProps()
	onesKey := func(st *kripke.Structure, s kripke.State) uint64 {
		var bits uint64
		for j, p := range oneProps {
			if st.ExactlyOne(s, p) {
				bits |= 1 << uint(j)
			}
		}
		return bits
	}
	if len(oneProps) > 64 {
		// The truth bits overflow one word: intern the multi-word pattern
		// and key on its id instead.
		pattern := make([]byte, (len(oneProps)+7)/8)
		patternID := make(map[string]uint64)
		onesKey = func(st *kripke.Structure, s kripke.State) uint64 {
			clear(pattern)
			for j, p := range oneProps {
				if st.ExactlyOne(s, p) {
					pattern[j/8] |= 1 << uint(j%8)
				}
			}
			id, ok := patternID[string(pattern)]
			if !ok {
				id = uint64(len(patternID))
				patternID[string(pattern)] = id
			}
			return id
		}
	}
	strIntern := make(map[string]int32)
	internStr := func(key string) int32 {
		id, ok := strIntern[key]
		if !ok {
			id = int32(len(strIntern))
			strIntern[key] = id
		}
		return id
	}
	leftKeyID := make([]int32, m.NumLabels())
	for id := range leftKeyID {
		leftKeyID[id] = internStr(m.LabelKeyByID(kripke.LabelID(id)))
	}
	rightKeyID := make([]int32, m2.NumLabels())
	for id := range rightKeyID {
		rightKeyID[id] = internStr(m2.LabelKeyByID(kripke.LabelID(id)))
	}
	type classKey struct {
		key  int32
		ones uint64
	}
	labelID := ar.i32s(N, false) // fully written below
	intern := make(map[classKey]int32)
	for u := 0; u < N; u++ {
		if err := pollUnion(ctx, u); err != nil {
			return nil, nil, err
		}
		var key classKey
		if u < n {
			key = classKey{leftKeyID[m.LabelID(kripke.State(u))], onesKey(m, kripke.State(u))}
		} else {
			key = classKey{rightKeyID[m2.LabelID(kripke.State(u-n))], onesKey(m2, kripke.State(u-n))}
		}
		id, ok := intern[key]
		if !ok {
			id = int32(len(intern))
			intern[key] = id
		}
		labelID[u] = id
	}

	// Union successor iteration (second structure offset by n), without
	// materialising a combined adjacency.
	unionSucc := func(u int) []kripke.State {
		if u < n {
			return m.Succ(kripke.State(u))
		}
		return m2.Succ(kripke.State(u - n))
	}
	offset := func(u int) int {
		if u < n {
			return 0
		}
		return n
	}

	// Contract the silent SCCs: components of the subgraph whose edges stay
	// within one label class, found on each structure's own successor rows
	// through an edge filter.  The union has no edges between the two
	// structures, so numbering m2's components on from m's count gives
	// exactly the numbering of one run over the union.  Tarjan's stack is
	// released as soon as both runs are done.
	comp := ar.i32s(N, false) // fully written by SCCComp
	silentIn := func(labels []int32) func(u, v int) bool {
		return func(u, v int) bool { return labels[u] == labels[v] }
	}
	searched := ar.mark()
	stack := ar.i32s(max(n, n2), false)
	cN := graph.SCCComp(comp[:n], stack, 0, func(u int) []kripke.State { return m.Succ(kripke.State(u)) }, silentIn(labelID[:n]))
	cN += graph.SCCComp(comp[n:], stack, cN, func(u int) []kripke.State { return m2.Succ(kripke.State(u)) }, silentIn(labelID[n:]))
	ar.release(searched)
	if err := cancelled(ctx); err != nil {
		return nil, nil, err
	}
	compSize := ar.i32s(cN, true)
	compLabel := ar.i32s(cN, false) // every component has a member, so fully written
	for u := 0; u < N; u++ {
		compSize[comp[u]]++
		compLabel[comp[u]] = labelID[u]
	}

	r := &refiner{
		cN:        cN,
		comp:      comp,
		divMask:   kripke.BitSet(ar.bitset(cN, true)),
		dpScratch: kripke.BitSet(ar.bitset(cN, false)), // computeDP clears it first
		arena:     ar,
	}
	for c := 0; c < cN; c++ {
		if compSize[c] > 1 {
			r.divMask.Set(c) // a multi-state silent SCC contains a silent cycle
		}
	}
	// Contracted adjacency, both directions as int32 CSRs: a counting pass,
	// then a fill that uses each row's start offset as its cursor, so the
	// offsets end one row ahead and are shifted back.  Parallel edges
	// between two components are kept: every consumer either dedups
	// through a bitset or tolerates revisits, and skipping a dedup map here
	// is cheaper.  The two directions' targets are one hand-out, so that
	// once released they are one block the degree pass's predecessor lists
	// fit in.
	r.cSucc.off = ar.i32s(cN+1, true)
	r.cPred.off = ar.i32s(cN+1, true)
	for u := 0; u < N; u++ {
		if err := pollUnion(ctx, u); err != nil {
			return nil, nil, err
		}
		cu := comp[u]
		off := offset(u)
		for _, v := range unionSucc(u) {
			uv := off + int(v)
			cv := comp[uv]
			if cu == cv {
				if u == uv {
					r.divMask.Set(int(cu)) // silent self loop
				}
				continue
			}
			r.cSucc.off[cu+1]++
			r.cPred.off[cv+1]++
		}
	}
	for c := 0; c < cN; c++ {
		r.cSucc.off[c+1] += r.cSucc.off[c]
		r.cPred.off[c+1] += r.cPred.off[c]
	}
	edges := int(r.cSucc.off[cN])
	dst := ar.i32s(2*edges, false) // fully written below
	r.cSucc.dst, r.cPred.dst = dst[:edges:edges], dst[edges:]
	for u := 0; u < N; u++ {
		if err := pollUnion(ctx, u); err != nil {
			return nil, nil, err
		}
		cu := comp[u]
		off := offset(u)
		for _, v := range unionSucc(u) {
			cv := comp[off+int(v)]
			if cu == cv {
				continue
			}
			r.cSucc.dst[r.cSucc.off[cu]] = cv
			r.cSucc.off[cu]++
			r.cPred.dst[r.cPred.off[cv]] = cu
			r.cPred.off[cv]++
		}
	}
	for _, g := range []csr{r.cSucc, r.cPred} {
		copy(g.off[1:], g.off[:cN])
		g.off[0] = 0
	}
	if cN <= maxDenseMatrixStates {
		r.mat = kripke.NewTransitionMatrix(cN)
		for u := 0; u < cN; u++ {
			for _, v := range r.cSucc.row(u) {
				r.mat.Add(u, int(v))
			}
		}
	}
	return r, compLabel, nil
}

// pollUnion polls ctx at every 1,024th union state u of a preprocessing
// loop.
func pollUnion(ctx context.Context, u int) error {
	if u&1023 != 0 {
		return nil
	}
	return cancelled(ctx)
}

// initPartition builds the initial blocks over the contracted components,
// one per label class, and enqueues every block as a splitter.
func (r *refiner) initPartition(compLabel []int32) {
	r.blockOf = r.arena.i32s(r.cN, false) // fully written below
	blockBy := make(map[int32]int32)
	for c := 0; c < r.cN; c++ {
		bid, ok := blockBy[compLabel[c]]
		if !ok {
			bid = int32(len(r.blocks))
			blockBy[compLabel[c]] = bid
			set := r.getSet()
			for i := range set {
				set[i] = 0
			}
			r.blocks = append(r.blocks, &rblock{set: set})
			r.inQueue = append(r.inQueue, false)
			r.candStamp = append(r.candStamp, 0)
		}
		r.blocks[bid].set.Set(c)
		r.blocks[bid].size++
		r.blockOf[c] = bid
	}
	for bid, b := range r.blocks {
		if r.prov != nil {
			r.prov.recordRoot(b.set)
		}
		r.enqueue(int32(bid))
	}
}

// stabilize runs the refinement loop — splitter drain alternating with
// divergence passes — until the partition is stable and divergence
// consistent, accumulating the work counters into res.
func (r *refiner) stabilize(ctx context.Context, res *Result) error {
	for {
		if err := cancelled(ctx); err != nil {
			return err
		}
		res.OuterIterations++
		if err := r.drain(ctx); err != nil {
			return err
		}
		if !r.divergencePass() {
			return nil
		}
	}
}

func (r *refiner) enqueue(bid int32) {
	if !r.inQueue[bid] {
		r.inQueue[bid] = true
		r.queue = append(r.queue, bid)
	}
}

// drain processes splitters until the partition is stable with respect to
// every block in the queue (and every block their splits re-enqueue).  It
// polls ctx once per batch of splitter pops, which keeps the cancellation
// latency a small multiple of a single split's cost without measurably
// slowing the refinement loop.
func (r *refiner) drain(ctx context.Context) error {
	for pops := 0; len(r.queue) > 0; pops++ {
		if pops&255 == 0 {
			if err := cancelled(ctx); err != nil {
				return err
			}
		}
		bid := r.queue[0]
		r.queue = r.queue[1:]
		r.inQueue[bid] = false
		r.computeDP(bid, r.dpScratch)
		r.applySplits(bid, r.dpScratch)
	}
	return nil
}

// computeDP fills dp with the contracted nodes that have a direct edge into
// the splitter sp.
func (r *refiner) computeDP(sp int32, dp kripke.BitSet) {
	for i := range dp {
		dp[i] = 0
	}
	spSet := r.blocks[sp].set
	if r.mat != nil {
		spSet.ForEach(func(v int) bool { dp.Or(r.mat.Pred(v)); return true })
	} else {
		spSet.ForEach(func(v int) bool {
			for _, p := range r.cPred.row(v) {
				dp.Set(int(p))
			}
			return true
		})
	}
}

// applySplits splits every other block against the splitter sp, whose
// predecessor set dp computeDP filled: a block is stable with respect to sp
// when either all or none of its states can reach sp by a path staying
// inside the block.  The candidates are the blocks holding a state with an
// edge into the splitter; splitting one candidate never moves states of
// another (the split-off halves hold no state of dp), so they are split in
// turn, in order of first appearance in dp.
func (r *refiner) applySplits(sp int32, dp kripke.BitSet) {
	r.stamp++
	cands := r.candScratch[:0]
	dp.ForEach(func(v int) bool {
		b := r.blockOf[v]
		if b != sp && r.candStamp[b] != r.stamp {
			r.candStamp[b] = r.stamp
			cands = append(cands, b)
		}
		return true
	})
	r.candScratch = cands[:0]
	for _, bid := range cands {
		r.splitReach(bid, sp, dp)
	}
}

// splitReach splits block bid by "can reach the splitter sp through the
// block".  Both halves are stable against the splitter afterwards: every
// state on a witnessing path lies in the positive half itself.
func (r *refiner) splitReach(bid, sp int32, dp kripke.BitSet) {
	b := r.blocks[bid]
	pos := r.getSet()
	pos.CopyFrom(b.set)
	pos.And(dp) // word-parallel: the block's direct exits into the splitter
	if pos.Empty() {
		r.putSet(pos)
		return
	}
	r.closeBackwardWithin(bid, pos)
	if !r.divide(bid, pos, sp) {
		r.putSet(pos)
	}
}

// closeBackwardWithin extends set to every state of block bid that can reach
// set via transitions staying inside the block.  The inside of a block is
// acyclic (silent SCCs are contracted), so plain BFS terminates.
func (r *refiner) closeBackwardWithin(bid int32, set kripke.BitSet) {
	stack := r.stackBuf[:0]
	set.ForEach(func(v int) bool { stack = append(stack, int32(v)); return true })
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range r.cPred.row(int(v)) {
			if r.blockOf[p] == bid && !set.Get(int(p)) {
				set.Set(int(p))
				stack = append(stack, p)
			}
		}
	}
	r.stackBuf = stack
}

// divide splits block bid into pos and the rest, re-enqueueing what the
// split may have destabilised; splitter is the block a reach split ran
// against, -1 for a divergence split.  It reports whether a proper split
// happened (and takes ownership of pos exactly when it does).
func (r *refiner) divide(bid int32, pos kripke.BitSet, splitter int32) bool {
	b := r.blocks[bid]
	posCount := pos.Count()
	if posCount == 0 || posCount == b.size {
		return false
	}
	rest := r.getSet()
	rest.CopyFrom(b.set)
	rest.AndNot(pos) // word-parallel
	nid := int32(len(r.blocks))
	r.blocks = append(r.blocks, &rblock{set: rest, size: b.size - posCount})
	r.inQueue = append(r.inQueue, false)
	r.candStamp = append(r.candStamp, 0)
	r.putSet(b.set)
	b.set = pos
	b.size = posCount
	rest.ForEach(func(v int) bool { r.blockOf[v] = nid; return true })
	if r.prov != nil {
		r.prov.recordSplit(bid, pos, rest, splitter)
	}
	// Other blocks must re-check stability against each half, and each half
	// must re-check stability against its successor blocks (a half's
	// inside-the-block closure is smaller than its parent's was).
	r.enqueue(bid)
	r.enqueue(nid)
	r.enqueueSuccessors(pos)
	r.enqueueSuccessors(rest)
	return true
}

// enqueueSuccessors enqueues the blocks reachable in one step from set.
func (r *refiner) enqueueSuccessors(set kripke.BitSet) {
	if r.mat != nil {
		if r.succScratch == nil {
			r.succScratch = kripke.BitSet(r.arena.bitset(r.cN, false)) // cleared below
		}
		out := r.succScratch
		for i := range out {
			out[i] = 0
		}
		set.ForEach(func(v int) bool { out.Or(r.mat.Succ(v)); return true })
		out.ForEach(func(w int) bool { r.enqueue(r.blockOf[w]); return true })
		return
	}
	set.ForEach(func(v int) bool {
		for _, w := range r.cSucc.row(v) {
			r.enqueue(r.blockOf[w])
		}
		return true
	})
}

// divergencePass splits blocks whose states disagree on divergence: a state
// diverges within its block when it can reach, without leaving the block, a
// contracted node carrying an internal silent cycle.  It reports whether any
// block was split (the caller then drains the queue again, since divergence
// splits can destabilise reachability and vice versa).
func (r *refiner) divergencePass() bool {
	changed := false
	for bid := 0; bid < len(r.blocks); bid++ {
		b := r.blocks[bid]
		div := r.getSet()
		div.CopyFrom(b.set)
		div.And(r.divMask) // word-parallel: the block's internal cycles
		if div.Empty() {
			r.putSet(div)
			continue
		}
		r.closeBackwardWithin(int32(bid), div)
		if r.divide(int32(bid), div, -1) {
			changed = true
		} else {
			r.putSet(div)
		}
	}
	return changed
}

package bisim

import (
	"context"

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
// minimal degrees from one of three degree passes, chosen by the input's
// shape alone: maskedFinishPacked (packed.go) when every block fits a
// 64-bit row, maskedFinish when a block holds more than 64 left states, and
// the shared pruneAndFinish tail past 64 blocks.  All three reproduce the
// inner fixpoint of the legacy engine, so the engines return bit-identical
// results; pruneAndFinish also defensively re-prunes (a no-op when the
// partition is exact, a safety net otherwise).

// maxDenseMatrixStates bounds the contracted-graph size for which the
// engine keeps bitset successor/predecessor rows.  Building the rows costs
// O(cN²/64) words up front, which only pays off while the graph is small
// relative to the splitter traffic; past the threshold the engine uses the
// adjacency lists for the row operations (block and splitter sets stay
// bitsets regardless, so the split arithmetic itself is always
// word-parallel).
const maxDenseMatrixStates = 1 << 10

type refiner struct {
	cN      int       // contracted (silent-SCC) node count
	cSucc   [][]int32 // contracted adjacency, no self edges
	cPred   [][]int32
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

	// arena (possibly nil) backs the block sets and large scratch arrays so
	// IndexedCompute can recycle them across pair computes.
	arena *computeArena
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
// partition refinement of their disjoint union.
func computeRefined(ctx context.Context, m, m2 *kripke.Structure, opts Options) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	N := n + n2
	ar := opts.arena // nil for direct calls; every helper degrades to make

	// Canonical label of every union state, interned to dense ids.  The two
	// structures intern labels independently (kripke.LabelID), so only the
	// *distinct* label keys are string-hashed — once per structure — and the
	// per-state key is a pair of small integers: the cross-structure key id
	// and the truth bits of the "exactly one" atoms, which is exactly the
	// comparison Options.labelOf performs.
	oneProps := opts.normalizedOneProps()
	if len(oneProps) > 64 {
		// The bit-packed key below would overflow; nothing realistic has
		// this many indexed propositions, so just take the slow oracle.
		return computeFixpoint(ctx, m, m2, opts)
	}
	onesBits := func(st *kripke.Structure, s kripke.State) uint64 {
		var bits uint64
		for j, p := range oneProps {
			if st.ExactlyOne(s, p) {
				bits |= 1 << uint(j)
			}
		}
		return bits
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
	internKey := func(key classKey) int32 {
		id, ok := intern[key]
		if !ok {
			id = int32(len(intern))
			intern[key] = id
		}
		return id
	}
	for s := 0; s < n; s++ {
		labelID[s] = internKey(classKey{leftKeyID[m.LabelID(kripke.State(s))], onesBits(m, kripke.State(s))})
	}
	for t := 0; t < n2; t++ {
		labelID[n+t] = internKey(classKey{rightKeyID[m2.LabelID(kripke.State(t))], onesBits(m2, kripke.State(t))})
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
	// within one label class.  The adjacency is built flat (counting pass,
	// then fill) to avoid per-state slice growth.
	silentCount := ar.intsN(N, true)
	totalSilent := 0
	for u := 0; u < N; u++ {
		off := offset(u)
		for _, v := range unionSucc(u) {
			if labelID[u] == labelID[off+int(v)] {
				silentCount[u]++
				totalSilent++
			}
		}
	}
	silentAdj := make([][]int, N)
	silentBacking := ar.intsN(totalSilent, false) // append-filled via the capped headers
	pos := 0
	for u := 0; u < N; u++ {
		silentAdj[u] = silentBacking[pos : pos : pos+silentCount[u]]
		pos += silentCount[u]
		off := offset(u)
		for _, v := range unionSucc(u) {
			if labelID[u] == labelID[off+int(v)] {
				silentAdj[u] = append(silentAdj[u], off+int(v))
			}
		}
	}
	comp, cN := graph.FromAdjacency(silentAdj).SCCComp()
	compSize := ar.i32s(cN, true)
	compLabel := ar.i32s(cN, false) // every component has a member, so fully written
	for u := 0; u < N; u++ {
		compSize[comp[u]]++
		compLabel[comp[u]] = labelID[u]
	}

	r := &refiner{
		cN:        cN,
		divMask:   kripke.BitSet(ar.bitset(cN, true)),
		dpScratch: kripke.BitSet(ar.bitset(cN, false)), // computeDP clears it first
		arena:     ar,
	}
	for c := 0; c < cN; c++ {
		if compSize[c] > 1 {
			r.divMask.Set(c) // a multi-state silent SCC contains a silent cycle
		}
	}
	// Contracted adjacency, counting pass then fill.  Parallel edges between
	// two components are kept: every consumer either dedups through a bitset
	// or tolerates revisits, and skipping a dedup map here is cheaper.
	succCount := ar.intsN(cN, true)
	predCount := ar.intsN(cN, true)
	totalEdges := 0
	for u := 0; u < N; u++ {
		cu := comp[u]
		off := offset(u)
		for _, v := range unionSucc(u) {
			uv := off + int(v)
			cv := comp[uv]
			if cu == cv {
				if u == uv {
					r.divMask.Set(cu) // silent self loop
				}
				continue
			}
			succCount[cu]++
			predCount[cv]++
			totalEdges++
		}
	}
	r.cSucc = make([][]int32, cN)
	r.cPred = make([][]int32, cN)
	succBacking := ar.i32s(totalEdges, false)
	predBacking := ar.i32s(totalEdges, false)
	sPos, pPos := 0, 0
	for c := 0; c < cN; c++ {
		r.cSucc[c] = succBacking[sPos : sPos : sPos+succCount[c]]
		sPos += succCount[c]
		r.cPred[c] = predBacking[pPos : pPos : pPos+predCount[c]]
		pPos += predCount[c]
	}
	for u := 0; u < N; u++ {
		cu := comp[u]
		off := offset(u)
		for _, v := range unionSucc(u) {
			cv := comp[off+int(v)]
			if cu == cv {
				continue
			}
			r.cSucc[cu] = append(r.cSucc[cu], int32(cv))
			r.cPred[cv] = append(r.cPred[cv], int32(cu))
		}
	}
	if cN <= maxDenseMatrixStates {
		r.mat = kripke.NewTransitionMatrix(cN)
		for u, vs := range r.cSucc {
			for _, v := range vs {
				r.mat.Add(u, int(v))
			}
		}
	}

	// Initial partition: one block per label class.
	r.initPartition(compLabel)
	res := &Result{}
	if err := r.stabilize(ctx, res); err != nil {
		return nil, err
	}

	// Per-union-state block id: s ~ t iff stateBlock[s] == stateBlock[n+t].
	stateBlock := ar.i32s(N, false)
	for u := 0; u < N; u++ {
		stateBlock[u] = r.blockOf[comp[u]]
	}

	// Minimal degrees; the input's shape picks the route.  With few enough
	// blocks the successor-block set of a state fits one machine word, and
	// when no block holds more than 64 left states the pairs of one right
	// state fit one word as well, so whole rows resolve at once
	// (maskedFinishPacked).  Wider blocks take the per-pair compact table
	// (maskedFinish).  Past 64 blocks, or in the never-expected case that a
	// pair turns out to have no finite degree (the refinement would have
	// over-approximated), the generic prune-and-assign loop takes over; it
	// handles any candidate set.
	if len(r.blocks) <= maskDegreeBlockLimit {
		out, ok, err := maskedFinishPacked(ctx, m, m2, stateBlock, len(r.blocks), opts, res)
		if err == nil && !ok {
			out, ok, err = maskedFinish(ctx, m, m2, stateBlock, len(r.blocks), opts, res)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			return out, nil
		}
	}
	inR := make([]bool, n*n2)
	for s := 0; s < n; s++ {
		base := s * n2
		for t := 0; t < n2; t++ {
			if stateBlock[s] == stateBlock[n+t] {
				inR[base+t] = true
			}
		}
	}
	return pruneAndFinish(ctx, m, m2, inR, opts, res, computeDegreesFast)
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
	for bid := range r.blocks {
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

// maskDegreeBlockLimit is the block count up to which maskedFinish packs a
// state's successor-block set into a uint64 (a test hook lowers it to force
// the generic path).
var maskDegreeBlockLimit = 64

// maskedFinish assigns the minimal degree of every pair of the same-block
// relation and packages the Result, exploiting that the candidate set is a
// partition with at most 64 blocks:
//
//   - pairs live in a compact table — right state t owns the slots
//     [pairBase[t], pairBase[t]+len(lefts of t's block)) — so the working
//     arrays are proportional to the relation, not to |S|·|S'|, and stay
//     cache-resident;
//   - a pair (s, t) lies in a single block b, a stuttering move is a
//     successor inside b, and a matched move only needs the mover's block
//     to appear among the other side's successor blocks — a one-bit test
//     against the per-state successor-block mask;
//   - re-examination is scheduled by the same worklist rule as
//     computeDegreesFast, so the assigned degrees are identical to the
//     reference computeDegrees.
//
// It reports ok=false if some pair received no finite degree (meaning the
// refinement over-approximated, which the theory rules out but the caller
// still guards), in which case the generic pruning loop takes over.
func maskedFinish(ctx context.Context, m, m2 *kripke.Structure, stateBlock []int32, numBlocks int, opts Options, res *Result) (*Result, bool, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	ar := opts.arena

	// Left states of every block, and each left state's rank in its block.
	blockLefts := make([][]int32, numBlocks)
	rank := ar.i32s(n, false)
	for s := 0; s < n; s++ {
		b := stateBlock[s]
		rank[s] = int32(len(blockLefts[b]))
		blockLefts[b] = append(blockLefts[b], int32(s))
	}
	// Compact pair table.
	pairBase := ar.i32s(n2, false)
	total := 0
	for t := 0; t < n2; t++ {
		pairBase[t] = int32(total)
		total += len(blockLefts[stateBlock[n+t]])
	}
	pairS := ar.i32s(total, false)
	pairT := ar.i32s(total, false)
	for t := 0; t < n2; t++ {
		off := pairBase[t]
		for j, s := range blockLefts[stateBlock[n+t]] {
			pairS[off+int32(j)] = s
			pairT[off+int32(j)] = int32(t)
		}
	}

	// Successor-block mask of every union state.
	masks := ar.u64s(n+n2, true)
	for s := 0; s < n; s++ {
		for _, v := range m.Succ(kripke.State(s)) {
			masks[s] |= 1 << uint(stateBlock[v])
		}
	}
	for t := 0; t < n2; t++ {
		for _, v := range m2.Succ(kripke.State(t)) {
			masks[n+t] |= 1 << uint(stateBlock[n+int(v)])
		}
	}

	// In-block (stuttering) successor and predecessor lists.  All degree
	// references in the clauses are stuttering moves, so only these edges
	// ever need per-pair work; flat backing, counting pass first.
	ibSuccOf := func(u int) []kripke.State {
		if u < n {
			return m.Succ(kripke.State(u))
		}
		return m2.Succ(kripke.State(u - n))
	}
	N := n + n2
	ibsCount := ar.i32s(N, true)
	ibpCount := ar.i32s(N, true)
	ibTotal := 0
	for u := 0; u < N; u++ {
		off := 0
		if u >= n {
			off = n
		}
		b := stateBlock[u]
		for _, v := range ibSuccOf(u) {
			if stateBlock[off+int(v)] == b {
				ibsCount[u]++
				ibpCount[off+int(v)]++
				ibTotal++
			}
		}
	}
	ibSucc := make([][]int32, N)
	ibPred := make([][]int32, N)
	ibsBacking := ar.i32s(ibTotal, false) // append-filled via the capped headers
	ibpBacking := ar.i32s(ibTotal, false)
	sOff, pOff := 0, 0
	for u := 0; u < N; u++ {
		ibSucc[u] = ibsBacking[sOff : sOff : sOff+int(ibsCount[u])]
		sOff += int(ibsCount[u])
		ibPred[u] = ibpBacking[pOff : pOff : pOff+int(ibpCount[u])]
		pOff += int(ibpCount[u])
	}
	for u := 0; u < N; u++ {
		off := 0
		if u >= n {
			off = n
		}
		b := stateBlock[u]
		for _, v := range ibSuccOf(u) {
			uv := off + int(v)
			if stateBlock[uv] == b {
				ibSucc[u] = append(ibSucc[u], int32(uv))
				ibPred[uv] = append(ibPred[uv], int32(u))
			}
		}
	}
	// Round 0: a pair is an exact match iff the two states offer successors
	// in exactly the same blocks.
	deg := ar.i32s(total, false)
	for i := range deg {
		deg[i] = -1
	}
	var resolved []int32
	for id := 0; id < total; id++ {
		if masks[pairS[id]] == masks[n+int(pairT[id])] {
			deg[id] = 0
			resolved = append(resolved, int32(id))
		}
	}
	assigned := len(resolved)

	// clause2b: either t stutters to a strictly smaller degree, or every
	// move of s is matched or stutters to a strictly smaller degree.  Only
	// in-block moves can stutter and only in-block moves can be unmatched
	// while the clause still holds, so comparing the successor-block masks
	// settles the clause outright in the common case.
	clause2b := func(s, t int, k int32) bool {
		sm, tm := masks[s], masks[n+t]
		if sm&^tm == 0 {
			return true // every move of s is matched
		}
		b := stateBlock[s]
		bBit := uint64(1) << uint(b)
		if sm&^tm == bBit {
			// Only the stuttering moves are unmatched; they all need a
			// strictly smaller degree.
			ok := true
			tRow := pairBase[t]
			for _, s1 := range ibSucc[s] {
				if d := deg[tRow+rank[s1]]; d < 0 || d >= k {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		for _, t1 := range ibSucc[n+t] {
			if d := deg[pairBase[int(t1)-n]+rank[s]]; d >= 0 && d < k {
				return true
			}
		}
		return false
	}
	clause2c := func(s, t int, k int32) bool {
		sm, tm := masks[s], masks[n+t]
		if tm&^sm == 0 {
			return true // every move of t is matched
		}
		b := stateBlock[s]
		bBit := uint64(1) << uint(b)
		if tm&^sm == bBit {
			ok := true
			for _, t1 := range ibSucc[n+t] {
				if d := deg[pairBase[int(t1)-n]+rank[s]]; d < 0 || d >= k {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
		tRow := pairBase[t]
		for _, s1 := range ibSucc[s] {
			if d := deg[tRow+rank[s1]]; d >= 0 && d < k {
				return true
			}
		}
		return false
	}

	scheduledAt := ar.i32s(total, false)
	for i := range scheduledAt {
		scheduledAt[i] = -1
	}
	var cands []int32
	rounds := int32(1)
	for len(resolved) > 0 {
		if err := cancelled(ctx); err != nil {
			return nil, false, err
		}
		cands = cands[:0]
		schedule := func(j int32) {
			if deg[j] < 0 && scheduledAt[j] != rounds {
				scheduledAt[j] = rounds
				cands = append(cands, j)
			}
		}
		for _, id := range resolved {
			s, t := int(pairS[id]), int(pairT[id])
			for _, sp := range ibPred[s] {
				schedule(pairBase[t] + rank[sp])
			}
			for _, tp := range ibPred[n+t] {
				schedule(pairBase[int(tp)-n] + rank[s])
			}
		}
		resolved = resolved[:0]
		for _, id := range cands {
			s, t := int(pairS[id]), int(pairT[id])
			if clause2b(s, t, rounds) && clause2c(s, t, rounds) {
				deg[id] = rounds
				resolved = append(resolved, id)
			}
		}
		assigned += len(resolved)
		rounds++
	}
	if assigned != total {
		return nil, false, nil
	}

	return blockFinish(m, m2, stateBlock, blockLefts, pairBase, deg, rounds, opts, res), true, nil
}

// blockFinish packages the outcome of a block-structured degree pass
// (maskedFinish, maskedFinishPacked), where deg[pairBase[t]+j] is the
// degree of the pair (blockLefts[b][j], t) for t's block b.  Walking t
// upwards fills every relation row in increasing right state, and
// totality comes straight from the block structure: a state is covered
// iff the other side populates its block.
func blockFinish(m, m2 *kripke.Structure, stateBlock []int32, blockLefts [][]int32, pairBase, deg []int32, rounds int32, opts Options, res *Result) *Result {
	n, n2 := m.NumStates(), m2.NumStates()
	rightCount := make([]int32, len(blockLefts))
	for t := 0; t < n2; t++ {
		rightCount[stateBlock[n+t]]++
	}
	rel, cursor := newRelationRows(n, n2, func(s int) int { return int(rightCount[stateBlock[s]]) })
	for t := 0; t < n2; t++ {
		base := pairBase[t]
		for j, s := range blockLefts[stateBlock[n+t]] {
			rel.cols[cursor[s]], rel.degs[cursor[s]] = int32(t), deg[base+int32(j)]
			cursor[s]++
		}
	}
	res.OuterIterations++
	res.DegreeRounds += int(rounds)
	res.Relation = rel
	_, res.InitialRelated = rel.Degree(m.Initial(), m2.Initial())
	res.TotalLeft = allInScope(m, opts, func(s int) bool { return rightCount[stateBlock[s]] > 0 })
	res.TotalRight = allInScope(m2, opts, func(t int) bool { return len(blockLefts[stateBlock[n+t]]) > 0 })
	return res
}

// computeDegreesFast assigns exactly the same minimal degrees as
// computeDegrees (the reference implementation in compute.go, kept as the
// oracle) but replaces the per-round rescan of every unresolved pair with
// worklist scheduling: a pair is re-examined in round k only when one of the
// pairs its clauses reference — (s, t1) for a successor t1 of t, or (s1, t)
// for a successor s1 of s — was resolved in round k-1.  With no new adjacent
// resolution the clause verdict cannot change (every resolved degree is
// already below the round counter), so the schedule loses nothing; it is
// what turns the degree pass from O(maxDegree · |R|) into roughly one check
// per relation edge.
func computeDegreesFast(ctx context.Context, m, m2 *kripke.Structure, inR []bool, deg []int, maxRounds int) (int, error) {
	n2 := m2.NumStates()
	for i := range deg {
		deg[i] = InfiniteDegree
	}
	// Round 0: exact matches with respect to inR.
	var resolved []int
	for i, ok := range inR {
		if !ok {
			continue
		}
		s := kripke.State(i / n2)
		t := kripke.State(i % n2)
		if exactMatch(m, m2, inR, n2, s, t) {
			deg[i] = 0
			resolved = append(resolved, i)
		}
	}
	scheduledAt := make([]int32, len(inR))
	for i := range scheduledAt {
		scheduledAt[i] = -1
	}
	var cands []int
	rounds := 1
	for len(resolved) > 0 && rounds <= maxRounds {
		if err := cancelled(ctx); err != nil {
			return rounds, err
		}
		cands = cands[:0]
		schedule := func(j int) {
			if inR[j] && deg[j] == InfiniteDegree && scheduledAt[j] != int32(rounds) {
				scheduledAt[j] = int32(rounds)
				cands = append(cands, j)
			}
		}
		for _, i := range resolved {
			s, t := i/n2, i%n2
			for _, sp := range m.Pred(kripke.State(s)) {
				schedule(int(sp)*n2 + t)
			}
			for _, tp := range m2.Pred(kripke.State(t)) {
				schedule(s*n2 + int(tp))
			}
		}
		resolved = resolved[:0]
		for _, i := range cands {
			s := kripke.State(i / n2)
			t := kripke.State(i % n2)
			if degClause2b(m, m2, inR, deg, n2, s, t, rounds) && degClause2c(m, m2, inR, deg, n2, s, t, rounds) {
				deg[i] = rounds
				resolved = append(resolved, i)
			}
		}
		rounds++
	}
	return rounds, nil
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
			for _, p := range r.cPred[v] {
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
		r.splitReach(bid, dp)
	}
}

// splitReach splits block bid by "can reach the splitter through the block".
// Both halves are stable against the splitter afterwards: every state on a
// witnessing path lies in the positive half itself.
func (r *refiner) splitReach(bid int32, dp kripke.BitSet) {
	b := r.blocks[bid]
	pos := r.getSet()
	pos.CopyFrom(b.set)
	pos.And(dp) // word-parallel: the block's direct exits into the splitter
	if pos.Empty() {
		r.putSet(pos)
		return
	}
	r.closeBackwardWithin(bid, pos)
	if !r.divide(bid, pos) {
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
		for _, p := range r.cPred[v] {
			if r.blockOf[p] == bid && !set.Get(int(p)) {
				set.Set(int(p))
				stack = append(stack, p)
			}
		}
	}
	r.stackBuf = stack
}

// divide splits block bid into pos and the rest, re-enqueueing what the
// split may have destabilised.  It reports whether a proper split happened
// (and takes ownership of pos exactly when it does).
func (r *refiner) divide(bid int32, pos kripke.BitSet) bool {
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
			r.succScratch = kripke.NewBitSet(r.cN)
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
		for _, w := range r.cSucc[v] {
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
		if r.divide(int32(bid), div) {
			changed = true
		} else {
			r.putSet(div)
		}
	}
	return changed
}

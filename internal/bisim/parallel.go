package bisim

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/kripke"
)

// This file is the multi-worker face of the partition-refinement engine.
// Options.Workers > 1 switches Compute's internals onto it; every worker
// count — including the degenerate 1 — produces byte-identical Results
// (relations, degrees, work counters, block numbering), which
// parallel_differential_test.go pins against the sequential engine and the
// nested-fixpoint oracle.  Three phases fan out:
//
//   - the splitter queue drains in batches: the predecessor sets of the next
//     drainBatchSize splitters are computed concurrently (they are pure
//     functions of the current partition), then the splits replay
//     sequentially in exact queue order, recomputing any predecessor set
//     whose splitter block was itself divided earlier in the batch (a
//     per-block version counter detects this);
//   - within one splitter, the candidate blocks' split sets are mutually
//     independent ("splitting one candidate never moves states of another"),
//     so their in-block backward closures are computed concurrently into
//     per-candidate slots before the divides replay in candidate order;
//   - the degree pass runs word-at-a-time (maskedFinishPacked): pairs of one
//     right state form one 64-bit row indexed by left rank, each worklist
//     round becomes a handful of mask operations per row, and rows are
//     independent within a round, so the sweep is chunked across workers.
//
// Parallel phases write only to preallocated per-slot or per-worker buffers —
// the shared BitSet free-list is touched exclusively from the sequential
// replay sections, so the pool needs no lock and workers never contend.

// drainBatchSize caps how many splitter predecessor sets one batch computes
// ahead (and so how many block-sized scratch sets the batch pins).
const drainBatchSize = 64

// parallelCandidateMin is the candidate-list length below which the
// per-splitter closure fan-out is not worth its barrier.
const parallelCandidateMin = 8

// parallelSpawnMin is the batch / wave length below which the drain and the
// divergence pass keep their precompute loops inline: a goroutine fan-out
// over a handful of items costs more than it saves.
const parallelSpawnMin = 16

// packedRowGrain is the chunk size of the packed degree pass's parallel row
// sweep; rounds narrower than a few chunks run inline.
const packedRowGrain = 64

// parallelClaim runs fn(worker, i) for every i in [0, n), fanning out across
// at most `workers` goroutines that claim indices from an atomic counter.
// The context is polled at every claim, so cancellation is observed within
// one item.  fn must confine its writes to per-worker or per-index state.
func parallelClaim(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := cancelled(ctx); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				if cancelled(ctx) != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
	return cancelled(ctx)
}

// drainParallel is the worker-pool counterpart of drain.  Each batch
// precomputes the predecessor sets of the queue's next splitters
// concurrently, then replays the splits in the exact order the sequential
// drain would have popped them; blockVersion exposes splitters whose own
// block was divided mid-batch, and their (stale) sets are recomputed inline.
func (r *refiner) drainParallel(ctx context.Context) error {
	if r.dpBatch == nil {
		r.dpBatch = make([]kripke.BitSet, drainBatchSize)
		for i := range r.dpBatch {
			r.dpBatch[i] = kripke.BitSet(r.arena.bitset(r.cN, false)) // computeDP clears
		}
		r.dpVersions = make([]uint32, drainBatchSize)
	}
	for len(r.queue) > 0 {
		if err := cancelled(ctx); err != nil {
			return err
		}
		refineBatches.Add(1)
		batch := len(r.queue)
		if batch > drainBatchSize {
			batch = drainBatchSize
		}
		w := r.workers
		if batch < parallelSpawnMin {
			w = 1
		}
		r.batchIDs = append(r.batchIDs[:0], r.queue[:batch]...)
		err := parallelClaim(ctx, w, batch, func(_, i int) {
			sp := r.batchIDs[i]
			r.dpVersions[i] = r.blockVersion[sp]
			r.computeDP(sp, r.dpBatch[i])
		})
		if err != nil {
			return err
		}
		for i := 0; i < batch; i++ {
			bid := r.queue[0]
			r.queue = r.queue[1:]
			r.inQueue[bid] = false
			dp := r.dpBatch[i]
			if r.blockVersion[bid] != r.dpVersions[i] {
				// The splitter itself was divided earlier in this batch; its
				// set shrank, so the precomputed predecessors are a superset.
				// Recompute to match what a sequential pop would see.
				r.computeDP(bid, dp)
			}
			if err := r.applySplits(ctx, bid, dp); err != nil {
				return err
			}
		}
	}
	return nil
}

// applySplits splits every other block against the splitter sp, whose
// predecessor set dp computeDP filled: a block is stable with respect to sp
// when either all or none of its states can reach sp by a path staying
// inside the block.  The candidates are the blocks holding a state with an
// edge into the splitter; splitting one candidate never moves states of
// another (the split-off halves hold no state of dp), so their in-block
// backward closures are mutually independent.  With a worker budget and
// enough candidates the closures are computed concurrently into
// per-candidate slots first; the divides always replay sequentially in
// candidate order, so block numbering is deterministic.
func (r *refiner) applySplits(ctx context.Context, sp int32, dp kripke.BitSet) error {
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
	if r.workers <= 1 || len(cands) < parallelCandidateMin {
		for _, bid := range cands {
			r.splitReach(bid, dp)
		}
		return nil
	}
	// Slot sets come off the shared free-list here, in the sequential
	// section; the workers below only fill their claimed slot, so the pool
	// itself is never touched concurrently.
	if cap(r.posSlots) < len(cands) {
		r.posSlots = make([]kripke.BitSet, len(cands))
	}
	posSlots := r.posSlots[:len(cands)]
	for i := range posSlots {
		posSlots[i] = r.getSet()
	}
	if r.wStacks == nil {
		r.wStacks = make([][]int32, r.workers)
	}
	err := parallelClaim(ctx, r.workers, len(cands), func(worker, i int) {
		bid := cands[i]
		pos := posSlots[i]
		pos.CopyFrom(r.blocks[bid].set)
		pos.And(dp)
		if !pos.Empty() {
			r.wStacks[worker] = r.closeBackwardWithin(bid, pos, r.wStacks[worker])
		}
	})
	if err != nil {
		for _, pos := range posSlots {
			r.putSet(pos)
		}
		return err
	}
	for i, bid := range cands {
		pos := posSlots[i]
		if pos.Empty() || !r.divide(bid, pos) {
			r.putSet(pos)
		}
	}
	return nil
}

// divergencePassParallel mirrors divergencePass in waves: the divergence
// closures of all blocks that exist at the wave's start are computed
// concurrently into slots (divides never disturb an unsplit block's set or
// membership), then the divides replay in block order; blocks appended by
// those divides form the next wave, exactly the blocks the sequential loop
// would reach later in the same pass.
func (r *refiner) divergencePassParallel(ctx context.Context) (bool, error) {
	changed := false
	if r.wStacks == nil {
		r.wStacks = make([][]int32, r.workers)
	}
	for lo := 0; lo < len(r.blocks); {
		hi := len(r.blocks)
		wave := hi - lo
		if cap(r.posSlots) < wave {
			r.posSlots = make([]kripke.BitSet, wave)
		}
		slots := r.posSlots[:wave]
		for i := range slots {
			slots[i] = r.getSet()
		}
		w := r.workers
		if wave < parallelSpawnMin {
			w = 1
		}
		err := parallelClaim(ctx, w, wave, func(worker, i int) {
			bid := int32(lo + i)
			div := slots[i]
			div.CopyFrom(r.blocks[bid].set)
			div.And(r.divMask)
			if !div.Empty() {
				r.wStacks[worker] = r.closeBackwardWithin(bid, div, r.wStacks[worker])
			}
		})
		if err != nil {
			for _, div := range slots {
				r.putSet(div)
			}
			return changed, err
		}
		for i := 0; i < wave; i++ {
			div := slots[i]
			if div.Empty() || !r.divide(int32(lo+i), div) {
				r.putSet(div)
			} else {
				changed = true
			}
		}
		lo = hi
	}
	return changed, nil
}

// maskedFinishPacked is the word-at-a-time counterpart of maskedFinish: the
// pairs owned by right state t — at most 64, one per left state of t's
// block — form one uint64 row indexed by left rank, and each degree round
// evaluates whole rows:
//
//   - clause2b(row) = A | (B ∧ subset) | or-R, where A marks ranks whose
//     every move is matched, B marks ranks whose only unmatched moves
//     stutter, subset tests their in-block successor mask against t's
//     resolved row, and or-R unions the resolved rows of t's stuttering
//     successors (the "t stutters to a smaller degree" disjunct);
//   - clause2c(row) = C | (D ∧ and-R) | exists, dually, with and-R the
//     intersection of the successors' resolved rows and exists the ranks
//     with a resolved in-block successor.
//
// Resolved rows advance only between rounds (newly resolved bits are held
// back until every row of the round is evaluated), which reproduces the
// strict "degree < k" threshold of the scalar worklist, so the assigned
// degrees and the round count are identical; rows are independent within a
// round and the sweep fans out across the worker budget.  It reports
// ok=false — caller falls back to maskedFinish — if some block holds more
// than 64 left states (rank masks would overflow) or some pair ends
// unresolved.
func maskedFinishPacked(ctx context.Context, m, m2 *kripke.Structure, stateBlock []int32, numBlocks int, opts Options, res *Result, workers int) (*Result, bool, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	ar := opts.arena

	blockLefts := make([][]int32, numBlocks)
	rank := ar.i32s(n, false)
	for s := 0; s < n; s++ {
		b := stateBlock[s]
		if len(blockLefts[b]) >= 64 {
			return nil, false, nil
		}
		rank[s] = int32(len(blockLefts[b]))
		blockLefts[b] = append(blockLefts[b], int32(s))
	}
	pairBase := ar.i32s(n2, false)
	total := 0
	for t := 0; t < n2; t++ {
		pairBase[t] = int32(total)
		total += len(blockLefts[stateBlock[n+t]])
	}

	// Successor-block mask of every union state (same layout as
	// maskedFinish), fused with the stuttering-move extraction: succRM[s]
	// holds the ranks of s's in-block successors, and on the right side the
	// in-block edges are counted for the CSR lists below.
	masks := ar.u64s(n+n2, true)
	succRM := ar.u64s(n, true)
	for s := 0; s < n; s++ {
		b := stateBlock[s]
		for _, v := range m.Succ(kripke.State(s)) {
			masks[s] |= 1 << uint(stateBlock[v])
			if stateBlock[v] == b {
				succRM[s] |= 1 << uint(rank[v])
			}
		}
	}
	// Right stuttering moves as flat CSR successor and predecessor lists
	// (repeats are harmless: successor rows are combined with idempotent
	// AND/OR, and predecessors only schedule re-evaluation).  The
	// predecessor lists drive the dirty-row worklist below.
	ibrSuccCnt := ar.i32s(n2, true)
	ibrPredCnt := ar.i32s(n2, true)
	ibrTotal := int32(0)
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		for _, v := range m2.Succ(kripke.State(t)) {
			masks[n+t] |= 1 << uint(stateBlock[n+int(v)])
			if stateBlock[n+int(v)] == b {
				ibrSuccCnt[t]++
				ibrPredCnt[v]++
				ibrTotal++
			}
		}
	}
	ibrSuccOff := ar.i32s(n2+1, false)
	ibrPredOff := ar.i32s(n2+1, false)
	sPos, pPos := int32(0), int32(0)
	for t := 0; t < n2; t++ {
		ibrSuccOff[t] = sPos
		sPos += ibrSuccCnt[t]
		ibrPredOff[t] = pPos
		pPos += ibrPredCnt[t]
	}
	ibrSuccOff[n2], ibrPredOff[n2] = sPos, pPos
	ibrSuccL := ar.i32s(int(ibrTotal), false)
	ibrPredL := ar.i32s(int(ibrTotal), false)
	clear(ibrSuccCnt) // reuse the counts as fill cursors
	clear(ibrPredCnt)
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		for _, v := range m2.Succ(kripke.State(t)) {
			if stateBlock[n+int(v)] == b {
				ibrSuccL[ibrSuccOff[t]+ibrSuccCnt[t]] = int32(v)
				ibrSuccCnt[t]++
				ibrPredL[ibrPredOff[v]+ibrPredCnt[v]] = int32(t)
				ibrPredCnt[v]++
			}
		}
	}
	ibrSucc := func(t int32) []int32 { return ibrSuccL[ibrSuccOff[t]:ibrSuccOff[t+1]] }
	ibrPred := func(t int32) []int32 { return ibrPredL[ibrPredOff[t]:ibrPredOff[t+1]] }

	// Static per-row clause masks and round 0.  Bit j of a row talks about
	// the pair (blockLefts[b][j], t).
	rowA := ar.u64s(n2, true) // every move of s matched
	rowB := ar.u64s(n2, true) // only stuttering moves of s unmatched
	rowC := ar.u64s(n2, true) // every move of t matched
	rowD := ar.u64s(n2, true) // only stuttering moves of t unmatched
	unresolved := ar.u64s(n2, true)
	resolvedR := ar.u64s(n2, true) // ranks resolved strictly before this round
	newly := ar.u64s(n2, true)
	deg := ar.i32s(total, false) // round 0 writes every slot
	assigned := 0
	anyResolved := false
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		lefts := blockLefts[b]
		tm := masks[n+t]
		bBit := uint64(1) << uint(b)
		base := pairBase[t]
		for j, s := range lefts {
			sm := masks[s]
			jBit := uint64(1) << uint(j)
			if sm&^tm == 0 {
				rowA[t] |= jBit
			} else if sm&^tm == bBit {
				rowB[t] |= jBit
			}
			if tm&^sm == 0 {
				rowC[t] |= jBit
			} else if tm&^sm == bBit {
				rowD[t] |= jBit
			}
			if sm == tm {
				deg[base+int32(j)] = 0
				resolvedR[t] |= jBit
				assigned++
				anyResolved = true
			} else {
				deg[base+int32(j)] = -1
				unresolved[t] |= jBit
			}
		}
	}

	// Dirty-row worklist: a row's verdicts depend only on its own resolved
	// word and the resolved words of its in-block right successors, so row t
	// needs re-evaluation in round k only when resolvedR[t] or some
	// resolvedR[t1], t1 ∈ ibrSucc[t], grew in round k-1 — i.e. when a row of
	// {t} ∪ ibrPred[t'] resolved, for t' the grown row.  Evaluating a
	// strict superset of the scalar engine's candidate pairs cannot resolve
	// anything extra (an unscheduled pair's relevant resolved bits are
	// unchanged, so its verdict is unchanged), hence degrees and round
	// counts stay identical to maskedFinish.
	evalRow := func(t int, k int32) {
		un := unresolved[t]
		if un == 0 {
			newly[t] = 0
			return
		}
		var orR uint64
		andR := ^uint64(0)
		for _, t1 := range ibrSucc(int32(t)) {
			orR |= resolvedR[t1]
			andR &= resolvedR[t1]
		}
		c2b := rowA[t] | orR
		c2c := rowC[t] | rowD[t]&andR
		// The per-bit disjuncts (subset / exists tests against t's resolved
		// row) only matter for bits the mask terms left open.
		lefts := blockLefts[stateBlock[n+t]]
		rt := resolvedR[t]
		for rem := un & rowB[t] &^ c2b; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem)
			if succRM[lefts[j]]&^rt == 0 {
				c2b |= 1 << uint(j)
			}
		}
		for rem := un &^ c2c; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem)
			if succRM[lefts[j]]&rt != 0 {
				c2c |= 1 << uint(j)
			}
		}
		nw := un & c2b & c2c
		newly[t] = nw
		if nw == 0 {
			return
		}
		unresolved[t] = un &^ nw
		base := pairBase[t]
		for rem := nw; rem != 0; rem &= rem - 1 {
			deg[base+int32(bits.TrailingZeros64(rem))] = k
		}
	}

	dirtyAt := ar.i32s(n2, false)
	for i := range dirtyAt {
		dirtyAt[i] = -1
	}
	evalList := ar.i32s(n2, false)[:0]
	nextList := ar.i32s(n2, false)[:0]
	schedule := func(t int32, round int32, list []int32) []int32 {
		if unresolved[t] != 0 && dirtyAt[t] != round {
			dirtyAt[t] = round
			list = append(list, t)
		}
		return list
	}
	if anyResolved {
		for t := int32(0); t < int32(n2); t++ {
			if resolvedR[t] == 0 {
				continue
			}
			evalList = schedule(t, 1, evalList)
			for _, tp := range ibrPred(t) {
				evalList = schedule(tp, 1, evalList)
			}
		}
	}

	// Loop while the previous round resolved something — even with an empty
	// worklist the scalar engine runs (and counts) one final barren round,
	// and DegreeRounds must match it exactly.
	rounds := int32(1)
	for prevResolved := anyResolved; prevResolved; {
		if err := cancelled(ctx); err != nil {
			return nil, false, err
		}
		k := rounds
		// Row sweep: rows only read resolvedR (frozen for the round) and
		// write their own deg slots and newly word, so sweep order — and in
		// particular the chunk schedule of a parallel sweep — cannot affect
		// the outcome.  Small rounds stay inline; the fan-out only pays for
		// itself on wide ones.
		if workers > 1 && len(evalList) >= 4*packedRowGrain {
			chunks := (len(evalList) + packedRowGrain - 1) / packedRowGrain
			err := parallelClaim(ctx, workers, chunks, func(_, chunk int) {
				lo, hi := chunk*packedRowGrain, (chunk+1)*packedRowGrain
				if hi > len(evalList) {
					hi = len(evalList)
				}
				for _, t := range evalList[lo:hi] {
					evalRow(int(t), k)
				}
			})
			if err != nil {
				return nil, false, err
			}
		} else {
			for _, t := range evalList {
				evalRow(int(t), k)
			}
		}
		// Publish the round's resolutions only now: rows evaluated above all
		// saw the same strictly-before-k resolved state.  The publish also
		// builds the next round's worklist, sequentially.
		nextList = nextList[:0]
		any := false
		for _, t := range evalList {
			nw := newly[t]
			if nw == 0 {
				continue
			}
			any = true
			resolvedR[t] |= nw
			assigned += bits.OnesCount64(nw)
			nextList = schedule(t, k+1, nextList)
			for _, tp := range ibrPred(t) {
				nextList = schedule(tp, k+1, nextList)
			}
		}
		evalList, nextList = nextList, evalList
		prevResolved = any
		rounds++
	}
	if assigned != total {
		return nil, false, nil
	}

	rel := NewRelation(n, n2)
	for t := 0; t < n2; t++ {
		base := pairBase[t]
		for j, s := range blockLefts[stateBlock[n+t]] {
			rel.Set(kripke.State(s), kripke.State(t), int(deg[base+int32(j)]))
		}
	}
	res.OuterIterations++
	res.DegreeRounds += int(rounds)
	res.Relation = rel
	_, res.InitialRelated = rel.Degree(m.Initial(), m2.Initial())

	rightCount := make([]int32, numBlocks)
	for t := 0; t < n2; t++ {
		rightCount[stateBlock[n+t]]++
	}
	leftStates := m.States()
	rightStates := m2.States()
	if opts.ReachableOnly {
		leftStates = m.ReachableStates()
		rightStates = m2.ReachableStates()
	}
	res.TotalLeft, res.TotalRight = true, true
	for _, s := range leftStates {
		if rightCount[stateBlock[s]] == 0 {
			res.TotalLeft = false
			break
		}
	}
	for _, t := range rightStates {
		if len(blockLefts[stateBlock[n+int(t)]]) == 0 {
			res.TotalRight = false
			break
		}
	}
	return res, true, nil
}

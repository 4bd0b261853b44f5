package bisim

import (
	"context"
	"math/bits"

	"repro/internal/kripke"
)

// packedLeftLimit is the number of left states per block up to which
// maskedFinishPacked packs a block's pairs into one uint64 row (a test hook
// lowers it to force maskedFinish).
var packedLeftLimit = 64

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
// degrees and the round count are identical.  It reports ok=false — the
// caller falls back to maskedFinish — if some block holds more than
// packedLeftLimit left states (rank masks would overflow) or some pair ends
// unresolved.
func maskedFinishPacked(ctx context.Context, m, m2 *kripke.Structure, stateBlock []int32, numBlocks int, opts Options, res *Result) (*Result, bool, error) {
	n, n2 := m.NumStates(), m2.NumStates()
	ar := opts.arena

	blockLefts := make([][]int32, numBlocks)
	rank := ar.i32s(n, false)
	for s := 0; s < n; s++ {
		b := stateBlock[s]
		if len(blockLefts[b]) >= packedLeftLimit {
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
		// Rows only read resolvedR (frozen for the round) and write their own
		// deg slots and newly word, so the sweep order cannot affect the
		// outcome.
		for _, t := range evalList {
			evalRow(int(t), k)
		}
		// Publish the round's resolutions only now: rows evaluated above all
		// saw the same strictly-before-k resolved state.  The publish also
		// builds the next round's worklist.
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

	return blockFinish(m, m2, stateBlock, blockLefts, pairBase, deg, rounds, opts, res), true, nil
}

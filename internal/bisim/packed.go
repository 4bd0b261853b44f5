package bisim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/kripke"
)

// ErrUnresolvedDegree reports a pair of the refined partition that the
// degree pass could not give a finite degree.  Every pair of a stuttering
// equivalence block has one, so the error means the partition was coarser
// than stuttering equivalence — a bug, never an input property.  The
// wrapping error names the first such pair.
var ErrUnresolvedDegree = errors.New("bisim: a pair of the refined partition has no finite degree")

// degreePass assigns the minimal degree of every pair of the same-block
// relation of the partition stateBlock (block ids 0..numBlocks-1 over the
// union, second structure offset by n) and packages the Result.  It is the
// word-at-a-time form of the reference computeDegrees, specialised to a
// partition: a pair (s, t) lies in a single block b, a stuttering move is a
// successor inside b, and a matched move only needs the mover's block among
// the other side's successor blocks.
//
// The pairs owned by right state t — one per left state of t's block —
// form a row of ⌈L_b/64⌉ words indexed by left rank, and each degree round
// evaluates whole words:
//
//   - clause2b = A | (B ∧ subset) | or-R, where A marks ranks whose every
//     move is matched, B marks ranks whose only unmatched moves stutter,
//     subset tests their in-block successor ranks against t's resolved row,
//     and or-R unions the resolved rows of t's stuttering successors (the
//     "t stutters to a smaller degree" disjunct);
//   - clause2c = C | (D ∧ and-R) | exists, dually, with and-R the
//     intersection of the successors' resolved rows and exists the ranks
//     with a resolved in-block successor.
//
// Successor-block sets and in-block successor ranks are sparse word lists
// (sparseRows), bounded by the transitions; with at most 64 blocks and 64
// left states per block every list and every row is one word.  Resolved
// rows advance only between rounds (a round reads the resolved rows as they
// stood before it and rebuilds a grown row's from its unresolved words only
// when every row of the round is evaluated), which reproduces the strict
// "degree < k" threshold of the reference, so the degrees are identical.
// Each degree is written straight into the relation the pass returns.  A
// pair left unresolved is reported as ErrUnresolvedDegree.
//
// The working arrays come from ar.  The successor-block rows and the dense
// scratch row that only round 0 reads are taken last and released after
// it, and the worklist arrays of the later rounds take their place.
func degreePass(ctx context.Context, m, m2 *kripke.Structure, stateBlock []int32, numBlocks int, opts Options, ar *computeArena, res *Result) (*Result, error) {
	n, n2 := m.NumStates(), m2.NumStates()

	// Left states of every block, by rank: a counting pass records each
	// left state's rank, a prefix sum turns the counts into offsets.
	lefts := csr{off: ar.i32s(numBlocks+1, true), dst: ar.i32s(n, false)}
	rank := ar.i32s(n, false)
	for s := 0; s < n; s++ {
		b := stateBlock[s]
		rank[s] = lefts.off[b+1]
		lefts.off[b+1]++
	}
	widest := int32(0)
	for b := 0; b < numBlocks; b++ {
		widest = max(widest, lefts.off[b+1])
		lefts.off[b+1] += lefts.off[b]
	}
	for s := 0; s < n; s++ {
		lefts.dst[lefts.off[stateBlock[s]]+rank[s]] = int32(s)
	}
	// Right state t owns the row words rowOff[t]..rowOff[t+1]-1, and has
	// rank rightRank[t] among the rightCount[b] right states of its block.
	rightCount := ar.i32s(numBlocks, true)
	rightRank := ar.i32s(n2, false)
	rowOff := ar.i32s(n2+1, false)
	rowOff[0] = 0
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		rightRank[t] = rightCount[b]
		rightCount[b]++
		rowOff[t+1] = rowOff[t] + (lefts.off[b+1]-lefts.off[b]+63)/64
	}
	// The relation the pass returns: row s has one slot per right state of
	// s's block, in increasing order, so the pair (s, t) sits at
	// rel.rowOff[s]+rightRank[t] and its degree is written there once it
	// resolves.
	rel := newRelationRows(n, n2, func(s int) int { return int(rightCount[stateBlock[s]]) })

	// The in-block successor ranks of every left state, row lefts.off[b]+j
	// for the left of rank j in block b, so a sweep over a right state's row
	// reads them sequentially.
	succRanks := newSparseRows(ar, n, int(widest), m.NumTransitions(), func(p int, buf []int32) []int32 {
		s := lefts.dst[p]
		b := stateBlock[s]
		for _, v := range m.Succ(kripke.State(s)) {
			if stateBlock[v] == b {
				buf = append(buf, rank[v])
			}
		}
		return buf
	})

	// Right stuttering moves as CSR predecessor lists, which drive the
	// dirty-row worklist below (repeats are harmless: predecessors only
	// schedule re-evaluation).  evalRow reads the successors in place, from
	// m2's own rows.  The fill uses each row's start offset as its cursor,
	// so the offsets end one row ahead and are shifted back.
	ibrPred := csr{off: ar.i32s(n2+1, true)}
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		for _, v := range m2.Succ(kripke.State(t)) {
			if stateBlock[n+int(v)] == b {
				ibrPred.off[v+1]++
			}
		}
	}
	for t := 0; t < n2; t++ {
		ibrPred.off[t+1] += ibrPred.off[t]
	}
	ibrPred.dst = ar.i32s(int(ibrPred.off[n2]), false) // fully written below
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		for _, v := range m2.Succ(kripke.State(t)) {
			if stateBlock[n+int(v)] == b {
				ibrPred.dst[ibrPred.off[v]] = int32(t)
				ibrPred.off[v]++
			}
		}
	}
	copy(ibrPred.off[1:], ibrPred.off[:n2])
	ibrPred.off[0] = 0

	// Static clause words and round 0: a pair is an exact match iff the two
	// states offer successors in exactly the same blocks.  Bit j of word w
	// of t's row talks about the pair (left of rank 64w+j, t).  t's
	// successor blocks are scattered into the dense tset, so a pair costs
	// one pass over the left state's list: s \ t word by word, and |t \ s|
	// as |t| − |s ∩ t|.  Between rounds resolvedR == valid &^ unresolved,
	// valid masking the ranks past the block's width in a row's last word.
	words := int(rowOff[n2])
	rowA := ar.u64s(words, true) // every move of s matched
	rowB := ar.u64s(words, true) // only stuttering moves of s unmatched
	rowC := ar.u64s(words, true) // every move of t matched
	rowD := ar.u64s(words, true) // only stuttering moves of t unmatched
	unresolved := ar.u64s(words, true)
	resolvedR := ar.u64s(words, true) // ranks resolved strictly before this round
	// The successor blocks of every union state, read by round 0 alone.
	// Left states take their rows in block order, like succRanks; right
	// state t takes row n+t.
	round0 := ar.mark()
	succBlocks := newSparseRows(ar, n+n2, numBlocks, m.NumTransitions()+m2.NumTransitions(), func(u int, buf []int32) []int32 {
		if u < n {
			for _, v := range m.Succ(kripke.State(lefts.dst[u])) {
				buf = append(buf, stateBlock[v])
			}
			return buf
		}
		for _, v := range m2.Succ(kripke.State(u - n)) {
			buf = append(buf, stateBlock[n+int(v)])
		}
		return buf
	})
	tset := ar.u64s((numBlocks+63)/64, true)
	anyResolved := false
	for t := 0; t < n2; t++ {
		b := stateBlock[n+t]
		bw, bBit := b>>6, uint64(1)<<uint(b&63)
		tw, tb := succBlocks.row(n + t)
		tCount := 0
		for e, w := range tw {
			tset[w] = tb[e]
			tCount += bits.OnesCount64(tb[e])
		}
		tStutters := tset[bw]&bBit != 0
		row, rr, first := rowOff[t], rightRank[t], int(lefts.off[b])
		for j := range int(lefts.off[b+1]) - first {
			// sOnly classifies s \ t: 0 empty, 1 exactly {b}, 2 otherwise.
			sOnly, shared, sStutters := 0, 0, false
			for e := succBlocks.off[first+j]; e < succBlocks.off[first+j+1]; e++ {
				w, sb := succBlocks.word[e], succBlocks.bits[e]
				shared += bits.OnesCount64(sb & tset[w])
				if w == bw {
					sStutters = sb&bBit != 0
				}
				if d := sb &^ tset[w]; d != 0 {
					if w == bw && d == bBit {
						sOnly = max(sOnly, 1)
					} else {
						sOnly = 2
					}
				}
			}
			tOnly := tCount - shared
			i, bit := row+int32(j>>6), uint64(1)<<uint(j&63)
			switch sOnly {
			case 0:
				rowA[i] |= bit
			case 1:
				rowB[i] |= bit
			}
			switch {
			case tOnly == 0:
				rowC[i] |= bit
			case tOnly == 1 && tStutters && !sStutters:
				rowD[i] |= bit
			}
			// The relation's degrees start at zero, the degree of an exact
			// match.
			rel.cols[rel.rowOff[lefts.dst[first+j]]+rr] = int32(t)
			if sOnly == 0 && tOnly == 0 {
				resolvedR[i] |= bit
				anyResolved = true
			} else {
				unresolved[i] |= bit
			}
		}
		for _, w := range tw {
			tset[w] = 0
		}
	}
	ar.release(round0)

	// evalRow evaluates every unresolved pair of row t in round k and
	// reports whether any resolved.  A row's verdicts depend only on its
	// own resolved words (read whole by the subset and exists tests) and
	// the same-index words of its in-block right successors, which share
	// its block and so its width.
	evalRow := func(t int, k int32) bool {
		lo, hi := rowOff[t], rowOff[t+1]
		rt := resolvedR[lo:hi]
		b := stateBlock[n+t]
		first, rr := lefts.off[b], rightRank[t]
		succ := m2.Succ(kripke.State(t))
		grew := false
		for i := lo; i < hi; i++ {
			un := unresolved[i]
			if un == 0 {
				continue
			}
			w := i - lo
			var orR uint64
			andR := ^uint64(0)
			for _, v := range succ {
				if stateBlock[n+int(v)] != b {
					continue
				}
				r1 := resolvedR[rowOff[v]+w]
				orR |= r1
				andR &= r1
			}
			c2b := rowA[i] | orR
			c2c := rowC[i] | rowD[i]&andR
			// The per-bit disjuncts (subset / exists tests against t's
			// resolved row) only matter for bits the word terms left open,
			// and the exists test only where clause2b already holds.
			for rem := un & rowB[i] &^ c2b; rem != 0; rem &= rem - 1 {
				j := bits.TrailingZeros64(rem)
				if succRanks.within(int(first+w<<6)+j, rt) {
					c2b |= 1 << uint(j)
				}
			}
			for rem := un & c2b &^ c2c; rem != 0; rem &= rem - 1 {
				j := bits.TrailingZeros64(rem)
				if succRanks.meets(int(first+w<<6)+j, rt) {
					c2c |= 1 << uint(j)
				}
			}
			nw := un & c2b & c2c
			if nw == 0 {
				continue
			}
			grew = true
			unresolved[i] = un &^ nw
			for rem := nw; rem != 0; rem &= rem - 1 {
				s := lefts.dst[first+w<<6+int32(bits.TrailingZeros64(rem))]
				rel.degs[rel.rowOff[s]+rr] = k
			}
		}
		return grew
	}

	// Dirty-row worklist: row t needs re-evaluation in round k only when
	// its own resolved words or those of some in-block right successor grew
	// in round k-1 — i.e. when a row of {t} ∪ ibrPred[t'] resolved, for t'
	// the grown row.  Evaluating a strict superset of the reference's
	// candidate pairs cannot resolve anything extra (an unscheduled pair's
	// relevant resolved bits are unchanged, so its verdict is unchanged),
	// hence degrees and round counts stay identical.
	dirtyAt := ar.i32s(n2, false)
	for i := range dirtyAt {
		dirtyAt[i] = -1
	}
	evalList := ar.i32s(n2, false)[:0]
	nextList := ar.i32s(n2, false)[:0]
	schedule := func(t int32, round int32, list []int32) []int32 {
		if dirtyAt[t] != round && anySet(unresolved[rowOff[t]:rowOff[t+1]]) {
			dirtyAt[t] = round
			list = append(list, t)
		}
		return list
	}
	if anyResolved {
		for t := int32(0); t < int32(n2); t++ {
			if !anySet(resolvedR[rowOff[t]:rowOff[t+1]]) {
				continue // nothing of row t resolved in round 0
			}
			evalList = schedule(t, 1, evalList)
			for _, tp := range ibrPred.row(int(t)) {
				evalList = schedule(tp, 1, evalList)
			}
		}
	}

	// Loop while the previous round resolved something — even with an empty
	// worklist the reference runs (and counts) one final barren round, and
	// DegreeRounds must match it exactly.
	rounds := int32(1)
	for prevResolved := anyResolved; prevResolved; {
		if err := cancelled(ctx); err != nil {
			return nil, err
		}
		k := rounds
		// Rows only read resolvedR (frozen for the round) and write their own
		// unresolved words and degrees, so the sweep order cannot affect the
		// outcome.  The rows that resolved something are kept, in place.
		grown := evalList[:0]
		for _, t := range evalList {
			if evalRow(int(t), k) {
				grown = append(grown, t)
			}
		}
		// Publish the round's resolutions only now: rows evaluated above all
		// saw the same strictly-before-k resolved state.  The publish also
		// builds the next round's worklist.
		nextList = nextList[:0]
		for _, t := range grown {
			lo, hi := rowOff[t], rowOff[t+1]
			for i := lo; i < hi; i++ {
				resolvedR[i] = ^unresolved[i]
			}
			b := stateBlock[n+int(t)]
			width := lefts.off[b+1] - lefts.off[b]
			resolvedR[hi-1] &= ^uint64(0) >> (uint(-width) & 63) // valid: ranks below width
			nextList = schedule(t, k+1, nextList)
			for _, tp := range ibrPred.row(int(t)) {
				nextList = schedule(tp, k+1, nextList)
			}
		}
		evalList, nextList = nextList, grown
		prevResolved = len(grown) > 0
		rounds++
	}
	for t := 0; t < n2; t++ {
		for i := rowOff[t]; i < rowOff[t+1]; i++ {
			if unresolved[i] == 0 {
				continue
			}
			j := (i-rowOff[t])<<6 + int32(bits.TrailingZeros64(unresolved[i]))
			s := lefts.row(int(stateBlock[n+t]))[j]
			return nil, fmt.Errorf("%w: (%d, %d) of %s and %s", ErrUnresolvedDegree, s, t, m.Name(), m2.Name())
		}
	}

	// Totality comes straight from the block structure: a state is covered
	// iff the other side populates its block.
	res.OuterIterations++
	res.DegreeRounds += int(rounds)
	res.Relation = rel
	_, res.InitialRelated = rel.Degree(m.Initial(), m2.Initial())
	res.TotalLeft = allInScope(m, opts, func(s int) bool { return rightCount[stateBlock[s]] > 0 })
	res.TotalRight = allInScope(m2, opts, func(t int) bool {
		b := stateBlock[n+t]
		return lefts.off[b+1] > lefts.off[b]
	})
	return res, nil
}

// anySet reports whether any of the words has a bit set.
func anySet(words []uint64) bool {
	for _, w := range words {
		if w != 0 {
			return true
		}
	}
	return false
}

// sparseRows is a compressed-sparse-row family of bit sets: row u lists
// its non-zero words as the entries off[u]..off[u+1]-1, each a word index
// with that word's bits.  A row holds one entry per distinct word it
// touches, so rows built from transitions are bounded by the transitions
// however wide the universe is.
type sparseRows struct {
	off  []int32
	word []int32
	bits []uint64
}

// newSparseRows builds rows 0..rows-1 over the items 0..width-1, row u
// holding the items that items(u, buf) appends to buf (repeats allowed);
// the rows list at most edges items in all.  A row has one entry per
// distinct word, in order of first appearance, so the entries fit
// min(edges, rows·⌈width/64⌉) slots, which the arrays are sized to.  The
// arrays come from ar; the per-word slot table the build reads is released
// before it returns.
func newSparseRows(ar *computeArena, rows, width, edges int, items func(u int, buf []int32) []int32) sparseRows {
	words := (width + 63) / 64
	capacity := min(edges, rows*words)
	sr := sparseRows{off: ar.i32s(rows+1, false), word: ar.i32s(capacity, false), bits: ar.u64s(capacity, false)}
	defer ar.release(ar.mark())
	slot := ar.i32s(words, false) // per word: its latest entry
	for i := range slot {
		slot[i] = -1
	}
	var buf []int32
	e := int32(0)
	for u := 0; u < rows; u++ {
		lo := e
		sr.off[u] = lo
		buf = items(u, buf[:0])
		for _, x := range buf {
			w := x >> 6
			if slot[w] < lo { // entries of earlier rows lie below lo
				slot[w] = e
				sr.word[e], sr.bits[e] = w, 0
				e++
			}
			sr.bits[slot[w]] |= 1 << uint(x&63)
		}
	}
	sr.off[rows] = e
	return sr
}

// row returns the word indices and bits of row u.
func (r sparseRows) row(u int) ([]int32, []uint64) {
	lo, hi := r.off[u], r.off[u+1]
	return r.word[lo:hi], r.bits[lo:hi]
}

// within reports whether row u is a subset of the dense set.
func (r sparseRows) within(u int, set []uint64) bool {
	for e := r.off[u]; e < r.off[u+1]; e++ {
		if r.bits[e]&^set[r.word[e]] != 0 {
			return false
		}
	}
	return true
}

// meets reports whether row u intersects the dense set.
func (r sparseRows) meets(u int, set []uint64) bool {
	for e := r.off[u]; e < r.off[u+1]; e++ {
		if r.bits[e]&set[r.word[e]] != 0 {
			return true
		}
	}
	return false
}

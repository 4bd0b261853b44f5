package mc

import (
	"math/bits"

	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// This file implements the packed CTL* tableau product: the word-at-a-time
// counterpart of runTableau in ltl.go.  A truth assignment to the closure is
// one uint64 (closure index = bit position), so local consistency, the
// expansion-law edge test and the self-fulfilling check all become word
// operations; states sharing a leaf signature share their assignment list,
// and the set of expansion-compatible successor assignments of each
// assignment is a precomputed bit row over the global assignment table.
//
// The packed engine enumerates assignments in exactly the scalar order
// (state-major, mask ascending, until bits before next bits), so it
// constructs the same node set, the same edge set and the same Stats.
// It bows out (ok=false) when the closure exceeds one word, when the
// temporal-operator count makes the per-signature enumeration too wide, or
// when the deduplicated assignment table outgrows the bit-row budget; the
// caller then falls back to runTableau, which also owns the >20-operator
// error so the two engines report identical failures.

const (
	// maxPackedClosure is the closure-size ceiling for one-word assignments.
	maxPackedClosure = 64
	// maxPackedFree caps 2^free, the per-signature enumeration width.
	maxPackedFree = 10
	// maxPackedAssignments caps the global assignment table (and with it the
	// allowed-successor bit rows at A*A/64 words).
	maxPackedAssignments = 1024
)

// runTableauPacked decides E ψ with the packed product.  ok=false means the
// formula is out of the packed engine's envelope and the scalar tableau must
// run instead.
func (c *Checker) runTableauPacked(tb *tableau, placeholders map[string]kripke.BitSet) (kripke.BitSet, bool, error) {
	numClosure := len(tb.closure)
	free := len(tb.untils) + len(tb.nexts)
	if numClosure > maxPackedClosure || free > maxPackedFree {
		return nil, false, nil
	}
	numStates := c.m.NumStates()
	rootBit := uint64(1) << uint(tb.keyOf[logic.Key(tb.root)])

	sigs, err := c.leafSignatures(tb, placeholders)
	if err != nil {
		return nil, false, err
	}

	// Deduplicate leaf signatures in state order (deterministic ids).
	sigOf := make([]int, numStates)
	sigID := make(map[uint64]int)
	var sigVals []uint64
	for s, sig := range sigs {
		id, ok := sigID[sig]
		if !ok {
			id = len(sigVals)
			sigID[sig] = id
			sigVals = append(sigVals, sig)
		}
		sigOf[s] = id
	}

	// Enumerate the locally consistent assignments of each signature, masks
	// ascending with until bits below next bits — the scalar loop's order.
	combos := 1 << free
	var asg []uint64
	sigStart := make([]int, len(sigVals)+1)
	for sid, base := range sigVals {
		if err := c.cancelled(); err != nil {
			return nil, false, err
		}
		sigStart[sid] = len(asg)
		for mask := 0; mask < combos; mask++ {
			w := base
			bit := 0
			for _, idx := range tb.untils {
				if mask&(1<<bit) != 0 {
					w |= 1 << uint(idx)
				}
				bit++
			}
			for _, idx := range tb.nexts {
				if mask&(1<<bit) != 0 {
					w |= 1 << uint(idx)
				}
				bit++
			}
			if w, ok := tb.deriveMask(w); ok {
				asg = append(asg, w)
			}
		}
	}
	numAsg := len(asg)
	sigStart[len(sigVals)] = numAsg
	if numAsg > maxPackedAssignments {
		return nil, false, nil
	}

	// Node numbering: state-major, assignment ascending, like the scalar
	// enumeration.  nodeAsg maps a node to its global assignment index.
	nodeBase := make([]int, numStates+1)
	for s := 0; s < numStates; s++ {
		sid := sigOf[s]
		nodeBase[s+1] = nodeBase[s] + sigStart[sid+1] - sigStart[sid]
	}
	numNodes := nodeBase[numStates]
	c.stats.TableauNodes += numNodes
	nodeAsg := make([]int32, numNodes)
	for s := 0; s < numStates; s++ {
		sid, base := sigOf[s], nodeBase[s]
		for j := 0; j < sigStart[sid+1]-sigStart[sid]; j++ {
			nodeAsg[base+j] = int32(sigStart[sid] + j)
		}
	}

	allowed, err := c.allowedRows(tb, asg)
	if err != nil {
		return nil, false, err
	}

	// Product CSR: a counting pass then a fill pass, both fanned out over
	// states (each node's offset range is private, so writes are disjoint).
	off := make([]int32, numNodes+1)
	err = c.parallelChunks(numStates, 64, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			sid, base := sigOf[s], nodeBase[s]
			succ := c.m.Succ(kripke.State(s))
			for j := 0; j < sigStart[sid+1]-sigStart[sid]; j++ {
				row := allowed[sigStart[sid]+j]
				deg := 0
				for _, t := range succ {
					tsid := sigOf[t]
					deg += popcountRange(row, sigStart[tsid], sigStart[tsid+1])
				}
				off[base+j+1] = int32(deg)
			}
		}
	}, func(int) {})
	if err != nil {
		return nil, false, err
	}
	for i := 0; i < numNodes; i++ {
		off[i+1] += off[i]
	}
	dst := make([]int, off[numNodes])
	err = c.parallelChunks(numStates, 64, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			sid, base := sigOf[s], nodeBase[s]
			succ := c.m.Succ(kripke.State(s))
			for j := 0; j < sigStart[sid+1]-sigStart[sid]; j++ {
				row := allowed[sigStart[sid]+j]
				pos := int(off[base+j])
				for _, t := range succ {
					tsid := sigOf[t]
					tBase := nodeBase[int(t)] - sigStart[tsid]
					forEachBitRange(row, sigStart[tsid], sigStart[tsid+1], func(ai int) {
						dst[pos] = tBase + ai
						pos++
					})
				}
			}
		}
	}, func(int) {})
	if err != nil {
		return nil, false, err
	}
	g := graph.FromCSR(off, dst)

	// Self-fulfilling nontrivial SCCs: OR the component's assignment words,
	// then every until is checked with two bit probes.  Components are
	// independent, so the scan fans out (good has one slot per node; no two
	// components share a slot).
	scc := g.SCC()
	good := make([]bool, numNodes)
	err = c.parallelChunks(len(scc.Components), 8, func(_, lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			comp := scc.Components[ci]
			if scc.IsTrivial(g, ci) {
				continue
			}
			var or uint64
			for _, v := range comp {
				or |= asg[nodeAsg[v]]
			}
			ok := true
			for _, uIdx := range tb.untils {
				rIdx := tb.children[uIdx][1]
				if or&(1<<uint(uIdx)) != 0 && or&(1<<uint(rIdx)) == 0 {
					ok = false
					break
				}
			}
			if ok {
				for _, v := range comp {
					good[v] = true
				}
			}
		}
	}, func(int) {})
	if err != nil {
		return nil, false, err
	}

	var seeds []int
	for v, okv := range good {
		if okv {
			seeds = append(seeds, v)
		}
	}
	canReach := g.BackwardReachable(seeds...)

	sat := kripke.NewBitSet(numStates)
	for s := 0; s < numStates; s++ {
		sid, base := sigOf[s], nodeBase[s]
		for j := 0; j < sigStart[sid+1]-sigStart[sid]; j++ {
			if asg[sigStart[sid]+j]&rootBit != 0 && canReach[base+j] {
				sat.Set(s)
				break
			}
		}
	}
	return sat, true, nil
}

// leafSignatures packs the leaf truth values (constants, atoms and
// placeholders, instantiated indexed atoms, "exactly one" atoms) of every
// state into one word per state, mirroring baseTruth.  Derived and elementary
// bits stay zero.
func (c *Checker) leafSignatures(tb *tableau, placeholders map[string]kripke.BitSet) ([]uint64, error) {
	n := c.m.NumStates()
	sigs := make([]uint64, n)
	for idx, f := range tb.closure {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		bit := uint64(1) << uint(idx)
		switch node := f.(type) {
		case *logic.Const:
			if node.Value {
				for s := range sigs {
					sigs[s] |= bit
				}
			}
		case *logic.Atom:
			bs, ok := placeholders[node.Name]
			if !ok {
				bs = c.m.StatesWith(kripke.P(node.Name))
			}
			bs.ForEach(func(s int) bool { sigs[s] |= bit; return true })
		case *logic.InstAtom:
			c.m.StatesWith(kripke.PI(node.Prop, node.Index)).ForEach(func(s int) bool { sigs[s] |= bit; return true })
		case *logic.One:
			for s := 0; s < n; s++ {
				if c.m.ExactlyOne(kripke.State(s), node.Prop) {
					sigs[s] |= bit
				}
			}
		}
	}
	return sigs, nil
}

// deriveMask fills the boolean bits of the assignment word bottom-up from the
// leaf and elementary bits (the closure lists children before parents) and
// checks local consistency of the until expansion; it mirrors
// evaluateDerived on packed assignments.
func (tb *tableau) deriveMask(w uint64) (uint64, bool) {
	for idx, f := range tb.closure {
		kids := tb.children[idx]
		bit := uint64(1) << uint(idx)
		switch f.(type) {
		case *logic.Not:
			if w&(1<<uint(kids[0])) == 0 {
				w |= bit
			} else {
				w &^= bit
			}
		case *logic.And:
			v := true
			for _, k := range kids {
				if w&(1<<uint(k)) == 0 {
					v = false
					break
				}
			}
			if v {
				w |= bit
			} else {
				w &^= bit
			}
		case *logic.Or:
			v := false
			for _, k := range kids {
				if w&(1<<uint(k)) != 0 {
					v = true
					break
				}
			}
			if v {
				w |= bit
			} else {
				w &^= bit
			}
		}
	}
	for _, idx := range tb.untils {
		kids := tb.children[idx]
		l := w&(1<<uint(kids[0])) != 0
		r := w&(1<<uint(kids[1])) != 0
		u := w&(1<<uint(idx)) != 0
		if r && !u {
			return 0, false
		}
		if u && !r && !l {
			return 0, false
		}
	}
	return w, true
}

// allowedRows precomputes, for every assignment, the bit row (over the global
// assignment table) of successor assignments the expansion laws permit.  The
// X law fixes one successor bit per next operator; the U law either fixes the
// successor's until bit, imposes nothing, or (on a locally impossible
// combination) empties the row.  Each row is a handful of column ANDs, and
// the rows are independent, so the pass fans out across the worker budget.
func (c *Checker) allowedRows(tb *tableau, asg []uint64) ([][]uint64, error) {
	numAsg := len(asg)
	rowWords := (numAsg + 63) / 64
	// cols[p] = assignments whose bit p is set, as a row over the table.
	cols := make([][]uint64, len(tb.closure))
	for p := range cols {
		cols[p] = make([]uint64, rowWords)
	}
	for ai, w := range asg {
		for ; w != 0; w &= w - 1 {
			cols[bits.TrailingZeros64(w)][ai>>6] |= 1 << (uint(ai) & 63)
		}
	}
	fullRow := make([]uint64, rowWords)
	for i := range fullRow {
		fullRow[i] = ^uint64(0)
	}
	if rem := uint(numAsg) & 63; rem != 0 && rowWords > 0 {
		fullRow[rowWords-1] = 1<<rem - 1
	}
	allowed := make([][]uint64, numAsg)
	err := c.parallelChunks(numAsg, 16, func(_, lo, hi int) {
		for ai := lo; ai < hi; ai++ {
			w := asg[ai]
			row := make([]uint64, rowWords)
			copy(row, fullRow)
			dead := false
			for _, idx := range tb.nexts {
				child := tb.children[idx][0]
				andCol(row, cols[child], w&(1<<uint(idx)) != 0)
			}
			for _, idx := range tb.untils {
				kids := tb.children[idx]
				l := w&(1<<uint(kids[0])) != 0
				r := w&(1<<uint(kids[1])) != 0
				u := w&(1<<uint(idx)) != 0
				switch {
				case r:
					// want = true regardless of the successor.
					dead = dead || !u
				case l:
					// want = successor's until bit.
					andCol(row, cols[idx], u)
				default:
					// want = false regardless of the successor.
					dead = dead || u
				}
			}
			if dead {
				for i := range row {
					row[i] = 0
				}
			}
			allowed[ai] = row
		}
	}, func(int) {})
	if err != nil {
		return nil, err
	}
	return allowed, nil
}

// andCol intersects row with col (want=true) or its complement (want=false).
func andCol(row, col []uint64, want bool) {
	if want {
		for i := range row {
			row[i] &= col[i]
		}
	} else {
		for i := range row {
			row[i] &^= col[i]
		}
	}
}

// popcountRange counts the set bits of row in the index range [lo, hi).
func popcountRange(row []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	lw, hw := lo>>6, (hi-1)>>6
	if lw == hw {
		w := row[lw] >> (uint(lo) & 63)
		if n := hi - lo; n < 64 {
			w &= 1<<uint(n) - 1
		}
		return bits.OnesCount64(w)
	}
	cnt := bits.OnesCount64(row[lw] >> (uint(lo) & 63))
	for wi := lw + 1; wi < hw; wi++ {
		cnt += bits.OnesCount64(row[wi])
	}
	last := row[hw]
	if rem := uint(hi) & 63; rem != 0 {
		last &= 1<<rem - 1
	}
	cnt += bits.OnesCount64(last)
	return cnt
}

// forEachBitRange calls fn on every set bit of row in [lo, hi), ascending.
func forEachBitRange(row []uint64, lo, hi int, fn func(i int)) {
	for i := lo; i < hi; {
		w := row[i>>6] >> (uint(i) & 63)
		if w == 0 {
			i = (i>>6 + 1) << 6
			continue
		}
		i += bits.TrailingZeros64(w)
		if i >= hi {
			return
		}
		fn(i)
		i++
	}
}

package mc

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// This file implements the CTL* tableau product word at a time.  A truth
// assignment to the closure is ⌈|closure|/64⌉ words (closure index = bit
// position), so local consistency, the expansion-law edge test and the
// self-fulfilling check are word operations.  States that share a leaf
// signature share their assignment list, and for each (source signature,
// target signature) pair that some transition joins, every source assignment
// has a bit row over the target signature's assignments: the successors the
// expansion laws permit.
//
// Assignments are enumerated state-major, mask ascending with until bits
// below next bits: the order of the scalar reference product in
// tableau_scalar_test.go, so both build the same nodes, edges and Stats.

// sigPair is one (source signature, target signature) pair that some
// transition joins.  Its rows start at base, one per source assignment, each
// rowWords words over the target signature's assignments.
type sigPair struct {
	src, dst int32
	base     int
	rowWords int
}

// runTableauPacked builds the product of the structure with the tableau and
// returns the states s for which some node (s, K) with the root in K reaches
// a nontrivial self-fulfilling SCC.
func (c *Checker) runTableauPacked(tb *tableau, placeholders map[string]kripke.BitSet) (kripke.BitSet, error) {
	numStates := c.m.NumStates()
	words := (len(tb.closure) + 63) / 64
	root := len(tb.closure) - 1 // newTableau appends children before parents

	sigs, err := c.leafSignatures(tb, placeholders, words)
	if err != nil {
		return nil, err
	}

	// Number the distinct leaf signatures in state order (deterministic
	// ids).  sigID maps a signature's hash to the newest id with that hash;
	// sameHash chains each id to the one before it (-1 ends the chain).
	sigOf := make([]int32, numStates)
	sigID := make(map[uint64]int32)
	var sigVals []uint64
	var sameHash []int32
	for s := 0; s < numStates; s++ {
		sig := sigs[s*words : (s+1)*words]
		var h uint64
		for _, x := range sig {
			h = (h ^ x) * 0x9e3779b97f4a7c15
		}
		head, ok := sigID[h]
		if !ok {
			head = -1
		}
		id := head
		for id >= 0 && !slices.Equal(sigVals[int(id)*words:][:words], sig) {
			id = sameHash[id]
		}
		if id < 0 {
			id = int32(len(sameHash))
			sameHash = append(sameHash, head)
			sigID[h] = id
			sigVals = append(sigVals, sig...)
		}
		sigOf[s] = id
	}
	numSigs := len(sameHash)

	// Enumerate the locally consistent assignments of each signature.  At
	// the operator limit one signature walks 2^20 masks, so the loop polls
	// cancellation as it goes.
	elems := append(append([]int(nil), tb.untils...), tb.nexts...)
	combos := 1 << len(elems)
	var asg []uint64
	sigStart := make([]int32, numSigs+1)
	w := make([]uint64, words)
	for sid := 0; sid < numSigs; sid++ {
		sigStart[sid] = int32(len(asg) / words)
		for mask := 0; mask < combos; mask++ {
			if mask&1023 == 0 {
				if err := c.cancelled(); err != nil {
					return nil, err
				}
			}
			copy(w, sigVals[sid*words:(sid+1)*words])
			for m := uint(mask); m != 0; m &= m - 1 {
				idx := elems[bits.TrailingZeros(m)]
				w[idx>>6] |= 1 << (uint(idx) & 63)
			}
			if tb.derive(w) {
				asg = append(asg, w...)
			}
		}
	}
	sigStart[numSigs] = int32(len(asg) / words)

	// Node numbering: state-major, assignment ascending.  nodeAsg maps a
	// node to its global assignment index.
	nodeBase := make([]int32, numStates+1)
	for s, sid := range sigOf {
		nodeBase[s+1] = nodeBase[s] + sigStart[sid+1] - sigStart[sid]
	}
	numNodes := int(nodeBase[numStates])
	c.stats.TableauNodes += numNodes
	nodeAsg := make([]int32, numNodes)
	for s, sid := range sigOf {
		for j := nodeBase[s]; j < nodeBase[s+1]; j++ {
			nodeAsg[j] = sigStart[sid] + j - nodeBase[s]
		}
	}

	edgeStart, edgePair, pairs := c.signaturePairs(sigOf, numSigs)
	rows, err := c.pairRows(tb, asg, words, sigStart, pairs)
	if err != nil {
		return nil, err
	}

	// Product CSR: a counting pass then a fill pass, both fanned out over
	// states (each node's offset range is private, so writes are disjoint).
	off := make([]int32, numNodes+1)
	err = c.parallelChunks(numStates, 64, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			base := nodeBase[s]
			for j := int32(0); j < nodeBase[s+1]-base; j++ {
				deg := 0
				for e := edgeStart[s]; e < edgeStart[s+1]; e++ {
					p := &pairs[edgePair[e]]
					row := rows[p.base+int(j)*p.rowWords:][:p.rowWords]
					for _, x := range row {
						deg += bits.OnesCount64(x)
					}
				}
				off[base+j+1] = int32(deg)
			}
		}
	}, func(int) {})
	if err != nil {
		return nil, err
	}
	for i := 0; i < numNodes; i++ {
		off[i+1] += off[i]
	}
	dst := make([]int, off[numNodes])
	err = c.parallelChunks(numStates, 64, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			base := nodeBase[s]
			succ := c.m.Succ(kripke.State(s))
			for j := int32(0); j < nodeBase[s+1]-base; j++ {
				pos := off[base+j]
				for k, t := range succ {
					p := &pairs[edgePair[edgeStart[s]+int32(k)]]
					row := rows[p.base+int(j)*p.rowWords:][:p.rowWords]
					for wi, x := range row {
						for ; x != 0; x &= x - 1 {
							dst[pos] = int(nodeBase[t]) + wi<<6 + bits.TrailingZeros64(x)
							pos++
						}
					}
				}
			}
		}
	}, func(int) {})
	if err != nil {
		return nil, err
	}
	g := graph.FromCSR(off, dst)

	// Self-fulfilling nontrivial SCCs: OR the component's assignments, then
	// every until is checked with two bit probes.  Components are
	// independent, so the scan fans out (good has one slot per node; no two
	// components share a slot).
	scc := g.SCC()
	good := make([]bool, numNodes)
	var ors []uint64
	err = c.parallelChunks(len(scc.Components), 8, func(worker, lo, hi int) {
		or := ors[worker*words : (worker+1)*words]
		for ci := lo; ci < hi; ci++ {
			comp := scc.Components[ci]
			if scc.IsTrivial(g, ci) {
				continue
			}
			clear(or)
			for _, v := range comp {
				a := asg[int(nodeAsg[v])*words:][:words]
				for i := range or {
					or[i] |= a[i]
				}
			}
			ok := true
			for _, u := range tb.untils {
				if hasBit(or, u) && !hasBit(or, tb.children[u][1]) {
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
	}, func(workers int) { ors = make([]uint64, workers*words) })
	if err != nil {
		return nil, err
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
		for v := nodeBase[s]; v < nodeBase[s+1]; v++ {
			if hasBit(asg[int(nodeAsg[v])*words:], root) && canReach[v] {
				sat.Set(s)
				break
			}
		}
	}
	return sat, nil
}

// leafSignatures packs the leaf truth values (constants, atoms and
// placeholders, instantiated indexed atoms, "exactly one" atoms) of every
// state into words words per state.  Derived and elementary bits stay zero.
func (c *Checker) leafSignatures(tb *tableau, placeholders map[string]kripke.BitSet, words int) ([]uint64, error) {
	n := c.m.NumStates()
	sigs := make([]uint64, n*words)
	for idx, f := range tb.closure {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		wi, bit := idx>>6, uint64(1)<<(uint(idx)&63)
		set := func(s int) bool { sigs[s*words+wi] |= bit; return true }
		switch node := f.(type) {
		case *logic.Const:
			if node.Value {
				for s := 0; s < n; s++ {
					set(s)
				}
			}
		case *logic.Atom:
			bs, ok := placeholders[node.Name]
			if !ok {
				bs = c.m.StatesWith(kripke.P(node.Name))
			}
			bs.ForEach(set)
		case *logic.InstAtom:
			c.m.StatesWith(kripke.PI(node.Prop, node.Index)).ForEach(set)
		case *logic.One:
			for s := 0; s < n; s++ {
				if c.m.ExactlyOne(kripke.State(s), node.Prop) {
					set(s)
				}
			}
		}
	}
	return sigs, nil
}

// signaturePairs numbers the (source signature, target signature) pairs that
// transitions join, source-major, and names each transition's pair:
// edgePair[edgeStart[s]+k] is the pair of s's k-th successor.  It walks the
// states grouped by signature and stamps each target signature with the
// source it was last reached from, so no pair is looked up by key.
func (c *Checker) signaturePairs(sigOf []int32, numSigs int) (edgeStart, edgePair []int32, pairs []sigPair) {
	n := len(sigOf)
	edgeStart = make([]int32, n+1)
	for s := 0; s < n; s++ {
		edgeStart[s+1] = edgeStart[s] + int32(len(c.m.Succ(kripke.State(s))))
	}
	edgePair = make([]int32, edgeStart[n])

	at := make([]int32, numSigs+1)
	for _, sid := range sigOf {
		at[sid+1]++
	}
	for i := 0; i < numSigs; i++ {
		at[i+1] += at[i]
	}
	order := make([]int32, n)
	for s, sid := range sigOf {
		order[at[sid]] = int32(s)
		at[sid]++
	}

	stamp := make([]int32, numSigs) // source signature + 1 that last named it
	pairOf := make([]int32, numSigs)
	for _, s := range order {
		src := sigOf[s]
		for k, t := range c.m.Succ(kripke.State(s)) {
			dst := sigOf[t]
			if stamp[dst] != src+1 {
				stamp[dst] = src + 1
				pairOf[dst] = int32(len(pairs))
				pairs = append(pairs, sigPair{src: src, dst: dst})
			}
			edgePair[edgeStart[s]+int32(k)] = pairOf[dst]
		}
	}
	return edgeStart, edgePair, pairs
}

// pairRows fills, for every signature pair, one bit row per source
// assignment over the target signature's assignments: bit i is set iff the
// expansion laws let target assignment i follow.  It sets each pair's base
// and rowWords.  Pairs are independent, so the pass fans out.
func (c *Checker) pairRows(tb *tableau, asg []uint64, words int, sigStart []int32, pairs []sigPair) ([]uint64, error) {
	total := 0
	for pi := range pairs {
		p := &pairs[pi]
		p.base = total
		p.rowWords = int(sigStart[p.dst+1]-sigStart[p.dst]+63) / 64
		total += int(sigStart[p.src+1]-sigStart[p.src]) * p.rowWords
	}
	rows := make([]uint64, total)
	var masks []uint64
	err := c.parallelChunks(len(pairs), 1, func(worker, lo, hi int) {
		req := masks[2*worker*words:][:words]
		val := masks[(2*worker+1)*words:][:words]
		for pi := lo; pi < hi; pi++ {
			p := pairs[pi]
			for a := sigStart[p.src]; a < sigStart[p.src+1]; a++ {
				if a&255 == 0 && c.cancelled() != nil {
					return
				}
				if !tb.successorMask(asg[int(a)*words:][:words], req, val) {
					continue
				}
				row := rows[p.base+int(a-sigStart[p.src])*p.rowWords:][:p.rowWords]
				for i := 0; i < int(sigStart[p.dst+1]-sigStart[p.dst]); i++ {
					b := asg[(int(sigStart[p.dst])+i)*words:][:words]
					follows := true
					for wi := range b {
						if b[wi]&req[wi] != val[wi] {
							follows = false
							break
						}
					}
					if follows {
						row[i>>6] |= 1 << (uint(i) & 63)
					}
				}
			}
		}
	}, func(workers int) { masks = make([]uint64, 2*workers*words) })
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// derive fills the boolean bits of assignment w bottom-up from the leaf and
// elementary bits (the closure lists children before parents) and reports
// whether the until expansion is locally consistent: h ∈ K ⇒ g U h ∈ K, and
// g U h ∈ K ∧ h ∉ K ⇒ g ∈ K.
func (tb *tableau) derive(w []uint64) bool {
	for _, idx := range tb.derived {
		kids := tb.children[idx]
		var v bool
		switch tb.closure[idx].(type) {
		case *logic.Not:
			v = !hasBit(w, kids[0])
		case *logic.And:
			v = true
			for _, k := range kids {
				if !hasBit(w, k) {
					v = false
					break
				}
			}
		default: // *logic.Or
			for _, k := range kids {
				if hasBit(w, k) {
					v = true
					break
				}
			}
		}
		bit := uint64(1) << (uint(idx) & 63)
		if v {
			w[idx>>6] |= bit
		} else {
			w[idx>>6] &^= bit
		}
	}
	for _, idx := range tb.untils {
		kids := tb.children[idx]
		l, r, u := hasBit(w, kids[0]), hasBit(w, kids[1]), hasBit(w, idx)
		if r && !u || u && !r && !l {
			return false
		}
	}
	return true
}

// successorMask writes what the expansion laws demand of a successor of
// assignment a as masks: b may follow a iff b&req == val in every word.
// X g ∈ a fixes g's bit to a's X g bit.  g U h with g ∈ a and h ∉ a fixes the
// until's own bit; derive has already settled the other until cases, which
// demand nothing of the successor.  It reports false, and a has no
// successor, when two demands on one bit disagree, as X (g U h) can make
// them.
func (tb *tableau) successorMask(a, req, val []uint64) bool {
	clear(req)
	clear(val)
	fix := func(idx int, v bool) bool {
		wi, bit := idx>>6, uint64(1)<<(uint(idx)&63)
		if req[wi]&bit != 0 {
			return (val[wi]&bit != 0) == v
		}
		req[wi] |= bit
		if v {
			val[wi] |= bit
		}
		return true
	}
	for _, idx := range tb.nexts {
		if !fix(tb.children[idx][0], hasBit(a, idx)) {
			return false
		}
	}
	for _, idx := range tb.untils {
		kids := tb.children[idx]
		if hasBit(a, kids[0]) && !hasBit(a, kids[1]) && !fix(idx, hasBit(a, idx)) {
			return false
		}
	}
	return true
}

// hasBit reports whether bit i of the word slice w is set.
func hasBit(w []uint64, i int) bool {
	return w[i>>6]>>(uint(i)&63)&1 != 0
}

package mc

import (
	"math/bits"

	"repro/internal/kripke"
)

// This file implements the CTL labelling algorithms (Clarke, Emerson,
// Sistla 1986) on kripke.BitSet satisfaction sets:
//
//	EX f     : states with a successor satisfying f
//	E[f U g] : least fixpoint, computed backwards from the g states
//	EG f     : states from which some infinite path stays in f forever,
//	           anchored at the nontrivial SCCs of the f-restricted structure
//
// The universal operators are obtained by duality in the checker.  The EU/EG
// least fixpoints advance one breadth-first level per iteration, where a
// level is computed by sweeping the predecessor lists of the frontier's set
// bits and the level arithmetic (restrict to f, drop already-satisfied
// states, merge) is three word-parallel BitSet operations.  EG finds its
// seed states with an implicit iterative Tarjan pass that never materialises
// the restricted graph.
//
// vector_test.go keeps the scalar reference implementations (one state at a
// time, EG over a materialised restricted graph) and pins these functions to
// them on randomized structures, word-boundary state counts and degenerate
// prop sets: identical sets and identical Stats counters, since a frontier
// state is counted once when it enters the fixpoint, matching the
// reference's one-pop-per-state worklist accounting.

// satEX returns the states with at least one successor in f, computed as a
// predecessor sweep over f's set bits (one pass over the edges into f,
// instead of one scan per state).
func (c *Checker) satEX(f kripke.BitSet) (kripke.BitSet, error) {
	out := kripke.NewBitSet(c.m.NumStates())
	if err := c.gatherPreds(f, out); err != nil {
		return nil, err
	}
	return out, nil
}

// satEG returns the states satisfying EG f: backward closure within f of
// the states on a nontrivial f-restricted component.
func (c *Checker) satEG(f kripke.BitSet) (kripke.BitSet, error) {
	seeds, err := c.egSeeds(f)
	if err != nil {
		return nil, err
	}
	return c.satEU(f, seeds)
}

// satEU returns the states satisfying E[f U g]: the least fixpoint
// Z = g ∪ (f ∩ EX Z), a backwards breadth-first sweep whose per-level
// arithmetic is word-parallel.  Neither argument is modified; the result is
// a fresh set.
func (c *Checker) satEU(f, g kripke.BitSet) (kripke.BitSet, error) {
	n := c.m.NumStates()
	sat := g.Clone()
	frontier := g.Clone()
	next := kripke.NewBitSet(n)
	for !frontier.Empty() {
		if err := c.cancelled(); err != nil {
			return nil, err
		}
		// One Stats tick per state entering the fixpoint: identical totals
		// to the scalar worklist's one tick per pop.
		c.stats.FixpointIterations += frontier.Count()
		next.ClearAll()
		if err := c.gatherPreds(frontier, next); err != nil {
			return nil, err
		}
		next.And(f)
		next.AndNot(sat)
		sat.Or(next)
		frontier, next = next, frontier
	}
	return sat, nil
}

// gatherPreds ORs the predecessors of every state in frontier into out.
// With a worker budget the frontier's words are claimed in chunks and each
// worker accumulates into a private set; the final merge is a sequence of
// word ORs, so the result does not depend on the chunk schedule.
func (c *Checker) gatherPreds(frontier, out kripke.BitSet) error {
	words := len(frontier)
	if c.workers > 1 && words >= gatherParallelWords {
		return c.gatherPredsParallel(frontier, out)
	}
	done := 0
	for wi, w := range frontier {
		if w == 0 {
			continue
		}
		// Checkpoint between word batches so a huge frontier cannot delay
		// cancellation by more than a bounded sweep.
		done++
		if done&1023 == 0 {
			if err := c.cancelled(); err != nil {
				return err
			}
		}
		base := wi << 6
		for w != 0 {
			t := base + bits.TrailingZeros64(w)
			w &= w - 1
			for _, s := range c.m.Pred(kripke.State(t)) {
				out.Set(int(s))
			}
		}
	}
	return nil
}

// gatherParallelWords is the frontier size (in 64-state words) below which a
// parallel gather is not worth the fan-out.
const gatherParallelWords = 64

func (c *Checker) gatherPredsParallel(frontier, out kripke.BitSet) error {
	n := c.m.NumStates()
	acc := make([]kripke.BitSet, 0, c.workers)
	err := c.parallelChunks(len(frontier), 32, func(worker, lo, hi int) {
		part := acc[worker]
		for wi := lo; wi < hi; wi++ {
			w := frontier[wi]
			if w == 0 {
				continue
			}
			base := wi << 6
			for w != 0 {
				t := base + bits.TrailingZeros64(w)
				w &= w - 1
				for _, s := range c.m.Pred(kripke.State(t)) {
					part.Set(int(s))
				}
			}
		}
	}, func(workers int) {
		for i := 0; i < workers; i++ {
			acc = append(acc, kripke.NewBitSet(n))
		}
	})
	if err != nil {
		return err
	}
	for _, part := range acc {
		out.Or(part)
	}
	return nil
}

// egSeeds returns the states lying on a nontrivial strongly connected
// component of the f-restricted structure: the anchor states of EG f.  The
// restriction is never materialised — Tarjan's algorithm runs directly on
// the structure's successor lists, skipping targets outside f.
func (c *Checker) egSeeds(fb kripke.BitSet) (kripke.BitSet, error) {
	n := c.m.NumStates()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	for i := range index {
		index[i] = unvisited
	}
	onStack := kripke.NewBitSet(n)
	selfLoop := kripke.NewBitSet(n)
	seeds := kripke.NewBitSet(n)
	var stack []int32
	var next int32

	type frame struct {
		v     int32
		child int32
	}
	var callStack []frame
	visited := 0
	for root := 0; root < n; root++ {
		if !fb.Get(root) || index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: int32(root)})
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if fr.child == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack.Set(int(v))
				visited++
				if visited&4095 == 0 {
					if err := c.cancelled(); err != nil {
						return nil, err
					}
				}
			}
			advanced := false
			succ := c.m.Succ(kripke.State(v))
			for fr.child < int32(len(succ)) {
				w := int32(succ[fr.child])
				fr.child++
				if !fb.Get(int(w)) {
					continue
				}
				if w == v {
					selfLoop.Set(int(v))
					continue
				}
				if index[w] == unvisited {
					callStack = append(callStack, frame{v: w})
					advanced = true
					break
				}
				if onStack.Get(int(w)) && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				// Pop the component; it is a seed when it has more than one
				// member or its single member carries an f-internal self loop.
				top := len(stack) - 1
				if stack[top] == v {
					stack = stack[:top]
					onStack.Clear(int(v))
					if selfLoop.Get(int(v)) {
						seeds.Set(int(v))
					}
				} else {
					for {
						w := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						onStack.Clear(int(w))
						seeds.Set(int(w))
						if w == v {
							break
						}
					}
				}
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := callStack[len(callStack)-1].v
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
	return seeds, nil
}

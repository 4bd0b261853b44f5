package mc

import (
	"math"
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
// A query allocates only the sets the memo keeps.  The fixpoints' frontier
// and next level, EG's seeds and Tarjan state, the operands the CTL
// rewrites complement or intersect, and the parallel gather's per-worker
// accumulators live in the checker's scratch, allocated on first use and
// reused by every later query (a Checker is never used concurrently).
// Every pass overwrites or clears the scratch it reads before reading it,
// so nothing a cancelled query left behind reaches the next one.
//
// vector_test.go keeps the scalar reference implementations (one state at a
// time, EG over a materialised restricted graph) and pins these functions to
// them on randomized structures, word-boundary state counts and degenerate
// prop sets: identical sets and identical Stats counters, since a frontier
// state is counted once when it enters the fixpoint, matching the
// reference's one-pop-per-state worklist accounting.

// scratch is a checker's reusable working memory for the labelling
// algorithms.  Its sets are n bits each; index and low hold 4 bytes per
// state; stack and calls grow to the deepest search seen.  None of it is
// ever handed to the memo.
type scratch struct {
	// frontier and next are euInto's levels, seeds is egSeeds' result, and
	// op holds the complemented or intersected operands of the CTL rewrites.
	frontier, next, seeds kripke.BitSet
	op                    [2]kripke.BitSet

	// index, low, stack and calls are egSeeds' Tarjan state.
	index, low []int32
	stack      []int32
	calls      []egFrame

	// acc holds gatherPredsParallel's per-worker accumulators.
	acc []kripke.BitSet
}

// egFrame is one vertex of egSeeds' explicit DFS call stack: the vertex,
// the next successor to scan, and whether an f-internal self loop was seen.
type egFrame struct {
	v, child int32
	self     bool
}

// work returns the checker's scratch, allocating its five sets in one block
// on first use.
func (c *Checker) work() *scratch {
	w := &c.scratch
	if w.frontier == nil {
		words := (c.m.NumStates() + 63) / 64
		block := make(kripke.BitSet, 5*words)
		set := func(i int) kripke.BitSet { return block[i*words : (i+1)*words : (i+1)*words] }
		w.frontier, w.next, w.seeds, w.op[0], w.op[1] = set(0), set(1), set(2), set(3), set(4)
	}
	return w
}

// complementOperand overwrites scratch operand slot i with [0, n) \ x and
// returns it.
func (c *Checker) complementOperand(i int, x kripke.BitSet) kripke.BitSet {
	op := c.work().op[i]
	op.SetComplement(x, c.m.NumStates())
	return op
}

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
// the states on a nontrivial f-restricted component.  The result is fresh.
func (c *Checker) satEG(f kripke.BitSet) (kripke.BitSet, error) {
	seeds, err := c.egSeeds(f)
	if err != nil {
		return nil, err
	}
	return c.satEU(f, seeds)
}

// satEU returns the states satisfying E[f U g] as a fresh set.  Neither
// argument is modified; a nil f stands for all states.
func (c *Checker) satEU(f, g kripke.BitSet) (kripke.BitSet, error) {
	sat := g.Clone()
	if err := c.euInto(f, sat); err != nil {
		return nil, err
	}
	return sat, nil
}

// euInto turns sat, holding g, into E[f U g]: the least fixpoint
// Z = g ∪ (f ∩ EX Z), a backwards breadth-first sweep whose per-level
// arithmetic is word-parallel.  A nil f stands for all states (EF).  f is
// not modified and must not be sat or a scratch level.
func (c *Checker) euInto(f, sat kripke.BitSet) error {
	w := c.work()
	frontier, next := w.frontier, w.next
	frontier.CopyFrom(sat)
	for !frontier.Empty() {
		if err := c.cancelled(); err != nil {
			return err
		}
		// One Stats tick per state entering the fixpoint: identical totals
		// to the scalar worklist's one tick per pop.
		c.stats.FixpointIterations += frontier.Count()
		next.ClearAll()
		if err := c.gatherPreds(frontier, next); err != nil {
			return err
		}
		if f != nil {
			next.And(f)
		}
		next.AndNot(sat)
		sat.Or(next)
		frontier, next = next, frontier
	}
	return nil
}

// gatherPreds ORs the predecessors of every state in frontier into out.
// With a worker budget and a frontier occupying at least gatherParallelWords
// words, the frontier's words are claimed in chunks and each worker
// accumulates into a private set; the final merge is a sequence of word
// ORs, so the result does not depend on the chunk schedule.
func (c *Checker) gatherPreds(frontier, out kripke.BitSet) error {
	if c.workers > 1 && occupiedWords(frontier) >= gatherParallelWords {
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

// gatherParallelWords is the frontier size (in non-empty 64-state words)
// below which a parallel gather is not worth the fan-out.  A fixpoint's
// levels are mostly thin, so the test is on the words a level occupies, not
// on the set's capacity: a thin level of a large structure stays inline
// rather than starting a pool for a few states.
const gatherParallelWords = 64

// occupiedWords counts the non-zero words of b.
func occupiedWords(b kripke.BitSet) int {
	k := 0
	for _, w := range b {
		if w != 0 {
			k++
		}
	}
	return k
}

// gatherPredsParallel is gatherPreds' fan-out.  The per-worker accumulators
// are the checker's, kept across levels and queries and cleared before use.
func (c *Checker) gatherPredsParallel(frontier, out kripke.BitSet) error {
	var acc []kripke.BitSet
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
		for len(c.scratch.acc) < workers {
			c.scratch.acc = append(c.scratch.acc, kripke.NewBitSet(c.m.NumStates()))
		}
		acc = c.scratch.acc[:workers]
		for _, part := range acc {
			part.ClearAll()
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
// the structure's successor lists, skipping targets outside f.  The result
// is the scratch seeds set, valid until the next egSeeds.
//
// A vertex is on Tarjan's stack exactly when it is visited and its
// component is not yet popped; popping sets its index to done, above every
// real index, so the low-link update needs no separate on-stack set.  Every
// call resets index, the stacks and the seeds first, so a cancelled search
// leaves nothing for the next one.
func (c *Checker) egSeeds(fb kripke.BitSet) (kripke.BitSet, error) {
	n := c.m.NumStates()
	const unvisited, done = -1, math.MaxInt32
	w := c.work()
	if w.index == nil {
		both := make([]int32, 2*n)
		w.index, w.low = both[:n:n], both[n:]
	}
	index, low := w.index, w.low
	for i := range index {
		index[i] = unvisited
	}
	seeds := w.seeds
	seeds.ClearAll()
	stack, callStack := w.stack[:0], w.calls[:0]
	var next int32
	visited := 0
	for root := 0; root < n; root++ {
		if !fb.Get(root) || index[root] != unvisited {
			continue
		}
		callStack = append(callStack, egFrame{v: int32(root)})
		for len(callStack) > 0 {
			fr := &callStack[len(callStack)-1]
			v := fr.v
			if fr.child == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				visited++
				if visited&4095 == 0 {
					if err := c.cancelled(); err != nil {
						w.stack, w.calls = stack, callStack
						return nil, err
					}
				}
			}
			advanced := false
			succ := c.m.Succ(kripke.State(v))
			for fr.child < int32(len(succ)) {
				t := int32(succ[fr.child])
				fr.child++
				if !fb.Get(int(t)) {
					continue
				}
				if t == v {
					fr.self = true
					continue
				}
				if index[t] == unvisited {
					callStack = append(callStack, egFrame{v: t})
					advanced = true
					break
				}
				// A popped t has index done and never lowers low[v].
				if index[t] < low[v] {
					low[v] = index[t]
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
					index[v] = done
					if fr.self {
						seeds.Set(int(v))
					}
				} else {
					for {
						t := stack[len(stack)-1]
						stack = stack[:len(stack)-1]
						index[t] = done
						seeds.Set(int(t))
						if t == v {
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
	// The stacks keep whatever capacity they grew to.
	w.stack, w.calls = stack, callStack
	return seeds, nil
}

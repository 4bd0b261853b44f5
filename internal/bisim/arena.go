package bisim

// computeArena holds Compute's scratch memory: a stack of hand-outs per
// element type, int32 (the refiner's label classes, silent components,
// Tarjan's stack and contracted adjacency CSRs, the degree pass's ranks,
// row offsets, sparse rows and predecessor lists) and uint64 (block bitsets
// and row words).  Every Compute runs on one; Compute makes a fresh arena when
// its caller has none, and IndexedCompute hands each pool worker one arena
// for all the pair computes that worker claims.
//
// Compute brackets its phases with mark and release.  The refiner's arrays
// are dead once the stable partition is read into the per-state block ids,
// so they are released before the degree pass, which takes its arrays from
// the same memory; within the pass, the successor-block rows read only by
// round 0 are released before the worklist arrays are taken.  Compute
// releases everything it took before it returns, so the next compute on the
// arena starts from an empty stack.
//
// The memory itself is a set of chunks the arena keeps for its lifetime.
// A hand-out bumps through the chunk on top of the stack; one that does not
// fit there takes the smallest chunk released earlier in the compute that
// fits, and when none does the arena allocates a chunk of exactly the size
// asked for (small tables excepted, see minChunkLen).  Exact chunks keep a
// worker's first compute from paying more than its phases need at once: a
// geometric growth policy would allocate more than the compute asks for.
// A later compute takes the chunks it has not yet used in the order they
// were made, so a compute of the same shape takes the same chunks and
// allocates nothing (see take).
//
// Nothing reachable from a Result may come from an arena — the Relation and
// its backing are always heap-allocated — and an arena serves one goroutine.
type computeArena struct {
	i32 arenaStack[int32]
	u64 arenaStack[uint64]
}

// arenaMark is a point on both of an arena's stacks, to release back to.
type arenaMark struct{ i32, u64 stackMark }

// mark returns the current top of both stacks.
func (a *computeArena) mark() arenaMark { return arenaMark{a.i32.mark(), a.u64.mark()} }

// release reclaims every hand-out made since m was marked.
func (a *computeArena) release(m arenaMark) {
	a.i32.release(m.i32)
	a.u64.release(m.u64)
}

// u64s returns a length-n word slice.  zeroed=false skips the clear for
// callers that overwrite every element; its contents are then arbitrary.
func (a *computeArena) u64s(n int, zeroed bool) []uint64 { return a.u64.take(n, zeroed) }

// i32s returns a length-n int32 slice; see u64s for the zeroed contract.
func (a *computeArena) i32s(n int, zeroed bool) []int32 { return a.i32.take(n, zeroed) }

// bitset returns an n-bit kripke-style bitset (word-sliced uint64s).
func (a *computeArena) bitset(n int, zeroed bool) []uint64 {
	return a.u64s((n+63)/64, zeroed)
}

// arenaStack is one element type's half of a computeArena.
type arenaStack[T int32 | uint64] struct {
	chunks []arenaChunk[T] // every chunk the arena holds, in the order made
	used   []int           // the chunks in use, bottom to top, as indices into chunks
	off    int             // the next hand-out's offset in the top chunk
}

type arenaChunk[T int32 | uint64] struct {
	buf   []T
	state chunkState
}

// chunkState tells a chunk's part in the current sequence of hand-outs,
// the hand-outs since the stack was last empty.
type chunkState uint8

const (
	chunkIdle     chunkState = iota // not used in the current sequence
	chunkBusy                       // holds live hand-outs
	chunkReleased                   // used in the current sequence, now free
)

// stackMark is a point on an arenaStack: the number of chunks in use and
// the offset in the top one.
type stackMark struct{ depth, off int }

func (s *arenaStack[T]) mark() stackMark { return stackMark{len(s.used), s.off} }

func (s *arenaStack[T]) release(m stackMark) {
	for _, c := range s.used[m.depth:] {
		s.chunks[c].state = chunkReleased
	}
	s.used = s.used[:m.depth]
	s.off = m.off
	if m.depth == 0 {
		for c := range s.chunks {
			s.chunks[c].state = chunkIdle
		}
	}
}

// minChunkLen is the fewest elements a chunk is made with, so that the
// small tables of a compute (block counts, row offsets of a few rows)
// share chunks instead of making one each.
const minChunkLen = 64

// take hands out n elements: from the top chunk when they fit there, else
// from the smallest released chunk that holds them, else from the first
// idle chunk that holds them in the order the chunks were made, else from
// a new chunk of n elements (minChunkLen at least).
//
// Running a sequence again on the chunks it left takes the same chunk at
// every step, so it makes none.  By induction the chunks in use and the
// released ones are those of the first run at the same step.  Where the
// first run took an idle chunk or made one, that chunk is the first idle
// one that fits: the chunks before it in the order made are in the same
// states as then, and it is idle, as no earlier step took it.  Best fit
// over every free chunk lacks this: a chunk made late in the first run can
// be the tighter fit for an early hand-out of the second.
func (s *arenaStack[T]) take(n int, zeroed bool) []T {
	if n == 0 {
		return nil
	}
	if k := len(s.used); k > 0 {
		if top := s.chunks[s.used[k-1]].buf; s.off+n <= len(top) {
			out := top[s.off : s.off+n : s.off+n]
			s.off += n
			if zeroed {
				clear(out)
			}
			return out
		}
	}
	pick, idle := -1, -1
	for c, ch := range s.chunks {
		switch {
		case len(ch.buf) < n:
		case ch.state == chunkReleased:
			if pick < 0 || len(ch.buf) < len(s.chunks[pick].buf) {
				pick = c
			}
		case ch.state == chunkIdle && idle < 0:
			idle = c
		}
	}
	if pick < 0 {
		pick = idle
	}
	if pick < 0 {
		pick = len(s.chunks)
		s.chunks = append(s.chunks, arenaChunk[T]{buf: make([]T, max(n, minChunkLen))})
		zeroed = false // make zeroes it
	}
	s.chunks[pick].state = chunkBusy
	s.used = append(s.used, pick)
	s.off = n
	out := s.chunks[pick].buf[:n:n]
	if zeroed {
		clear(out)
	}
	return out
}

package bisim

// computeArena recycles the large flat allocations of one Compute call
// across successive calls, from two slabs: int32 (the refiner's label
// classes, silent components and contracted adjacency CSRs, the degree
// pass's ranks, row offsets, sparse rows and predecessor lists) and uint64
// (block bitsets and row words).  IndexedCompute hands each of its pool
// workers one arena and resets it between pair computes, which removes
// most of the allocator and GC traffic of a multi-pair run: the reductions
// of one IN relation have near-identical state counts, so after a worker's
// first compute its slabs fit and the engine runs allocation-free in
// steady state.
//
// How many computes share an arena depends on the caller.  Without index
// actions every IN pair is computed (r on the ring M_3 ~ M_r); with them
// only one pair per orbit class is (one on the ring and the tori, two on
// the star, up to eight on the line and the tree at n ≤ 10), so a worker
// often claims a single pair and its arena is used once.
//
// A nil *computeArena is valid everywhere and degrades every helper to a
// plain make, so direct Compute callers are untouched.  Slices handed out
// alias the arena's slabs and are reclaimed wholesale at the next reset;
// nothing reachable from a Result may come from an arena — the Relation and
// its backing are always heap-allocated.
//
// Sizing is deferred: each call records its need, and a request that
// overflows the current slab falls back to the heap for that one slice;
// reset then grows the slab to the recorded high-water mark, so the second
// compute of a similar shape is fully arena-served.  This keeps the hand-out
// path a bump-pointer with no mid-compute slab juggling.
type computeArena struct {
	u64 []uint64
	i32 []int32

	u64Off, i32Off   int
	u64Need, i32Need int
}

// reset reclaims everything handed out since the previous reset and grows
// the slabs to the sizes the previous compute asked for.
func (a *computeArena) reset() {
	if a == nil {
		return
	}
	if a.u64Need > len(a.u64) {
		a.u64 = make([]uint64, a.u64Need)
	}
	if a.i32Need > len(a.i32) {
		a.i32 = make([]int32, a.i32Need)
	}
	a.u64Off, a.i32Off = 0, 0
	a.u64Need, a.i32Need = 0, 0
}

// u64s returns a length-n word slice.  zeroed=false skips the clear for
// callers that overwrite every element (the heap fallback is always zeroed;
// callers must not rely on junk contents either way).
func (a *computeArena) u64s(n int, zeroed bool) []uint64 {
	if a == nil {
		return make([]uint64, n)
	}
	a.u64Need += n
	if a.u64Off+n > len(a.u64) {
		return make([]uint64, n)
	}
	s := a.u64[a.u64Off : a.u64Off+n : a.u64Off+n]
	a.u64Off += n
	if zeroed {
		clear(s)
	}
	return s
}

// i32s returns a length-n int32 slice; see u64s for the zeroed contract.
func (a *computeArena) i32s(n int, zeroed bool) []int32 {
	if a == nil {
		return make([]int32, n)
	}
	a.i32Need += n
	if a.i32Off+n > len(a.i32) {
		return make([]int32, n)
	}
	s := a.i32[a.i32Off : a.i32Off+n : a.i32Off+n]
	a.i32Off += n
	if zeroed {
		clear(s)
	}
	return s
}

// bitset returns an n-bit kripke-style bitset (word-sliced uint64s).
func (a *computeArena) bitset(n int, zeroed bool) []uint64 {
	return a.u64s((n+63)/64, zeroed)
}

package bisim_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/ring"
)

// TestRelationFootprintPerPair bounds the relations of ring M_3|i ~ M_10|j
// at 8 bytes per related pair plus 4 bytes per left state (and the closing
// row offset), so a |S|×|S'| matrix cannot come back unnoticed.
func TestRelationFootprintPerPair(t *testing.T) {
	res, err := family.DecideCorrespondence(context.Background(), family.Ring(), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() {
		t.Fatal("M_3 and M_10 should indexed-correspond")
	}
	for p, pr := range res.Pairs {
		n, n2 := pr.Relation.Dims()
		limit := 8*pr.Relation.Size() + 4*(n+1)
		if got := bisim.RelationBytes(pr.Relation); got > limit {
			t.Errorf("pair %v: relation holds %d bytes for %d pairs over %d×%d states, above the %d-byte bound",
				p, got, pr.Relation.Size(), n, n2, limit)
		}
		if dense := 4 * n * n2; 2*limit > dense {
			t.Fatalf("pair %v: bound %d is not well below the dense %d bytes; the test no longer discriminates", p, limit, dense)
		}
	}
}

// Per-state and per-transition costs of Compute's two phases on the ring
// index pairs, shared by the phase bounds below and by the bound on all of
// Compute, which pays for the larger phase only.
const (
	refinerPerState, refinerPerEdge = 36, 8  // per union state, per union transition
	passPerRight, passPerEdge       = 100, 4 // per right state, per union transition
)

// TestRefinerFootprint bounds what the refiner's preprocessing allocates
// for each index pair of ring M_3|i ~ M_12|j: the interned label classes,
// the strongly connected components of the silent edges, and the
// contracted adjacency in both directions.  Every one of these is an int32
// array, and the silent components are found on the structures' own
// successor rows, each vertex's DFS index kept in the component array
// itself, so the bound is 36 bytes per union state (label class, component
// and Tarjan's stack, per contracted node its size, label and two row
// offsets, and the block bitsets) and 8 per union transition (the two
// contracted directions at most once each), plus 64 KiB for the label
// interning and the dense rows of small contracted graphs.  A copy of the
// silent edges, as a CSR or as [][]int rows, exceeds it.
func TestRefinerFootprint(t *testing.T) {
	small, err := family.Ring().Build(3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := family.Ring().Build(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := family.CorrespondOptions(family.Ring())
	for _, p := range family.Ring().IndexRelation(3, 12) {
		m, m2 := small.ReduceNormalized(p.I), large.ReduceNormalized(p.I2)
		states := m.NumStates() + m2.NumStates()
		edges := m.NumTransitions() + m2.NumTransitions()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cN := bisim.ContractedStates(m, m2, opts)
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		limit := uint64(refinerPerState*states+refinerPerEdge*edges) + 64<<10
		t.Logf("pair %v: %d bytes for %d union states, %d transitions, %d contracted nodes (%.1f per state+edge; bound %d)",
			p, got, states, edges, cN, float64(got)/float64(states+edges), limit)
		if got > limit {
			t.Errorf("pair %v: the refiner's preprocessing allocated %d bytes for %d union states and %d transitions, above the %d-byte bound",
				p, got, states, edges, limit)
		}
	}
}

// TestDegreePassFootprint bounds what the degree pass allocates on a fresh
// arena of its own, the Result included, given the stable partition.  A
// pair costs its place in the Result's relation (8 bytes) and its bit in
// six row words (0.75); a right state's row costs at least one word in each
// of the six (48 bytes) before it holds a pair.  The first inputs are
// cycles compared with themselves, bounded at 10 bytes per pair, 128 per
// union state and 32 per union transition, plus 64 KiB: with one label
// (one block of 2,000 × 2,000 pairs) and with distinct labels (4,000
// blocks of one pair each), so neither a per-pair table beside the
// relation nor an |S|·|S'| array fits.  The second are the index pairs of
// ring M_3|i ~ M_12|j, the shape the correspondence sweep runs: M_3's
// reductions have 24 states, so every right row is one word.  They are
// bounded at 8 bytes per pair, 100 per right state (the six words, seven
// int32 tables and a successor-block entry) and 4 per union transition
// (the in-block predecessor lists), plus 64 KiB, so a copy of the right
// successor rows does not fit either.
func TestDegreePassFootprint(t *testing.T) {
	for _, c := range []struct{ n, labels int }{{2000, 1}, {4000, 4000}} {
		m := labelledCycle(t, c.n, c.labels, 0)
		got, res := degreePassBytes(t, m, m, bisim.Options{})
		pairs, states, edges := res.Relation.Size(), 2*m.NumStates(), 2*m.NumTransitions()
		limit := int64(10*pairs+128*states+32*edges) + 64<<10
		t.Logf("n=%d labels=%d: degree pass %d bytes for %d pairs (%.1f per pair); bound %d",
			c.n, c.labels, got, pairs, float64(got)/float64(pairs), limit)
		if got > limit {
			t.Errorf("n=%d labels=%d: the degree pass allocated %d bytes for %d pairs, %d union states and %d transitions, above the %d-byte bound",
				c.n, c.labels, got, pairs, states, edges, limit)
		}
	}
	small, err := family.Ring().Build(3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := family.Ring().Build(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := family.CorrespondOptions(family.Ring())
	for _, p := range family.Ring().IndexRelation(3, 12) {
		m, m2 := small.ReduceNormalized(p.I), large.ReduceNormalized(p.I2)
		got, res := degreePassBytes(t, m, m2, opts)
		if m.NumStates() > 64 {
			t.Fatalf("pair %v: M_3|%d has %d states; the case needs one-word rows", p, p.I, m.NumStates())
		}
		pairs, right, edges := res.Relation.Size(), m2.NumStates(), m.NumTransitions()+m2.NumTransitions()
		limit := int64(8*pairs+passPerRight*right+passPerEdge*edges) + 64<<10
		t.Logf("pair %v: degree pass %d bytes for %d pairs, %d right states and %d transitions (%.1f per right state); bound %d",
			p, got, pairs, right, edges, float64(got)/float64(right), limit)
		if got > limit {
			t.Errorf("pair %v: the degree pass allocated %d bytes for %d pairs, %d right states and %d transitions, above the %d-byte bound",
				p, got, pairs, right, edges, limit)
		}
	}
}

// degreePassBytes returns what the degree pass allocates on m, m2's stable
// partition, run on a fresh arena through the DegreePass hook, and its
// Result.  The structures must correspond.
func degreePassBytes(t *testing.T, m, m2 *kripke.Structure, opts bisim.Options) (int64, *bisim.Result) {
	t.Helper()
	stateBlock, numBlocks := bisim.Partition(m, m2, opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := bisim.DegreePass(m, m2, stateBlock, numBlocks, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() {
		t.Fatalf("%s and %s must correspond", m.Name(), m2.Name())
	}
	return int64(after.TotalAlloc - before.TotalAlloc), res
}

// TestComputeFootprint bounds all of Compute, on the fresh arena it makes
// for a caller without one, for each index pair of ring M_3|i ~ M_12|j: the
// relation it returns, the per-state block ids that outlive the refiner,
// and the larger of the two phases' costs above, plus 64 KiB.  The degree
// pass runs in the memory the refiner released, so Compute pays for its
// larger phase, not for both; taking the two phases from the heap side by
// side exceeds the bound.
func TestComputeFootprint(t *testing.T) {
	small, err := family.Ring().Build(3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := family.Ring().Build(12)
	if err != nil {
		t.Fatal(err)
	}
	opts := family.CorrespondOptions(family.Ring())
	for _, p := range family.Ring().IndexRelation(3, 12) {
		m, m2 := small.ReduceNormalized(p.I), large.ReduceNormalized(p.I2)
		states, right := m.NumStates()+m2.NumStates(), m2.NumStates()
		edges := m.NumTransitions() + m2.NumTransitions()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := bisim.Compute(context.Background(), m, m2, opts)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Corresponds() {
			t.Fatalf("pair %v: %s and %s must correspond", p, m.Name(), m2.Name())
		}
		got := int64(after.TotalAlloc - before.TotalAlloc)
		refiner := refinerPerState*states + refinerPerEdge*edges
		pass := passPerRight*right + passPerEdge*edges
		limit := int64(bisim.RelationBytes(res.Relation)+4*states+max(refiner, pass)) + 64<<10
		t.Logf("pair %v: Compute %d bytes, relation %d, refiner bound %d, pass bound %d; bound %d",
			p, got, bisim.RelationBytes(res.Relation), refiner, pass, limit)
		if got > limit {
			t.Errorf("pair %v: Compute allocated %d bytes for %d union states and %d transitions, above the %d-byte bound",
				p, got, states, edges, limit)
		}
	}
}

// TestComputeArenaAcrossPairs: IndexedCompute with one worker decides the
// index pairs of line M_3 ~ M_10 that pair M_3's middle process with each
// inner process of M_10 on that worker's one arena.  The eight pairs have
// one shape, and only the first compute makes arena chunks: the whole
// run's chunks are those of a lone Compute of the first pair, so the
// computes after it allocate their Results and the refiner's small
// bookkeeping only.  An arena per compute, or one that dropped its chunks
// between computes, makes chunks for every pair.  (A pair of another
// shape, such as the two end processes, may ask for a chunk larger than
// any the arena holds and make it.)
func TestComputeArenaAcrossPairs(t *testing.T) {
	ctx := context.Background()
	small, err := family.Line().Build(3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := family.Line().Build(10)
	if err != nil {
		t.Fatal(err)
	}
	var in []bisim.IndexPair
	for _, p := range family.Line().IndexRelation(3, 10) {
		if p.I == 2 {
			in = append(in, p)
		}
	}
	if len(in) != 8 {
		t.Fatalf("line M_3 ~ M_10 pairs M_3's middle process with %d processes, want the 8 inner ones", len(in))
	}
	opts := family.CorrespondOptions(family.Line())
	opts.Workers = 1
	m, m2 := small.ReduceNormalized(in[0].I), large.ReduceNormalized(in[0].I2)
	lone := arenaChunkBytes(func() {
		if _, err := bisim.Compute(ctx, m, m2, opts); err != nil {
			t.Fatal(err)
		}
	})
	var res *bisim.IndexedResult
	all := arenaChunkBytes(func() {
		if res, err = bisim.IndexedCompute(ctx, small, large, in, opts); err != nil {
			t.Fatal(err)
		}
	})
	if failing := res.FailingPairs(); len(failing) != 0 {
		t.Fatalf("the middle process of M_3 should correspond to every inner process of M_10; %v do not", failing)
	}
	t.Logf("%d pairs: arena chunks %d bytes; a lone compute of the first pair %d", len(in), all, lone)
	if lone == 0 || all != lone {
		t.Errorf("IndexedCompute over %d pairs made %d bytes of arena chunks, want the %d of its first compute alone", len(in), all, lone)
	}
}

// arenaChunkBytes returns the bytes the arenas of f's computes allocate:
// with every allocation sampled into the heap profile, the bytes of the
// allocations made in arenaStack.take, the one place an arena allocates.
// Allocations of at most 16 bytes are left out: the runtime packs small
// pointer-free ones into shared 16-byte blocks and profiles them only when
// they start a block, which depends on what else ran on the thread.
func arenaChunkBytes(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := arenaTakeBytes()
	f()
	return arenaTakeBytes() - before
}

// arenaTakeBytes sums the heap profile's allocations made in
// arenaStack.take so far.
func arenaTakeBytes() int64 {
	// An allocation enters the profile at the end of the garbage
	// collection cycle after the one it happened in.
	runtime.GC()
	runtime.GC()
	var records []runtime.MemProfileRecord
	for n, ok := runtime.MemProfile(nil, true); !ok; {
		records = make([]runtime.MemProfileRecord, n+64)
		if n, ok = runtime.MemProfile(records, true); ok {
			records = records[:n]
		}
	}
	var sum int64
	for _, r := range records {
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			if strings.HasPrefix(f.Function, "repro/internal/bisim.(*arenaStack[") && strings.HasSuffix(f.Function, ").take") {
				if r.AllocBytes > 16*r.AllocObjects {
					sum += r.AllocBytes
				}
				break
			}
			if !more {
				break
			}
		}
	}
	return sum
}

// TestIndexedComputeSharesReachability decides ring M_3 ~ M_10 under
// ReachableOnly — ten index pairs over the reductions of two structures —
// and then asks each structure for its reachable set.  The reductions
// share their structure's cached set, so the decision has already
// computed it and the call allocates nothing; a per-pair (or per-reduction)
// search would leave the structures' own caches empty.
func TestIndexedComputeSharesReachability(t *testing.T) {
	small, err := ring.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ring.Build(10)
	if err != nil {
		t.Fatal(err)
	}
	in := family.Ring().IndexRelation(small.R, large.R)
	opts := family.CorrespondOptions(family.Ring())
	if !opts.ReachableOnly || len(in) < 3 {
		t.Fatalf("the test needs ReachableOnly and several index pairs (got %v, %d pairs)", opts.ReachableOnly, len(in))
	}
	res, err := bisim.IndexedCompute(context.Background(), small.M, large.M, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() {
		t.Fatal("M_3 and M_10 should indexed-correspond")
	}
	for _, m := range []*kripke.Structure{small.M, large.M} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reach := m.Reachable()
		runtime.ReadMemStats(&after)
		if mallocs := after.Mallocs - before.Mallocs; mallocs != 0 {
			t.Errorf("%s: Reachable allocated %d objects after IndexedCompute over %d pairs; its reductions did not share the cached set",
				m.Name(), mallocs, len(in))
		}
		if got := reach.Count(); got != m.NumStates() {
			t.Errorf("%s: %d reachable states, want all %d", m.Name(), got, m.NumStates())
		}
	}
}

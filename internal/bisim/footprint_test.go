package bisim_test

import (
	"context"
	"runtime"
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

// TestRefinerFootprint bounds what the refiner's preprocessing allocates
// for each index pair of ring M_3|i ~ M_12|j: the interned label classes,
// the strongly connected components of the silent edges, and the
// contracted adjacency in both directions.  Every one of these is an int32
// array, and the silent components are found on the structures' own
// successor rows, so the bound is 36 bytes per union state (label class,
// component, Tarjan's index, low link and on-stack flag, and per contracted
// node its size, label and two row offsets) and 8 per union transition (the
// two contracted directions at most once each), plus 64 KiB for the label
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
		limit := uint64(36*states+8*edges) + 64<<10
		t.Logf("pair %v: %d bytes for %d union states, %d transitions, %d contracted nodes (%.1f per state+edge; bound %d)",
			p, got, states, edges, cN, float64(got)/float64(states+edges), limit)
		if got > limit {
			t.Errorf("pair %v: the refiner's preprocessing allocated %d bytes for %d union states and %d transitions, above the %d-byte bound",
				p, got, states, edges, limit)
		}
	}
}

// TestDegreePassFootprint bounds what Compute allocates past its stable
// partition — the degree pass and the Result.  A pair costs its place in
// the Result's relation (8 bytes) and its bit in six row words (0.75); a
// right state's row costs at least one word in each of the six (48 bytes)
// before it holds a pair.  The first inputs are cycles compared with
// themselves, bounded at 10 bytes per pair, 128 per union state and 32 per
// union transition, plus 64 KiB: with one label (one block of
// 2,000 × 2,000 pairs) and with distinct labels (4,000 blocks of one pair
// each), so neither a per-pair table beside the relation nor an |S|·|S'|
// array fits.  The second are the index pairs of ring M_3|i ~ M_12|j, the
// shape the correspondence sweep runs: M_3's reductions have 24 states, so
// every right row is one word.  They are bounded at 8 bytes per pair, 100
// per right state (the six words, seven int32 tables and a successor-block
// entry) and 4 per union transition (the in-block predecessor lists), plus
// 64 KiB, so a copy of the right successor rows does not fit either.
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
		limit := int64(8*pairs+100*right+4*edges) + 64<<10
		t.Logf("pair %v: degree pass %d bytes for %d pairs, %d right states and %d transitions (%.1f per right state); bound %d",
			p, got, pairs, right, edges, float64(got)/float64(right), limit)
		if got > limit {
			t.Errorf("pair %v: the degree pass allocated %d bytes for %d pairs, %d right states and %d transitions, above the %d-byte bound",
				p, got, pairs, right, edges, limit)
		}
	}
}

// degreePassBytes returns what Compute(m, m2) allocates past its stable
// partition: its total allocation minus that of a run of the Stabilize
// hook.  The structures must correspond.
func degreePassBytes(t *testing.T, m, m2 *kripke.Structure, opts bisim.Options) (int64, *bisim.Result) {
	t.Helper()
	var before, mid, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bisim.Stabilize(m, m2, opts)
	runtime.ReadMemStats(&mid)
	res, err := bisim.Compute(context.Background(), m, m2, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Corresponds() {
		t.Fatalf("%s and %s must correspond", m.Name(), m2.Name())
	}
	stabilize := int64(mid.TotalAlloc - before.TotalAlloc)
	return int64(after.TotalAlloc-mid.TotalAlloc) - stabilize, res
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

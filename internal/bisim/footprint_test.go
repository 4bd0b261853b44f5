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

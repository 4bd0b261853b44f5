package family

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// TestIndexedCorrespondenceMatchesDirectBisimulation is the cross-topology
// half of the engine differential suite: for every topology and every
// index pair the cutoff analysis compares at small sizes, the indexed
// route (partition refinement behind bisim.Compute, as dispatched by
// DecideCorrespondence) must agree with a direct bisimulation check of the
// product structures' reductions by the nested-fixpoint oracle — identical
// relations and identical minimal degrees.  On top of the engine
// agreement, every computed relation is re-validated clause by clause with
// bisim.Check, an independent implementation of the definition.
func TestIndexedCorrespondenceMatchesDirectBisimulation(t *testing.T) {
	for _, topo := range Topologies() {
		small := topo.CutoffSize()
		hi := small + 2
		if topo.Name() == "torus" {
			hi = small + 4
		}
		smallM, err := topo.Build(small)
		if err != nil {
			t.Fatalf("%s: Build(%d): %v", topo.Name(), small, err)
		}
		opts := CorrespondOptions(topo)
		for _, n := range ValidSizesIn(topo, small+1, hi) {
			largeM, err := topo.Build(n)
			if err != nil {
				t.Fatalf("%s: Build(%d): %v", topo.Name(), n, err)
			}
			indexed, err := DecideBuilt(context.Background(), topo, smallM, small, largeM, n, nil, nil)
			if err != nil {
				t.Fatalf("%s: DecideBuilt(%d,%d): %v", topo.Name(), small, n, err)
			}
			for _, pair := range topo.IndexRelation(small, n) {
				label := fmt.Sprintf("%s M_%d|%d vs M_%d|%d", topo.Name(), small, pair.I, n, pair.I2)
				left := smallM.ReduceNormalized(pair.I)
				right := largeM.ReduceNormalized(pair.I2)
				oracle, err := bisim.ComputeFixpoint(context.Background(), left, right, opts)
				if err != nil {
					t.Fatalf("%s: ComputeFixpoint: %v", label, err)
				}
				got, ok := indexed.Pairs[pair]
				if !ok {
					t.Fatalf("%s: indexed result misses pair %v", label, pair)
				}
				assertSameCorrespondence(t, label, got, oracle)
				if got.Corresponds() {
					if vs := bisim.Check(left, right, got.Relation, opts); len(vs) > 0 {
						t.Fatalf("%s: computed relation fails the clause checker: %v", label, vs[0])
					}
				}
			}
		}
	}
}

// assertSameCorrespondence mirrors the ring differential suite's
// assertion: identical verdicts, dimensions, pair sets and minimal
// degrees.
func assertSameCorrespondence(t *testing.T, label string, got, want *bisim.Result) {
	t.Helper()
	if got.InitialRelated != want.InitialRelated ||
		got.TotalLeft != want.TotalLeft || got.TotalRight != want.TotalRight {
		t.Fatalf("%s: verdicts differ", label)
	}
	gn, gn2 := got.Relation.Dims()
	wn, wn2 := want.Relation.Dims()
	if gn != wn || gn2 != wn2 {
		t.Fatalf("%s: dimensions differ: %dx%d vs %dx%d", label, gn, gn2, wn, wn2)
	}
	if got.Relation.Size() != want.Relation.Size() {
		t.Fatalf("%s: pair counts differ: %d vs %d", label, got.Relation.Size(), want.Relation.Size())
	}
	for s := 0; s < gn; s++ {
		for u := 0; u < gn2; u++ {
			gd, gok := got.Relation.Degree(kripke.State(s), kripke.State(u))
			wd, wok := want.Relation.Degree(kripke.State(s), kripke.State(u))
			if gok != wok || (gok && gd != wd) {
				t.Fatalf("%s: pair (%d,%d): refined=(%d,%v) oracle=(%d,%v)", label, s, u, gd, gok, wd, wok)
			}
		}
	}
}

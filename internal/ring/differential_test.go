package ring

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// TestRefinementMatchesFixpointOnRingFixtures is the ring half of the
// engine differential suite (the randomized half lives in internal/bisim):
// on every reduction pair the cutoff analysis actually compares, the
// partition-refinement engine behind bisim.Compute and the nested-fixpoint
// oracle bisim.ComputeFixpoint must produce identical relations and
// identical minimal degrees.
func TestRefinementMatchesFixpointOnRingFixtures(t *testing.T) {
	// The options and IN relations family.Ring decides ring
	// correspondences with.
	opts := bisim.Options{OneProps: []string{PropToken}, ReachableOnly: true}
	instances := map[int]*Instance{}
	build := func(r int) *Instance {
		if inst, ok := instances[r]; ok {
			return inst
		}
		inst, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		instances[r] = inst
		return inst
	}
	for _, small := range []int{2, CutoffSize} {
		smallInst := build(small)
		for r := small + 1; r <= 6; r++ {
			largeInst := build(r)
			in := CutoffIndexRelation(small, r)
			if small == 2 {
				in = IndexRelation(small, r)
			}
			for _, pair := range in {
				left := smallInst.M.ReduceNormalized(pair.I)
				right := largeInst.M.ReduceNormalized(pair.I2)
				label := fmt.Sprintf("M_%d|%d vs M_%d|%d", small, pair.I, r, pair.I2)
				refined, err := bisim.Compute(context.Background(), left, right, opts)
				if err != nil {
					t.Fatalf("%s: Compute: %v", label, err)
				}
				oracle, err := bisim.ComputeFixpoint(context.Background(), left, right, opts)
				if err != nil {
					t.Fatalf("%s: ComputeFixpoint: %v", label, err)
				}
				assertSameCorrespondence(t, label, refined, oracle)
			}
		}
	}
}

// TestRefinementMatchesFixpointOnSelfReductions covers the quotienting
// fixtures: the maximal self-correspondence of every per-process reduction
// M_r|i used by the minimization experiment (E8).
func TestRefinementMatchesFixpointOnSelfReductions(t *testing.T) {
	opts := bisim.Options{OneProps: []string{PropToken}}
	for r := 2; r <= 5; r++ {
		inst, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		for _, i := range []int{1, 2} {
			red := inst.M.ReduceNormalized(i)
			label := fmt.Sprintf("self M_%d|%d", r, i)
			refined, err := bisim.Compute(context.Background(), red, red, opts)
			if err != nil {
				t.Fatalf("%s: Compute: %v", label, err)
			}
			oracle, err := bisim.ComputeFixpoint(context.Background(), red, red, opts)
			if err != nil {
				t.Fatalf("%s: ComputeFixpoint: %v", label, err)
			}
			assertSameCorrespondence(t, label, refined, oracle)
		}
	}
}

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

package family

import (
	"context"
	"testing"

	"repro/internal/mc"
)

// tokenTopologies returns the guarded-command families the mutation
// harness sweeps (the hand-built Section 5 ring has no rule list; its
// broken variant is exercised via ring.BuildBuggy elsewhere).
func tokenTopologies() []Topology {
	return []Topology{Star(), Line(), Tree(), Torus()}
}

// harnessLargeSize picks the size of the mutated instance: the first valid
// size strictly above the cutoff, so the harness exercises a genuine
// cutoff-vs-larger correspondence.
func harnessLargeSize(t *testing.T, topo Topology) int {
	t.Helper()
	for n := topo.CutoffSize() + 1; n <= topo.CutoffSize()+4; n++ {
		if topo.ValidSize(n) == nil {
			return n
		}
	}
	t.Fatalf("%s: no valid size above the cutoff", topo.Name())
	return 0
}

// TestMutationHarness is the "test the tester" sweep: for every
// token-circulation topology and every catalog mutation, the correct
// cutoff instance and the mutated larger instance must FAIL to
// indexed-correspond, and the failure must come with evidence replayed and
// confirmed by the model checker.  A surviving mutant would mean the
// correspondence checker cannot distinguish a broken family from the
// correct one.
func TestMutationHarness(t *testing.T) {
	ctx := context.Background()
	for _, base := range tokenTopologies() {
		small := base.CutoffSize()
		large := harnessLargeSize(t, base)
		correct, err := base.Build(small)
		if err != nil {
			t.Fatalf("%s: building correct cutoff instance: %v", base.Name(), err)
		}
		for _, m := range TokenMutations() {
			t.Run(base.Name()+"/"+m.Name, func(t *testing.T) {
				mutant, err := Mutate(base, m)
				if err != nil {
					t.Fatal(err)
				}
				broken, err := mutant.Build(large)
				if err != nil {
					t.Fatalf("building mutated instance: %v", err)
				}
				res, err := DecideBuilt(ctx, base, correct, small, broken, large, nil, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if res.Corresponds() {
					t.Fatalf("mutant %s of %s SURVIVED: correct M_%d and mutated M_%d still correspond",
						m.Name, base.Name(), small, large)
				}
				ev, err := ExplainBuilt(ctx, base, correct, small, broken, large, res)
				if err != nil {
					t.Fatalf("evidence extraction failed: %v", err)
				}
				if ev == nil || ev.Detail == nil || ev.Detail.Formula == nil {
					t.Fatalf("no distinguishing formula for killed mutant %s of %s", m.Name, base.Name())
				}
				if !ev.Confirmed {
					t.Fatalf("evidence for %s of %s not confirmed by replay: %s", m.Name, base.Name(), ev)
				}
				// Replay once more here so the harness does not depend on
				// ExplainBuilt's internal confirmation alone.
				if err := mc.ReplayEvidence(ctx, ev.Detail); err != nil {
					t.Fatalf("independent replay rejected evidence: %v", err)
				}
				t.Logf("killed: pair (%d,%d) separated by %s", ev.Pair.I, ev.Pair.I2, ev.Detail.Formula)
			})
		}
	}
}

// TestMutationHarnessCorrectBaseline pins the harness against vacuity: the
// *unmutated* instances of every topology still correspond, so the
// failures above are caused by the mutations, not by the setup.
func TestMutationHarnessCorrectBaseline(t *testing.T) {
	ctx := context.Background()
	for _, base := range tokenTopologies() {
		small := base.CutoffSize()
		large := harnessLargeSize(t, base)
		res, ev, err := decideWithEvidence(ctx, base, small, large)
		if err != nil {
			t.Fatalf("%s: %v", base.Name(), err)
		}
		if !res.Corresponds() {
			t.Fatalf("%s: correct M_%d and M_%d do not correspond; harness baseline broken (evidence: %s)",
				base.Name(), small, large, ev)
		}
		if ev != nil {
			t.Fatalf("%s: evidence attached to a holding correspondence: %s", base.Name(), ev)
		}
	}
}

// TestMutateRejectsHandBuiltTopology: the ring has no guarded-command rule
// list to mutate.
func TestMutateRejectsHandBuiltTopology(t *testing.T) {
	if _, err := Mutate(Ring(), TokenMutations()[0]); err == nil {
		t.Fatal("Mutate accepted the hand-built ring topology")
	}
}

// The mutation combinators themselves are unit-tested in
// internal/mutate/mutate_test.go; this file owns the end-to-end harness.

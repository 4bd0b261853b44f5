package family

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// encodeText renders a structure canonically for byte-identity assertions.
func encodeText(t *testing.T, m *kripke.Structure) string {
	t.Helper()
	var buf bytes.Buffer
	if err := kripke.EncodeText(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// differentialSizes returns the size grid of the parallel/quotient
// differential battery for a topology: from the minimum size through a few
// sizes past the cutoff (the torus families need wider ranges to find
// valid sizes).
func differentialSizes(t Topology) []int {
	hi := t.CutoffSize() + 3
	if t.Name() == "torus" || t.Name() == "torus3" {
		hi = t.CutoffSize() + 2*3
	}
	return ValidSizesIn(t, t.MinSize(), hi)
}

// TestParallelBuildMatchesSequential is the first half of the PR's
// differential battery: for every topology (and every mutated variant) and
// a grid of sizes, the parallel packed-BFS build is byte-identical
// (EncodeText) to the topology's sequential Build, for several worker
// counts.
func TestParallelBuildMatchesSequential(t *testing.T) {
	ctx := context.Background()
	var topos []Topology
	topos = append(topos, Topologies()...)
	for _, base := range Topologies() {
		for _, m := range TokenMutations() {
			mt, err := Mutate(base, m)
			if err != nil {
				continue // the hand-built ring has no rule list to mutate
			}
			topos = append(topos, mt)
		}
	}
	for _, topo := range topos {
		for _, n := range differentialSizes(topo) {
			if _, ok := Packed(topo, n); !ok {
				t.Fatalf("%s: no packed definition for n=%d", topo.Name(), n)
			}
			want, err := topo.Build(n)
			if err != nil {
				t.Fatalf("%s: Build(%d): %v", topo.Name(), n, err)
			}
			wantText := encodeText(t, want)
			for _, workers := range []int{1, 3, 8} {
				got, sp, err := BuildParallel(ctx, topo, n, workers)
				if err != nil {
					t.Fatalf("%s: BuildParallel(%d, workers=%d): %v", topo.Name(), n, workers, err)
				}
				if sp == nil || sp.NumStates() != got.NumStates() {
					t.Fatalf("%s n=%d workers=%d: BuildParallel returned no space matching its %d states", topo.Name(), n, workers, got.NumStates())
				}
				if gotText := encodeText(t, got); gotText != wantText {
					t.Fatalf("%s n=%d workers=%d: parallel build differs from sequential\nparallel:\n%.400s\nsequential:\n%.400s",
						topo.Name(), n, workers, gotText, wantText)
				}
			}
		}
	}
}

// TestQuotientUnfoldMatchesDirect is the second half of the battery: for
// every topology with a symmetry group and a grid of sizes, building the
// quotient and unfolding it through the witness permutations yields a
// structure fully bisimilar to the direct build (initial states related,
// relation total both ways, clause-checked), with a passing certificate
// and orbit-closed reachable sets.
func TestQuotientUnfoldMatchesDirect(t *testing.T) {
	ctx := context.Background()
	for _, topo := range Topologies() {
		for _, n := range differentialSizes(topo) {
			pi, ok := Packed(topo, n)
			if !ok {
				t.Fatalf("%s: no packed definition for n=%d", topo.Name(), n)
			}
			if pi.Group == nil {
				t.Fatalf("%s: no symmetry group wired for n=%d", topo.Name(), n)
			}
			label := fmt.Sprintf("%s n=%d group=%s", topo.Name(), n, pi.Group.Name())
			direct, err := topo.Build(n)
			if err != nil {
				t.Fatalf("%s: Build: %v", label, err)
			}
			unfolded, cert, err := BuildUnfolded(ctx, topo, n)
			if err != nil {
				t.Fatalf("%s: BuildUnfolded: %v", label, err)
			}
			if cert == nil {
				t.Fatalf("%s: no certificate from the quotient route", label)
			}
			if !cert.OrbitClosed {
				t.Fatalf("%s: reachable set is not orbit-closed", label)
			}
			if cert.States != direct.NumStates() {
				t.Fatalf("%s: unfolded %d states, direct build has %d", label, cert.States, direct.NumStates())
			}
			if cert.Reps > cert.States {
				t.Fatalf("%s: more orbits (%d) than states (%d)", label, cert.Reps, cert.States)
			}
			opts := CorrespondOptions(topo)
			res, err := bisim.Compute(ctx, direct, unfolded, opts)
			if err != nil {
				t.Fatalf("%s: Compute: %v", label, err)
			}
			if !res.InitialRelated || !res.TotalLeft || !res.TotalRight {
				t.Fatalf("%s: unfolded structure is not fully bisimilar to the direct build (initial=%v totalL=%v totalR=%v)",
					label, res.InitialRelated, res.TotalLeft, res.TotalRight)
			}
			if vs := bisim.Check(direct, unfolded, res.Relation, opts); len(vs) > 0 {
				t.Fatalf("%s: computed relation fails the clause checker: %v", label, vs[0])
			}
		}
	}
}

// TestDecideCorrespondenceUnfolded: the symmetry-reduced oracle route
// reaches the same correspondence verdicts as the classical route, with a
// live certificate, for every topology.
func TestDecideCorrespondenceUnfolded(t *testing.T) {
	ctx := context.Background()
	for _, topo := range Topologies() {
		small := topo.CutoffSize()
		sizes := ValidSizesIn(topo, small+1, small+3)
		if topo.Name() == "torus" || topo.Name() == "torus3" {
			sizes = ValidSizesIn(topo, small+1, small+2*3)
		}
		for _, n := range sizes {
			want, err := DecideCorrespondence(ctx, topo, small, n)
			if err != nil {
				t.Fatalf("%s: DecideCorrespondence(%d,%d): %v", topo.Name(), small, n, err)
			}
			got, cert, err := DecideCorrespondenceUnfolded(ctx, topo, small, n)
			if err != nil {
				t.Fatalf("%s: DecideCorrespondenceUnfolded(%d,%d): %v", topo.Name(), small, n, err)
			}
			if cert == nil {
				t.Fatalf("%s n=%d: no certificate from the unfolded route", topo.Name(), n)
			}
			if got.Corresponds() != want.Corresponds() {
				t.Fatalf("%s n=%d: unfolded route says corresponds=%v, direct route says %v",
					topo.Name(), n, got.Corresponds(), want.Corresponds())
			}
			if len(got.Pairs) != len(want.Pairs) {
				t.Fatalf("%s n=%d: pair counts differ: %d vs %d", topo.Name(), n, len(got.Pairs), len(want.Pairs))
			}
		}
	}
}

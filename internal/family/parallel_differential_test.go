package family

import (
	"bytes"
	"context"
	"testing"

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

// differentialSizes returns the size grid of the parallel
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

// TestParallelBuildMatchesSequential is the parallel ≡ sequential
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

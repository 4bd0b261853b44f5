package symmetry_test

import (
	"context"
	"slices"
	"testing"

	"repro/internal/explore"
	"repro/internal/family"
	"repro/internal/symmetry"
)

// TestQuotientDefMatchesCanonicalisedSpace: exploring the lifted
// QuotientDef enumerates exactly the canonical images of the directly
// explored codes — one representative per reachable orbit, none missing,
// none extra — for every topology's group at small sizes and at one and
// two workers.
func TestQuotientDefMatchesCanonicalisedSpace(t *testing.T) {
	ctx := context.Background()
	for _, topo := range family.Topologies() {
		hi := topo.CutoffSize() + 2
		if topo.Name() == "torus" || topo.Name() == "torus3" {
			hi = topo.CutoffSize() + 6
		}
		for _, n := range family.ValidSizesIn(topo, topo.MinSize(), hi) {
			pi, ok := family.Packed(topo, n)
			if !ok || pi.Group == nil {
				t.Fatalf("%s: no packed definition with a group for n=%d", topo.Name(), n)
			}
			g := pi.Group
			direct, err := explore.Explore(ctx, pi.Def, explore.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var want []uint64
			for _, c := range direct.Codes() {
				want = append(want, g.Canon(c))
			}
			slices.Sort(want)
			want = slices.Compact(want)
			for _, workers := range []int{1, 2} {
				sp, err := explore.Explore(ctx, symmetry.QuotientDef(pi.Def, g), explore.Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				got := slices.Clone(sp.Codes())
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("%s n=%d workers=%d: the quotient explores %d representatives, the canonicalised space has %d orbits",
						topo.Name(), n, workers, len(got), len(want))
				}
			}
		}
	}
}

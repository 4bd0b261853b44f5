package family

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/ring"
	"repro/internal/symmetry"
)

// orbitPairsMax is the largest instance the orbit-pair differential
// decides.
const orbitPairsMax = 10

// builtWithAction builds the packed instance with one worker and returns
// it with the action of group on it, or the verification error.
func builtWithAction(t *testing.T, pi PackedInstance, group *symmetry.Group) (*kripke.Structure, *kripke.IndexAction, error) {
	t.Helper()
	m, sp := buildWithSpace(t, pi)
	pi.Group = group
	a, err := pi.IndexAction(context.Background(), sp, m)
	return m, a, err
}

// topologyInstance builds the topology's size-n instance with its action.
func topologyInstance(t *testing.T, topo Topology, n int) (*kripke.Structure, *kripke.IndexAction) {
	t.Helper()
	pi, ok := Packed(topo, n)
	if !ok || pi.Group == nil {
		t.Fatalf("%s[%d]: no packed instance with a group", topo.Name(), n)
	}
	m, a, err := builtWithAction(t, pi, pi.Group)
	if err != nil {
		t.Fatal(err)
	}
	return m, a
}

// orbitPairClasses returns the number of orbit classes of in: pair (i, j)
// belongs to the class of its indices' orbit representatives under the
// actions (nil: every index is its own orbit).
func orbitPairClasses(t *testing.T, in []bisim.IndexPair, left, right *kripke.IndexAction) int {
	t.Helper()
	rep := func(a *kripke.IndexAction, i int) int {
		if a == nil {
			return i
		}
		k, ok := slices.BinarySearch(a.Structure().IndexValues(), i)
		if !ok {
			t.Fatalf("index %d is not an index of %s", i, a.Structure().Name())
		}
		return a.Representatives()[a.Orbit(k)]
	}
	classes := make(map[bisim.IndexPair]bool)
	for _, p := range in {
		classes[bisim.IndexPair{I: rep(left, p.I), I2: rep(right, p.I2)}] = true
	}
	return len(classes)
}

// orbitPairCase is one correspondence of the differential.
type orbitPairCase struct {
	name           string
	topo           Topology // the IN relation and the compared vocabulary
	small, large   int
	sm, lg         *kripke.Structure
	smAct, lgAct   *kripke.IndexAction
	wantCorrespond bool
}

// TestOrbitPairsMatchPerPairCompute pins the orbit decision of index
// pairs to the per-pair decision: on every topology at sizes cutoff..10,
// on the paper's refuted ring M_2, on the buggy ring and on every token
// mutation, IndexedCompute with both instances' verified actions returns
// byte-identical relations (AppendCSR), initial-state verdicts, totality
// flags, failing pairs and ExplainIndexed evidence as without them, and
// runs exactly one Compute per orbit class of the IN relation — one per
// ring cell.
func TestOrbitPairsMatchPerPairCompute(t *testing.T) {
	var cases []orbitPairCase
	for _, topo := range Topologies() {
		c := topo.CutoffSize()
		sm, smAct := topologyInstance(t, topo, c)
		for _, n := range ValidSizesIn(topo, c, orbitPairsMax) {
			lg, lgAct := topologyInstance(t, topo, n)
			cases = append(cases, orbitPairCase{fmt.Sprintf("%s %d~%d", topo.Name(), c, n), topo, c, n, sm, lg, smAct, lgAct, true})
		}
	}
	ringGroup := func(n int) *symmetry.Group { return symmetry.Cyclic(n, 2) }
	m2, a2 := topologyInstance(t, Ring(), 2)
	m3, a3 := topologyInstance(t, Ring(), ring.CutoffSize)
	for _, n := range []int{4, 6} {
		lg, lgAct := topologyInstance(t, Ring(), n)
		cases = append(cases, orbitPairCase{fmt.Sprintf("ring 2~%d", n), Ring(), 2, n, m2, lg, a2, lgAct, false})
		// ring.BuildBuggy is this exploration, without the space.
		buggy, buggyAct, err := builtWithAction(t, PackedInstance{Def: ring.PackedDefBuggy(n), MakeTotal: true}, ringGroup(n))
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, orbitPairCase{fmt.Sprintf("ring 3~buggy %d", n), Ring(), ring.CutoffSize, n, m3, buggy, a3, buggyAct, false})
	}
	mutantActions := 0
	for _, base := range tokenTopologies() {
		c := base.CutoffSize()
		n := harnessLargeSize(t, base)
		sm, smAct := topologyInstance(t, base, c)
		for _, mu := range TokenMutations() {
			mutant, err := Mutate(base, mu)
			if err != nil {
				t.Fatal(err)
			}
			pi, ok := Packed(mutant, n)
			if !ok {
				t.Fatalf("%s[%d]: no packed instance", mutant.Name(), n)
			}
			// A mutation rewrites every process's rules alike, but it
			// may make the images of the initial state unreachable (the
			// line's reversal moves the token to the far end, where
			// swap-token-pass never takes it); such a mutant is compared
			// with the small instance's action alone.
			basePI, _ := Packed(base, n)
			lg, lgAct, err := builtWithAction(t, pi, basePI.Group)
			if err != nil {
				t.Logf("%s[%d]: no action: %v", mutant.Name(), n, err)
			} else {
				mutantActions++
			}
			cases = append(cases, orbitPairCase{fmt.Sprintf("%s %d~%d", mutant.Name(), c, n), base, c, n, sm, lg, smAct, lgAct, false})
		}
	}

	if mutantActions == 0 {
		t.Fatal("no mutant has a verified action; the failing correspondences never take the orbit path on both sides")
	}

	ctx := context.Background()
	for _, tc := range cases {
		in := tc.topo.IndexRelation(tc.small, tc.large)
		before := bisim.ComputeCalls()
		want, err := DecideBuilt(ctx, tc.topo, tc.sm, tc.small, tc.lg, tc.large, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		mid := bisim.ComputeCalls()
		got, err := DecideBuilt(ctx, tc.topo, tc.sm, tc.small, tc.lg, tc.large, tc.smAct, tc.lgAct)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		perPair, orbit := mid-before, bisim.ComputeCalls()-mid
		classes := orbitPairClasses(t, in, tc.smAct, tc.lgAct)
		if perPair != int64(len(in)) || orbit != int64(classes) {
			t.Errorf("%s: %d computes per pair and %d with actions, want %d and %d (orbit classes)", tc.name, perPair, orbit, len(in), classes)
		}
		if tc.topo.Name() == "ring" && orbit != 1 {
			t.Errorf("%s: %d computes with actions, want 1 per ring cell", tc.name, orbit)
		}
		if want.Corresponds() != tc.wantCorrespond {
			t.Fatalf("%s: corresponds = %v, want %v", tc.name, want.Corresponds(), tc.wantCorrespond)
		}
		assertSameIndexedResult(t, tc.name, got, want)
		gotEv, err := explainIndexed(ctx, tc, got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		wantEv, err := explainIndexed(ctx, tc, want)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if gotEv != wantEv {
			t.Errorf("%s: evidence with actions\n  %s\nwithout\n  %s", tc.name, gotEv, wantEv)
		}
	}
}

// assertSameIndexedResult requires identical pairs, relation bytes,
// verdicts and failing pairs.
func assertSameIndexedResult(t *testing.T, label string, got, want *bisim.IndexedResult) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got.Pairs), len(want.Pairs))
	}
	for p, w := range want.Pairs {
		g, ok := got.Pairs[p]
		if !ok {
			t.Fatalf("%s: pair %v missing", label, p)
		}
		if !bytes.Equal(g.Relation.AppendCSR(nil), w.Relation.AppendCSR(nil)) {
			t.Fatalf("%s: pair %v: relations differ", label, p)
		}
		if g.InitialRelated != w.InitialRelated || g.TotalLeft != w.TotalLeft || g.TotalRight != w.TotalRight {
			t.Fatalf("%s: pair %v: verdict (%v %v %v), want (%v %v %v)", label, p,
				g.InitialRelated, g.TotalLeft, g.TotalRight, w.InitialRelated, w.TotalLeft, w.TotalRight)
		}
	}
	if !slices.Equal(got.FailingPairs(), want.FailingPairs()) {
		t.Fatalf("%s: failing pairs %v, want %v", label, got.FailingPairs(), want.FailingPairs())
	}
	if got.INTotalLeft != want.INTotalLeft || got.INTotalRight != want.INTotalRight {
		t.Fatalf("%s: IN totality differs", label)
	}
}

// explainIndexed renders ExplainIndexed's evidence for res: the pair, the
// formula with its states and structures, and the game path.
func explainIndexed(ctx context.Context, tc orbitPairCase, res *bisim.IndexedResult) (string, error) {
	ev, pair, err := bisim.ExplainIndexed(ctx, tc.sm, tc.lg, res, CorrespondOptions(tc.topo))
	if err != nil || ev == nil {
		return "", err
	}
	return fmt.Sprintf("%v %s path=%v side=%s loop=%d", pair, ev, ev.GamePath, ev.GameSide, ev.GameLoop), nil
}

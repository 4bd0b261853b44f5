package family

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/bisim"
	"repro/internal/explore"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/ring"
)

func TestTopologyRegistry(t *testing.T) {
	topos := Topologies()
	if len(topos) != 6 {
		t.Fatalf("Topologies has %d entries, want 6", len(topos))
	}
	if topos[0].Name() != "ring" {
		t.Fatalf("first topology is %q, want the ring (the paper's own family comes first)", topos[0].Name())
	}
	wantNames := []string{"ring", "star", "line", "tree", "torus", "torus3"}
	for i, name := range Names() {
		if name != wantNames[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, name, wantNames[i])
		}
	}
	for _, name := range wantNames {
		topo, ok := ByName(name)
		if !ok || topo.Name() != name {
			t.Fatalf("ByName(%q) = %v, %v", name, topo, ok)
		}
	}
	if _, ok := ByName("moebius"); ok {
		t.Fatal("ByName should not resolve unknown topologies")
	}
}

// TestTokenInstancesShape pins the state space of the token-circulation
// families: Θ(n) global states (token position × holder phase), a total
// transition relation, and exactly one token holder in every reachable
// state.
func TestTokenInstancesShape(t *testing.T) {
	for _, topo := range Topologies() {
		if topo.Name() == "ring" {
			continue // the ring's r·2^r shape is pinned in internal/ring
		}
		for _, n := range ValidSizesIn(topo, topo.MinSize(), 9) {
			m, err := topo.Build(n)
			if err != nil {
				t.Fatalf("%s: Build(%d): %v", topo.Name(), n, err)
			}
			if got, want := m.NumStates(), 2*n; got != want {
				t.Errorf("%s[%d]: %d states, want token position × holder phase = %d", topo.Name(), n, got, want)
			}
			if !m.IsTotal() {
				t.Errorf("%s[%d]: transition relation is not total", topo.Name(), n)
			}
			for _, s := range m.States() {
				if !m.ExactlyOne(s, ring.PropToken) {
					t.Errorf("%s[%d]: state %d does not have exactly one token holder", topo.Name(), n, s)
				}
			}
		}
	}
}

// TestTokenDefDeclaresExactSizes: every token topology's definition
// declares exactly the states and transitions its exploration finds, at
// every valid size from 4 to 40 (one-word and interned codes alike), and a
// mutated variant, whose reachable space the closed form does not describe,
// declares none.
func TestTokenDefDeclaresExactSizes(t *testing.T) {
	for _, topo := range Topologies()[1:] {
		for _, n := range ValidSizesIn(topo, 4, 40) {
			pi, ok := Packed(topo, n)
			if !ok {
				t.Fatalf("%s[%d]: no definition", topo.Name(), n)
			}
			sp, err := explore.Explore(context.Background(), pi.Def, explore.Options{})
			if err != nil {
				t.Fatalf("%s[%d]: %v", topo.Name(), n, err)
			}
			if pi.Def.States != sp.NumStates() || pi.Def.Transitions != sp.NumTransitions() {
				t.Errorf("%s[%d]: declares %d states and %d transitions, explored %d and %d",
					topo.Name(), n, pi.Def.States, pi.Def.Transitions, sp.NumStates(), sp.NumTransitions())
			}
		}
		for _, m := range TokenMutations() {
			mutant, err := Mutate(topo, m)
			if err != nil {
				t.Fatal(err)
			}
			pi, ok := Packed(mutant, mutant.MinSize())
			if !ok {
				t.Fatalf("%s[%d]: no definition", mutant.Name(), mutant.MinSize())
			}
			if pi.Def.States != 0 || pi.Def.Transitions != 0 {
				t.Errorf("%s: declares %d states and %d transitions, want none",
					mutant.Name(), pi.Def.States, pi.Def.Transitions)
			}
		}
	}
}

func TestValidSize(t *testing.T) {
	torus := Torus()
	if err := torus.ValidSize(5); err == nil {
		t.Error("torus must reject odd sizes (2-row torus)")
	}
	if err := torus.ValidSize(2); err == nil {
		t.Error("torus must reject sizes below a 2x2 torus")
	}
	if err := torus.ValidSize(8); err != nil {
		t.Errorf("torus must accept 8 processes: %v", err)
	}
	if _, err := torus.Build(7); err == nil {
		t.Error("Build must refuse invalid sizes")
	}
	if sizes := ValidSizesIn(torus, 4, 9); fmt.Sprint(sizes) != "[4 6 8]" {
		t.Errorf("torus valid sizes in [4,9] = %v, want [4 6 8]", sizes)
	}
	line := Line()
	if err := line.ValidSize(1); err == nil {
		t.Error("line must reject a single process")
	}
}

// TestSpecsHoldOnCutoffInstances model checks every topology's
// specifications on its cutoff instance — step 1 of the paper's
// methodology — and asserts each specification is a closed formula of the
// restricted fragment, so that Theorem 5 (step 3) applies to it.
func TestSpecsHoldOnCutoffInstances(t *testing.T) {
	for _, topo := range Topologies() {
		m, err := topo.Build(topo.CutoffSize())
		if err != nil {
			t.Fatalf("%s: Build(cutoff %d): %v", topo.Name(), topo.CutoffSize(), err)
		}
		checker := mc.New(m)
		for _, spec := range topo.Specs() {
			if issues := logic.CheckRestricted(spec.Formula); len(issues) > 0 {
				t.Errorf("%s: spec %s is outside the restricted fragment: %v", topo.Name(), spec.Name, issues)
			}
			if !logic.IsClosed(spec.Formula) {
				t.Errorf("%s: spec %s is not closed", topo.Name(), spec.Name)
			}
			holds, err := checker.Holds(context.Background(), spec.Formula)
			if err != nil {
				t.Fatalf("%s: checking %s: %v", topo.Name(), spec.Name, err)
			}
			if !holds {
				t.Errorf("%s: spec %s fails on the cutoff instance", topo.Name(), spec.Name)
			}
		}
	}
}

// TestCutoffCorrespondences is step 2 of the methodology for every
// topology: the cutoff instance indexed-corresponds to each larger
// instance the test can afford, so the specifications checked above
// transfer to those sizes by Theorem 5.
func TestCutoffCorrespondences(t *testing.T) {
	for _, topo := range Topologies() {
		small := topo.CutoffSize()
		hi := small + 4
		if topo.Name() == "torus" {
			hi = small + 6 // only every other size is valid
		}
		if topo.Name() == "torus3" {
			hi = small + 6 // only every third size is valid; reaches the 3×4 torus
		}
		for _, n := range ValidSizesIn(topo, small+1, hi) {
			res, err := DecideCorrespondence(context.Background(), topo, small, n)
			if err != nil {
				t.Fatalf("%s: %d ~ %d: %v", topo.Name(), small, n, err)
			}
			if !res.Corresponds() {
				t.Errorf("%s: cutoff instance M_%d must correspond to M_%d; failing pairs %v",
					topo.Name(), small, n, res.FailingPairs())
			}
		}
	}
}

// TestTwoProcessCutoffContrast records the reproduction's finding about
// the generalised families: the requestless token-circulation protocols
// have a genuine two-process cutoff (star, line and tree instances of size
// 2 correspond to every larger size checked), whereas the ring's
// request/grant protocol — with its delayed set D — does not, which is
// exactly the Section 5 claim the reproduction refutes.
func TestTwoProcessCutoffContrast(t *testing.T) {
	for _, name := range []string{"star", "line", "tree"} {
		topo, _ := ByName(name)
		for n := 3; n <= 6; n++ {
			res, err := DecideCorrespondence(context.Background(), topo, 2, n)
			if err != nil {
				t.Fatalf("%s: 2 ~ %d: %v", name, n, err)
			}
			if !res.Corresponds() {
				t.Errorf("%s: the requestless protocol's two-process instance should correspond to M_%d", name, n)
			}
		}
	}
	rg := Ring()
	res, err := DecideCorrespondence(context.Background(), rg, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corresponds() {
		t.Error("ring: M_2 must not correspond to M_4 (the refuted Section 5 claim)")
	}
}

// TestIndexRelationsAreTotal checks the inductive step's well-formedness:
// every topology's IN relation covers both index sets, which Theorem 5
// requires.
func TestIndexRelationsAreTotal(t *testing.T) {
	for _, topo := range Topologies() {
		small := topo.CutoffSize()
		for _, n := range ValidSizesIn(topo, small, small+5) {
			in := topo.IndexRelation(small, n)
			left := map[int]bool{}
			right := map[int]bool{}
			for _, p := range in {
				if p.I < 1 || p.I > small || p.I2 < 1 || p.I2 > n {
					t.Fatalf("%s: IndexRelation(%d,%d) names out-of-range pair %v", topo.Name(), small, n, p)
				}
				left[p.I] = true
				right[p.I2] = true
			}
			if len(left) != small || len(right) != n {
				t.Errorf("%s: IndexRelation(%d,%d) is not total: covers %d/%d small and %d/%d large indices",
					topo.Name(), small, n, len(left), small, len(right), n)
			}
		}
	}
}

func TestLineIndexRelationPinsEnds(t *testing.T) {
	in := lineIndexRelation(3, 6)
	want := []bisim.IndexPair{{I: 1, I2: 1}, {I: 2, I2: 2}, {I: 2, I2: 3}, {I: 2, I2: 4}, {I: 2, I2: 5}, {I: 3, I2: 6}}
	if len(in) != len(want) {
		t.Fatalf("lineIndexRelation(3,6) = %v, want %v", in, want)
	}
	for i := range in {
		if in[i] != want[i] {
			t.Fatalf("lineIndexRelation(3,6)[%d] = %v, want %v", i, in[i], want[i])
		}
	}
	// Identity at equal sizes, fold-back below three processes.
	if got := lineIndexRelation(3, 3); len(got) != 3 {
		t.Errorf("lineIndexRelation(3,3) = %v, want the identity", got)
	}
	if got, want := fmt.Sprint(lineIndexRelation(2, 4)), fmt.Sprint(foldedIndexRelation(2, 4)); got != want {
		t.Errorf("lineIndexRelation(2,4) = %v, want the folded relation %v", got, want)
	}
}

// TestRingAdapterMatchesRingPackage pins the adapter to the hand-built
// Section 5 ingredients it is made of: its build is byte-identical to
// ring.Build's structure, and its IN relation is the cutoff relation.
func TestRingAdapterMatchesRingPackage(t *testing.T) {
	rg := Ring()
	if rg.CutoffSize() != ring.CutoffSize {
		t.Fatalf("ring cutoff = %d, want %d", rg.CutoffSize(), ring.CutoffSize)
	}
	m, err := rg.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := ring.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := kripke.EncodeText(&got, m); err != nil {
		t.Fatal(err)
	}
	if err := kripke.EncodeText(&want, inst.M); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("ring adapter builds a different structure than ring.Build")
	}
	in := rg.IndexRelation(3, 5)
	if want := ring.CutoffIndexRelation(3, 5); fmt.Sprint(in) != fmt.Sprint(want) {
		t.Errorf("ring adapter index relation %v, want %v", in, want)
	}
}

// TestDecideCorrespondenceMatchesManualRoute pins the ring's decision
// through DecideCorrespondence to the spelled-out IndexedCompute call, and
// the two-process comparison to the Section 5 relation.
func TestDecideCorrespondenceMatchesManualRoute(t *testing.T) {
	ctx := context.Background()
	viaHelper, err := DecideCorrespondence(ctx, Ring(), ring.CutoffSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	small, err := ring.Build(ring.CutoffSize)
	if err != nil {
		t.Fatal(err)
	}
	large, err := ring.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := bisim.IndexedCompute(ctx, small.M, large.M, ring.CutoffIndexRelation(ring.CutoffSize, 5),
		bisim.Options{OneProps: []string{ring.PropToken}, ReachableOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if viaHelper.Corresponds() != manual.Corresponds() {
		t.Fatal("helper and manual route disagree")
	}
	if viaHelper.Len() != manual.Len() {
		t.Fatalf("pair counts differ: %d vs %d", viaHelper.Len(), manual.Len())
	}
	in2 := Ring().IndexRelation(2, 5)
	if want := ring.IndexRelation(2, 5); fmt.Sprint(in2) != fmt.Sprint(want) {
		t.Fatalf("Ring().IndexRelation(2,5) = %v, want the Section 5 relation %v", in2, want)
	}
}

// TestBuildDeterminism: two builds of the same instance are identical state
// for state — the property the session caches and transfer certificates
// rely on.
func TestBuildDeterminism(t *testing.T) {
	for _, topo := range Topologies() {
		n := topo.CutoffSize() + 1
		for topo.ValidSize(n) != nil {
			n++
		}
		a, err := topo.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		b, err := topo.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if a.NumStates() != b.NumStates() || a.NumTransitions() != b.NumTransitions() {
			t.Fatalf("%s[%d]: builds disagree on shape", topo.Name(), n)
		}
		for _, s := range a.States() {
			if a.LabelKey(s) != b.LabelKey(s) {
				t.Fatalf("%s[%d]: state %d labelled differently across builds", topo.Name(), n, s)
			}
			if fmt.Sprint(a.Succ(s)) != fmt.Sprint(b.Succ(s)) {
				t.Fatalf("%s[%d]: state %d has different successors across builds", topo.Name(), n, s)
			}
		}
	}
}

// TestBuildParallelRefusesOversizedRing: the packed route refuses rings
// beyond the explicit-construction budget up front with the sequential
// Build's typed error, instead of exploring up to the state cap.
func TestBuildParallelRefusesOversizedRing(t *testing.T) {
	for _, n := range []int{17, 25, 40} {
		if _, _, err := BuildParallel(context.Background(), Ring(), n, 1); !errors.Is(err, ring.ErrTooLarge) {
			t.Errorf("BuildParallel(ring, %d) err = %v, want ring.ErrTooLarge", n, err)
		}
	}
}

// TestBuildParallelFallbackHonoursDeadline: a token topology too wide to
// pack into a word explores interned codes at a cost per state that grows
// about as n²; one worker must stop at the caller's deadline instead of
// finishing the level, let alone the build.
func TestBuildParallelFallbackHonoursDeadline(t *testing.T) {
	const n = 600
	if pi, ok := Packed(Star(), n); !ok || pi.Group != nil {
		t.Fatalf("star[%d] should have a definition over interned codes (ok = %v)", n, ok)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := BuildParallel(ctx, Star(), n, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("BuildParallel(star, %d) err = %v, want context.DeadlineExceeded", n, err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("BuildParallel(star, %d) returned after %v, want within 1s of a 100ms deadline", n, elapsed)
	}
}

// TestPackedErrors: every size a topology has no definition for is an
// error that says why — an invalid size gets its ValidSize refusal, a ring
// past the 31 processes its packing serves gets ring.ErrTooLarge — and
// every valid size has a definition.
func TestPackedErrors(t *testing.T) {
	for _, c := range []struct {
		topo Topology
		n    int
	}{{Ring(), 1}, {Ring(), 40}, {Star(), 1}, {Torus(), 7}} {
		if _, err := c.topo.Packed(c.n); err == nil {
			t.Errorf("%s.Packed(%d) err = nil, want an error", c.topo.Name(), c.n)
		}
	}
	if _, err := Ring().Packed(40); !errors.Is(err, ring.ErrTooLarge) {
		t.Errorf("ring.Packed(40) err = %v, want ring.ErrTooLarge", err)
	}
	for _, topo := range Topologies() {
		if _, err := topo.Packed(topo.CutoffSize()); err != nil {
			t.Errorf("%s.Packed(%d): %v", topo.Name(), topo.CutoffSize(), err)
		}
	}
}

// TestRingRejectsOneProcess: the ring family starts at two processes, so
// building its one-process instance is the ValidSize error, by either
// route, not a two-state M_1.
func TestRingRejectsOneProcess(t *testing.T) {
	want := Ring().ValidSize(1)
	if want == nil {
		t.Fatal("ring.ValidSize(1) should reject the size")
	}
	if m, err := Ring().Build(1); err == nil {
		t.Errorf("ring.Build(1) built %d states, want an error", m.NumStates())
	}
	for _, workers := range []int{1, 2} {
		if _, _, err := BuildParallel(context.Background(), Ring(), 1, workers); err == nil || err.Error() != "family: "+want.Error() {
			t.Errorf("BuildParallel(ring, 1, %d) err = %v, want the ValidSize error %q", workers, err, want)
		}
	}
}

// TestDecideCorrespondenceHonoursDeadline: both instance builds run under
// the caller's context, so a deadline stops a large interned-code build
// instead of waiting for it to finish.
func TestDecideCorrespondenceHonoursDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := DecideCorrespondence(ctx, Star(), 3, 400)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DecideCorrespondence(star, 3, 400) err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("DecideCorrespondence(star, 3, 400) returned after %v, want within 1s of a 100ms deadline", elapsed)
	}
}

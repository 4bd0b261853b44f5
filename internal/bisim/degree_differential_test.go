package bisim_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/ring"
)

// This is the differential battery for Compute's degree pass.  Once the
// partition is stable, the input's shape picks one of three routes to the
// minimal degrees:
//
//   - packed: maskedFinishPacked, the default whenever every block holds at
//     most 64 left states and there are at most 64 blocks;
//   - masked: maskedFinish, taken when some block holds more than 64 left
//     states (forced on any input by bisim.SetPackedLeftLimit(0));
//   - generic: pruneAndFinish, taken past 64 blocks (forced by
//     bisim.SetMaskDegreeBlockLimit(0)).
//
// Every route must reproduce the nested-fixpoint oracle ComputeFixpoint
// field for field — the same pair set, the same minimal degree for every
// pair, the same verdicts — and the packed and masked routes must also
// agree on the work counters.  A separate test pins IndexedCompute, whose
// pair pool is the only place Options.Workers still matters, as
// byte-identical at every worker count.

// degreeRoutes lists the routes and the hook settings that force each one.
var degreeRoutes = []struct {
	name                   string
	packedLeft, maskBlocks int // -1 keeps the engine's default
}{
	{"packed", -1, -1},
	{"masked", 0, -1},
	{"generic", -1, 0},
}

// computeVia runs Compute with the hooks set for one degree route and
// restores them afterwards.
func computeVia(t *testing.T, packedLeft, maskBlocks int, m, m2 *kripke.Structure, opts bisim.Options) *bisim.Result {
	t.Helper()
	if packedLeft >= 0 {
		defer bisim.SetPackedLeftLimit(bisim.SetPackedLeftLimit(packedLeft))
	}
	if maskBlocks >= 0 {
		defer bisim.SetMaskDegreeBlockLimit(bisim.SetMaskDegreeBlockLimit(maskBlocks))
	}
	res, err := bisim.Compute(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return res
}

// assertRoutesMatchOracle computes the correspondence along every degree
// route and fails unless each matches the oracle, and the packed and masked
// routes report the same work counters.  The generic route's and the
// oracle's outer-loop accounting legitimately differ, so only their
// relations and verdicts are compared.
func assertRoutesMatchOracle(t *testing.T, label string, m, m2 *kripke.Structure, opts bisim.Options) {
	t.Helper()
	oracle, err := bisim.ComputeFixpoint(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("%s: ComputeFixpoint: %v", label, err)
	}
	got := make(map[string]*bisim.Result, len(degreeRoutes))
	for _, route := range degreeRoutes {
		res := computeVia(t, route.packedLeft, route.maskBlocks, m, m2, opts)
		assertSameResult(t, label+"/"+route.name, res, oracle)
		got[route.name] = res
	}
	packed, masked := got["packed"], got["masked"]
	if packed.OuterIterations != masked.OuterIterations || packed.DegreeRounds != masked.DegreeRounds {
		t.Fatalf("%s: work counters differ: packed={outer %d rounds %d} masked={outer %d rounds %d}",
			label, packed.OuterIterations, packed.DegreeRounds, masked.OuterIterations, masked.DegreeRounds)
	}
}

func TestDegreeRoutesMatchOracleOnNamedStructures(t *testing.T) {
	cycle := twoStateCycle(t)
	for stutter := 0; stutter <= 4; stutter++ {
		other := stutteredCycle(t, stutter)
		assertRoutesMatchOracle(t, fmt.Sprintf("cycle/stutter=%d", stutter), cycle, other, bisim.Options{})
		assertRoutesMatchOracle(t, fmt.Sprintf("stutter=%d/self", stutter), other, other, bisim.Options{})
	}
	// The paper's workload: reductions of ring instances, compared under
	// the index relation and options the cutoff decision uses.
	for _, sizes := range [][2]int{{2, 3}, {3, 4}, {3, 5}} {
		small, err := ring.Build(sizes[0])
		must(t, err)
		large, err := ring.Build(sizes[1])
		must(t, err)
		for _, p := range family.Ring().IndexRelation(sizes[0], sizes[1]) {
			assertRoutesMatchOracle(t, fmt.Sprintf("M_%d|%d vs M_%d|%d", sizes[0], p.I, sizes[1], p.I2),
				small.M.ReduceNormalized(p.I), large.M.ReduceNormalized(p.I2), family.CorrespondOptions(family.Ring()))
		}
	}
}

func TestDegreeRoutesMatchOracleOnRandomStructures(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		props := 1 + r.Intn(2)
		m1 := randomStructure(r, 2+r.Intn(12), props, "left")
		m2 := randomStructure(r, 2+r.Intn(12), props, "right")
		label := fmt.Sprintf("iter=%d", iter)
		assertRoutesMatchOracle(t, label, m1, m2, bisim.Options{})
		assertRoutesMatchOracle(t, label+"/reachable-only", m1, m2, bisim.Options{ReachableOnly: true})
	}
}

func TestDegreeRoutesMatchOracleOnSelfComparison(t *testing.T) {
	// Self-comparison is the quotienting workload (bisim.Minimize): large
	// same-block groups, lots of exact matches in round 0.
	r := rand.New(rand.NewSource(80620262))
	for iter := 0; iter < 25; iter++ {
		m := randomStructure(r, 2+r.Intn(10), 2, "self")
		assertRoutesMatchOracle(t, fmt.Sprintf("self iter=%d", iter), m, m, bisim.Options{})
	}
}

func TestDegreeRoutesMatchOracleWithOneProps(t *testing.T) {
	// "Exactly one" atoms in the label comparison exercise the interned
	// class keys and the indexed-correspondence block shapes.
	r := rand.New(rand.NewSource(31415))
	for iter := 0; iter < 20; iter++ {
		m1 := randomStructure(r, 3+r.Intn(8), 2, "left")
		m2 := randomStructure(r, 3+r.Intn(8), 2, "right")
		opts := bisim.Options{OneProps: []string{"a"}}
		assertRoutesMatchOracle(t, fmt.Sprintf("oneprops iter=%d", iter), m1, m2, opts)
	}
}

// assertWorkersImmaterial checks that Compute ignores Options.Workers: the
// result at every worker count must be identical, work counters included,
// to the one at Workers 0, which must itself match the oracle.
func assertWorkersImmaterial(t *testing.T, label string, m, m2 *kripke.Structure, opts bisim.Options) {
	t.Helper()
	opts.Workers = 0
	want := computeVia(t, -1, -1, m, m2, opts)
	oracle, err := bisim.ComputeFixpoint(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("%s: ComputeFixpoint: %v", label, err)
	}
	assertSameResult(t, label+"/oracle", want, oracle)
	for _, w := range []int{1, 2, 4, 8} {
		opts.Workers = w
		got := computeVia(t, -1, -1, m, m2, opts)
		wl := fmt.Sprintf("%s workers=%d", label, w)
		assertSameResult(t, wl, got, want)
		if got.OuterIterations != want.OuterIterations || got.DegreeRounds != want.DegreeRounds {
			t.Fatalf("%s: work counters differ: got={outer %d rounds %d} workers=0={outer %d rounds %d}",
				wl, got.OuterIterations, got.DegreeRounds, want.OuterIterations, want.DegreeRounds)
		}
	}
}

// TestParallelRefinerMatchesSequentialOnRandomStructures pins that a
// Workers setting never changes what Compute returns on random inputs.
func TestParallelRefinerMatchesSequentialOnRandomStructures(t *testing.T) {
	r := rand.New(rand.NewSource(20260807))
	iters := 30
	if testing.Short() {
		iters = 10
	}
	for iter := 0; iter < iters; iter++ {
		props := 1 + r.Intn(2)
		m1 := randomStructure(r, 2+r.Intn(12), props, "left")
		m2 := randomStructure(r, 2+r.Intn(12), props, "right")
		label := fmt.Sprintf("iter=%d", iter)
		assertWorkersImmaterial(t, label, m1, m2, bisim.Options{})
		assertWorkersImmaterial(t, label+"/reachable-only", m1, m2, bisim.Options{ReachableOnly: true})
	}
}

// TestParallelRefinerGenericDegreePath forces the generic prune-and-finish
// route (the packed and masked finishes both step aside) by shrinking the
// mask limit to zero, and checks it against the oracle at every worker
// count.
func TestParallelRefinerGenericDegreePath(t *testing.T) {
	defer bisim.SetMaskDegreeBlockLimit(bisim.SetMaskDegreeBlockLimit(0))
	r := rand.New(rand.NewSource(271828))
	for iter := 0; iter < 10; iter++ {
		m1 := randomStructure(r, 2+r.Intn(8), 2, "left")
		m2 := randomStructure(r, 2+r.Intn(8), 2, "right")
		assertWorkersImmaterial(t, fmt.Sprintf("generic iter=%d", iter), m1, m2, bisim.Options{})
	}
}

// stutterClasses returns the number of stuttering-equivalence classes of
// m and the size of its largest one.  A state's class does not depend on
// the structure it is compared with, so the blocks of any union partition
// restricted to m are exactly these classes.
func stutterClasses(t *testing.T, m *kripke.Structure) (count, widest int) {
	t.Helper()
	self := computeVia(t, -1, -1, m, m, bisim.Options{})
	n := m.NumStates()
	size := make(map[int]int)
	for s := 0; s < n; s++ {
		for u := 0; u < n; u++ {
			if _, ok := self.Relation.Degree(kripke.State(s), kripke.State(u)); ok {
				size[u]++ // u is the lowest state of s's class
				break
			}
		}
	}
	for _, k := range size {
		widest = max(widest, k)
	}
	return len(size), widest
}

// assertMaskedRoute checks that Compute's default degree route on m, m2 is
// maskedFinish — at most 64 blocks, one of them holding more than 64 left
// states — and runs every route against the oracle.
func assertMaskedRoute(t *testing.T, label string, m, m2 *kripke.Structure) {
	t.Helper()
	leftClasses, widest := stutterClasses(t, m)
	rightClasses, _ := stutterClasses(t, m2)
	if widest <= 64 || leftClasses+rightClasses > 64 {
		t.Fatalf("%s: %d+%d classes, widest left class %d: the input does not reach maskedFinish",
			label, leftClasses, rightClasses, widest)
	}
	assertRoutesMatchOracle(t, label, m, m2, bisim.Options{})
}

// TestMaskedRouteOnWideCycle drives a block with more than 64 left states
// into the degree pass: the packed finish must refuse (its rank masks hold
// at most 64 lefts per block) and hand over to maskedFinish, whose output
// must match the oracle.
func TestMaskedRouteOnWideCycle(t *testing.T) {
	b := kripke.NewBuilder("wide")
	const n = 70
	for i := 0; i < n; i++ {
		b.AddState(kripke.P("a"))
	}
	for i := 0; i < n; i++ {
		must(t, b.AddTransition(kripke.State(i), kripke.State((i+1)%n)))
	}
	must(t, b.SetInitial(0))
	wide := build(t, b)

	b2 := kripke.NewBuilder("loop")
	b2.AddState(kripke.P("a"))
	must(t, b2.AddTransition(0, 0))
	must(t, b2.SetInitial(0))
	loop := build(t, b2)

	assertMaskedRoute(t, "wide-block", wide, loop)
	assertMaskedRoute(t, "wide-block/self", wide, wide)
}

// randomWideStructure builds a structure whose first `width` states all
// carry the label a and form a random stuttering DAG: every a-state steps
// to one or two of the next few a-states, and some step out to a b-sink,
// which the last one always does.  With no silent cycle every a-state can
// stutter to b, so without other exits they all share one class, each at
// its own stuttering depth.  When cOneIn > 0, an a-state also steps to a
// c-sink with probability 1/cOneIn, which splits off the a-states that can
// reach such an exit.
func randomWideStructure(r *rand.Rand, width, cOneIn int, name string) *kripke.Structure {
	b := kripke.NewBuilder(name)
	for i := 0; i < width; i++ {
		b.AddState(kripke.P("a"))
	}
	bSink := b.AddState(kripke.P("b"))
	cSink := b.AddState(kripke.P("c"))
	_ = b.AddTransition(bSink, bSink)
	_ = b.AddTransition(cSink, cSink)
	for i := 0; i < width; i++ {
		if i == width-1 || r.Intn(8) == 0 {
			_ = b.AddTransition(kripke.State(i), bSink)
		}
		if cOneIn > 0 && r.Intn(cOneIn) == 0 {
			_ = b.AddTransition(kripke.State(i), cSink)
		}
		if i < width-1 {
			for d := 1 + r.Intn(2); d > 0; d-- {
				_ = b.AddTransition(kripke.State(i), kripke.State(i+1+r.Intn(min(4, width-1-i))))
			}
		}
	}
	_ = b.SetInitial(0)
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// TestMaskedRouteOnRandomWideBlocks feeds randomized wide blocks (at least
// 65 label-equal left states in one class) through every degree route.  The
// right side is a random DAG of any width with rare second exits, so the
// wide block meets right states of many shapes and stuttering depths, or
// none at all.
func TestMaskedRouteOnRandomWideBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(6465))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for iter := 0; iter < iters; iter++ {
		left := randomWideStructure(r, 65+r.Intn(20), 0, "left")
		right := randomWideStructure(r, 2+r.Intn(80), 20, "right")
		label := fmt.Sprintf("wide iter=%d", iter)
		assertMaskedRoute(t, label, left, right)
		assertMaskedRoute(t, label+"/self", left, left)
	}
}

// TestIndexedComputeWorkersByteIdentical pins the one place Options.Workers
// still matters: IndexedCompute's pair pool must return byte-identical
// results, counters included, at every pool size, for a corresponding and a
// non-corresponding pair of ring instances.
func TestIndexedComputeWorkersByteIdentical(t *testing.T) {
	ctx := context.Background()
	for _, sizes := range [][2]int{{3, 5}, {2, 4}} {
		small, err := ring.Build(sizes[0])
		must(t, err)
		large, err := ring.Build(sizes[1])
		must(t, err)
		in := family.Ring().IndexRelation(sizes[0], sizes[1])
		var want *bisim.IndexedResult
		for _, w := range []int{1, 2, 4, 8} {
			opts := family.CorrespondOptions(family.Ring())
			opts.Workers = w
			got, err := bisim.IndexedCompute(ctx, small.M, large.M, in, opts)
			if err != nil {
				t.Fatalf("M_%d/M_%d workers=%d: %v", sizes[0], sizes[1], w, err)
			}
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("M_%d/M_%d workers=%d: result differs from workers=1", sizes[0], sizes[1], w)
			}
		}
	}
}

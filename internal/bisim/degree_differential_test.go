package bisim_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/ring"
)

// This is the differential battery for Compute's degree pass.  Once the
// partition is stable, one pass (degreePass) gives every pair of the
// same-block relation its minimal degree, whatever the partition's shape:
//
//   - one-word rows: at most 64 blocks, at most 64 left states per block —
//     every input of the paper's workload;
//   - multi-word rows: a block with more than 64 left states;
//   - multi-word successor-block lists: more than 64 blocks;
//   - both at once.
//
// On every shape the pass must reproduce the nested-fixpoint oracle
// ComputeFixpoint field for field — the same pair set, the same minimal
// degree for every pair, the same verdicts (assertEnginesAgree).  The wide
// tests assert their input's shape through the stuttering classes, so an
// input that stops reaching the shape it was written for fails.  A separate
// test pins IndexedCompute, whose pair pool is the only place
// Options.Workers still matters, as byte-identical at every worker count.

// compute runs Compute and fails the test on an error.
func compute(t *testing.T, m, m2 *kripke.Structure, opts bisim.Options) *bisim.Result {
	t.Helper()
	res, err := bisim.Compute(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return res
}

// TestUnresolvedDegreeIsAnError hands the degree pass a partition coarser
// than stuttering equivalence: left state 0 must leave its a-block for a
// b-sink while right state 0 loops in it forever, yet the two share a
// block, so their pair has no finite degree.  The pass must name the pair
// through ErrUnresolvedDegree rather than return a relation.
func TestUnresolvedDegreeIsAnError(t *testing.T) {
	b := kripke.NewBuilder("exits")
	a := b.AddState(kripke.P("a"))
	sink := b.AddState(kripke.P("b"))
	must(t, b.AddTransition(a, sink))
	must(t, b.AddTransition(sink, sink))
	must(t, b.SetInitial(a))
	left := build(t, b)

	b2 := kripke.NewBuilder("loops")
	b2.AddState(kripke.P("a"))
	must(t, b2.AddTransition(0, 0))
	must(t, b2.SetInitial(0))
	right := build(t, b2)

	// Union states: left 0, left 1, right 0; the a-states share block 0.
	res, err := bisim.DegreePass(left, right, []int32{0, 1, 0}, 2, bisim.Options{})
	if !errors.Is(err, bisim.ErrUnresolvedDegree) {
		t.Fatalf("got result %v, error %v; want ErrUnresolvedDegree", res, err)
	}
	if !strings.Contains(err.Error(), "(0, 0)") {
		t.Errorf("error %q does not name the pair (0, 0)", err)
	}

	// Two unresolved right states: right 0 is a b-sink and matches left 1
	// exactly, rights 1 and 2 loop on a and can never match left 0.  The
	// error names the lowest of them.
	b3 := kripke.NewBuilder("sink-then-loops")
	for _, l := range []string{"b", "a", "a"} {
		b3.AddState(kripke.P(l))
	}
	for u := kripke.State(0); u < 3; u++ {
		must(t, b3.AddTransition(u, u))
	}
	must(t, b3.SetInitial(1))
	res, err = bisim.DegreePass(left, build(t, b3), []int32{0, 1, 1, 0, 0}, 2, bisim.Options{})
	if !errors.Is(err, bisim.ErrUnresolvedDegree) {
		t.Fatalf("two unresolved rows: got result %v, error %v; want ErrUnresolvedDegree", res, err)
	}
	if !strings.Contains(err.Error(), "(0, 1)") {
		t.Errorf("two unresolved rows: error %q does not name the lowest pair (0, 1)", err)
	}
}

// TestDegreePassBlocksOneWordApart gives the degree pass a stable
// partition whose two occupied blocks, 0 and 64, share a bit position in
// different words of the successor-block sets.  Left state s has an x-move
// and a y-move; every other x-state only stutters towards y, three steps
// deep on the right.  s's y-move is unmatched by the right x-states, so
// the degree of (s, t0) comes from t0's stuttering (4), not from s's
// x-successor, which would be wrong if block 64 were taken for block 0.
func TestDegreePassBlocksOneWordApart(t *testing.T) {
	b := kripke.NewBuilder("left")
	s := b.AddState(kripke.P("x"))
	s1 := b.AddState(kripke.P("x"))
	s2 := b.AddState(kripke.P("x"))
	y := b.AddState(kripke.P("y"))
	for _, e := range [][2]kripke.State{{s, s1}, {s, y}, {s1, s2}, {s2, y}, {y, y}} {
		must(t, b.AddTransition(e[0], e[1]))
	}
	must(t, b.SetInitial(s))
	left := build(t, b)

	b2 := kripke.NewBuilder("right")
	for i := 0; i < 3; i++ {
		b2.AddState(kripke.P("x"))
	}
	b2.AddState(kripke.P("y"))
	for i := 0; i < 3; i++ {
		must(t, b2.AddTransition(kripke.State(i), kripke.State(i+1)))
	}
	must(t, b2.AddTransition(3, 3))
	must(t, b2.SetInitial(0))
	right := build(t, b2)

	// Union states: left s, s1, s2, y, then right t0, t1, t2, y'.
	got, err := bisim.DegreePass(left, right, []int32{0, 0, 0, 64, 0, 0, 0, 64}, 65, bisim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := bisim.ComputeFixpoint(context.Background(), left, right, bisim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "blocks 0 and 64", got, oracle)
	if d, _ := got.Relation.Degree(s, 0); d != 4 {
		t.Fatalf("degree of (s, t0) = %d, want 4", d)
	}
}

func TestDegreeRoutesMatchOracleOnNamedStructures(t *testing.T) {
	cycle := twoStateCycle(t)
	for stutter := 0; stutter <= 4; stutter++ {
		other := stutteredCycle(t, stutter)
		assertEnginesAgree(t, fmt.Sprintf("cycle/stutter=%d", stutter), cycle, other, bisim.Options{})
		assertEnginesAgree(t, fmt.Sprintf("stutter=%d/self", stutter), other, other, bisim.Options{})
	}
	// The paper's workload: reductions of ring instances, compared under
	// the index relation and options the cutoff decision uses.
	for _, sizes := range [][2]int{{2, 3}, {3, 4}, {3, 5}} {
		small, err := ring.Build(sizes[0])
		must(t, err)
		large, err := ring.Build(sizes[1])
		must(t, err)
		for _, p := range family.Ring().IndexRelation(sizes[0], sizes[1]) {
			assertEnginesAgree(t, fmt.Sprintf("M_%d|%d vs M_%d|%d", sizes[0], p.I, sizes[1], p.I2),
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
		assertEnginesAgree(t, label, m1, m2, bisim.Options{})
		assertEnginesAgree(t, label+"/reachable-only", m1, m2, bisim.Options{ReachableOnly: true})
	}
}

func TestDegreeRoutesMatchOracleOnSelfComparison(t *testing.T) {
	// Self-comparison is the quotienting workload (bisim.Minimize): large
	// same-block groups, lots of exact matches in round 0.
	r := rand.New(rand.NewSource(80620262))
	for iter := 0; iter < 25; iter++ {
		m := randomStructure(r, 2+r.Intn(10), 2, "self")
		assertEnginesAgree(t, fmt.Sprintf("self iter=%d", iter), m, m, bisim.Options{})
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
		assertEnginesAgree(t, fmt.Sprintf("oneprops iter=%d", iter), m1, m2, opts)
	}
}

// assertWorkersImmaterial checks that Compute ignores Options.Workers: the
// result at every worker count must be identical, work counters included,
// to the one at Workers 0, which must itself match the oracle.
func assertWorkersImmaterial(t *testing.T, label string, m, m2 *kripke.Structure, opts bisim.Options) {
	t.Helper()
	opts.Workers = 0
	want := compute(t, m, m2, opts)
	oracle, err := bisim.ComputeFixpoint(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("%s: ComputeFixpoint: %v", label, err)
	}
	assertSameResult(t, label+"/oracle", want, oracle)
	for _, w := range []int{1, 2, 4, 8} {
		opts.Workers = w
		got := compute(t, m, m2, opts)
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

// TestParallelRefinerGenericDegreePath pins that Workers never changes
// what Compute returns past 64 blocks, where successor-block sets span
// several words.
func TestParallelRefinerGenericDegreePath(t *testing.T) {
	r := rand.New(rand.NewSource(271828))
	for iter := 0; iter < 4; iter++ {
		k := 65 + r.Intn(40)
		m1 := randomManyLabelStructure(r, k, 0, "left")
		m2 := randomManyLabelStructure(r, k, 0, "right")
		assertWorkersImmaterial(t, fmt.Sprintf("many-blocks iter=%d", iter), m1, m2, bisim.Options{})
	}
}

// stutterClasses returns the number of stuttering-equivalence classes of
// m and the size of its largest one.  A state's class does not depend on
// the structure it is compared with, so the blocks of any union partition
// restricted to m are exactly these classes.
func stutterClasses(t *testing.T, m *kripke.Structure) (count, widest int) {
	t.Helper()
	self := compute(t, m, m, bisim.Options{})
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

// assertWideShape checks that the union partition of m and m2 has a block
// holding more than 64 left states (wide) and more than 64 blocks (many),
// as asked, and then that Compute matches the oracle on it under opts.
func assertWideShape(t *testing.T, label string, wide, many bool, m, m2 *kripke.Structure, opts bisim.Options) {
	t.Helper()
	classes, widest := stutterClasses(t, m)
	if wide && widest <= 64 {
		t.Fatalf("%s: widest left class %d: no block holds more than 64 left states", label, widest)
	}
	if many && classes <= 64 {
		t.Fatalf("%s: %d left classes: the partition does not reach 65 blocks", label, classes)
	}
	assertEnginesAgree(t, label, m, m2, opts)
}

// TestMaskedRouteOnWideCycle drives a block with more than 64 left states
// into the degree pass, so every right state's row spans two words.
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

	assertWideShape(t, "wide-block", true, false, wide, loop, bisim.Options{})
	assertWideShape(t, "wide-block/self", true, false, wide, wide, bisim.Options{})
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
// 65 label-equal left states in one class) through the degree pass, plainly
// and under ReachableOnly.  The right side is a random DAG of any width with
// rare second exits, so the wide block meets right states of many shapes
// and stuttering depths, or none at all.
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
		assertWideShape(t, label, true, false, left, right, bisim.Options{})
		assertWideShape(t, label+"/reachable-only", true, false, left, right, bisim.Options{ReachableOnly: true})
		assertWideShape(t, label+"/self", true, false, left, left, bisim.Options{})
	}
}

// randomManyLabelStructure builds a stuttered cycle over k labels: position
// p carries the proposition l<p> and is a run of one to three label-equal
// states, a random stuttering DAG whose states step to one or two of the
// run's next few states and, the last always and others rarely, to the
// first state of the next position's run.  With k > 64 the partition has
// more than 64 blocks.  When wide > 0 the first run holds wide states.  A
// run may also carry the indexed propositions w[1] and w[2], so the index-1
// reductions compared with OneProps {"w"} differ in their "exactly one"
// atoms.  Outside the first run, rare self loops (divergence) and jumps to
// the start of a random run split some label classes, which gives the
// blocks different shapes and degrees.
func randomManyLabelStructure(r *rand.Rand, k, wide int, name string) *kripke.Structure {
	b := kripke.NewBuilder(name)
	runs := make([][]kripke.State, k)
	for p := range runs {
		size := 1 + r.Intn(3)
		if p == 0 && wide > 0 {
			size = wide
		}
		props := []kripke.Prop{kripke.P(fmt.Sprintf("l%d", p))}
		switch r.Intn(8) {
		case 0:
			props = append(props, kripke.PI("w", 1))
		case 1:
			props = append(props, kripke.PI("w", 1), kripke.PI("w", 2))
		case 2:
			props = append(props, kripke.PI("w", 2))
		}
		for i := 0; i < size; i++ {
			runs[p] = append(runs[p], b.AddState(props...))
		}
	}
	for p, run := range runs {
		next := runs[(p+1)%k][0]
		for i, s := range run {
			if i == len(run)-1 || r.Intn(8) == 0 {
				_ = b.AddTransition(s, next)
			}
			if i < len(run)-1 {
				for d := 1 + r.Intn(2); d > 0; d-- {
					_ = b.AddTransition(s, run[i+1+r.Intn(min(4, len(run)-1-i))])
				}
			}
			if p == 0 && wide > 0 {
				continue // keep the wide run one class
			}
			if r.Intn(40) == 0 {
				_ = b.AddTransition(s, s)
			}
			if r.Intn(40) == 0 {
				_ = b.AddTransition(s, runs[r.Intn(k)][0])
			}
		}
	}
	_ = b.SetInitial(runs[0][0])
	m, err := b.Build()
	if err != nil {
		panic(err)
	}
	return m
}

// manyBlockVariants are the option sets the many-block tests run every
// input pair under; oneProps compares the index-1 reductions.
var manyBlockVariants = []struct {
	name     string
	opts     bisim.Options
	oneProps bool
}{
	{"plain", bisim.Options{}, false},
	{"reachable-only", bisim.Options{ReachableOnly: true}, false},
	{"one-props", bisim.Options{OneProps: []string{"w"}}, true},
}

// assertManyBlockVariants runs assertWideShape on m, m2 under every
// manyBlockVariants entry.
func assertManyBlockVariants(t *testing.T, label string, wide bool, m, m2 *kripke.Structure) {
	t.Helper()
	for _, v := range manyBlockVariants {
		a, b := m, m2
		if v.oneProps {
			a, b = m.ReduceNormalized(1), m2.ReduceNormalized(1)
		}
		assertWideShape(t, label+"/"+v.name, wide, true, a, b, v.opts)
	}
}

// TestDegreeRoutesMatchOracleOnManyBlocks runs the degree pass past 64
// blocks — stuttered cycles over 65 to 200 labels, against another random
// stuttering of the same labels and against themselves.
func TestDegreeRoutesMatchOracleOnManyBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(65200))
	iters := 20
	if testing.Short() {
		iters = 5
	}
	for iter := 0; iter < iters; iter++ {
		k := 65 + r.Intn(136)
		m1 := randomManyLabelStructure(r, k, 0, "left")
		m2 := randomManyLabelStructure(r, k, 0, "right")
		label := fmt.Sprintf("k=%d iter=%d", k, iter)
		assertManyBlockVariants(t, label, false, m1, m2)
		assertWideShape(t, label+"/self", false, true, m1, m1, bisim.Options{})
	}
}

// TestMaskedRouteOnWideManyBlocks combines both multi-word shapes: more
// than 64 blocks, one of them holding more than 64 left states.
func TestMaskedRouteOnWideManyBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(6564))
	iters := 12
	if testing.Short() {
		iters = 4
	}
	for iter := 0; iter < iters; iter++ {
		k := 65 + r.Intn(60)
		m1 := randomManyLabelStructure(r, k, 65+r.Intn(40), "left")
		m2 := randomManyLabelStructure(r, k, 1+r.Intn(100), "right")
		label := fmt.Sprintf("k=%d iter=%d", k, iter)
		assertManyBlockVariants(t, label, true, m1, m2)
		assertWideShape(t, label+"/self", true, true, m1, m1, bisim.Options{})
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

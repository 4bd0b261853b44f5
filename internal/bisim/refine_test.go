package bisim_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// These are the differential tests for the partition-refinement engine: on
// every input the refinement engine (bisim.Compute) and the nested-fixpoint oracle
// (bisim.ComputeFixpoint) must produce the *same* maximal correspondence — the
// same pair set, the same minimal degree for every pair, and the same
// summary verdicts.  The ring-fixture half of the suite lives in
// internal/ring (ring_test.go), next to the fixtures themselves.

// assertSameResult fails the test unless the two results are identical.
func assertSameResult(t *testing.T, label string, got, want *bisim.Result) {
	t.Helper()
	if got.InitialRelated != want.InitialRelated ||
		got.TotalLeft != want.TotalLeft || got.TotalRight != want.TotalRight {
		t.Fatalf("%s: verdicts differ: refined={init %v total %v/%v} oracle={init %v total %v/%v}",
			label, got.InitialRelated, got.TotalLeft, got.TotalRight,
			want.InitialRelated, want.TotalLeft, want.TotalRight)
	}
	gn, gn2 := got.Relation.Dims()
	wn, wn2 := want.Relation.Dims()
	if gn != wn || gn2 != wn2 {
		t.Fatalf("%s: dimensions differ: %dx%d vs %dx%d", label, gn, gn2, wn, wn2)
	}
	for s := 0; s < gn; s++ {
		for u := 0; u < gn2; u++ {
			gd, gok := got.Relation.Degree(kripke.State(s), kripke.State(u))
			wd, wok := want.Relation.Degree(kripke.State(s), kripke.State(u))
			if gok != wok {
				t.Fatalf("%s: pair (%d,%d): refined contains=%v, oracle contains=%v", label, s, u, gok, wok)
			}
			if gok && gd != wd {
				t.Fatalf("%s: pair (%d,%d): refined degree=%d, oracle degree=%d", label, s, u, gd, wd)
			}
		}
	}
}

func assertEnginesAgree(t *testing.T, label string, m, m2 *kripke.Structure, opts bisim.Options) {
	t.Helper()
	refined, err := bisim.Compute(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("%s: bisim.Compute: %v", label, err)
	}
	oracle, err := bisim.ComputeFixpoint(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatalf("%s: bisim.ComputeFixpoint: %v", label, err)
	}
	assertSameResult(t, label, refined, oracle)
}

func TestRefineMatchesOracleOnNamedStructures(t *testing.T) {
	cycle := twoStateCycle(t)
	for stutter := 0; stutter <= 4; stutter++ {
		other := stutteredCycle(t, stutter)
		assertEnginesAgree(t, fmt.Sprintf("cycle/stutter=%d", stutter), cycle, other, bisim.Options{})
		assertEnginesAgree(t, fmt.Sprintf("stutter=%d/self", stutter), other, other, bisim.Options{})
	}
}

// randomStructure builds a random total structure with labels drawn from
// 2^props label sets, a tunable stutter bias (probability that a transition
// target shares the source's label, which exercises the silent-SCC
// contraction and the divergence splits) and random extra self loops.
func randomStructure(r *rand.Rand, n, props int, name string) *kripke.Structure {
	b := kripke.NewBuilder(name)
	labels := make([]int, n)
	names := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		mask := r.Intn(1 << props)
		labels[i] = mask
		var ps []kripke.Prop
		for j := 0; j < props; j++ {
			if mask&(1<<j) != 0 {
				ps = append(ps, kripke.P(names[j]))
			}
		}
		b.AddState(ps...)
	}
	for i := 0; i < n; i++ {
		deg := 1 + r.Intn(3)
		for d := 0; d < deg; d++ {
			target := r.Intn(n)
			if r.Intn(2) == 0 {
				// Bias towards a label-equal target when one exists, so the
				// structures stutter a lot.
				for tries := 0; tries < 4; tries++ {
					cand := r.Intn(n)
					if labels[cand] == labels[i] {
						target = cand
						break
					}
				}
			}
			_ = b.AddTransition(kripke.State(i), kripke.State(target))
		}
		if r.Intn(4) == 0 {
			_ = b.AddTransition(kripke.State(i), kripke.State(i))
		}
	}
	_ = b.SetInitial(kripke.State(r.Intn(n)))
	m, err := b.BuildPartial()
	if err != nil {
		panic(err)
	}
	return m.MakeTotal()
}

func TestRefineMatchesOracleOnRandomStructures(t *testing.T) {
	r := rand.New(rand.NewSource(20260727))
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for iter := 0; iter < iters; iter++ {
		props := 1 + r.Intn(2)
		m1 := randomStructure(r, 2+r.Intn(7), props, "left")
		m2 := randomStructure(r, 2+r.Intn(7), props, "right")
		label := fmt.Sprintf("iter=%d", iter)
		assertEnginesAgree(t, label, m1, m2, bisim.Options{})
		assertEnginesAgree(t, label+"/reachable-only", m1, m2, bisim.Options{ReachableOnly: true})
	}
}

func TestRefineMatchesOracleOnSelfComparison(t *testing.T) {
	// Self-comparison is the quotienting workload (bisim.Minimize); the maximal
	// self-correspondence must also be identical between the engines.
	r := rand.New(rand.NewSource(424242))
	for iter := 0; iter < 80; iter++ {
		m := randomStructure(r, 2+r.Intn(8), 2, "self")
		assertEnginesAgree(t, fmt.Sprintf("self iter=%d", iter), m, m, bisim.Options{})
	}
}

func TestRefineMatchesOracleWithOneProps(t *testing.T) {
	// Indexed structures with "exactly one" atoms in the label comparison:
	// the option changes the initial partition, so both engines must honour
	// it identically.
	build := func(withdrawing, persisting int) *kripke.Structure {
		b := kripke.NewBuilder("fam")
		s0 := b.AddState(kripke.PI("w", withdrawing), kripke.PI("w", persisting))
		s1 := b.AddState(kripke.PI("w", persisting))
		if err := b.AddTransition(s0, s1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTransition(s1, s1); err != nil {
			t.Fatal(err)
		}
		if err := b.SetInitial(s0); err != nil {
			t.Fatal(err)
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1 := build(1, 2).ReduceNormalized(1)
	m2 := build(5, 1).ReduceNormalized(5)
	assertEnginesAgree(t, "oneprops", m1, m2, bisim.Options{OneProps: []string{"w"}})
	assertEnginesAgree(t, "no-oneprops", m1, m2, bisim.Options{})
}

// labelledCycle builds a cycle over n positions, position i labelled
// l<i mod k> and repeated as a run of 1 + (7i mod (stutter+1)) label-equal
// states, so the copies of one label class sit at different stuttering
// depths.
func labelledCycle(t *testing.T, n, k, stutter int) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder(fmt.Sprintf("cycle%d/%d", n, k))
	var first, prev []kripke.State
	for i := 0; i < n; i++ {
		run := make([]kripke.State, 1+(7*i)%(stutter+1))
		for j := range run {
			run[j] = b.AddState(kripke.P(fmt.Sprintf("l%d", i%k)))
			if j > 0 {
				must(t, b.AddTransition(run[j-1], run[j]))
			}
		}
		if prev != nil {
			must(t, b.AddTransition(prev[len(prev)-1], run[0]))
		} else {
			first = run
		}
		prev = run
	}
	must(t, b.AddTransition(prev[len(prev)-1], first[0]))
	must(t, b.SetInitial(first[0]))
	return build(t, b)
}

// TestRefineGenericPathMatchesOracle checks the refinement engine against
// the oracle past 64 blocks, where a state's successor-block set spans
// several words: cycles whose labels repeat with period k = 65..200,
// against stuttered copies and against themselves.
func TestRefineGenericPathMatchesOracle(t *testing.T) {
	for _, c := range []struct{ n, k int }{{65, 65}, {130, 65}, {130, 100}, {200, 200}} {
		plain := labelledCycle(t, c.n, c.k, 0)
		for stutter := 0; stutter <= 2; stutter++ {
			other := labelledCycle(t, c.n, c.k, stutter)
			label := fmt.Sprintf("n=%d k=%d stutter=%d", c.n, c.k, stutter)
			assertEnginesAgree(t, label, plain, other, bisim.Options{})
			assertEnginesAgree(t, label+"/reachable-only", other, plain, bisim.Options{ReachableOnly: true})
			assertEnginesAgree(t, label+"/self", other, other, bisim.Options{})
		}
	}
}

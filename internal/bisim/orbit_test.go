package bisim_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
)

// waiters builds a structure with one self-looping state per index k of
// 1..n, labelled w_k, the first state initial, and the action that
// rotates the states along with their indices (for n = 2, the swap).
func waiters(t *testing.T, name string, n int) (*kripke.Structure, *kripke.IndexAction) {
	t.Helper()
	b := kripke.NewBuilder(name)
	for k := 1; k <= n; k++ {
		s := b.AddState(kripke.PI("w", k))
		must(t, b.AddTransition(s, s))
	}
	must(t, b.SetInitial(0))
	m := build(t, b)
	gen := kripke.IndexGenerator{States: make([]int32, n), Index: make(map[int]int, n)}
	for k := 0; k < n; k++ {
		gen.States[k] = int32((k + 1) % n)
		gen.Index[k+1] = (k+1)%n + 1
	}
	a, err := kripke.NewIndexAction(m, []kripke.IndexGenerator{gen})
	if err != nil {
		t.Fatalf("%s: NewIndexAction: %v", name, err)
	}
	return m, a
}

// indexedCalls runs IndexedCompute and returns its result with the number
// of Compute calls it made.
func indexedCalls(t *testing.T, m, m2 *kripke.Structure, in []bisim.IndexPair, opts bisim.Options) (*bisim.IndexedResult, int64) {
	t.Helper()
	before := bisim.ComputeCalls()
	res, err := bisim.IndexedCompute(context.Background(), m, m2, in, opts)
	if err != nil {
		t.Fatalf("IndexedCompute: %v", err)
	}
	return res, bisim.ComputeCalls() - before
}

// assertSameIndexed requires identical per-pair relations (CSR bytes),
// verdicts and failing pairs.
func assertSameIndexed(t *testing.T, got, want *bisim.IndexedResult) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%d pairs, want %d", len(got.Pairs), len(want.Pairs))
	}
	for p, w := range want.Pairs {
		g, ok := got.Pairs[p]
		if !ok {
			t.Fatalf("pair %v missing", p)
		}
		if !bytes.Equal(g.Relation.AppendCSR(nil), w.Relation.AppendCSR(nil)) {
			t.Errorf("pair %v: relation %v, want %v", p, g.Relation.Pairs(), w.Relation.Pairs())
		}
		if g.InitialRelated != w.InitialRelated || g.TotalLeft != w.TotalLeft || g.TotalRight != w.TotalRight {
			t.Errorf("pair %v: verdict (%v %v %v), want (%v %v %v)", p,
				g.InitialRelated, g.TotalLeft, g.TotalRight, w.InitialRelated, w.TotalLeft, w.TotalRight)
		}
	}
	if fmt.Sprint(got.FailingPairs()) != fmt.Sprint(want.FailingPairs()) {
		t.Errorf("failing pairs %v, want %v", got.FailingPairs(), want.FailingPairs())
	}
	if got.INTotalLeft != want.INTotalLeft || got.INTotalRight != want.INTotalRight || got.Corresponds() != want.Corresponds() {
		t.Errorf("indexed verdict differs")
	}
}

// TestOrbitTransportMatchesPerPairCompute: with a swap on a two-process
// structure and a rotation on a three-process one, the six pairs of
// {1,2}×{1,2,3} form one orbit class, decided by one Compute whose
// relation is transported to the other five (rows with two states are
// re-sorted after the rotation).  Pairs (3,1) and (1,4), whose indices
// the structures lack, fall back to their own compute.  Every pair's
// result is identical to deciding it on its own.
func TestOrbitTransportMatchesPerPairCompute(t *testing.T) {
	m, left := waiters(t, "two", 2)
	m2, right := waiters(t, "three", 3)
	var in []bisim.IndexPair
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 3; j++ {
			in = append(in, bisim.IndexPair{I: i, I2: j})
		}
	}
	in = append(in, bisim.IndexPair{I: 3, I2: 1}, bisim.IndexPair{I: 1, I2: 4})
	for _, reachable := range []bool{false, true} {
		opts := bisim.Options{ReachableOnly: reachable, OneProps: []string{"w"}}
		want, perPair := indexedCalls(t, m, m2, in, opts)
		opts.LeftAction, opts.RightAction = left, right
		got, orbit := indexedCalls(t, m, m2, in, opts)
		assertSameIndexed(t, got, want)
		if perPair != int64(len(in)) || orbit != 3 {
			t.Errorf("ReachableOnly=%v: %d computes per pair, %d with actions; want %d and 3", reachable, perPair, orbit, len(in))
		}
		// One side's action alone merges that side's orbits only.
		opts.RightAction = nil
		got, leftOnly := indexedCalls(t, m, m2, in, opts)
		assertSameIndexed(t, got, want)
		if leftOnly != 5 {
			t.Errorf("ReachableOnly=%v: %d computes with the left action alone, want 5", reachable, leftOnly)
		}
	}
}

// TestOrbitTransportTotalityFromTransportedRelation: the swap moves the
// reachable initial state a (waiting w_1) onto the unreachable state b
// (waiting w_2).  Under ReachableOnly the basis pair (1,1) is total, but
// pair (2,1), transported from it, relates only b — so its totality and
// initial-state verdict must be recomputed on the transported relation,
// not copied from the basis.
func TestOrbitTransportTotalityFromTransportedRelation(t *testing.T) {
	m, left := waiters(t, "two", 2)
	b := kripke.NewBuilder("one")
	c := b.AddState(kripke.PI("w", 1))
	must(t, b.AddTransition(c, c))
	must(t, b.SetInitial(c))
	m2 := build(t, b)
	in := []bisim.IndexPair{{I: 1, I2: 1}, {I: 2, I2: 1}}
	opts := bisim.Options{ReachableOnly: true}
	want, _ := indexedCalls(t, m, m2, in, opts)
	opts.LeftAction = left
	got, calls := indexedCalls(t, m, m2, in, opts)
	assertSameIndexed(t, got, want)
	if calls != 1 {
		t.Errorf("%d computes, want 1", calls)
	}
	basis, moved := got.Pairs[in[0]], got.Pairs[in[1]]
	if !basis.Corresponds() {
		t.Fatalf("basis pair (1,1) does not correspond")
	}
	if moved.TotalLeft || moved.InitialRelated {
		t.Errorf("transported pair (2,1): TotalLeft=%v InitialRelated=%v, want both false", moved.TotalLeft, moved.InitialRelated)
	}
	if fmt.Sprint(got.FailingPairs()) != fmt.Sprint([]bisim.IndexPair{in[1]}) {
		t.Errorf("failing pairs %v, want [%v]", got.FailingPairs(), in[1])
	}
}

// TestOrbitActionOnAnotherStructureRejected: an action verified on a
// structure other than the one compared — even an identical rebuild — is
// an error, never a silent answer, on either side.
func TestOrbitActionOnAnotherStructureRejected(t *testing.T) {
	m, _ := waiters(t, "two", 2)
	_, other := waiters(t, "two", 2)
	m2, right := waiters(t, "three", 3)
	in := []bisim.IndexPair{{I: 1, I2: 1}, {I: 2, I2: 2}}
	for name, opts := range map[string]bisim.Options{
		"left":    {LeftAction: other},
		"right":   {RightAction: other},
		"swapped": {LeftAction: right},
	} {
		res, err := bisim.IndexedCompute(context.Background(), m, m2, in, opts)
		if err == nil || res != nil {
			t.Errorf("%s: IndexedCompute = %v, %v; want an error", name, res, err)
			continue
		}
		if !strings.Contains(err.Error(), "index action was verified on structure") {
			t.Errorf("%s: error %q does not name the mismatch", name, err)
		}
	}
}

// TestDefaultIndexRelationSingleLeftIndex: a left structure with one
// index value pairs it with every index of the right one (this used to
// slice out of range).
func TestDefaultIndexRelationSingleLeftIndex(t *testing.T) {
	b := kripke.NewBuilder("one")
	s := b.AddState(kripke.PI("w", 1))
	must(t, b.AddTransition(s, s))
	must(t, b.SetInitial(s))
	small := build(t, b)
	large, _ := waiters(t, "two", 2)
	got := bisim.DefaultIndexRelation(small, large)
	want := []bisim.IndexPair{{I: 1, I2: 1}, {I: 1, I2: 2}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("DefaultIndexRelation = %v, want %v", got, want)
	}
}

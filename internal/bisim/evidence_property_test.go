package bisim_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
)

// plainLabels is the label alphabet of the unindexed random structures.
var plainLabels = [][]kripke.Prop{{kripke.P("p")}, {kripke.P("q")}, {kripke.P("r")}}

// indexedLabels draws labels over the indexed proposition p at indices 1
// and 2, so that after reduction to index 1 the "exactly one" atom O_i p_i
// separates states whose surviving atoms agree.
var indexedLabels = [][]kripke.Prop{
	{kripke.PI("p", 1)},
	{kripke.PI("p", 2)},
	{kripke.PI("p", 1), kripke.PI("p", 2)},
	{kripke.P("q")},
}

// randomEvidenceStructure builds a random total structure: n states, labels
// drawn from labels (a small alphabet, so label classes are populated and
// refinement has real work), every state with at least one successor.
// With plant set, the initial state also steps to an extra state labelled
// x, an atom outside the alphabet, which loops on itself.
func randomEvidenceStructure(t *testing.T, rng *rand.Rand, name string, n int, labels [][]kripke.Prop, plant bool) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder(name)
	for i := 0; i < n; i++ {
		b.AddState(labels[rng.Intn(len(labels))]...)
	}
	for i := 0; i < n; i++ {
		deg := 1 + rng.Intn(3)
		for k := 0; k < deg; k++ {
			if err := b.AddTransition(kripke.State(i), kripke.State(rng.Intn(n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if plant {
		x := b.AddState(kripke.P("x"))
		if err := b.AddTransition(0, x); err != nil {
			t.Fatal(err)
		}
		if err := b.AddTransition(x, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(0); err != nil {
		t.Fatal(err)
	}
	m, err := b.BuildPartial()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// checkGamePath confirms that ev's game path demonstrates the decisive
// condition on the side it names: real transitions from the evidence state
// through states satisfying the until's left operand into its right operand
// (a reach split), a lasso inside EG's operand (a divergence split), or a
// walk into EF's operand (an unmatched state).  Any other formula (a label
// literal, an unreachable orphan's class) has the one-state path.
func checkGamePath(t *testing.T, ev *bisim.Evidence) {
	t.Helper()
	ctx := context.Background()
	m, start, cond := ev.Left, ev.LeftState, ev.Formula
	if ev.GameSide == "right" {
		m, start, cond = ev.Right, ev.RightState, ev.Formula.(*logic.Not).F
	}
	path := ev.GamePath
	if len(path) == 0 || path[0] != start {
		t.Fatalf("game path %v does not start at state %d (evidence %s)", path, start, ev)
	}
	holds := func(f logic.Formula, s kripke.State) bool {
		ok, err := mc.New(m).HoldsAt(ctx, f, s)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	step := func(from, to kripke.State) {
		if !slices.Contains(m.Succ(from), to) {
			t.Fatalf("game path %v steps from %d to %d, not a transition of %s", path, from, to, m.Name())
		}
	}
	for i := 1; i < len(path); i++ {
		step(path[i-1], path[i])
	}
	last := len(path) - 1
	e, _ := cond.(*logic.E)
	if e == nil {
		if len(path) != 1 {
			t.Fatalf("game path %v for %s, want the evidence state alone", path, cond)
		}
		return
	}
	switch g := e.F.(type) {
	case *logic.U:
		for _, s := range path[:last] {
			if !holds(g.L, s) {
				t.Fatalf("game path %v leaves the split block at state %d", path, s)
			}
		}
		if !holds(g.R, path[last]) {
			t.Fatalf("game path %v does not end in the splitter", path)
		}
	case *logic.Alw:
		if ev.GameLoop < 0 || ev.GameLoop > last {
			t.Fatalf("divergence game path %v has loop index %d", path, ev.GameLoop)
		}
		step(path[last], path[ev.GameLoop])
		for _, s := range path {
			if !holds(g.F, s) {
				t.Fatalf("divergence lasso %v leaves the block at state %d", path, s)
			}
		}
	case *logic.Ev:
		if !holds(g.F, path[last]) {
			t.Fatalf("game path %v does not reach the unmatched class", path)
		}
	default:
		t.Fatalf("unexpected decisive condition %s", cond)
	}
}

// TestEvidencePropertyRandomPairs is the paper's theorem run as a property
// test: for randomized Kripke pairs, the decision procedure's verdict and
// the evidence extractor must agree — inequivalence iff a distinguishing
// formula exists — and every emitted formula must evaluate true on the
// left evidence state and false on the right one under the independent
// model checker.  The cases cover the refiner's option branches (OneProps
// over reductions, ReachableOnly) and both adjacency representations: the
// bitset rows of small unions and the lists past MaxDenseMatrixStates.
//
// A formula's tree doubles with every split above the one it reports, and
// the replay walks it as a tree, so the large cases plant a separator on
// the right side that the first refinement round already finds: the
// refiner still splits the whole union through the adjacency lists, but
// the reported split stays shallow enough to replay.
func TestEvidencePropertyRandomPairs(t *testing.T) {
	cases := []struct {
		name        string
		seed        int64
		pairs       int
		minN, spanN int // states per side: minN + rng.Intn(spanN)
		labels      [][]kripke.Prop
		reduce      bool // compare the reductions to index 1
		opts        bisim.Options
		sparse      bool // the contracted union must exceed MaxDenseMatrixStates
		plant       bool // plant an x-labelled successor of the right initial state
	}{
		{name: "plain", seed: 20260727, pairs: 60, minN: 3, spanN: 8, labels: plainLabels},
		{name: "one-props", seed: 7, pairs: 60, minN: 3, spanN: 8, labels: indexedLabels,
			reduce: true, opts: bisim.Options{OneProps: []string{"p"}, ReachableOnly: true}},
		{name: "reachable-only", seed: 11, pairs: 60, minN: 3, spanN: 8, labels: plainLabels,
			opts: bisim.Options{ReachableOnly: true}},
		{name: "adjacency-lists", seed: 13, pairs: 4, minN: 700, spanN: 100, labels: plainLabels,
			sparse: true, plant: true},
		{name: "adjacency-lists,one-props", seed: 17, pairs: 4, minN: 700, spanN: 100, labels: indexedLabels,
			reduce: true, opts: bisim.Options{OneProps: []string{"p"}, ReachableOnly: true}, sparse: true, plant: true},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(tc.seed))
			failures := 0
			for i := 0; i < tc.pairs; i++ {
				m := randomEvidenceStructure(t, rng, "rand-left", tc.minN+rng.Intn(tc.spanN), tc.labels, false)
				m2 := randomEvidenceStructure(t, rng, "rand-right", tc.minN+rng.Intn(tc.spanN), tc.labels, tc.plant)
				if tc.reduce {
					m, m2 = m.ReduceNormalized(1), m2.ReduceNormalized(1)
				}
				if tc.sparse {
					if c := bisim.ContractedStates(m, m2, tc.opts); c <= bisim.MaxDenseMatrixStates {
						t.Fatalf("pair %d: contracted union has %d nodes, want > %d", i, c, bisim.MaxDenseMatrixStates)
					}
				}
				res, err := bisim.Compute(ctx, m, m2, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := bisim.Explain(ctx, m, m2, tc.opts, res)
				if err != nil {
					t.Fatalf("pair %d: Explain: %v", i, err)
				}
				if res.Corresponds() != (ev == nil) {
					t.Fatalf("pair %d: corresponds=%v but evidence=%v", i, res.Corresponds(), ev)
				}
				if ev == nil {
					continue
				}
				failures++
				if ev.Formula == nil {
					t.Fatalf("pair %d: evidence without formula (reason %s)", i, ev.Reason)
				}
				if err := mc.ReplayEvidence(ctx, ev); err != nil {
					t.Fatalf("pair %d: replay rejected evidence: %v\nevidence: %s", i, err, ev)
				}
				checkGamePath(t, ev)
			}
			if failures == 0 {
				t.Fatal("property test never exercised a failing pair; enlarge the search space")
			}
			t.Logf("%d/%d random pairs failed to correspond; every one had confirmed evidence", failures, tc.pairs)
		})
	}
}

// TestEvidencePropertyInitialPairs focuses the same property on the
// initial-state clause: whenever the initial states are reported
// unrelated, the evidence formula must disagree exactly at the initial
// states.
func TestEvidencePropertyInitialPairs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 40; i++ {
		m := randomEvidenceStructure(t, rng, "init-left", 3+rng.Intn(6), plainLabels, false)
		m2 := randomEvidenceStructure(t, rng, "init-right", 3+rng.Intn(6), plainLabels, false)
		res, err := bisim.Compute(ctx, m, m2, bisim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.InitialRelated {
			continue
		}
		ev, err := bisim.Explain(ctx, m, m2, bisim.Options{}, res)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Reason != bisim.ReasonInitial {
			t.Fatalf("case %d: reason = %s, want %s", i, ev.Reason, bisim.ReasonInitial)
		}
		if ev.LeftState != m.Initial() || ev.RightState != m2.Initial() {
			t.Fatalf("case %d: evidence states (%d,%d), want the initial states", i, ev.LeftState, ev.RightState)
		}
		if err := mc.ReplayEvidence(ctx, ev); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		checkGamePath(t, ev)
	}
}

package bisim_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bisim"
	"repro/internal/family"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/ring"
)

// buildLines builds a structure from (label, successors) rows; state i gets
// the i-th row's label (one atom name, "" for none) and successors.
func buildLines(t *testing.T, name string, rows []struct {
	label string
	succ  []int
}) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder(name)
	for _, row := range rows {
		if row.label == "" {
			b.AddState()
		} else {
			b.AddState(kripke.P(row.label))
		}
	}
	for i, row := range rows {
		for _, j := range row.succ {
			if err := b.AddTransition(kripke.State(i), kripke.State(j)); err != nil {
				t.Fatal(err)
			}
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

// mustExplain runs Compute + Explain and replays the evidence through the
// model checker; the replay is the test oracle for every case.
func mustExplain(t *testing.T, m, m2 *kripke.Structure, opts bisim.Options) *bisim.Evidence {
	t.Helper()
	ctx := context.Background()
	res, err := bisim.Compute(ctx, m, m2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corresponds() {
		t.Fatalf("%s and %s correspond; expected a failure to explain", m.Name(), m2.Name())
	}
	ev, err := bisim.Explain(ctx, m, m2, opts, res)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil {
		t.Fatalf("no evidence for failed correspondence of %s and %s", m.Name(), m2.Name())
	}
	if err := mc.ReplayEvidence(ctx, ev); err != nil {
		t.Fatalf("evidence replay rejected: %v (evidence: %s)", err, ev)
	}
	return ev
}

// TestExplainLabelDifference: initial states with different labels are
// separated by a single literal.
func TestExplainLabelDifference(t *testing.T) {
	m := buildLines(t, "lab-left", []struct {
		label string
		succ  []int
	}{{"p", []int{0}}})
	m2 := buildLines(t, "lab-right", []struct {
		label string
		succ  []int
	}{{"q", []int{0}}})
	ev := mustExplain(t, m, m2, bisim.Options{})
	if ev.Reason != bisim.ReasonInitial {
		t.Errorf("reason = %s, want %s", ev.Reason, bisim.ReasonInitial)
	}
	if logic.Size(ev.Formula) > 2 {
		t.Errorf("label difference should yield a literal, got %s", ev.Formula)
	}
}

// TestExplainReachability: same initial labels, but only the left initial
// state can reach a third label class; the evidence is an until formula.
func TestExplainReachability(t *testing.T) {
	m := buildLines(t, "reach-left", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1, 2}}, // can go to q or r
		{"q", []int{1}},
		{"r", []int{2}},
	})
	m2 := buildLines(t, "reach-right", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1}}, // only q
		{"q", []int{1}},
	})
	ev := mustExplain(t, m, m2, bisim.Options{})
	if ev.Reason != bisim.ReasonInitial {
		t.Errorf("reason = %s, want %s", ev.Reason, bisim.ReasonInitial)
	}
	if ev.GameSide != "left" {
		t.Errorf("game side = %s, want left (the reaching side)", ev.GameSide)
	}
	if len(ev.GamePath) < 2 {
		t.Errorf("game path %v does not demonstrate the reach", ev.GamePath)
	}
}

// TestExplainDivergence: the left initial state can stutter forever in its
// label class, the right one cannot; the evidence is an EG formula with a
// lasso game path.
func TestExplainDivergence(t *testing.T) {
	m := buildLines(t, "div-left", []struct {
		label string
		succ  []int
	}{
		{"p", []int{0, 1}}, // self loop: can stay in p forever
		{"q", []int{1}},
	})
	m2 := buildLines(t, "div-right", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1}}, // must leave p
		{"q", []int{1}},
	})
	ev := mustExplain(t, m, m2, bisim.Options{})
	if ev.Reason != bisim.ReasonInitial {
		t.Errorf("reason = %s, want %s", ev.Reason, bisim.ReasonInitial)
	}
	if ev.GameSide != "left" {
		t.Errorf("game side = %s, want left (the diverging side)", ev.GameSide)
	}
	if ev.GameLoop < 0 {
		t.Errorf("divergence evidence should carry a lasso, got path %v loop %d", ev.GamePath, ev.GameLoop)
	}
}

// TestExplainTotalityOrphan: equivalent initial behaviour, but the right
// structure has an unreachable state no left state matches (totality over
// all states).
func TestExplainTotalityOrphan(t *testing.T) {
	m := buildLines(t, "tot-left", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1}},
		{"q", []int{1}},
	})
	m2 := buildLines(t, "tot-right", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1}},
		{"q", []int{1}},
		{"r", []int{2}}, // unreachable orphan
	})
	ev := mustExplain(t, m, m2, bisim.Options{})
	if ev.Reason != bisim.ReasonTotalRight {
		t.Errorf("reason = %s, want %s", ev.Reason, bisim.ReasonTotalRight)
	}
}

// TestExplainManyOneProps: with 65 "exactly one" atoms the engine's label
// key outgrows one word of truth bits.  The two structures differ only in
// the truth of the 65th atom (last in sorted order) at the state after the
// initial one, so the refiner must key on the whole pattern to separate
// them, and the evidence must still replay.
func TestExplainManyOneProps(t *testing.T) {
	props := make([]string, 65)
	for j := range props {
		props[j] = fmt.Sprintf("o%02d", j)
	}
	build := func(name string, secondOnes []string) *kripke.Structure {
		b := kripke.NewBuilder(name)
		s0 := b.AddState(kripke.P("a"))
		s1 := b.AddState(kripke.P("b"))
		for _, e := range [][2]kripke.State{{s0, s1}, {s1, s1}} {
			if err := b.AddTransition(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.SetOnes(s0, props); err != nil {
			t.Fatal(err)
		}
		if err := b.SetOnes(s1, secondOnes); err != nil {
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
	m := build("ones-left", props)
	m2 := build("ones-right", props[:64])
	opts := bisim.Options{OneProps: props}
	oracle, err := bisim.ComputeFixpoint(context.Background(), m, m2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Corresponds() {
		t.Fatal("oracle reports the structures correspond; the test input is wrong")
	}
	ev := mustExplain(t, m, m2, opts)
	if ev.Reason != bisim.ReasonInitial {
		t.Errorf("reason = %s, want %s", ev.Reason, bisim.ReasonInitial)
	}
	if !strings.Contains(ev.Formula.String(), "o64") {
		t.Errorf("formula %s does not mention the distinguishing atom o64", ev.Formula)
	}
}

// TestExplainCorresponding: corresponding structures yield no evidence.
func TestExplainCorresponding(t *testing.T) {
	m := buildLines(t, "ok-left", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1}},
		{"q", []int{1}},
	})
	m2 := buildLines(t, "ok-right", []struct {
		label string
		succ  []int
	}{
		{"p", []int{1, 2}},
		{"q", []int{2}},
		{"q", []int{1}},
	})
	ctx := context.Background()
	ev, err := bisim.Explain(ctx, m, m2, bisim.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev != nil {
		t.Fatalf("unexpected evidence for corresponding structures: %s", ev)
	}
}

// TestExplainIndexedRingRefutation re-derives the paper refutation with the
// generic extractor: M_2 and M_3 do not indexed-correspond, and the
// extractor emits a formula (over the failing pair's reductions) that the
// model checker confirms separates them — the machine-found counterpart of
// ring.DistinguishingFormula.
func TestExplainIndexedRingRefutation(t *testing.T) {
	ctx := context.Background()
	m2, err := ring.Build(2)
	if err != nil {
		t.Fatal(err)
	}
	m3, err := ring.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	in := family.Ring().IndexRelation(2, 3)
	opts := family.CorrespondOptions(family.Ring())
	res, err := bisim.IndexedCompute(ctx, m2.M, m3.M, in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corresponds() {
		t.Fatal("M_2 and M_3 unexpectedly indexed-correspond")
	}
	ev, pair, err := bisim.ExplainIndexed(ctx, m2.M, m3.M, res, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ev == nil || ev.Formula == nil {
		t.Fatal("no evidence for the ring refutation")
	}
	if err := mc.ReplayEvidence(ctx, ev); err != nil {
		t.Fatalf("ring refutation evidence rejected by replay: %v\npair (%d,%d), formula %s",
			err, pair.I, pair.I2, ev.Formula)
	}
	t.Logf("pair (%d,%d) separated by %s", pair.I, pair.I2, ev.Formula)
}

package family

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mc"
	"repro/internal/symmetry"
)

// orbitSizes are the instance sizes the orbit differential covers per
// topology: small enough to check every formula at every state, large
// enough that every group has a non-trivial orbit.
var orbitSizes = map[string][]int{
	"ring":   {3, 4},
	"star":   {3, 4},
	"line":   {3, 4},
	"tree":   {3, 5},
	"torus":  {4, 6},
	"torus3": {6},
}

// buildWithSpace builds the packed instance and returns it with its space.
func buildWithSpace(t *testing.T, pi PackedInstance) (*kripke.Structure, *explore.Space) {
	t.Helper()
	m, sp, err := explore.Build(context.Background(), pi.Def, explore.Options{Workers: 1, MaxStates: pi.MaxStates})
	if err != nil {
		t.Fatalf("%s: explore.Build: %v", pi.Def.Name, err)
	}
	if m, err = pi.FinishBuilt(m); err != nil {
		t.Fatalf("%s: FinishBuilt: %v", pi.Def.Name, err)
	}
	return m, sp
}

// orbitFormula draws a random state formula over the index variable v:
// indexed atoms of the family vocabulary, the O_i t_i atom, a plain atom,
// boolean connectives, EX/AX, until, the CTL modalities and an occasional
// CTL* path body.
func orbitFormula(rng *rand.Rand, v string, depth int) logic.Formula {
	if depth == 0 {
		switch k := rng.IntN(8); {
		case k < 5:
			return logic.IdxProp([]string{"n", "t", "c", "d"}[k%4], v)
		case k == 5:
			return logic.ExactlyOne("t")
		case k == 6:
			return logic.Prop("p")
		default:
			return logic.True()
		}
	}
	sub := func() logic.Formula { return orbitFormula(rng, v, depth-1) }
	switch rng.IntN(13) {
	case 0:
		return logic.Neg(sub())
	case 1:
		return logic.Conj(sub(), sub())
	case 2:
		return logic.Disj(sub(), sub())
	case 3:
		return logic.Imp(sub(), sub())
	case 4:
		return logic.EX(sub())
	case 5:
		return logic.AX(sub())
	case 6:
		return logic.EU(sub(), sub())
	case 7:
		return logic.AU(sub(), sub())
	case 8:
		return logic.AF(sub())
	case 9:
		return logic.EG(sub())
	case 10:
		return logic.AG(sub())
	case 11:
		return logic.EF(sub())
	default:
		return logic.ExistsPath(logic.Conj(logic.Eventually(sub()), logic.Always(sub())))
	}
}

// orbitCase is one closed formula of the differential and whether orbit
// evaluation must answer it (false: it must take the fallback path).
type orbitCase struct {
	f     logic.Formula
	orbit bool
}

// orbitCases draws count random bodies and wraps each as a top-level ∀ or
// ∃ (the orbit path) and as the shapes that must fall back: an index
// constant in the body, a nested quantifier, a negated quantifier and a
// conjunction of two quantifiers.
func orbitCases(rng *rand.Rand, count int) []orbitCase {
	var out []orbitCase
	for range count {
		body := orbitFormula(rng, "i", 1+rng.IntN(3))
		out = append(out,
			orbitCase{logic.ForallIdx("i", logic.Conj(logic.IdxProp("t", "i"), body)), true},
			orbitCase{logic.ExistsIdx("i", logic.Disj(logic.IdxProp("c", "i"), body)), true},
		)
		switch rng.IntN(4) {
		case 0:
			out = append(out, orbitCase{logic.ForallIdx("i", logic.Imp(logic.InstProp("t", 1), body)), false})
		case 1:
			out = append(out, orbitCase{logic.ForallIdx("i", logic.Conj(body, logic.ExistsIdx("j", logic.IdxProp("t", "j")))), false})
		case 2:
			out = append(out, orbitCase{logic.Neg(logic.ExistsIdx("i", body)), false})
		default:
			out = append(out, orbitCase{logic.Conj(logic.ForallIdx("i", body), logic.ExistsIdx("j", logic.IdxProp("n", "j"))), false})
		}
	}
	return out
}

// TestOrbitEvaluationMatchesInstantiation pins orbit evaluation to
// instantiation on every topology: for random formulas with nexttime,
// until, O_i and plain atoms — and for the index constants, nested
// quantifiers and non-top-level quantifiers that must fall back — a
// checker with the instance's verified symmetry action answers HoldsAt
// exactly as a checker without one, at every state.  A fresh pair of
// checkers also confirms that the orbit path ran: on a ∀ query it
// computes fewer satisfaction sets whenever the group merges indices.
func TestOrbitEvaluationMatchesInstantiation(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewPCG(17, 6))
	for _, topo := range Topologies() {
		for _, n := range orbitSizes[topo.Name()] {
			pi, ok := Packed(topo, n)
			if !ok || pi.Group == nil {
				t.Fatalf("%s[%d]: no packed instance with a group", topo.Name(), n)
			}
			m, sp := buildWithSpace(t, pi)
			action, err := pi.IndexAction(ctx, sp, m)
			if err != nil {
				t.Fatalf("%s[%d]: IndexAction: %v", topo.Name(), n, err)
			}
			label := fmt.Sprintf("%s[%d] (%d orbits of %d indices)", topo.Name(), n, len(action.Representatives()), len(m.IndexValues()))

			plain, orbit := mc.New(m), mc.New(m)
			if err := orbit.SetIndexAction(action); err != nil {
				t.Fatal(err)
			}
			for _, tc := range orbitCases(rng, 12) {
				for s := range m.NumStates() {
					want, err := plain.HoldsAt(ctx, tc.f, kripke.State(s))
					if err != nil {
						t.Fatalf("%s: instantiated %s at %d: %v", label, tc.f, s, err)
					}
					got, err := orbit.HoldsAt(ctx, tc.f, kripke.State(s))
					if err != nil {
						t.Fatalf("%s: orbit %s at %d: %v", label, tc.f, s, err)
					}
					if got != want {
						t.Fatalf("%s: %s at state %d: orbit evaluation %v, instantiation %v", label, tc.f, s, got, want)
					}
				}
				// The fallback shapes compute exactly what instantiation
				// computes, so a fresh checker pair agrees on the work too.
				if !tc.orbit {
					p, o := mc.New(m), mc.New(m)
					if err := o.SetIndexAction(action); err != nil {
						t.Fatal(err)
					}
					if _, err := p.Holds(ctx, tc.f); err != nil {
						t.Fatal(err)
					}
					if _, err := o.Holds(ctx, tc.f); err != nil {
						t.Fatal(err)
					}
					if p.Stats() != o.Stats() {
						t.Fatalf("%s: fallback %s: stats %+v with the action, %+v without", label, tc.f, o.Stats(), p.Stats())
					}
				}
			}

			if len(action.Representatives()) < len(m.IndexValues()) {
				f := logic.ForallIdx("i", logic.AG(logic.EF(logic.IdxProp("t", "i"))))
				p, o := mc.New(m), mc.New(m)
				if err := o.SetIndexAction(action); err != nil {
					t.Fatal(err)
				}
				if _, err := p.Holds(ctx, f); err != nil {
					t.Fatal(err)
				}
				if _, err := o.Holds(ctx, f); err != nil {
					t.Fatal(err)
				}
				if o.Stats().StateSetsComputed >= p.Stats().StateSetsComputed {
					t.Errorf("%s: orbit path computed %d sets, instantiation %d", label,
						o.Stats().StateSetsComputed, p.Stats().StateSetsComputed)
				}
			}
		}
	}
}

// TestOrbitActionRejectsNonAutomorphisms feeds the verifier actions that
// are wrong: a ring rotation applied to a line and to a star (whose
// distinguished processes rotations move), and the true rotation of M_4
// applied to copies of M_4 with one label or one successor corrupted.
// Each must be rejected with an error naming the generator and the state,
// and a checker that was refused the action keeps answering as one that
// never had it.
func TestOrbitActionRejectsNonAutomorphisms(t *testing.T) {
	ctx := context.Background()
	wantNamed := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: wrong action accepted", what)
		}
		if !strings.Contains(err.Error(), "generator 0") || !strings.Contains(err.Error(), "state ") {
			t.Fatalf("%s: error does not name the generator and the state: %v", what, err)
		}
	}
	for _, topo := range []Topology{Line(), Star()} {
		pi, ok := Packed(topo, 4)
		if !ok {
			t.Fatalf("%s: no packed instance", topo.Name())
		}
		m, sp := buildWithSpace(t, pi)
		pi.Group = symmetry.Cyclic(4, 2)
		a, err := pi.IndexAction(ctx, sp, m)
		wantNamed(t, topo.Name()+" rotated", err)
		if a != nil {
			t.Fatalf("%s: rejected action returned non-nil", topo.Name())
		}
	}

	pi, _ := Packed(Ring(), 4)
	m, sp := buildWithSpace(t, pi)
	good, err := pi.IndexAction(ctx, sp, m)
	if err != nil {
		t.Fatalf("M_4: %v", err)
	}
	const victim = kripke.State(5)
	other := kripke.State(6)
	relabelled := copyStructure(t, m, func(s kripke.State) []kripke.Prop {
		if s == victim {
			return m.Label(other)
		}
		return m.Label(s)
	}, m.Succ)
	rerouted := copyStructure(t, m, m.Label, func(s kripke.State) []kripke.State {
		row := m.Succ(s)
		if s != victim {
			return row
		}
		out := append([]kripke.State(nil), row...)
		for t := range kripke.State(m.NumStates()) {
			if !m.HasTransition(s, t) {
				out[0] = t
				break
			}
		}
		return out
	})
	formulas := []logic.Formula{
		logic.MustParse("forall i . AG(c[i] -> t[i])"),
		logic.MustParse("exists i . EX EX c[i]"),
		logic.MustParse("forall i . A[n[i] U t[i]]"),
	}
	for name, bad := range map[string]*kripke.Structure{"label": relabelled, "successor": rerouted} {
		_, err := pi.IndexAction(ctx, sp, bad)
		wantNamed(t, "M_4 with one "+name+" corrupted", err)

		refused, plain := mc.New(bad), mc.New(bad)
		if err := refused.SetIndexAction(good); err == nil {
			t.Fatalf("%s: checker accepted an action verified on another structure", name)
		}
		for _, f := range formulas {
			for s := range bad.NumStates() {
				got, err1 := refused.HoldsAt(ctx, f, kripke.State(s))
				want, err2 := plain.HoldsAt(ctx, f, kripke.State(s))
				if err1 != nil || err2 != nil || got != want {
					t.Fatalf("%s: %s at %d: refused checker %v (%v), plain %v (%v)", name, f, s, got, err1, want, err2)
				}
			}
		}
	}
}

// copyStructure rebuilds m with the given labelling and successor rows.
func copyStructure(t *testing.T, m *kripke.Structure, label func(kripke.State) []kripke.Prop, succ func(kripke.State) []kripke.State) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder(m.Name())
	for _, i := range m.IndexValues() {
		b.DeclareIndex(i)
	}
	for s := range kripke.State(m.NumStates()) {
		b.AddState(label(s)...)
	}
	for s := range kripke.State(m.NumStates()) {
		for _, u := range succ(s) {
			if err := b.AddTransition(s, u); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.SetInitial(m.Initial()); err != nil {
		t.Fatal(err)
	}
	out, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// BenchmarkRingIndexAction measures building and exhaustively verifying
// the rotation action of M_r, the one-off cost a ring verifier pays.
func BenchmarkRingIndexAction(b *testing.B) {
	for _, r := range []int{6, 8, 10} {
		pi, _ := Packed(Ring(), r)
		m, sp, err := explore.Build(context.Background(), pi.Def, explore.Options{Workers: 1, MaxStates: pi.MaxStates})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			for b.Loop() {
				if _, err := pi.IndexAction(context.Background(), sp, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package mc

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// The scalar tableau (ltl.go) is the reference the packed product
// (tableau_packed.go) is pinned against, and it remains the only engine for
// formulas outside the packed envelope (closure > 64, more than 10 temporal
// operators, or an oversized assignment table).  The tests here drive the
// scalar product directly — every current end-to-end formula fits the packed
// envelope, so without them the fallback would be dead code in the suite.

// tableauBothEngines atomizes the path formula p, builds its tableau and
// returns the satisfaction sets computed by the scalar and packed products.
func tableauBothEngines(t *testing.T, c *Checker, p logic.Formula) (scalar, packed kripke.BitSet) {
	t.Helper()
	atomized, placeholders, err := c.atomizePathFormula(logic.Desugar(p))
	if err != nil {
		t.Fatalf("atomizePathFormula(%s): %v", p, err)
	}
	tb, err := newTableau(atomized)
	if err != nil {
		t.Fatalf("newTableau(%s): %v", p, err)
	}
	packed, ok, err := c.runTableauPacked(tb, placeholders)
	if err != nil {
		t.Fatalf("runTableauPacked(%s): %v", p, err)
	}
	if !ok {
		t.Fatalf("runTableauPacked(%s) bowed out; pick a formula inside the packed envelope", p)
	}
	scalar, err = c.runTableau(tb, placeholders)
	if err != nil {
		t.Fatalf("runTableau(%s): %v", p, err)
	}
	return scalar, packed
}

// TestScalarTableauMatchesPacked: on randomized structures the scalar product
// agrees with the packed product state-for-state, across untils, nexts,
// negations, placeholders (embedded E subformulas), instantiated indexed
// atoms and "exactly one" atoms.
func TestScalarTableauMatchesPacked(t *testing.T) {
	p, q, rr := logic.Prop("p"), logic.Prop("q"), logic.Prop("r")
	formulas := []logic.Formula{
		logic.Until(p, q),
		logic.Conj(logic.Until(p, q), logic.Next(rr)),
		logic.Always(logic.Disj(p, q)),
		logic.Conj(logic.Neg(logic.Until(p, q)), logic.Eventually(rr)),
		logic.Disj(
			logic.Until(p, logic.Until(q, rr)),
			logic.Next(logic.Conj(p, logic.EG(q))),
		),
		logic.Until(logic.InstProp("t", 0), logic.Disj(q, logic.ExactlyOne("t"))),
	}
	r := rand.New(rand.NewSource(515151))
	for iter := 0; iter < 8; iter++ {
		m := randomStructure(r, 2+r.Intn(30))
		for _, workers := range vectorWorkerCounts {
			c := New(m).SetWorkers(workers)
			for _, f := range formulas {
				scalar, packed := tableauBothEngines(t, c, f)
				for s := 0; s < m.NumStates(); s++ {
					if scalar.Get(s) != packed.Get(s) {
						t.Fatalf("iter %d workers %d formula %s: scalar and packed disagree at state %d (scalar %v, packed %v)",
							iter, workers, f, s, scalar.Get(s), packed.Get(s))
					}
				}
			}
		}
	}
}

// nestEventually wraps f in n F operators; each desugars to an until, so the
// nesting depth controls the tableau's temporal-operator count while the
// meaning stays F f.
func nestEventually(n int, f logic.Formula) logic.Formula {
	for i := 0; i < n; i++ {
		f = logic.Eventually(f)
	}
	return f
}

// TestScalarFallbackWideFormula: a path formula with more than 10 temporal
// operators is outside the packed envelope, so Holds routes it through the
// scalar tableau end to end.  F^11 q and (X p) ∨ F^10 q collapse to EF q and
// EX p ∨ EF q respectively, giving CTL oracles for the answer.
func TestScalarFallbackWideFormula(t *testing.T) {
	p, q := logic.Prop("p"), logic.Prop("q")
	r := rand.New(rand.NewSource(525252))
	m := randomStructure(r, 40)
	c := New(m)
	oracle := New(m)
	efq, err := oracle.satState(logic.EF(q))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := oracle.satState(logic.EX(p))
	if err != nil {
		t.Fatal(err)
	}

	wide, err := c.satState(logic.ExistsPath(nestEventually(11, q)))
	if err != nil {
		t.Fatalf("E F^11 q: %v", err)
	}
	for s := 0; s < m.NumStates(); s++ {
		if wide.Get(s) != efq.Get(s) {
			t.Fatalf("E F^11 q disagrees with EF q at state %d (scalar %v, oracle %v)", s, wide.Get(s), efq.Get(s))
		}
	}

	mixed, err := c.satState(logic.ExistsPath(logic.Disj(logic.Next(p), nestEventually(10, q))))
	if err != nil {
		t.Fatalf("E ((X p) | F^10 q): %v", err)
	}
	for s := 0; s < m.NumStates(); s++ {
		want := exp.Get(s) || efq.Get(s)
		if mixed.Get(s) != want {
			t.Fatalf("E ((X p) | F^10 q) disagrees with EX p ∨ EF q at state %d (scalar %v, oracle %v)", s, mixed.Get(s), want)
		}
	}
}

// TestScalarTableauOperatorLimit: past 20 temporal operators the scalar
// tableau refuses rather than enumerating 2^21 assignments per state.
func TestScalarTableauOperatorLimit(t *testing.T) {
	r := rand.New(rand.NewSource(535353))
	c := New(randomStructure(r, 4))
	_, err := c.satState(logic.ExistsPath(nestEventually(21, logic.Prop("q"))))
	if err == nil || !strings.Contains(err.Error(), "tableau limit") {
		t.Fatalf("E F^21 q: err = %v, want tableau limit error", err)
	}
}

// TestSortedPlaceholderNames: atomization numbers placeholders in discovery
// order and sortedPlaceholderNames returns them sorted, so both engines see
// the same deterministic placeholder vocabulary.
func TestSortedPlaceholderNames(t *testing.T) {
	r := rand.New(rand.NewSource(545454))
	c := New(randomStructure(r, 10))
	f := logic.Disj(
		logic.Until(logic.EG(logic.Prop("p")), logic.Prop("q")),
		logic.Next(logic.EF(logic.Prop("r"))),
	)
	_, placeholders, err := c.atomizePathFormula(logic.Desugar(f))
	if err != nil {
		t.Fatal(err)
	}
	names := sortedPlaceholderNames(placeholders)
	if len(names) != 2 || names[0] != placeholderPrefix+"0" || names[1] != placeholderPrefix+"1" {
		t.Fatalf("sortedPlaceholderNames = %v, want [%s0 %s1]", names, placeholderPrefix, placeholderPrefix)
	}
	for _, name := range names {
		if got, want := len(placeholders[name]), (c.m.NumStates()+63)/64; got != want {
			t.Fatalf("placeholder %s has %d words, want %d", name, got, want)
		}
	}
}

// sortedPlaceholderNames returns the placeholder names in sorted order.
func sortedPlaceholderNames(placeholders map[string]kripke.BitSet) []string {
	names := make([]string, 0, len(placeholders))
	for n := range placeholders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

package mc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/kripke"
	"repro/internal/logic"
)

// buildLine returns the structure 0{p} -> 1{q} -> 2{r} -> 2.
func buildLine(t *testing.T) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder("line")
	s0 := b.AddState(kripke.P("p"))
	s1 := b.AddState(kripke.P("q"))
	s2 := b.AddState(kripke.P("r"))
	mustEdges(t, b, [][2]kripke.State{{s0, s1}, {s1, s2}, {s2, s2}})
	mustInitial(t, b, s0)
	return mustBuild(t, b)
}

// buildBranch returns a structure with a branching choice at the root:
//
//	0{p} -> 1{q} -> 1        (q forever)
//	0{p} -> 2{r} -> 3{q} -> 3
func buildBranch(t *testing.T) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder("branch")
	s0 := b.AddState(kripke.P("p"))
	s1 := b.AddState(kripke.P("q"))
	s2 := b.AddState(kripke.P("r"))
	s3 := b.AddState(kripke.P("q"))
	mustEdges(t, b, [][2]kripke.State{{s0, s1}, {s1, s1}, {s0, s2}, {s2, s3}, {s3, s3}})
	mustInitial(t, b, s0)
	return mustBuild(t, b)
}

// buildCycle returns a structure with two reachable cycles: one where p
// holds infinitely often and q never, and one where q holds forever.
//
//	0{} -> 1{p} -> 0        (p infinitely often)
//	0{} -> 2{q} -> 2        (q forever)
func buildCycle(t *testing.T) *kripke.Structure {
	t.Helper()
	b := kripke.NewBuilder("cycle")
	s0 := b.AddState()
	s1 := b.AddState(kripke.P("p"))
	s2 := b.AddState(kripke.P("q"))
	mustEdges(t, b, [][2]kripke.State{{s0, s1}, {s1, s0}, {s0, s2}, {s2, s2}})
	mustInitial(t, b, s0)
	return mustBuild(t, b)
}

func mustEdges(t *testing.T, b *kripke.Builder, edges [][2]kripke.State) {
	t.Helper()
	for _, e := range edges {
		if err := b.AddTransition(e[0], e[1]); err != nil {
			t.Fatalf("AddTransition: %v", err)
		}
	}
}

func mustInitial(t *testing.T, b *kripke.Builder, s kripke.State) {
	t.Helper()
	if err := b.SetInitial(s); err != nil {
		t.Fatalf("SetInitial: %v", err)
	}
}

func mustBuild(t *testing.T, b *kripke.Builder) *kripke.Structure {
	t.Helper()
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestCTLOnLine(t *testing.T) {
	m := buildLine(t)
	c := New(m)
	tests := []struct {
		formula string
		want    bool
	}{
		{"p", true},
		{"q", false},
		{"EX q", true},
		{"EX r", false},
		{"EF r", true},
		{"AF r", true},
		{"AG r", false},
		{"EG p", false},
		{"A (p U (q | r))", true},
		{"E (p U q)", true},
		{"E (q U r)", false}, // q does not hold at the initial state
		{"AF (AG r)", true},
		{"EF (EG r)", true},
		{"A ((p | q) U r)", true},
		{"AX q", true},
		{"AX r", false},
		{"E (p W q)", true},
		{"E (false R r)", false},
		{"A (r R (p | q | r))", true},
	}
	for _, tt := range tests {
		got, err := c.Holds(context.Background(), logic.MustParse(tt.formula))
		if err != nil {
			t.Fatalf("Holds(%q): %v", tt.formula, err)
		}
		if got != tt.want {
			t.Errorf("Holds(%q) = %v, want %v", tt.formula, got, tt.want)
		}
	}
}

func TestCTLOnBranch(t *testing.T) {
	m := buildBranch(t)
	c := New(m)
	tests := []struct {
		formula string
		want    bool
	}{
		{"AF q", true},  // both branches eventually reach q
		{"AF r", false}, // the left branch never sees r
		{"EF r", true},
		{"EG (p | q)", true},  // left branch avoids r forever
		{"AG (p | q)", false}, // right branch passes through r
		{"EX (EG q)", true},
		{"A (p U (q | r))", true},
		{"E ((p | r) U q)", true},
		{"AG (r -> AX q)", true},
		{"AG (r -> AF q)", true},
		{"AG (q -> AG q)", true},
	}
	for _, tt := range tests {
		got, err := c.Holds(context.Background(), logic.MustParse(tt.formula))
		if err != nil {
			t.Fatalf("Holds(%q): %v", tt.formula, err)
		}
		if got != tt.want {
			t.Errorf("Holds(%q) = %v, want %v", tt.formula, got, tt.want)
		}
	}
}

func TestCTLStarPathFormulas(t *testing.T) {
	branch := buildBranch(t)
	cycle := buildCycle(t)
	tests := []struct {
		name    string
		m       *kripke.Structure
		formula string
		want    bool
	}{
		// E(F q ∧ F r): one path must see both q and r — only the right
		// branch sees r, and it also reaches q afterwards.
		{"both-eventualities", branch, "E ((F q) & (F r))", true},
		// E(F r ∧ G !q) is impossible: after r the path is stuck in q.
		{"r-but-never-q", branch, "E ((F r) & (G !q))", false},
		// A(F q): every path eventually reaches q.
		{"universal-eventually", branch, "A (F q)", true},
		// A(F r ∨ G (p | q)): either the path sees r, or it stays in {p,q}.
		{"disjunctive-path", branch, "A ((F r) | (G (p | q)))", true},
		// A((F r) -> (F q)): on every path, r implies a later (or earlier) q.
		{"implication-on-paths", branch, "A ((F r) -> (F q))", true},
		// E(G F p): some path sees p infinitely often (the 0-1 cycle).
		{"infinitely-often", cycle, "E (G (F p))", true},
		// E(F G p): no path eventually stays in p forever (state 1 always
		// returns to the unlabelled state 0).
		{"eventually-always", cycle, "E (F (G p))", false},
		// E(F G q): the q self loop gives a path that ends up in q forever.
		{"eventually-always-q", cycle, "E (F (G q))", true},
		// A(G F (p | q)): on every path, p or q holds infinitely often.
		{"fairness", cycle, "A (G (F (p | q)))", true},
		// A(G F p): fails because of the q-forever path.
		{"unfair", cycle, "A (G (F p))", false},
		// Nested path/state mixture: E(F (q & E G q)).
		{"mixed-nesting", branch, "E (F (q & EG q))", true},
		// X inside CTL*: E(X X q) — reachable in two steps on the left
		// branch.
		{"double-next", branch, "E (X (X q))", true},
		{"double-next-r", branch, "E (X (X r))", false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := New(tt.m)
			got, err := c.Holds(context.Background(), logic.MustParse(tt.formula))
			if err != nil {
				t.Fatalf("Holds(%q): %v", tt.formula, err)
			}
			if got != tt.want {
				t.Errorf("Holds(%q) = %v, want %v", tt.formula, got, tt.want)
			}
		})
	}
}

// randomStructure builds a random total structure with n states over
// propositions p, q, r.
func randomStructure(r *rand.Rand, n int) *kripke.Structure {
	b := kripke.NewBuilder("random")
	props := []kripke.Prop{kripke.P("p"), kripke.P("q"), kripke.P("r")}
	for i := 0; i < n; i++ {
		var lbl []kripke.Prop
		for _, p := range props {
			if r.Intn(2) == 0 {
				lbl = append(lbl, p)
			}
		}
		b.AddState(lbl...)
	}
	for i := 0; i < n; i++ {
		degree := 1 + r.Intn(2)
		for d := 0; d < degree; d++ {
			_ = b.AddTransition(kripke.State(i), kripke.State(r.Intn(n)))
		}
	}
	_ = b.SetInitial(0)
	m, err := b.BuildPartial()
	if err != nil {
		panic(err)
	}
	return m.MakeTotal()
}

// TestTableauAgreesWithCTLFastPath checks the CTL* tableau engine against the
// CTL labelling algorithm on formulas that both can evaluate.  Wrapping the
// path formula in a conjunction with true forces the tableau route while
// preserving the meaning.
func TestTableauAgreesWithCTLFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	operands := []string{"p", "q", "r", "p | q", "p & !r", "!q"}
	shapes := []struct{ fast, slow string }{
		{"E (%s U %s)", "E ((%s U %s) & true)"},
		{"E (F %s)", "E ((F %s) & true)"},
		{"E (G %s)", "E ((G %s) & true)"},
		{"E (X %s)", "E ((X %s) & true)"},
		{"A (%s U %s)", "A ((%s U %s) | false)"},
		{"A (F %s)", "A ((F %s) | false)"},
		{"A (G %s)", "A ((G %s) | false)"},
	}
	for iter := 0; iter < 25; iter++ {
		m := randomStructure(r, 3+r.Intn(5))
		for _, shape := range shapes {
			a := operands[r.Intn(len(operands))]
			bOp := operands[r.Intn(len(operands))]
			var fastText, slowText string
			if countVerbs(shape.fast) == 2 {
				fastText = sprintf2(shape.fast, a, bOp)
				slowText = sprintf2(shape.slow, a, bOp)
			} else {
				fastText = sprintf1(shape.fast, a)
				slowText = sprintf1(shape.slow, a)
			}
			cFast := New(m)
			cSlow := New(m)
			fast, err := cFast.Sat(context.Background(), logic.MustParse(fastText))
			if err != nil {
				t.Fatalf("Sat(%q): %v", fastText, err)
			}
			slow, err := cSlow.Sat(context.Background(), logic.MustParse(slowText))
			if err != nil {
				t.Fatalf("Sat(%q): %v", slowText, err)
			}
			for s := 0; s < m.NumStates(); s++ {
				if fast.Get(s) != slow.Get(s) {
					t.Fatalf("iter %d: CTL and tableau disagree on %q vs %q at state %d\n%s",
						iter, fastText, slowText, s, dumpStructure(m))
				}
			}
			if cSlow.Stats().TableauRuns == 0 {
				t.Fatalf("expected the slow form %q to exercise the tableau", slowText)
			}
		}
	}
}

func countVerbs(s string) int {
	count := 0
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '%' && s[i+1] == 's' {
			count++
		}
	}
	return count
}

func sprintf1(format, a string) string    { return replaceN(format, []string{a}) }
func sprintf2(format, a, b string) string { return replaceN(format, []string{a, b}) }

func replaceN(format string, args []string) string {
	out := ""
	argIdx := 0
	for i := 0; i < len(format); i++ {
		if format[i] == '%' && i+1 < len(format) && format[i+1] == 's' {
			out += args[argIdx]
			argIdx++
			i++
			continue
		}
		out += string(format[i])
	}
	return out
}

func dumpStructure(m *kripke.Structure) string {
	out := ""
	for s := 0; s < m.NumStates(); s++ {
		out += m.LabelKey(kripke.State(s)) + " ->"
		for _, t := range m.Succ(kripke.State(s)) {
			out += " " + string(rune('0'+int(t)))
		}
		out += "\n"
	}
	return out
}

// TestCTLStarDualityRandom checks the fundamental duality A ψ ≡ ¬E ¬ψ on the
// tableau route with random structures and a fixed battery of path formulas.
func TestCTLStarDualityRandom(t *testing.T) {
	r := rand.New(rand.NewSource(555))
	paths := []string{
		"(F p) & (F q)",
		"(G p) | (F r)",
		"(p U q) & (F r)",
		"G (p -> F q)",
		"(F (G p)) | (G (F q))",
	}
	for iter := 0; iter < 15; iter++ {
		m := randomStructure(r, 3+r.Intn(4))
		for _, pf := range paths {
			c := New(m)
			aSat, err := c.Sat(context.Background(), logic.MustParse("A ("+pf+")"))
			if err != nil {
				t.Fatalf("Sat(A %s): %v", pf, err)
			}
			eSat, err := c.Sat(context.Background(), logic.MustParse("!(E (!("+pf+")))"))
			if err != nil {
				t.Fatalf("Sat(!E! %s): %v", pf, err)
			}
			for s := 0; s < m.NumStates(); s++ {
				if aSat.Get(s) != eSat.Get(s) {
					t.Fatalf("duality violated for %q at state %d\n%s", pf, s, dumpStructure(m))
				}
			}
		}
	}
}

func TestIndexedFormulasAndOne(t *testing.T) {
	b := kripke.NewBuilder("indexed")
	s0 := b.AddState(kripke.PI("w", 1), kripke.PI("w", 2))
	s1 := b.AddState(kripke.PI("w", 1), kripke.PI("done", 2))
	s2 := b.AddState(kripke.PI("done", 1), kripke.PI("done", 2))
	mustEdges(t, b, [][2]kripke.State{{s0, s1}, {s1, s2}, {s2, s2}})
	mustInitial(t, b, s0)
	m := mustBuild(t, b)
	c := New(m)

	tests := []struct {
		formula string
		want    bool
	}{
		{"forall i . AF done[i]", true},
		{"exists i . w[i]", true},
		{"forall i . w[i]", true},
		{"AG (exists i . (done[i] | w[i]))", true},
		{"one w", false},      // both processes are waiting initially
		{"EF (one w)", true},  // after one finishes, exactly one still waits
		{"AG (one w)", false}, // eventually nobody waits
		{"EF (forall i . done[i])", true},
		{"forall i . A (w[i] U done[i])", true},
		{"w[1]", true},
		{"done[1]", false},
		{"exists i . AG w[i]", false},
	}
	for _, tt := range tests {
		got, err := c.Holds(context.Background(), logic.MustParse(tt.formula))
		if err != nil {
			t.Fatalf("Holds(%q): %v", tt.formula, err)
		}
		if got != tt.want {
			t.Errorf("Holds(%q) = %v, want %v", tt.formula, got, tt.want)
		}
	}
}

func TestCheckerErrors(t *testing.T) {
	m := buildLine(t)
	c := New(m)
	if _, err := c.Sat(context.Background(), nil); err == nil {
		t.Error("Sat(nil) should fail")
	}
	if _, err := c.Sat(context.Background(), logic.MustParse("F p")); err == nil {
		t.Error("bare path formulas should be rejected")
	}
	if _, err := c.Sat(context.Background(), logic.MustParse("d[i]")); err == nil {
		t.Error("free index variables should be rejected")
	}
	if _, err := c.HoldsAt(context.Background(), logic.MustParse("p"), kripke.State(99)); err == nil {
		t.Error("out-of-range state should be rejected")
	}
}

func TestSatHelpers(t *testing.T) {
	m := buildLine(t)
	c := New(m)
	n, err := c.CountSat(context.Background(), logic.MustParse("p | q"))
	if err != nil {
		t.Fatalf("CountSat: %v", err)
	}
	if n != 2 {
		t.Errorf("CountSat = %d, want 2", n)
	}
	states, err := c.SatStates(context.Background(), logic.MustParse("EF r"))
	if err != nil {
		t.Fatalf("SatStates: %v", err)
	}
	if len(states) != 3 {
		t.Errorf("SatStates(EF r) = %v, want all three states", states)
	}
	if c.Structure() != m {
		t.Error("Structure() should return the underlying structure")
	}
	// The cache makes repeated queries cheap and stable.
	before := c.Stats().StateSetsComputed
	if _, err := c.Sat(context.Background(), logic.MustParse("EF r")); err != nil {
		t.Fatalf("Sat: %v", err)
	}
	if c.Stats().StateSetsComputed != before {
		t.Error("repeated query should hit the cache")
	}
}

func TestWitnessAndCounterexample(t *testing.T) {
	m := buildBranch(t)
	c := New(m)

	w, err := c.Witness(context.Background(), logic.MustParse("EF r"), m.Initial())
	if err != nil {
		t.Fatalf("Witness(EF r): %v", err)
	}
	if len(w.States) < 2 || !m.Holds(w.States[len(w.States)-1], kripke.P("r")) {
		t.Errorf("EF r witness does not end in an r state: %v", w.States)
	}
	if w.IsLasso() {
		t.Error("EF witness should be a finite path")
	}
	for i := 0; i+1 < len(w.States); i++ {
		if !m.HasTransition(w.States[i], w.States[i+1]) {
			t.Errorf("witness step %d is not a transition", i)
		}
	}

	lasso, err := c.Witness(context.Background(), logic.MustParse("EG (p | q)"), m.Initial())
	if err != nil {
		t.Fatalf("Witness(EG): %v", err)
	}
	if !lasso.IsLasso() {
		t.Error("EG witness should be a lasso")
	}
	for _, s := range lasso.States {
		if m.Holds(s, kripke.P("r")) {
			t.Error("EG (p|q) witness passes through an r state")
		}
	}

	cx, err := c.Counterexample(context.Background(), logic.MustParse("AG (p | q)"), m.Initial())
	if err != nil {
		t.Fatalf("Counterexample(AG): %v", err)
	}
	last := cx.States[len(cx.States)-1]
	if !m.Holds(last, kripke.P("r")) {
		t.Errorf("AG counterexample should end in the violating r state, got %v", m.Label(last))
	}

	cx2, err := c.Counterexample(context.Background(), logic.MustParse("AF r"), m.Initial())
	if err != nil {
		t.Fatalf("Counterexample(AF): %v", err)
	}
	if !cx2.IsLasso() {
		t.Error("AF counterexample should be a lasso avoiding r")
	}

	if _, err := c.Witness(context.Background(), logic.MustParse("EF r"), kripke.State(1)); err == nil {
		t.Error("witness for a formula that fails at the state should error")
	}
	if _, err := c.Counterexample(context.Background(), logic.MustParse("AF q"), m.Initial()); err == nil {
		t.Error("counterexample for a formula that holds should error")
	}
	if _, err := c.Witness(context.Background(), logic.MustParse("p"), m.Initial()); err == nil {
		t.Error("witnesses require E-rooted formulas")
	}
	if s := (&Trace{}).Format(m); s == "" {
		t.Error("empty trace should still format")
	}
	if s := cx2.Format(m); s == "" {
		t.Error("trace formatting should produce output")
	}
}

func TestWitnessEXAndEU(t *testing.T) {
	m := buildLine(t)
	c := New(m)
	w, err := c.Witness(context.Background(), logic.MustParse("EX q"), m.Initial())
	if err != nil {
		t.Fatalf("Witness(EX q): %v", err)
	}
	if len(w.States) != 2 {
		t.Errorf("EX witness should have exactly two states, got %v", w.States)
	}
	w, err = c.Witness(context.Background(), logic.MustParse("E (p U q)"), m.Initial())
	if err != nil {
		t.Fatalf("Witness(EU): %v", err)
	}
	if !m.Holds(w.States[len(w.States)-1], kripke.P("q")) {
		t.Error("EU witness should end in a q state")
	}
	cx, err := c.Counterexample(context.Background(), logic.MustParse("A (p U r)"), m.Initial())
	if err != nil {
		t.Fatalf("Counterexample(AU): %v", err)
	}
	if len(cx.States) == 0 {
		t.Error("AU counterexample should be non-empty")
	}
	cxX, err := c.Counterexample(context.Background(), logic.MustParse("AX r"), m.Initial())
	if err != nil {
		t.Fatalf("Counterexample(AX): %v", err)
	}
	if len(cxX.States) != 2 {
		t.Errorf("AX counterexample should have two states, got %v", cxX.States)
	}
}

func TestPathFormulaComplexity(t *testing.T) {
	if got := PathFormulaComplexity(logic.MustParse("(F p) & (G q)")); got != 2 {
		t.Errorf("complexity = %d, want 2", got)
	}
	if got := PathFormulaComplexity(logic.MustParse("p")); got != 0 {
		t.Errorf("complexity = %d, want 0", got)
	}
}

func TestTableauComplexityLimit(t *testing.T) {
	m := buildLine(t)
	c := New(m)
	// 21 distinct until operators exceed the tableau limit.
	f := "F p0"
	for i := 1; i <= 21; i++ {
		f = "(F p" + string(rune('0'+i%10)) + string(rune('a'+i/10)) + ") & " + f
	}
	_, err := c.Sat(context.Background(), logic.MustParse("E ("+f+")"))
	if err == nil {
		t.Error("expected the tableau limit to trigger")
	}
}

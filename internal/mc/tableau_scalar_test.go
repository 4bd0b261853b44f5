package mc

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// The scalar tableau product below is the reference the packed product
// (tableau_packed.go) is pinned against, the way vector_test.go keeps the
// scalar EX/EU/EG: it builds one node per (state, assignment) pair with a
// []bool assignment and tests every candidate edge against the expansion
// laws directly.  It is deliberately naive and lives only in tests.

// tableauNode is one (state, assignment) pair.  The assignment records the
// truth value of every closure formula.
type tableauNode struct {
	state kripke.State
	truth []bool
}

// runTableau builds the product of the structure with the tableau one node
// at a time and returns the states s for which some node (s, K) with root ∈ K
// reaches a nontrivial self-fulfilling SCC.
func (c *Checker) runTableau(tb *tableau, placeholders map[string]kripke.BitSet) (kripke.BitSet, error) {
	numStates := c.m.NumStates()
	rootIdx := len(tb.closure) - 1

	// Enumerate tableau nodes per structure state.
	var nodes []tableauNode
	nodesOfState := make([][]int, numStates)
	free := len(tb.untils) + len(tb.nexts)
	combos := 1 << free
	for s := 0; s < numStates; s++ {
		if s&1023 == 0 {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
		}
		base := c.baseTruth(tb, kripke.State(s), placeholders)
		truth := make([]bool, len(tb.closure))
		for mask := 0; mask < combos; mask++ {
			copy(truth, base)
			bit := 0
			for _, idx := range tb.untils {
				truth[idx] = mask&(1<<bit) != 0
				bit++
			}
			for _, idx := range tb.nexts {
				truth[idx] = mask&(1<<bit) != 0
				bit++
			}
			if !tb.evaluateDerived(truth) {
				continue
			}
			nodesOfState[s] = append(nodesOfState[s], len(nodes))
			nodes = append(nodes, tableauNode{state: kripke.State(s), truth: append([]bool(nil), truth...)})
		}
	}
	c.stats.TableauNodes += len(nodes)

	// Build edges.
	g := graph.New(len(nodes))
	for ni, n := range nodes {
		if ni&1023 == 0 {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
		}
		for _, t := range c.m.Succ(n.state) {
			for _, mj := range nodesOfState[t] {
				if tb.edgeAllowed(n.truth, nodes[mj].truth) {
					g.AddEdge(ni, mj)
				}
			}
		}
	}

	// Find self-fulfilling nontrivial SCCs.
	scc := g.SCC()
	good := make([]bool, len(nodes))
	for comp := 0; comp < scc.NumComponents(); comp++ {
		if scc.IsTrivial(g, comp) {
			continue
		}
		if tb.selfFulfilling(nodes, scc.Components[comp]) {
			for _, v := range scc.Components[comp] {
				good[v] = true
			}
		}
	}

	// Nodes that can reach a good node.
	var seeds []int
	for v, ok := range good {
		if ok {
			seeds = append(seeds, v)
		}
	}
	canReach := g.BackwardReachable(seeds...)

	sat := kripke.NewBitSet(numStates)
	for s := 0; s < numStates; s++ {
		for _, ni := range nodesOfState[s] {
			if nodes[ni].truth[rootIdx] && canReach[ni] {
				sat.Set(s)
				break
			}
		}
	}
	return sat, nil
}

// baseTruth computes the truth values of the leaf formulas (constants, plain
// atoms, placeholders, instantiated indexed atoms and "exactly one" atoms)
// at state s.  Non-leaf entries are left false and are filled in by
// evaluateDerived.
func (c *Checker) baseTruth(tb *tableau, s kripke.State, placeholders map[string]kripke.BitSet) []bool {
	truth := make([]bool, len(tb.closure))
	for idx, f := range tb.closure {
		switch node := f.(type) {
		case *logic.Const:
			truth[idx] = node.Value
		case *logic.Atom:
			if sat, ok := placeholders[node.Name]; ok {
				truth[idx] = sat.Get(int(s))
			} else {
				truth[idx] = c.m.Holds(s, kripke.P(node.Name))
			}
		case *logic.InstAtom:
			truth[idx] = c.m.Holds(s, kripke.PI(node.Prop, node.Index))
		case *logic.One:
			truth[idx] = c.m.ExactlyOne(s, node.Prop)
		}
	}
	return truth
}

// evaluateDerived fills in the truth values of boolean nodes bottom-up given
// the leaf and elementary (U, X) values, and checks local consistency of the
// until expansion (h ∈ K ⇒ gUh ∈ K, and gUh ∈ K ∧ h ∉ K ⇒ g ∈ K).  It
// reports whether the assignment is locally consistent.
func (tb *tableau) evaluateDerived(truth []bool) bool {
	for idx, f := range tb.closure {
		kids := tb.children[idx]
		switch f.(type) {
		case *logic.Not:
			truth[idx] = !truth[kids[0]]
		case *logic.And:
			v := true
			for _, k := range kids {
				v = v && truth[k]
			}
			truth[idx] = v
		case *logic.Or:
			v := false
			for _, k := range kids {
				v = v || truth[k]
			}
			truth[idx] = v
		}
	}
	// Local consistency of untils.
	for _, idx := range tb.untils {
		kids := tb.children[idx]
		l, r := truth[kids[0]], truth[kids[1]]
		u := truth[idx]
		if r && !u {
			return false
		}
		if u && !r && !l {
			return false
		}
	}
	return true
}

// edgeAllowed reports whether the tableau permits an edge from assignment k
// to assignment kNext: the expansion laws for X and U must hold across the
// step.
func (tb *tableau) edgeAllowed(k, kNext []bool) bool {
	for _, idx := range tb.nexts {
		child := tb.children[idx][0]
		if k[idx] != kNext[child] {
			return false
		}
	}
	for _, idx := range tb.untils {
		kids := tb.children[idx]
		l, r := k[kids[0]], k[kids[1]]
		want := r || (l && kNext[idx])
		if k[idx] != want {
			return false
		}
	}
	return true
}

// selfFulfilling reports whether the SCC given by the node indices comp is
// self-fulfilling: for every until formula that is asserted in some node of
// the component, the right-hand side holds in some node of the component.
func (tb *tableau) selfFulfilling(nodes []tableauNode, comp []int) bool {
	for _, uIdx := range tb.untils {
		rIdx := tb.children[uIdx][1]
		asserted := false
		fulfilled := false
		for _, v := range comp {
			if nodes[v].truth[uIdx] {
				asserted = true
			}
			if nodes[v].truth[rIdx] {
				fulfilled = true
			}
		}
		if asserted && !fulfilled {
			return false
		}
	}
	return true
}

// tableauProduct atomizes the path formula p, builds its tableau and decides
// it with the scalar reference product or the packed one.  It returns the
// satisfaction set and the number of nodes the product added to
// Stats().TableauNodes.
func tableauProduct(t *testing.T, c *Checker, p logic.Formula, scalar bool) (kripke.BitSet, int) {
	t.Helper()
	atomized, placeholders, err := c.atomizePathFormula(logic.Desugar(p))
	if err != nil {
		t.Fatalf("atomizePathFormula(%s): %v", p, err)
	}
	tb, err := newTableau(atomized)
	if err != nil {
		t.Fatalf("newTableau(%s): %v", p, err)
	}
	run := c.runTableauPacked
	if scalar {
		run = c.runTableau
	}
	before := c.Stats().TableauNodes
	sat, err := run(tb, placeholders)
	if err != nil {
		t.Fatalf("tableau product (scalar %v) of %s: %v", scalar, p, err)
	}
	return sat, c.Stats().TableauNodes - before
}

// TestScalarTableauMatchesPacked: on randomized structures the scalar product
// agrees with the packed product state-for-state and builds as many nodes,
// across untils, nexts, negations, placeholders (embedded E subformulas),
// instantiated indexed atoms and "exactly one" atoms.  The battery includes
// a closure of 85 entries (two-word assignments), 11 and 20 temporal
// operators, an assignment table of more than 1,024 entries, and an
// X (g U h) whose demand on the successor contradicts the until's own.
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
		logic.MustParse("p & !(p U q) & X (p U q)"),
		chainFormula(40),
		logic.Conj(chainFormula(40), logic.Until(p, rr)),
		logic.Conj(nestEventually(10, q), logic.Next(p)),
	}
	compare := func(iter int, m *kripke.Structure, f logic.Formula) {
		t.Helper()
		// The scalar product is sequential, so one run serves every worker
		// count.
		scalar, scalarNodes := tableauProduct(t, New(m), f, true)
		for _, workers := range vectorWorkerCounts {
			packed, packedNodes := tableauProduct(t, New(m).SetWorkers(workers), f, false)
			if packedNodes != scalarNodes {
				t.Fatalf("iter %d workers %d formula %s: scalar product built %d nodes, packed %d",
					iter, workers, f, scalarNodes, packedNodes)
			}
			for s := 0; s < m.NumStates(); s++ {
				if scalar.Get(s) != packed.Get(s) {
					t.Fatalf("iter %d workers %d formula %s: scalar and packed disagree at state %d (scalar %v, packed %v)",
						iter, workers, f, s, scalar.Get(s), packed.Get(s))
				}
			}
		}
	}
	r := rand.New(rand.NewSource(515151))
	for iter := 0; iter < 8; iter++ {
		m := randomStructure(r, 2+r.Intn(30))
		for _, f := range formulas {
			compare(iter, m, f)
		}
	}

	// Eight independent nexts give 256 assignments per leaf signature, so
	// five or more labels make a table of over 1,024.  Twenty operators
	// enumerate 2^20 masks per signature, so that structure stays tiny.
	var nexts []logic.Formula
	for _, f := range []logic.Formula{p, q, rr, logic.Next(p), logic.Next(q), logic.Next(rr), logic.Next(logic.Next(p)), logic.Next(logic.Next(q))} {
		nexts = append(nexts, logic.Next(f))
	}
	wide := randomStructure(r, 24)
	if wide.NumLabels() < 5 {
		t.Fatalf("structure has %d labels, want at least 5 for a table over 1,024 assignments", wide.NumLabels())
	}
	compare(8, wide, logic.Conj(nexts...))
	compare(9, randomStructure(r, 1), logic.Conj(nestEventually(19, q), logic.Next(p)))
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

// TestScalarFallbackWideFormula: path formulas with 11 temporal operators,
// decided end to end.  F^11 q and (X p) ∨ F^10 q collapse to EF q and
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
			t.Fatalf("E F^11 q disagrees with EF q at state %d (tableau %v, oracle %v)", s, wide.Get(s), efq.Get(s))
		}
	}

	mixed, err := c.satState(logic.ExistsPath(logic.Disj(logic.Next(p), nestEventually(10, q))))
	if err != nil {
		t.Fatalf("E ((X p) | F^10 q): %v", err)
	}
	for s := 0; s < m.NumStates(); s++ {
		want := exp.Get(s) || efq.Get(s)
		if mixed.Get(s) != want {
			t.Fatalf("E ((X p) | F^10 q) disagrees with EX p ∨ EF q at state %d (tableau %v, oracle %v)", s, mixed.Get(s), want)
		}
	}
}

// TestScalarTableauOperatorLimit: past 20 temporal operators the tableau
// refuses rather than enumerating 2^21 assignments per state.
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

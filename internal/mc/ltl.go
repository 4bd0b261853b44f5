package mc

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// This file implements the CTL* engine: deciding E ψ for an arbitrary path
// formula ψ by the classical tableau construction (Lichtenstein–Pnueli
// style, as presented for CTL* model checking by Emerson and Lei and in the
// Clarke–Grumberg–Peled book):
//
//  1. Maximal state subformulas of ψ are replaced by fresh placeholder
//     atoms whose satisfaction sets are computed recursively.
//  2. The remaining pure path formula is desugared to the operator set
//     {¬, ∧, ∨, X, U} over atoms.
//  3. A tableau node is a pair (state, atom) where the atom is a locally
//     consistent truth assignment to the subformulas of ψ that agrees with
//     the state's labelling on atomic propositions.
//  4. Edges follow the structure's transitions and the expansion laws
//     X g ∈ K  ⇔ g ∈ K'          and
//     g U h ∈ K ⇔ h ∈ K ∨ (g ∈ K ∧ g U h ∈ K').
//  5. M, s ⊨ E ψ iff some node (s, K) with ψ ∈ K can reach a nontrivial,
//     self-fulfilling strongly connected component of the tableau graph
//     (self-fulfilling: every until formula appearing in a node of the
//     component has its right-hand side satisfied somewhere in the
//     component).
//
// The construction is exponential in the number of temporal operators of ψ
// but linear in the structure, which matches the known complexity of CTL*
// model checking; the formulas in this library (and in the paper) are tiny.

const placeholderPrefix = "$mc$"

// satExistsLTL evaluates E p for a path formula p that is not CTL-shaped.
func (c *Checker) satExistsLTL(p logic.Formula) (kripke.BitSet, error) {
	atomized, placeholders, err := c.atomizePathFormula(logic.Desugar(p))
	if err != nil {
		return nil, err
	}
	tb, err := newTableau(atomized)
	if err != nil {
		return nil, err
	}
	// The packed product (tableau_packed.go) handles every formula whose
	// closure fits in one word; the scalar product below remains both the
	// fallback for wider formulas and the reference the packed engine is
	// pinned against in vector_test.go.
	if sat, ok, err := c.runTableauPacked(tb, placeholders); err != nil {
		return nil, err
	} else if ok {
		return sat, nil
	}
	return c.runTableau(tb, placeholders)
}

// atomizePathFormula replaces every embedded state subformula rooted at an E
// quantifier by a fresh placeholder atom and returns the rewritten formula
// together with the placeholder satisfaction sets.  The input must already
// be desugared (no A, F, G, R, W, →, ↔ nodes).
func (c *Checker) atomizePathFormula(p logic.Formula) (logic.Formula, map[string]kripke.BitSet, error) {
	placeholders := make(map[string]kripke.BitSet)
	counter := 0
	var rewrite func(f logic.Formula) (logic.Formula, error)
	rewrite = func(f logic.Formula) (logic.Formula, error) {
		switch node := f.(type) {
		case *logic.Const, *logic.Atom, *logic.InstAtom, *logic.One:
			return f, nil
		case *logic.IndexedAtom:
			return nil, fmt.Errorf("mc: free indexed proposition %s inside a path formula", node)
		case *logic.E, *logic.A, *logic.ForallIndex, *logic.ExistsIndex:
			sat, err := c.satState(f)
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s%d", placeholderPrefix, counter)
			counter++
			placeholders[name] = sat
			return logic.Prop(name), nil
		case *logic.Not:
			inner, err := rewrite(node.F)
			if err != nil {
				return nil, err
			}
			return logic.Neg(inner), nil
		case *logic.And:
			kids := make([]logic.Formula, len(node.Fs))
			for i, k := range node.Fs {
				nk, err := rewrite(k)
				if err != nil {
					return nil, err
				}
				kids[i] = nk
			}
			return logic.Conj(kids...), nil
		case *logic.Or:
			kids := make([]logic.Formula, len(node.Fs))
			for i, k := range node.Fs {
				nk, err := rewrite(k)
				if err != nil {
					return nil, err
				}
				kids[i] = nk
			}
			return logic.Disj(kids...), nil
		case *logic.X:
			inner, err := rewrite(node.F)
			if err != nil {
				return nil, err
			}
			return logic.Next(inner), nil
		case *logic.U:
			l, err := rewrite(node.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(node.R)
			if err != nil {
				return nil, err
			}
			return logic.Until(l, r), nil
		default:
			return nil, fmt.Errorf("mc: unexpected operator %s in desugared path formula", logic.KindOf(f))
		}
	}
	out, err := rewrite(p)
	if err != nil {
		return nil, nil, err
	}
	return out, placeholders, nil
}

// tableau holds the closure of a desugared, atomized path formula.
type tableau struct {
	root     logic.Formula
	closure  []logic.Formula // all distinct subformulas, children before parents
	keyOf    map[string]int
	children [][]int // indices into closure
	untils   []int   // closure indices of U nodes
	nexts    []int   // closure indices of X nodes
}

func newTableau(root logic.Formula) (*tableau, error) {
	tb := &tableau{root: root, keyOf: make(map[string]int)}
	var add func(f logic.Formula) (int, error)
	add = func(f logic.Formula) (int, error) {
		key := logic.Key(f)
		if idx, ok := tb.keyOf[key]; ok {
			return idx, nil
		}
		kids := logic.Children(f)
		kidIdx := make([]int, len(kids))
		for i, k := range kids {
			idx, err := add(k)
			if err != nil {
				return 0, err
			}
			kidIdx[i] = idx
		}
		idx := len(tb.closure)
		tb.closure = append(tb.closure, f)
		tb.children = append(tb.children, kidIdx)
		tb.keyOf[key] = idx
		switch f.(type) {
		case *logic.U:
			tb.untils = append(tb.untils, idx)
		case *logic.X:
			tb.nexts = append(tb.nexts, idx)
		}
		return idx, nil
	}
	if _, err := add(root); err != nil {
		return nil, err
	}
	return tb, nil
}

// tableauNode is one (state, assignment) pair.  The assignment records the
// truth value of every closure formula.
type tableauNode struct {
	state kripke.State
	truth []bool
}

// runTableau builds the product of the structure with the tableau and
// returns the states s for which some node (s, K) with root ∈ K reaches a
// nontrivial self-fulfilling SCC.
func (c *Checker) runTableau(tb *tableau, placeholders map[string]kripke.BitSet) (kripke.BitSet, error) {
	numStates := c.m.NumStates()
	rootIdx := tb.keyOf[logic.Key(tb.root)]

	// Enumerate tableau nodes per structure state.
	var nodes []tableauNode
	nodesOfState := make([][]int, numStates)
	free := len(tb.untils) + len(tb.nexts)
	if free > 20 {
		return nil, fmt.Errorf("mc: path formula has %d temporal operators, exceeding the tableau limit of 20", free)
	}
	combos := 1 << free
	for s := 0; s < numStates; s++ {
		if s&1023 == 0 {
			if err := c.cancelled(); err != nil {
				return nil, err
			}
		}
		base, err := c.baseTruth(tb, kripke.State(s), placeholders)
		if err != nil {
			return nil, err
		}
		for mask := 0; mask < combos; mask++ {
			truth := make([]bool, len(tb.closure))
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
			nodes = append(nodes, tableauNode{state: kripke.State(s), truth: truth})
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
func (c *Checker) baseTruth(tb *tableau, s kripke.State, placeholders map[string]kripke.BitSet) ([]bool, error) {
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
	return truth, nil
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

// PathFormulaComplexity returns the number of temporal operators in the
// desugared form of p; it determines the exponent of the tableau size and is
// exposed for the experiment harness.
func PathFormulaComplexity(p logic.Formula) int {
	d := logic.Desugar(p)
	count := 0
	logic.Walk(d, func(f logic.Formula) bool {
		switch f.(type) {
		case *logic.U, *logic.X:
			count++
		}
		return true
	})
	return count
}

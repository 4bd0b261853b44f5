package mc

import (
	"fmt"

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
// tableau_packed.go builds the product (steps 3–5) on bit-packed
// assignments; tableau_scalar_test.go keeps a one-node-at-a-time product as
// the reference it is tested against.

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
	return c.runTableauPacked(tb, placeholders)
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

// tableauOperatorLimit caps the temporal operators of a path formula: the
// product enumerates 2^operators assignments per leaf signature.
const tableauOperatorLimit = 20

// tableau holds the closure of a desugared, atomized path formula.  The root
// is the last closure entry.
type tableau struct {
	closure  []logic.Formula // all distinct subformulas, children before parents
	children [][]int         // indices into closure
	untils   []int           // closure indices of U nodes
	nexts    []int           // closure indices of X nodes
	derived  []int           // closure indices of ¬, ∧ and ∨ nodes
}

// newTableau builds the closure of root.  It refuses a formula with more than
// tableauOperatorLimit temporal operators.
func newTableau(root logic.Formula) (*tableau, error) {
	tb := &tableau{}
	keyOf := make(map[string]int)
	var add func(f logic.Formula) int
	add = func(f logic.Formula) int {
		key := logic.Key(f)
		if idx, ok := keyOf[key]; ok {
			return idx
		}
		kids := logic.Children(f)
		kidIdx := make([]int, len(kids))
		for i, k := range kids {
			kidIdx[i] = add(k)
		}
		idx := len(tb.closure)
		tb.closure = append(tb.closure, f)
		tb.children = append(tb.children, kidIdx)
		keyOf[key] = idx
		switch f.(type) {
		case *logic.U:
			tb.untils = append(tb.untils, idx)
		case *logic.X:
			tb.nexts = append(tb.nexts, idx)
		case *logic.Not, *logic.And, *logic.Or:
			tb.derived = append(tb.derived, idx)
		}
		return idx
	}
	add(root)
	if free := len(tb.untils) + len(tb.nexts); free > tableauOperatorLimit {
		return nil, fmt.Errorf("mc: path formula has %d temporal operators, exceeding the tableau limit of %d", free, tableauOperatorLimit)
	}
	return tb, nil
}

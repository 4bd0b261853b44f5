package logic

import "fmt"

// This file contains the structural transformations used by the model
// checker and by the parameterized verification core:
//
//   - Desugar: rewrite into the basic operator set {¬, ∨, ∧, E, X, U} plus
//     atoms, which is the set the semantics of Section 2 is defined on,
//   - NNF: negation normal form,
//   - Substitute / Instantiate: replace index variables by concrete index
//     values, and expand ∧i / ∨i over a finite index set, and
//   - Simplify: cheap constant folding.

// Desugar rewrites f into the basic operator set of Section 2: boolean
// constants, atoms, ¬, n-ary ∧ and ∨, the existential path quantifier E, and
// the temporal operators X and U.  The derived operators are expanded as
//
//	A g      ≡ ¬E ¬g
//	F g      ≡ true U g
//	G g      ≡ ¬(true U ¬g)
//	g R h    ≡ ¬(¬g U ¬h)
//	g W h    ≡ ¬(¬h U (¬g ∧ ¬h))
//	g → h    ≡ ¬g ∨ h
//	g ↔ h    ≡ (¬g ∨ h) ∧ (¬h ∨ g)
//
// Indexed quantifiers are left untouched (Instantiate removes them).
func Desugar(f Formula) Formula {
	switch n := f.(type) {
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return f
	case *Not:
		return Neg(Desugar(n.F))
	case *And:
		return Conj(desugarAll(n.Fs)...)
	case *Or:
		return Disj(desugarAll(n.Fs)...)
	case *Implies:
		return Disj(Neg(Desugar(n.L)), Desugar(n.R))
	case *Iff:
		l, r := Desugar(n.L), Desugar(n.R)
		return Conj(Disj(Neg(l), r), Disj(Neg(r), l))
	case *E:
		return ExistsPath(Desugar(n.F))
	case *A:
		return Neg(ExistsPath(Neg(Desugar(n.F))))
	case *X:
		return Next(Desugar(n.F))
	case *U:
		return Until(Desugar(n.L), Desugar(n.R))
	case *R:
		return Neg(Until(Neg(Desugar(n.L)), Neg(Desugar(n.Rhs))))
	case *W:
		l, r := Desugar(n.L), Desugar(n.R)
		return Neg(Until(Neg(r), Conj(Neg(l), Neg(r))))
	case *Ev:
		return Until(True(), Desugar(n.F))
	case *Alw:
		return Neg(Until(True(), Neg(Desugar(n.F))))
	case *ForallIndex:
		return ForallIdx(n.Var, Desugar(n.Body))
	case *ExistsIndex:
		return ExistsIdx(n.Var, Desugar(n.Body))
	default:
		return f
	}
}

func desugarAll(fs []Formula) []Formula {
	out := make([]Formula, len(fs))
	for i, f := range fs {
		out[i] = Desugar(f)
	}
	return out
}

// NNF returns the negation normal form of f: negations are pushed inward so
// that they apply only to atoms, path quantifiers or temporal operators that
// have no boolean dual in the basic set.  NNF first desugars f.  The
// rewriting keeps E/A and U/R pairs so no operator is lost:
//
//	¬(g ∧ h) → ¬g ∨ ¬h         ¬E g → A ¬g
//	¬(g ∨ h) → ¬g ∧ ¬h         ¬A g → E ¬g
//	¬¬g      → g               ¬X g → X ¬g
//	¬(g U h) → ¬g R ¬h         ¬(g R h) → ¬g U ¬h
//	¬∧i g    → ∨i ¬g           ¬∨i g    → ∧i ¬g
func NNF(f Formula) Formula {
	return nnf(Desugar(f), false)
}

func nnf(f Formula, negated bool) Formula {
	switch n := f.(type) {
	case *Const:
		if negated {
			return &Const{Value: !n.Value}
		}
		return f
	case *Atom, *IndexedAtom, *InstAtom, *One:
		if negated {
			return Neg(f)
		}
		return f
	case *Not:
		return nnf(n.F, !negated)
	case *And:
		kids := make([]Formula, len(n.Fs))
		for i, c := range n.Fs {
			kids[i] = nnf(c, negated)
		}
		if negated {
			return Disj(kids...)
		}
		return Conj(kids...)
	case *Or:
		kids := make([]Formula, len(n.Fs))
		for i, c := range n.Fs {
			kids[i] = nnf(c, negated)
		}
		if negated {
			return Conj(kids...)
		}
		return Disj(kids...)
	case *E:
		if negated {
			return ForallPaths(nnf(n.F, true))
		}
		return ExistsPath(nnf(n.F, false))
	case *A:
		if negated {
			return ExistsPath(nnf(n.F, true))
		}
		return ForallPaths(nnf(n.F, false))
	case *X:
		return Next(nnf(n.F, negated))
	case *U:
		if negated {
			return Release(nnf(n.L, true), nnf(n.R, true))
		}
		return Until(nnf(n.L, false), nnf(n.R, false))
	case *R:
		if negated {
			return Until(nnf(n.L, true), nnf(n.Rhs, true))
		}
		return Release(nnf(n.L, false), nnf(n.Rhs, false))
	case *ForallIndex:
		if negated {
			return ExistsIdx(n.Var, nnf(n.Body, true))
		}
		return ForallIdx(n.Var, nnf(n.Body, false))
	case *ExistsIndex:
		if negated {
			return ForallIdx(n.Var, nnf(n.Body, true))
		}
		return ExistsIdx(n.Var, nnf(n.Body, false))
	default:
		// Derived operators were removed by Desugar; anything left is
		// returned under an explicit negation to stay conservative.
		if negated {
			return Neg(f)
		}
		return f
	}
}

// Substitute returns f with every free occurrence of the index variable
// named variable replaced by the concrete index value.  Bound occurrences
// (under a ∧variable / ∨variable) are left untouched.
func Substitute(f Formula, variable string, value int) Formula {
	switch n := f.(type) {
	case *IndexedAtom:
		if n.Var == variable {
			return InstProp(n.Prop, value)
		}
		return f
	case *ForallIndex:
		if n.Var == variable {
			return f
		}
		return ForallIdx(n.Var, Substitute(n.Body, variable, value))
	case *ExistsIndex:
		if n.Var == variable {
			return f
		}
		return ExistsIdx(n.Var, Substitute(n.Body, variable, value))
	case *Const, *Atom, *InstAtom, *One:
		return f
	default:
		kids := Children(f)
		changed := false
		for i, c := range kids {
			nc := Substitute(c, variable, value)
			if nc != c {
				changed = true
			}
			kids[i] = nc
		}
		if !changed {
			return f
		}
		g, err := Rebuild(f, kids)
		if err != nil {
			// Rebuild cannot fail here: kids has the right length by
			// construction.  Return the original formula defensively.
			return f
		}
		return g
	}
}

// Instantiate expands every indexed quantifier in f over the concrete index
// set indices: ∧i g(i) becomes the conjunction of g(c) for c in indices and
// ∨i g(i) the corresponding disjunction.  The result contains no indexed
// quantifiers and no IndexedAtom nodes (only InstAtom nodes), so it can be
// evaluated directly on a concrete structure whose index set is indices.
//
// Instantiate returns an error if f contains a free index variable, because
// such a formula has no meaning on a concrete structure.
func Instantiate(f Formula, indices []int) (Formula, error) {
	if vs := FreeIndexVars(f); len(vs) > 0 {
		return nil, fmt.Errorf("logic: Instantiate: formula %s has free index variables %v", f, vs)
	}
	return instantiate(f, indices), nil
}

func instantiate(f Formula, indices []int) Formula {
	switch n := f.(type) {
	case *ForallIndex:
		parts := make([]Formula, 0, len(indices))
		for _, c := range indices {
			parts = append(parts, instantiate(Substitute(n.Body, n.Var, c), indices))
		}
		return Conj(parts...)
	case *ExistsIndex:
		parts := make([]Formula, 0, len(indices))
		for _, c := range indices {
			parts = append(parts, instantiate(Substitute(n.Body, n.Var, c), indices))
		}
		return Disj(parts...)
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return f
	default:
		kids := Children(f)
		for i, c := range kids {
			kids[i] = instantiate(c, indices)
		}
		g, err := Rebuild(f, kids)
		if err != nil {
			return f
		}
		return g
	}
}

// Simplify performs cheap constant folding: it removes boolean constants
// from conjunctions and disjunctions, collapses double negations and
// flattens nested conjunctions/disjunctions.  Simplify never changes the
// meaning of the formula.
func Simplify(f Formula) Formula {
	switch n := f.(type) {
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return f
	case *Not:
		inner := Simplify(n.F)
		switch m := inner.(type) {
		case *Const:
			return &Const{Value: !m.Value}
		case *Not:
			return m.F
		}
		return Neg(inner)
	case *And:
		var parts []Formula
		for _, c := range n.Fs {
			s := Simplify(c)
			switch m := s.(type) {
			case *Const:
				if !m.Value {
					return False()
				}
				// Drop true conjuncts.
			case *And:
				parts = append(parts, m.Fs...)
			default:
				parts = append(parts, s)
			}
		}
		return Conj(parts...)
	case *Or:
		var parts []Formula
		for _, c := range n.Fs {
			s := Simplify(c)
			switch m := s.(type) {
			case *Const:
				if m.Value {
					return True()
				}
				// Drop false disjuncts.
			case *Or:
				parts = append(parts, m.Fs...)
			default:
				parts = append(parts, s)
			}
		}
		return Disj(parts...)
	case *Implies:
		return Simplify(Disj(Neg(n.L), n.R))
	case *Iff:
		l, r := Simplify(n.L), Simplify(n.R)
		return Simplify(Conj(Disj(Neg(l), r), Disj(Neg(r), l)))
	default:
		kids := Children(f)
		for i, c := range kids {
			kids[i] = Simplify(c)
		}
		g, err := Rebuild(f, kids)
		if err != nil {
			return f
		}
		return g
	}
}

// MaxQuantifierNesting returns the maximum nesting depth of indexed
// quantifiers (∧i / ∨i) in f.  Section 6 of the paper conjectures that a
// formula with at most k levels of indexed quantifiers cannot distinguish
// free products with more than k identical processes; the experiment harness
// explores this conjecture and uses this measurement.
func MaxQuantifierNesting(f Formula) int {
	switch n := f.(type) {
	case *ForallIndex:
		return 1 + MaxQuantifierNesting(n.Body)
	case *ExistsIndex:
		return 1 + MaxQuantifierNesting(n.Body)
	default:
		max := 0
		var buf [2]Formula
		for _, c := range children(f, &buf) {
			if d := MaxQuantifierNesting(c); d > max {
				max = d
			}
		}
		return max
	}
}

package logic

import (
	"fmt"
	"sort"
)

// This file implements the syntactic classifiers used throughout the
// library:
//
//   - the CTL* state/path formula distinction of Section 2,
//   - detection of the CTL fragment (so the model checker can use the linear
//     labelling algorithm),
//   - the free index variables and closedness of ICTL* formulas, and
//   - the *restricted* ICTL* fragment of Section 4 (no nexttime operator, no
//     ∨j under a ∨i, and no ∨j inside the operands of an until).

// IsStateFormula reports whether f is a state formula according to the CTL*
// grammar of Section 2 extended with the indexed operators of Section 4.
// Every state formula is also a path formula; the converse fails for
// formulas whose outermost temporal operator is not guarded by a path
// quantifier.
func IsStateFormula(f Formula) bool {
	switch n := f.(type) {
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return true
	case *Not:
		return IsStateFormula(n.F)
	case *And:
		return allState(n.Fs)
	case *Or:
		return allState(n.Fs)
	case *Implies:
		return IsStateFormula(n.L) && IsStateFormula(n.R)
	case *Iff:
		return IsStateFormula(n.L) && IsStateFormula(n.R)
	case *E:
		return IsPathFormula(n.F)
	case *A:
		return IsPathFormula(n.F)
	case *ForallIndex:
		return IsStateFormula(n.Body)
	case *ExistsIndex:
		return IsStateFormula(n.Body)
	case *X, *U, *R, *W, *Ev, *Alw:
		return false
	default:
		return false
	}
}

func allState(fs []Formula) bool {
	for _, f := range fs {
		if !IsStateFormula(f) {
			return false
		}
	}
	return true
}

// IsPathFormula reports whether f is a path formula according to the CTL*
// grammar: every state formula is a path formula, and path formulas are
// closed under the boolean and temporal operators.
func IsPathFormula(f Formula) bool {
	switch n := f.(type) {
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return true
	case *Not:
		return IsPathFormula(n.F)
	case *And:
		return allPath(n.Fs)
	case *Or:
		return allPath(n.Fs)
	case *Implies:
		return IsPathFormula(n.L) && IsPathFormula(n.R)
	case *Iff:
		return IsPathFormula(n.L) && IsPathFormula(n.R)
	case *E, *A:
		return IsStateFormula(f)
	case *X:
		return IsPathFormula(n.F)
	case *U:
		return IsPathFormula(n.L) && IsPathFormula(n.R)
	case *R:
		return IsPathFormula(n.L) && IsPathFormula(n.Rhs)
	case *W:
		return IsPathFormula(n.L) && IsPathFormula(n.R)
	case *Ev:
		return IsPathFormula(n.F)
	case *Alw:
		return IsPathFormula(n.F)
	case *ForallIndex:
		return IsStateFormula(n.Body)
	case *ExistsIndex:
		return IsStateFormula(n.Body)
	default:
		return false
	}
}

func allPath(fs []Formula) bool {
	for _, f := range fs {
		if !IsPathFormula(f) {
			return false
		}
	}
	return true
}

// IsCTL reports whether f lies in the CTL fragment of CTL*: every temporal
// operator is immediately preceded by a path quantifier and its operands are
// again CTL state formulas.  The model checker uses this to select the
// linear-time labelling algorithm.  Indexed quantifiers are allowed around
// CTL bodies (they instantiate to boolean combinations).
func IsCTL(f Formula) bool {
	switch n := f.(type) {
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return true
	case *Not:
		return IsCTL(n.F)
	case *And:
		return allCTL(n.Fs)
	case *Or:
		return allCTL(n.Fs)
	case *Implies:
		return IsCTL(n.L) && IsCTL(n.R)
	case *Iff:
		return IsCTL(n.L) && IsCTL(n.R)
	case *ForallIndex:
		return IsCTL(n.Body)
	case *ExistsIndex:
		return IsCTL(n.Body)
	case *E:
		return isCTLPathBody(n.F)
	case *A:
		return isCTLPathBody(n.F)
	default:
		// A bare temporal operator is not a CTL state formula.
		return false
	}
}

func allCTL(fs []Formula) bool {
	for _, f := range fs {
		if !IsCTL(f) {
			return false
		}
	}
	return true
}

// isCTLPathBody accepts exactly one temporal operator applied to CTL state
// formulas: X g, F g, G g, g U h, g R h, g W h.
func isCTLPathBody(f Formula) bool {
	switch n := f.(type) {
	case *X:
		return IsCTL(n.F)
	case *Ev:
		return IsCTL(n.F)
	case *Alw:
		return IsCTL(n.F)
	case *U:
		return IsCTL(n.L) && IsCTL(n.R)
	case *R:
		return IsCTL(n.L) && IsCTL(n.Rhs)
	case *W:
		return IsCTL(n.L) && IsCTL(n.R)
	default:
		return false
	}
}

// HasNext reports whether f contains the nexttime operator X anywhere.
func HasNext(f Formula) bool {
	found := false
	Walk(f, func(g Formula) bool {
		if _, ok := g.(*X); ok {
			found = true
			return false
		}
		return !found
	})
	return found
}

// HasIndexedQuantifier reports whether f contains a ∧i or ∨i operator.
func HasIndexedQuantifier(f Formula) bool {
	found := false
	Walk(f, func(g Formula) bool {
		switch g.(type) {
		case *ForallIndex, *ExistsIndex:
			found = true
			return false
		}
		return !found
	})
	return found
}

// FreeIndexVars returns the index variables that occur free in f, sorted.
func FreeIndexVars(f Formula) []string {
	free := map[string]bool{}
	collectFree(f, map[string]bool{}, free)
	out := make([]string, 0, len(free))
	for v := range free {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func collectFree(f Formula, bound map[string]bool, free map[string]bool) {
	switch n := f.(type) {
	case *IndexedAtom:
		if !bound[n.Var] {
			free[n.Var] = true
		}
	case *ForallIndex:
		inner := copyBound(bound)
		inner[n.Var] = true
		collectFree(n.Body, inner, free)
	case *ExistsIndex:
		inner := copyBound(bound)
		inner[n.Var] = true
		collectFree(n.Body, inner, free)
	default:
		var buf [2]Formula
		for _, c := range children(f, &buf) {
			collectFree(c, bound, free)
		}
	}
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// IsClosed reports whether f has no free index variables.  Only closed
// formulas are (restricted) ICTL* formulas; the correspondence theorem
// (Theorem 5 of the paper) applies to closed formulas only.
func IsClosed(f Formula) bool { return len(FreeIndexVars(f)) == 0 }

// AtomNames returns the plain atomic proposition names occurring in f,
// sorted.  The special "exactly one" atoms are not included (see OneProps).
func AtomNames(f Formula) []string {
	set := map[string]bool{}
	Walk(f, func(g Formula) bool {
		if a, ok := g.(*Atom); ok {
			set[a.Name] = true
		}
		return true
	})
	return sortedKeys(set)
}

// IndexedPropNames returns the indexed proposition names occurring in f
// (from IndexedAtom and InstAtom nodes), sorted.
func IndexedPropNames(f Formula) []string {
	set := map[string]bool{}
	Walk(f, func(g Formula) bool {
		switch a := g.(type) {
		case *IndexedAtom:
			set[a.Prop] = true
		case *InstAtom:
			set[a.Prop] = true
		}
		return true
	})
	return sortedKeys(set)
}

// OneProps returns the proposition names used in "exactly one" atoms, sorted.
func OneProps(f Formula) []string {
	set := map[string]bool{}
	Walk(f, func(g Formula) bool {
		if o, ok := g.(*One); ok {
			set[o.Prop] = true
		}
		return true
	})
	return sortedKeys(set)
}

// ConstantIndices returns the concrete index values appearing in InstAtom
// nodes of f, sorted.  Closed ICTL* formulas must not contain any.
func ConstantIndices(f Formula) []int {
	set := map[int]bool{}
	Walk(f, func(g Formula) bool {
		if a, ok := g.(*InstAtom); ok {
			set[a.Index] = true
		}
		return true
	})
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// RestrictionViolation describes why a formula falls outside the restricted
// ICTL* fragment of Section 4.
type RestrictionViolation struct {
	// Rule is a short identifier of the violated restriction.
	Rule string
	// Detail is a human readable explanation including the offending
	// subformula.
	Detail string
}

// Error implements the error interface so a violation can be returned
// directly where an error is expected.
func (v *RestrictionViolation) Error() string {
	return fmt.Sprintf("logic: ICTL* restriction %s violated: %s", v.Rule, v.Detail)
}

// Restriction rule identifiers reported by CheckRestricted.
const (
	RuleNoNext            = "no-nexttime"
	RuleClosed            = "closed"
	RuleNoConstantIndex   = "no-constant-index"
	RuleSingleFreeVar     = "single-free-variable"
	RuleNoNestedExists    = "no-nested-indexed-quantifier"
	RuleNoQuantifierUntil = "no-indexed-quantifier-in-until"
	RuleStateFormula      = "state-formula"
)

// CheckRestricted verifies that f is a closed formula of the *restricted*
// ICTL* logic of Section 4 (with the "exactly one" extension).  The
// restrictions are:
//
//  1. f is a state formula and contains no nexttime operator;
//  2. f is closed and mentions no constant process indices;
//  3. the body of every ∧i / ∨i has exactly one free index variable (i) and
//     contains no further ∧j / ∨j operators;
//  4. neither operand of an until (or of the derived R/W/F/G operators,
//     which abbreviate untils) contains a ∧j / ∨j operator.
//
// It returns nil when all restrictions hold, and otherwise the list of
// violations found.
func CheckRestricted(f Formula) []*RestrictionViolation {
	var out []*RestrictionViolation
	if !IsStateFormula(f) {
		out = append(out, &RestrictionViolation{
			Rule:   RuleStateFormula,
			Detail: fmt.Sprintf("%s is not a CTL* state formula", f),
		})
	}
	if HasNext(f) {
		out = append(out, &RestrictionViolation{
			Rule:   RuleNoNext,
			Detail: fmt.Sprintf("%s contains the nexttime operator, which can count processes", f),
		})
	}
	if vs := FreeIndexVars(f); len(vs) > 0 {
		out = append(out, &RestrictionViolation{
			Rule:   RuleClosed,
			Detail: fmt.Sprintf("free index variables %v", vs),
		})
	}
	if cs := ConstantIndices(f); len(cs) > 0 {
		out = append(out, &RestrictionViolation{
			Rule:   RuleNoConstantIndex,
			Detail: fmt.Sprintf("constant process indices %v name specific processes", cs),
		})
	}
	out = append(out, checkQuantifierRules(f)...)
	return out
}

// IsRestricted reports whether f is a well-formed closed restricted ICTL*
// formula.
func IsRestricted(f Formula) bool { return len(CheckRestricted(f)) == 0 }

func checkQuantifierRules(f Formula) []*RestrictionViolation {
	var out []*RestrictionViolation
	Walk(f, func(g Formula) bool {
		switch n := g.(type) {
		case *ForallIndex:
			out = append(out, checkQuantifierBody(n.Var, n.Body, g)...)
		case *ExistsIndex:
			out = append(out, checkQuantifierBody(n.Var, n.Body, g)...)
		case *U:
			out = append(out, checkUntilOperands(n.L, n.R, g)...)
		case *R:
			out = append(out, checkUntilOperands(n.L, n.Rhs, g)...)
		case *W:
			out = append(out, checkUntilOperands(n.L, n.R, g)...)
		case *Ev:
			// F f abbreviates true U f, so the restriction on until
			// operands applies to it as well (and dually to G).
			out = append(out, checkUntilOperands(True(), n.F, g)...)
		case *Alw:
			out = append(out, checkUntilOperands(True(), n.F, g)...)
		}
		return true
	})
	return out
}

func checkQuantifierBody(variable string, body Formula, whole Formula) []*RestrictionViolation {
	var out []*RestrictionViolation
	if HasIndexedQuantifier(body) {
		out = append(out, &RestrictionViolation{
			Rule:   RuleNoNestedExists,
			Detail: fmt.Sprintf("the body of %s contains a nested indexed quantifier", whole),
		})
	}
	free := FreeIndexVars(body)
	if len(free) != 1 || free[0] != variable {
		out = append(out, &RestrictionViolation{
			Rule: RuleSingleFreeVar,
			Detail: fmt.Sprintf("the body of %s must have exactly the free index variable %q, got %v",
				whole, variable, free),
		})
	}
	return out
}

func checkUntilOperands(l, r Formula, whole Formula) []*RestrictionViolation {
	var out []*RestrictionViolation
	if HasIndexedQuantifier(l) || HasIndexedQuantifier(r) {
		out = append(out, &RestrictionViolation{
			Rule:   RuleNoQuantifierUntil,
			Detail: fmt.Sprintf("an operand of %s contains an indexed quantifier", whole),
		})
	}
	return out
}

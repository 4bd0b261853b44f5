// Package logic implements the specification logics of Browne, Clarke and
// Grumberg's "Reasoning about Networks with Many Identical Finite State
// Processes": the branching-time logic CTL* (without the nexttime operator)
// and its indexed extension ICTL*.
//
// The package provides
//
//   - an abstract syntax tree for CTL*/ICTL* formulas (state and path
//     formulas in a single Formula interface, as in the paper's Section 2),
//   - constructors and the usual derived operators (AG, AF, EF, EG, …),
//   - a parser and a pretty printer for a small concrete syntax,
//   - classifiers that recognise CTL formulas, pure path formulas, closed
//     formulas and the *restricted* ICTL* fragment of Section 4,
//   - structural transformations: negation normal form, substitution of
//     index variables, and instantiation of the indexed quantifiers
//     ∧i f(i) / ∨i f(i) over a concrete finite index set.
//
// The nexttime operator X is supported by the data structures and by the
// model checker (package internal/mc) because it is needed internally by the
// tableau construction, but the ICTL* well-formedness checker rejects it,
// exactly as the paper does: with X one can count the number of processes in
// a ring (Section 2), which would defeat the correspondence theorem.
package logic

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Formula is a CTL*/ICTL* formula.  Every node is either a state formula, a
// path formula or both; use Classify, IsStateFormula and IsPathFormula to
// interrogate a node's role.  Formulas are immutable after construction and
// may therefore be shared freely between goroutines.
type Formula interface {
	fmt.Stringer

	// isFormula is a marker restricting implementations to this package.
	isFormula()
}

// Kind identifies the concrete node type of a Formula.
type Kind int

// The formula node kinds.
const (
	KindConst Kind = iota + 1
	KindAtom
	KindIndexedAtom
	KindInstAtom
	KindOne
	KindNot
	KindAnd
	KindOr
	KindImplies
	KindIff
	KindExistsPath
	KindForallPath
	KindNext
	KindUntil
	KindRelease
	KindWeakUntil
	KindEventually
	KindAlways
	KindForallIndex
	KindExistsIndex
)

// String returns a human readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindConst:
		return "const"
	case KindAtom:
		return "atom"
	case KindIndexedAtom:
		return "indexed-atom"
	case KindInstAtom:
		return "instantiated-atom"
	case KindOne:
		return "one"
	case KindNot:
		return "not"
	case KindAnd:
		return "and"
	case KindOr:
		return "or"
	case KindImplies:
		return "implies"
	case KindIff:
		return "iff"
	case KindExistsPath:
		return "E"
	case KindForallPath:
		return "A"
	case KindNext:
		return "X"
	case KindUntil:
		return "U"
	case KindRelease:
		return "R"
	case KindWeakUntil:
		return "W"
	case KindEventually:
		return "F"
	case KindAlways:
		return "G"
	case KindForallIndex:
		return "forall"
	case KindExistsIndex:
		return "exists"
	default:
		return "unknown(" + strconv.Itoa(int(k)) + ")"
	}
}

// Const is the boolean constant true or false.
type Const struct {
	Value bool
}

// Atom is an ordinary (non-indexed) atomic proposition from the set AP.
type Atom struct {
	Name string
}

// IndexedAtom is an indexed atomic proposition A_i whose index is a *bound
// variable* (e.g. the i in "forall i . AG(d[i] -> AF c[i])").  The proposition
// name must belong to the structure's indexed proposition set IP.
type IndexedAtom struct {
	Prop string // proposition name, element of IP
	Var  string // index variable name
}

// InstAtom is an indexed atomic proposition A_c whose index is a *concrete*
// value, e.g. d_5.  Closed ICTL* formulas never contain InstAtoms (the paper
// forbids constant indices so that formulas cannot name a specific process);
// they arise from instantiating quantifiers over a concrete index set and in
// structure labellings.
type InstAtom struct {
	Prop  string
	Index int
}

// One is the special non-indexed atomic formula O_i P_i of Section 4: it
// holds in a state iff exactly one index value c has P_c in the state's
// label.  The index variable is implicit (it is not a binder), so One carries
// only the proposition name.
type One struct {
	Prop string
}

// Not is logical negation.
type Not struct {
	F Formula
}

// And is n-ary conjunction.  An empty conjunction is equivalent to true.
type And struct {
	Fs []Formula
}

// Or is n-ary disjunction.  An empty disjunction is equivalent to false.
type Or struct {
	Fs []Formula
}

// Implies is material implication, kept as an explicit node for readable
// printing; it desugars to ¬L ∨ R.
type Implies struct {
	L, R Formula
}

// Iff is logical equivalence; it desugars to (L→R) ∧ (R→L).
type Iff struct {
	L, R Formula
}

// E is the existential path quantifier: E f holds in a state iff some path
// starting there satisfies the path formula f.
type E struct {
	F Formula
}

// A is the universal path quantifier: A f ≡ ¬E ¬f.
type A struct {
	F Formula
}

// X is the nexttime operator.  It is excluded from ICTL* (see the package
// comment) but supported by the core machinery.
type X struct {
	F Formula
}

// U is the (strong) until operator: L U R.
type U struct {
	L, R Formula
}

// R is the release operator, the dual of until: L R R ≡ ¬(¬L U ¬R).
type R struct {
	L, Rhs Formula
}

// W is the weak until operator: L W R ≡ (L U R) ∨ G L.
type W struct {
	L, R Formula
}

// F is the eventually operator: F f ≡ true U f.  The Go type is named Ev to
// avoid clashing with the conventional one-letter receiver; the constructor
// is called Eventually.
type Ev struct {
	F Formula
}

// G is the always operator: G f ≡ ¬F ¬f.  The Go type is named Alw.
type Alw struct {
	F Formula
}

// ForallIndex is the indexed conjunction ∧i f(i) of Section 4 ("for every
// process i").  Body must have exactly one free index variable, Var.
type ForallIndex struct {
	Var  string
	Body Formula
}

// ExistsIndex is the indexed disjunction ∨i f(i) of Section 4 ("for some
// process i").  Body must have exactly one free index variable, Var.
type ExistsIndex struct {
	Var  string
	Body Formula
}

func (*Const) isFormula()       {}
func (*Atom) isFormula()        {}
func (*IndexedAtom) isFormula() {}
func (*InstAtom) isFormula()    {}
func (*One) isFormula()         {}
func (*Not) isFormula()         {}
func (*And) isFormula()         {}
func (*Or) isFormula()          {}
func (*Implies) isFormula()     {}
func (*Iff) isFormula()         {}
func (*E) isFormula()           {}
func (*A) isFormula()           {}
func (*X) isFormula()           {}
func (*U) isFormula()           {}
func (*R) isFormula()           {}
func (*W) isFormula()           {}
func (*Ev) isFormula()          {}
func (*Alw) isFormula()         {}
func (*ForallIndex) isFormula() {}
func (*ExistsIndex) isFormula() {}

// KindOf reports the node kind of f.  It returns 0 for nil or foreign
// implementations (which cannot be constructed outside this package).
func KindOf(f Formula) Kind {
	switch f.(type) {
	case *Const:
		return KindConst
	case *Atom:
		return KindAtom
	case *IndexedAtom:
		return KindIndexedAtom
	case *InstAtom:
		return KindInstAtom
	case *One:
		return KindOne
	case *Not:
		return KindNot
	case *And:
		return KindAnd
	case *Or:
		return KindOr
	case *Implies:
		return KindImplies
	case *Iff:
		return KindIff
	case *E:
		return KindExistsPath
	case *A:
		return KindForallPath
	case *X:
		return KindNext
	case *U:
		return KindUntil
	case *R:
		return KindRelease
	case *W:
		return KindWeakUntil
	case *Ev:
		return KindEventually
	case *Alw:
		return KindAlways
	case *ForallIndex:
		return KindForallIndex
	case *ExistsIndex:
		return KindExistsIndex
	default:
		return 0
	}
}

// ---------------------------------------------------------------------------
// Constructors.
// ---------------------------------------------------------------------------

// True returns the boolean constant true.
func True() Formula { return &Const{Value: true} }

// False returns the boolean constant false.
func False() Formula { return &Const{Value: false} }

// Prop returns the plain atomic proposition named name.
func Prop(name string) Formula { return &Atom{Name: name} }

// IdxProp returns the indexed atomic proposition prop_var, e.g. IdxProp("d",
// "i") is d_i.
func IdxProp(prop, variable string) Formula {
	return &IndexedAtom{Prop: prop, Var: variable}
}

// InstProp returns the indexed atomic proposition prop_index with a concrete
// index value, e.g. InstProp("t", 3) is t_3.
func InstProp(prop string, index int) Formula {
	return &InstAtom{Prop: prop, Index: index}
}

// ExactlyOne returns the special atom O_i prop_i: "exactly one process
// satisfies prop".
func ExactlyOne(prop string) Formula { return &One{Prop: prop} }

// Neg returns the negation ¬f.
func Neg(f Formula) Formula { return &Not{F: f} }

// Conj returns the conjunction of fs.  Conj() is true; Conj(f) is f.
func Conj(fs ...Formula) Formula {
	switch len(fs) {
	case 0:
		return True()
	case 1:
		return fs[0]
	default:
		cp := make([]Formula, len(fs))
		copy(cp, fs)
		return &And{Fs: cp}
	}
}

// Disj returns the disjunction of fs.  Disj() is false; Disj(f) is f.
func Disj(fs ...Formula) Formula {
	switch len(fs) {
	case 0:
		return False()
	case 1:
		return fs[0]
	default:
		cp := make([]Formula, len(fs))
		copy(cp, fs)
		return &Or{Fs: cp}
	}
}

// Imp returns the implication l → r.
func Imp(l, r Formula) Formula { return &Implies{L: l, R: r} }

// Equiv returns the equivalence l ↔ r.
func Equiv(l, r Formula) Formula { return &Iff{L: l, R: r} }

// ExistsPath returns E f: some computation path from the current state
// satisfies f.
func ExistsPath(f Formula) Formula { return &E{F: f} }

// ForallPaths returns A f: every computation path from the current state
// satisfies f.
func ForallPaths(f Formula) Formula { return &A{F: f} }

// Next returns X f.
func Next(f Formula) Formula { return &X{F: f} }

// Until returns l U r.
func Until(l, r Formula) Formula { return &U{L: l, R: r} }

// Release returns l R r.
func Release(l, r Formula) Formula { return &R{L: l, Rhs: r} }

// WeakUntil returns l W r.
func WeakUntil(l, r Formula) Formula { return &W{L: l, R: r} }

// Eventually returns F f.
func Eventually(f Formula) Formula { return &Ev{F: f} }

// Always returns G f.
func Always(f Formula) Formula { return &Alw{F: f} }

// ForallIdx returns the indexed conjunction ∧variable body(variable).
func ForallIdx(variable string, body Formula) Formula {
	return &ForallIndex{Var: variable, Body: body}
}

// ExistsIdx returns the indexed disjunction ∨variable body(variable).
func ExistsIdx(variable string, body Formula) Formula {
	return &ExistsIndex{Var: variable, Body: body}
}

// ---------------------------------------------------------------------------
// Common derived operators (the abbreviations of Section 2).
// ---------------------------------------------------------------------------

// AG returns AG f: f holds in every state on every path.
func AG(f Formula) Formula { return ForallPaths(Always(f)) }

// AF returns AF f: on every path f eventually holds.
func AF(f Formula) Formula { return ForallPaths(Eventually(f)) }

// EG returns EG f: on some path f holds globally.
func EG(f Formula) Formula { return ExistsPath(Always(f)) }

// EF returns EF f: some state satisfying f is reachable.
func EF(f Formula) Formula { return ExistsPath(Eventually(f)) }

// AX returns AX f (not part of ICTL*; provided for the CTL machinery).
func AX(f Formula) Formula { return ForallPaths(Next(f)) }

// EX returns EX f (not part of ICTL*; provided for the CTL machinery).
func EX(f Formula) Formula { return ExistsPath(Next(f)) }

// AU returns A[l U r].
func AU(l, r Formula) Formula { return ForallPaths(Until(l, r)) }

// EU returns E[l U r].
func EU(l, r Formula) Formula { return ExistsPath(Until(l, r)) }

// ---------------------------------------------------------------------------
// Structural helpers.
// ---------------------------------------------------------------------------

// Children returns the immediate subformulas of f in a deterministic order,
// as a fresh slice the caller may keep or modify.  Leaf nodes return nil.
func Children(f Formula) []Formula {
	var buf [2]Formula
	return append([]Formula(nil), children(f, &buf)...)
}

// children is Children for read-only walkers: it returns an And's or Or's
// own operand slice and writes the one or two children of any other node
// into buf, so a walk allocates nothing.  Callers must not modify or keep
// the result.
func children(f Formula, buf *[2]Formula) []Formula {
	switch n := f.(type) {
	case *And:
		return n.Fs
	case *Or:
		return n.Fs
	case *Not:
		buf[0] = n.F
	case *E:
		buf[0] = n.F
	case *A:
		buf[0] = n.F
	case *X:
		buf[0] = n.F
	case *Ev:
		buf[0] = n.F
	case *Alw:
		buf[0] = n.F
	case *ForallIndex:
		buf[0] = n.Body
	case *ExistsIndex:
		buf[0] = n.Body
	case *Implies:
		buf[0], buf[1] = n.L, n.R
		return buf[:2]
	case *Iff:
		buf[0], buf[1] = n.L, n.R
		return buf[:2]
	case *U:
		buf[0], buf[1] = n.L, n.R
		return buf[:2]
	case *R:
		buf[0], buf[1] = n.L, n.Rhs
		return buf[:2]
	case *W:
		buf[0], buf[1] = n.L, n.R
		return buf[:2]
	default:
		// Const, Atom, IndexedAtom, InstAtom, One and unknown kinds.
		return nil
	}
	return buf[:1]
}

// Rebuild returns a copy of f with its immediate children replaced by kids,
// which must have the same length as Children(f).  Leaf nodes are returned
// unchanged.  Rebuild is the workhorse of the structural transformations in
// this package.
func Rebuild(f Formula, kids []Formula) (Formula, error) {
	var buf [2]Formula
	want := len(children(f, &buf))
	if len(kids) != want {
		return nil, fmt.Errorf("logic: Rebuild(%s): got %d children, want %d", KindOf(f), len(kids), want)
	}
	switch n := f.(type) {
	case *Const, *Atom, *IndexedAtom, *InstAtom, *One:
		return f, nil
	case *Not:
		return &Not{F: kids[0]}, nil
	case *And:
		return &And{Fs: kids}, nil
	case *Or:
		return &Or{Fs: kids}, nil
	case *Implies:
		return &Implies{L: kids[0], R: kids[1]}, nil
	case *Iff:
		return &Iff{L: kids[0], R: kids[1]}, nil
	case *E:
		return &E{F: kids[0]}, nil
	case *A:
		return &A{F: kids[0]}, nil
	case *X:
		return &X{F: kids[0]}, nil
	case *U:
		return &U{L: kids[0], R: kids[1]}, nil
	case *R:
		return &R{L: kids[0], Rhs: kids[1]}, nil
	case *W:
		return &W{L: kids[0], R: kids[1]}, nil
	case *Ev:
		return &Ev{F: kids[0]}, nil
	case *Alw:
		return &Alw{F: kids[0]}, nil
	case *ForallIndex:
		return &ForallIndex{Var: n.Var, Body: kids[0]}, nil
	case *ExistsIndex:
		return &ExistsIndex{Var: n.Var, Body: kids[0]}, nil
	default:
		return nil, fmt.Errorf("logic: Rebuild: unknown formula kind %T", f)
	}
}

// Walk applies fn to f and to every subformula of f in pre-order.  If fn
// returns false the walk does not descend into that node's children.
func Walk(f Formula, fn func(Formula) bool) {
	if f == nil {
		return
	}
	if !fn(f) {
		return
	}
	var buf [2]Formula
	for _, c := range children(f, &buf) {
		Walk(c, fn)
	}
}

// Subformulas returns every distinct subformula of f (including f itself),
// where distinctness is syntactic (per Equal).  The result is ordered by
// increasing size so that callers can process it bottom-up.
func Subformulas(f Formula) []Formula {
	var all []Formula
	Walk(f, func(g Formula) bool {
		for _, h := range all {
			if Equal(g, h) {
				return true
			}
		}
		all = append(all, g)
		return true
	})
	sort.SliceStable(all, func(i, j int) bool { return Size(all[i]) < Size(all[j]) })
	return all
}

// Size returns the number of nodes in f.
func Size(f Formula) int {
	n := 0
	Walk(f, func(Formula) bool {
		n++
		return true
	})
	return n
}

// Depth returns the height of the syntax tree of f (a leaf has depth 1).
func Depth(f Formula) int {
	var buf [2]Formula
	kids := children(f, &buf)
	if len(kids) == 0 {
		return 1
	}
	max := 0
	for _, c := range kids {
		if d := Depth(c); d > max {
			max = d
		}
	}
	return max + 1
}

// Equal reports whether a and b are syntactically identical formulas.
func Equal(a, b Formula) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if KindOf(a) != KindOf(b) {
		return false
	}
	switch x := a.(type) {
	case *Const:
		return x.Value == b.(*Const).Value
	case *Atom:
		return x.Name == b.(*Atom).Name
	case *IndexedAtom:
		y := b.(*IndexedAtom)
		return x.Prop == y.Prop && x.Var == y.Var
	case *InstAtom:
		y := b.(*InstAtom)
		return x.Prop == y.Prop && x.Index == y.Index
	case *One:
		return x.Prop == b.(*One).Prop
	case *ForallIndex:
		y := b.(*ForallIndex)
		return x.Var == y.Var && Equal(x.Body, y.Body)
	case *ExistsIndex:
		y := b.(*ExistsIndex)
		return x.Var == y.Var && Equal(x.Body, y.Body)
	default:
		var abuf, bbuf [2]Formula
		ac, bc := children(a, &abuf), children(b, &bbuf)
		if len(ac) != len(bc) {
			return false
		}
		for i := range ac {
			if !Equal(ac[i], bc[i]) {
				return false
			}
		}
		return true
	}
}

// Key returns a canonical string for f suitable for use as a map key; two
// formulas have the same key iff they are Equal.
func Key(f Formula) string {
	var b strings.Builder
	writeKey(&b, f)
	return b.String()
}

func writeKey(b *strings.Builder, f Formula) {
	switch n := f.(type) {
	case *Const:
		if n.Value {
			b.WriteString("#t")
		} else {
			b.WriteString("#f")
		}
	case *Atom:
		b.WriteString("a:")
		b.WriteString(n.Name)
	case *IndexedAtom:
		b.WriteString("iv:")
		b.WriteString(n.Prop)
		b.WriteByte('[')
		b.WriteString(n.Var)
		b.WriteByte(']')
	case *InstAtom:
		b.WriteString("ic:")
		b.WriteString(n.Prop)
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(n.Index))
		b.WriteByte(']')
	case *One:
		b.WriteString("one:")
		b.WriteString(n.Prop)
	case *ForallIndex:
		b.WriteString("(forall ")
		b.WriteString(n.Var)
		b.WriteByte(' ')
		writeKey(b, n.Body)
		b.WriteByte(')')
	case *ExistsIndex:
		b.WriteString("(exists ")
		b.WriteString(n.Var)
		b.WriteByte(' ')
		writeKey(b, n.Body)
		b.WriteByte(')')
	default:
		b.WriteByte('(')
		b.WriteString(KindOf(f).String())
		var buf [2]Formula
		for _, c := range children(f, &buf) {
			b.WriteByte(' ')
			writeKey(b, c)
		}
		b.WriteByte(')')
	}
}

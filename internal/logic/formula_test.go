package logic

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestConstructorsAndKinds(t *testing.T) {
	tests := []struct {
		name string
		f    Formula
		kind Kind
	}{
		{"true", True(), KindConst},
		{"false", False(), KindConst},
		{"atom", Prop("p"), KindAtom},
		{"indexed", IdxProp("d", "i"), KindIndexedAtom},
		{"instantiated", InstProp("d", 3), KindInstAtom},
		{"one", ExactlyOne("t"), KindOne},
		{"not", Neg(Prop("p")), KindNot},
		{"and", Conj(Prop("p"), Prop("q")), KindAnd},
		{"or", Disj(Prop("p"), Prop("q")), KindOr},
		{"implies", Imp(Prop("p"), Prop("q")), KindImplies},
		{"iff", Equiv(Prop("p"), Prop("q")), KindIff},
		{"E", ExistsPath(Prop("p")), KindExistsPath},
		{"A", ForallPaths(Prop("p")), KindForallPath},
		{"X", Next(Prop("p")), KindNext},
		{"U", Until(Prop("p"), Prop("q")), KindUntil},
		{"R", Release(Prop("p"), Prop("q")), KindRelease},
		{"W", WeakUntil(Prop("p"), Prop("q")), KindWeakUntil},
		{"F", Eventually(Prop("p")), KindEventually},
		{"G", Always(Prop("p")), KindAlways},
		{"forall", ForallIdx("i", IdxProp("d", "i")), KindForallIndex},
		{"exists", ExistsIdx("i", IdxProp("d", "i")), KindExistsIndex},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := KindOf(tt.f); got != tt.kind {
				t.Fatalf("KindOf(%s) = %v, want %v", tt.f, got, tt.kind)
			}
		})
	}
}

func TestConjDisjDegenerateCases(t *testing.T) {
	if got := Conj(); !Equal(got, True()) {
		t.Errorf("Conj() = %s, want true", got)
	}
	if got := Disj(); !Equal(got, False()) {
		t.Errorf("Disj() = %s, want false", got)
	}
	p := Prop("p")
	if got := Conj(p); !Equal(got, p) {
		t.Errorf("Conj(p) = %s, want p", got)
	}
	if got := Disj(p); !Equal(got, p) {
		t.Errorf("Disj(p) = %s, want p", got)
	}
}

func TestEqualAndKey(t *testing.T) {
	pairs := []struct {
		a, b  Formula
		equal bool
	}{
		{Prop("p"), Prop("p"), true},
		{Prop("p"), Prop("q"), false},
		{IdxProp("d", "i"), IdxProp("d", "i"), true},
		{IdxProp("d", "i"), IdxProp("d", "j"), false},
		{InstProp("d", 1), InstProp("d", 2), false},
		{AG(Prop("p")), AG(Prop("p")), true},
		{AG(Prop("p")), AF(Prop("p")), false},
		{Until(Prop("p"), Prop("q")), Until(Prop("p"), Prop("q")), true},
		{Until(Prop("p"), Prop("q")), Until(Prop("q"), Prop("p")), false},
		{ForallIdx("i", IdxProp("c", "i")), ForallIdx("i", IdxProp("c", "i")), true},
		{ForallIdx("i", IdxProp("c", "i")), ForallIdx("j", IdxProp("c", "j")), false},
		{ExactlyOne("t"), ExactlyOne("t"), true},
		{ExactlyOne("t"), ExactlyOne("c"), false},
	}
	for _, tt := range pairs {
		if got := Equal(tt.a, tt.b); got != tt.equal {
			t.Errorf("Equal(%s, %s) = %v, want %v", tt.a, tt.b, got, tt.equal)
		}
		if (Key(tt.a) == Key(tt.b)) != tt.equal {
			t.Errorf("Key equality of (%s, %s) disagrees with Equal", tt.a, tt.b)
		}
	}
}

func TestSizeAndDepth(t *testing.T) {
	f := ForallIdx("i", AG(Imp(IdxProp("d", "i"), AF(IdxProp("c", "i")))))
	if got := Size(f); got != 8 {
		t.Errorf("Size = %d, want 8", got)
	}
	if got := Depth(f); got != 7 {
		t.Errorf("Depth = %d, want 7", got)
	}
	if got := Size(Prop("p")); got != 1 {
		t.Errorf("Size(atom) = %d, want 1", got)
	}
	if got := Depth(Prop("p")); got != 1 {
		t.Errorf("Depth(atom) = %d, want 1", got)
	}
}

func TestChildrenAndRebuild(t *testing.T) {
	f := Until(Prop("p"), Disj(Prop("q"), Prop("r")))
	kids := Children(f)
	if len(kids) != 2 {
		t.Fatalf("Children(U) returned %d nodes, want 2", len(kids))
	}
	rebuilt, err := Rebuild(f, kids)
	if err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if !Equal(f, rebuilt) {
		t.Errorf("Rebuild changed the formula: %s vs %s", f, rebuilt)
	}
	if _, err := Rebuild(f, kids[:1]); err == nil {
		t.Error("Rebuild with wrong arity should fail")
	}
}

// TestChildrenIsACopy: Children's slice belongs to the caller, so writing
// into it leaves the formula as it was, for n-ary and binary nodes alike.
func TestChildrenIsACopy(t *testing.T) {
	for _, f := range []Formula{Conj(Prop("p"), Prop("q"), Prop("r")), Until(Prop("p"), Prop("q"))} {
		before := Key(f)
		kids := Children(f)
		kids[0] = False()
		if Key(f) != before {
			t.Errorf("writing Children's slice changed %s", f)
		}
	}
}

// TestWalkAllocatesNothing: the read-only walkers visit children without
// copying them, so walking, comparing and measuring a generated depth-3
// formula allocates nothing.
func TestWalkAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(1986))
	for i := 0; i < 20; i++ {
		f := ForallIdx("i", randomFormula(r, 3, true))
		g := ForallIdx("i", randomFormula(r, 3, true))
		nodes := 0
		if allocs := testing.AllocsPerRun(20, func() {
			Walk(f, func(Formula) bool {
				nodes++
				return true
			})
		}); allocs != 0 {
			t.Fatalf("Walk(%s) allocated %.1f times per run", f, allocs)
		}
		if nodes == 0 {
			t.Fatalf("Walk(%s) visited nothing", f)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			Equal(f, f)
			Equal(f, g)
			Depth(f)
		}); allocs != 0 {
			t.Fatalf("Equal/Depth(%s) allocated %.1f times per run", f, allocs)
		}
	}
}

func TestSubformulasBottomUpOrder(t *testing.T) {
	f := AG(Imp(Prop("p"), AF(Prop("q"))))
	subs := Subformulas(f)
	for i := 1; i < len(subs); i++ {
		if Size(subs[i]) < Size(subs[i-1]) {
			t.Fatalf("Subformulas not ordered by size at %d: %s before %s", i, subs[i-1], subs[i])
		}
	}
	if !Equal(subs[len(subs)-1], f) {
		t.Errorf("last subformula should be the formula itself")
	}
}

func TestStringRendering(t *testing.T) {
	tests := []struct {
		f    Formula
		want string
	}{
		{True(), "true"},
		{Neg(Prop("p")), "!p"},
		{Conj(Prop("p"), Prop("q")), "p & q"},
		{Disj(Prop("p"), Conj(Prop("q"), Prop("r"))), "p | q & r"},
		{Imp(Prop("p"), Prop("q")), "p -> q"},
		{AG(Prop("p")), "A G p"},
		{EU(Prop("p"), Prop("q")), "E (p U q)"},
		{ForallIdx("i", AG(Imp(IdxProp("d", "i"), AF(IdxProp("c", "i"))))), "forall i . A G (d[i] -> A F c[i])"},
		{ExactlyOne("t"), "one t"},
		{InstProp("d", 7), "d[7]"},
	}
	for _, tt := range tests {
		if got := tt.f.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

// randomFormula builds a random formula over a small vocabulary; used by the
// round-trip property tests.
func randomFormula(r *rand.Rand, depth int, allowIndexed bool) Formula {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return True()
		case 1:
			return False()
		case 2:
			return Prop([]string{"p", "q", "r"}[r.Intn(3)])
		case 3:
			if allowIndexed {
				return InstProp([]string{"d", "c"}[r.Intn(2)], r.Intn(3)+1)
			}
			return Prop("p")
		default:
			return ExactlyOne("t")
		}
	}
	sub := func() Formula { return randomFormula(r, depth-1, allowIndexed) }
	switch r.Intn(12) {
	case 0:
		return Neg(sub())
	case 1:
		return Conj(sub(), sub())
	case 2:
		return Disj(sub(), sub())
	case 3:
		return Imp(sub(), sub())
	case 4:
		return Equiv(sub(), sub())
	case 5:
		return ExistsPath(sub())
	case 6:
		return ForallPaths(sub())
	case 7:
		return Next(sub())
	case 8:
		return Until(sub(), sub())
	case 9:
		return Eventually(sub())
	case 10:
		return Always(sub())
	default:
		return Release(sub(), sub())
	}
}

func TestParsePrintRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		f := randomFormula(r, 4, true)
		text := f.String()
		parsed, err := Parse(text)
		if err != nil {
			t.Fatalf("iteration %d: Parse(%q) failed: %v (original %s)", i, text, err, f)
		}
		if !Equal(f, parsed) {
			t.Fatalf("iteration %d: round trip changed %q into %q", i, text, parsed)
		}
	}
}

func TestKeyIsInjectiveOnRandomFormulas(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	seen := map[string]Formula{}
	for i := 0; i < 300; i++ {
		f := randomFormula(r, 3, true)
		k := Key(f)
		if prev, ok := seen[k]; ok && !Equal(prev, f) {
			t.Fatalf("Key collision: %s and %s share key %q", prev, f, k)
		}
		seen[k] = f
	}
}

func TestQuickSizePositive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomFormula(r, 3, true))
	}}
	prop := func(f Formula) bool { return Size(f) >= 1 && Depth(f) >= 1 && Size(f) >= Depth(f) }
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestStringContainsNoTabs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		f := randomFormula(r, 3, true)
		if strings.ContainsAny(f.String(), "\t\n") {
			t.Fatalf("String() of %v contains control characters", f)
		}
	}
}

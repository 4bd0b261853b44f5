package kripke

import (
	"math/rand"
	"testing"
)

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet(130)
	if !b.Empty() || b.Count() != 0 {
		t.Fatal("new bitset should be empty")
	}
	for _, i := range []int{0, 63, 64, 129} {
		b.Set(i)
	}
	if b.Count() != 4 || b.Empty() {
		t.Fatalf("Count = %d after 4 Sets", b.Count())
	}
	if !b.Get(64) || b.Get(65) {
		t.Error("Get wrong")
	}
	b.Clear(64)
	if b.Get(64) || b.Count() != 3 {
		t.Error("Clear wrong")
	}

	var got []int
	b.ForEach(func(i int) bool { got = append(got, i); return true })
	want := []int{0, 63, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v (in order)", got, want)
		}
	}
	// Early stop.
	visits := 0
	b.ForEach(func(int) bool { visits++; return false })
	if visits != 1 {
		t.Errorf("ForEach ignored the stop signal (%d visits)", visits)
	}

	c := b.Clone()
	c.Set(5)
	if b.Get(5) {
		t.Error("Clone must be independent")
	}
	if b.Equal(c) {
		t.Error("Equal wrong after divergence")
	}
	c.Clear(5)
	if !b.Equal(c) {
		t.Error("Equal wrong on identical sets")
	}
}

func TestBitSetAlgebraMatchesMapSets(t *testing.T) {
	// Differential test of the word-parallel operations against naive map
	// sets.
	r := rand.New(rand.NewSource(7))
	const n = 200
	for iter := 0; iter < 50; iter++ {
		a, b := NewBitSet(n), NewBitSet(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				a.Set(i)
				ma[i] = true
			}
			if r.Intn(3) == 0 {
				b.Set(i)
				mb[i] = true
			}
		}
		intersects := false
		for i := range ma {
			if mb[i] {
				intersects = true
			}
		}
		if a.Intersects(b) != intersects {
			t.Fatalf("iter %d: Intersects = %v, want %v", iter, a.Intersects(b), intersects)
		}
		check := func(name string, got BitSet, want func(int) bool) {
			for i := 0; i < n; i++ {
				if got.Get(i) != want(i) {
					t.Fatalf("iter %d: %s wrong at %d", iter, name, i)
				}
			}
		}
		and := a.Clone()
		and.And(b)
		check("And", and, func(i int) bool { return ma[i] && mb[i] })
		andNot := a.Clone()
		andNot.AndNot(b)
		check("AndNot", andNot, func(i int) bool { return ma[i] && !mb[i] })
		or := a.Clone()
		or.Or(b)
		check("Or", or, func(i int) bool { return ma[i] || mb[i] })
		cp := NewBitSet(n)
		cp.CopyFrom(a)
		check("CopyFrom", cp, func(i int) bool { return ma[i] })
	}
}

// TestBitSetComplementMasksTail: the complement over n elements keeps every
// bit at and above n clear, at sizes on and around the word boundaries, so
// Count, Empty and Equal see exactly [0, n); complementing twice gives the
// original set back, and SetComplement in place equals Complement.
func TestBitSetComplementMasksTail(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 129} {
		full := NewBitSet(n)
		for i := 0; i < n; i++ {
			full.Set(i)
		}
		sparse := NewBitSet(n)
		for i := 0; i < n; i += 3 {
			sparse.Set(i)
		}
		for _, tc := range []struct {
			name string
			b    BitSet
		}{{"empty", NewBitSet(n)}, {"full", full}, {"sparse", sparse}} {
			orig := tc.b.Clone()
			c := tc.b.Complement(n)
			if !tc.b.Equal(orig) {
				t.Fatalf("n=%d %s: Complement modified its receiver", n, tc.name)
			}
			if want := n - tc.b.Count(); c.Count() != want {
				t.Errorf("n=%d %s: complement Count = %d, want %d", n, tc.name, c.Count(), want)
			}
			if c.Empty() != (tc.b.Count() == n) {
				t.Errorf("n=%d %s: complement Empty = %v", n, tc.name, c.Empty())
			}
			ref := NewBitSet(n)
			for i := 0; i < n; i++ {
				if !tc.b.Get(i) {
					ref.Set(i)
				}
			}
			if !c.Equal(ref) || c.Intersects(tc.b) {
				t.Errorf("n=%d %s: complement differs from [0,n) minus the set", n, tc.name)
			}
			if !c.Complement(n).Equal(tc.b) {
				t.Errorf("n=%d %s: double complement is not the original set", n, tc.name)
			}
			inPlace := tc.b.Clone()
			inPlace.SetComplement(inPlace, n)
			if !inPlace.Equal(c) {
				t.Errorf("n=%d %s: in-place SetComplement differs from Complement", n, tc.name)
			}
		}
	}
}

func TestTransitionMatrix(t *testing.T) {
	b := NewBuilder("tm")
	s0 := b.AddState(P("a"))
	s1 := b.AddState(P("a"))
	s2 := b.AddState(P("b"))
	for _, e := range [][2]State{{s0, s1}, {s1, s2}, {s2, s0}, {s2, s2}} {
		if err := b.AddTransition(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(s0); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	tm := m.TransitionMatrix()
	if tm.N() != 3 {
		t.Fatalf("N = %d", tm.N())
	}
	for s := 0; s < 3; s++ {
		for u := 0; u < 3; u++ {
			want := m.HasTransition(State(s), State(u))
			if tm.Succ(s).Get(u) != want {
				t.Errorf("Succ(%d).Get(%d) = %v, want %v", s, u, !want, want)
			}
			if tm.Pred(u).Get(s) != want {
				t.Errorf("Pred(%d).Get(%d) = %v, want %v", u, s, !want, want)
			}
		}
	}

	// The union matrix offsets the second structure.
	um := UnionTransitionMatrix(m, m)
	if um.N() != 6 {
		t.Fatalf("union N = %d", um.N())
	}
	if !um.Succ(0).Get(1) || um.Succ(0).Get(4) {
		t.Error("left copy edges wrong")
	}
	if !um.Succ(3).Get(4) || um.Succ(3).Get(1) {
		t.Error("right copy edges must be offset")
	}
	if !um.Pred(5).Get(4) || !um.Succ(5).Get(5) {
		t.Error("right copy pred/self-loop wrong")
	}
}

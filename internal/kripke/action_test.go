package kripke

import (
	"strings"
	"testing"
)

// swapPair builds two processes passing a token back and forth:
// state 0 {t[1]} <-> state 1 {t[2]}, plus a plain "p" on both.  Swapping
// the processes swaps the states.
func swapPair(t *testing.T) *Structure {
	t.Helper()
	b := NewBuilder("pair")
	s0 := b.AddState(P("p"), PI("t", 1))
	s1 := b.AddState(P("p"), PI("t", 2))
	for _, e := range [][2]State{{s0, s1}, {s1, s0}} {
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
	return m
}

// tokenTriple builds three processes passing a token round a ring: state
// k-1 carries {p, t[k]} and passes to state k mod 3.  Rotating the
// processes forward (σ: 1→2→3→1) rotates the states forward.
func tokenTriple(t *testing.T) *Structure {
	t.Helper()
	b := NewBuilder("triple")
	for k := 1; k <= 3; k++ {
		b.AddState(P("p"), PI("t", k))
	}
	for s := State(0); s < 3; s++ {
		if err := b.AddTransition(s, (s+1)%3); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SetInitial(0); err != nil {
		t.Fatal(err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestIndexActionOrbitsAndWords(t *testing.T) {
	m := swapPair(t)
	a, err := NewIndexAction(m, []IndexGenerator{{States: []int32{1, 0}, Index: map[int]int{1: 2, 2: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if reps := a.Representatives(); len(reps) != 1 || reps[0] != 1 {
		t.Fatalf("representatives %v, want [1]", reps)
	}
	// Seen from index 2, state 0 (t[1]) looks like state 1 seen from 1.
	if s, o := a.ToRepresentative(1, 0); s != 1 || o != 0 {
		t.Errorf("ToRepresentative(index 2, state 0) = %d, orbit %d; want 1, 0", s, o)
	}
	if s, o := a.ToRepresentative(0, 0); s != 0 || o != 0 {
		t.Errorf("ToRepresentative(index 1, state 0) = %d, orbit %d; want 0, 0", s, o)
	}

	none, err := NewIndexAction(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reps := none.Representatives(); len(reps) != 2 {
		t.Errorf("no generators: representatives %v, want one per index", reps)
	}
}

func TestIndexActionRejectsMalformedTables(t *testing.T) {
	m := swapPair(t)
	swap := map[int]int{1: 2, 2: 1}
	for _, tc := range []struct {
		name string
		gen  IndexGenerator
		want string
	}{
		{"short table", IndexGenerator{States: []int32{1}, Index: swap}, "1 entries for 2 states"},
		{"out of range", IndexGenerator{States: []int32{1, 2}, Index: swap}, "maps state 1 to 2"},
		{"not injective", IndexGenerator{States: []int32{1, 1}, Index: swap}, "maps state 1 onto state 1"},
		{"index map not a permutation", IndexGenerator{States: []int32{1, 0}, Index: map[int]int{1: 1, 2: 1}}, "not an unused index"},
		{"index map partial", IndexGenerator{States: []int32{1, 0}, Index: map[int]int{1: 2}}, "1 entries for the 2 indices"},
		{"labels not permuted", IndexGenerator{States: []int32{0, 1}, Index: swap}, "state 0 (image 0): label"},
		{"identity with a swapped index map", IndexGenerator{States: []int32{1, 0}, Index: map[int]int{1: 1, 2: 2}}, "t[1] missing"},
	} {
		_, err := NewIndexAction(m, []IndexGenerator{tc.gen})
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "generator 0") {
			t.Errorf("%s: error %v, want one naming generator 0 and containing %q", tc.name, err, tc.want)
		}
	}

	// Every label keeps its size, but the backward state rotation moves
	// t[1] to index 3 where σ sends it to index 2: the exact row equality
	// rejects it, naming the generator and the state.
	triple := tokenTriple(t)
	forward := IndexGenerator{States: []int32{1, 2, 0}, Index: map[int]int{1: 2, 2: 3, 3: 1}}
	if _, err := NewIndexAction(triple, []IndexGenerator{forward}); err != nil {
		t.Fatalf("forward rotation: %v", err)
	}
	backward := IndexGenerator{States: []int32{2, 0, 1}, Index: forward.Index}
	_, err := NewIndexAction(triple, []IndexGenerator{forward, backward})
	want := "generator 1, state 0 (image 2): label [p t[1]] does not map onto the image's label [p t[3]]: t[2] missing"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("backward states with a forward index map: error %v, want one containing %q", err, want)
	}
}

package process

import (
	"strings"
	"testing"
)

// The code route must be invisible: a network built with every shared
// variable bounded (one-word codes) and the same network with bounds
// removed (interned multi-word codes) must produce identical Kripke
// structures state for state.

// counterNetwork is a small network with a genuinely used shared variable:
// each process takes one step and bumps the counter.
func counterNetwork(n int, boundCounter bool) *Network {
	max := 0
	if boundCounter {
		max = n
	}
	return &Network{
		Template: &Template{
			Name:    "counter",
			States:  []string{"idle", "done"},
			Initial: "idle",
			Labels:  map[string][]string{"idle": {"w"}, "done": {"f"}},
		},
		N:      n,
		Shared: []SharedVar{{Name: "count", Initial: 0, Max: max}},
		Rules: []Rule{{
			Name:  "finish",
			Guard: func(v View, i int) bool { return v.Local(i) == "idle" },
			Apply: func(v View, i int) Update {
				return Update{
					Locals: map[int]string{i: "done"},
					Shared: map[string]int{"count": v.Shared("count") + 1},
				}
			},
		}},
		Globals: []GlobalRule{{
			Name:  "reset",
			Guard: func(v View) bool { return v.Shared("count") == n },
			Apply: func(v View) Update {
				u := Update{Locals: map[int]string{}, Shared: map[string]int{"count": 0}}
				for i := 1; i <= n; i++ {
					u.Locals[i] = "idle"
				}
				return u
			},
		}},
	}
}

func TestPackedBuildMatchesStringBuild(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		packed, err := build(counterNetwork(n, true), "c", 0)
		if err != nil {
			t.Fatalf("n=%d packed: %v", n, err)
		}
		plain, err := build(counterNetwork(n, false), "c", 0)
		if err != nil {
			t.Fatalf("n=%d plain: %v", n, err)
		}
		if packed.NumStates() != plain.NumStates() || packed.NumTransitions() != plain.NumTransitions() {
			t.Fatalf("n=%d: packed %d/%d vs plain %d/%d states/transitions", n,
				packed.NumStates(), packed.NumTransitions(), plain.NumStates(), plain.NumTransitions())
		}
		if packed.Initial() != plain.Initial() {
			t.Fatalf("n=%d: initial states differ", n)
		}
		for s := 0; s < packed.NumStates(); s++ {
			st := packed.States()[s]
			if packed.LabelKey(st) != plain.LabelKey(st) {
				t.Fatalf("n=%d state %d: labels differ: %q vs %q", n, s, packed.LabelKey(st), plain.LabelKey(st))
			}
			ps, qs := packed.Succ(st), plain.Succ(st)
			if len(ps) != len(qs) {
				t.Fatalf("n=%d state %d: successor counts differ", n, s)
			}
			for k := range ps {
				if ps[k] != qs[k] {
					t.Fatalf("n=%d state %d: successors differ: %v vs %v", n, s, ps, qs)
				}
			}
		}
	}
}

func TestPackedBuildRejectsRangeViolation(t *testing.T) {
	net := counterNetwork(3, true)
	net.Shared[0].Max = 1 // the counter genuinely reaches 3
	_, err := build(net, "", 0)
	if err == nil || !strings.Contains(err.Error(), "outside its declared range") {
		t.Fatalf("expected a declared-range violation, got %v", err)
	}
}

func TestCodecFallsBackWhenUnpackable(t *testing.T) {
	packed := func(net *Network) bool {
		t.Helper()
		_, packed, err := net.Def("")
		if err != nil {
			t.Fatal(err)
		}
		return packed
	}
	// Unbounded shared variable: a full 64-bit field, so interned.
	if packed(counterNetwork(2, false)) {
		t.Error("network with an unbounded shared variable must not be packed")
	}
	// Bounded: packed.
	if !packed(counterNetwork(2, true)) {
		t.Error("fully bounded network must be packed")
	}
	// Too many processes for the word: interned.
	big := counterNetwork(2, true)
	big.N = 70
	if packed(big) {
		t.Error("70 one-bit locals plus a counter must not fit one word")
	}
}

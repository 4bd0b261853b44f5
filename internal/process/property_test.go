package process

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/kripke"
)

// propertyNetwork returns a network with enough moving parts to exercise
// the composition: a three-state template, a shared variable, a per-process
// rule chain and a global reset rule.
func propertyNetwork(n int) *Network {
	return &Network{
		Template: &Template{
			Name:    "cell",
			States:  []string{"a", "b", "c"},
			Initial: "a",
			Labels: map[string][]string{
				"a": {"pa"},
				"b": {"pb"},
				"c": {"pc", "done"},
			},
		},
		N:      n,
		Shared: []SharedVar{{Name: "steps", Initial: 0}},
		Rules: []Rule{
			{
				Name:  "a-to-b",
				Guard: func(v View, i int) bool { return v.Local(i) == "a" },
				Apply: func(v View, i int) Update {
					return Update{Locals: map[int]string{i: "b"}, Shared: map[string]int{"steps": v.Shared("steps") + 1}}
				},
			},
			{
				Name:  "b-to-c",
				Guard: func(v View, i int) bool { return v.Local(i) == "b" },
				Apply: func(v View, i int) Update {
					return Update{Locals: map[int]string{i: "c"}}
				},
			},
		},
		Globals: []GlobalRule{
			{
				Name:  "reset",
				Guard: func(v View) bool { return v.CountLocal("c") == v.NumProcesses() },
				Apply: func(v View) Update {
					locals := map[int]string{}
					for i := 1; i <= v.NumProcesses(); i++ {
						locals[i] = "a"
					}
					return Update{Locals: locals, Shared: map[string]int{"steps": 0}}
				},
			},
		},
	}
}

// TestBuildKripkeDeterministicOrdering is the determinism property the
// session caches, transfer certificates and differential tests rely on:
// building the same network twice yields byte-identical structures — same
// state numbering, same labels, same transition order.
func TestBuildKripkeDeterministicOrdering(t *testing.T) {
	for n := 1; n <= 6; n++ {
		encode := func() []byte {
			t.Helper()
			m, err := build(propertyNetwork(n), "", 0)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			var buf bytes.Buffer
			if err := kripke.EncodeText(&buf, m); err != nil {
				t.Fatalf("n=%d: encoding: %v", n, err)
			}
			return buf.Bytes()
		}
		first, second := encode(), encode()
		if !bytes.Equal(first, second) {
			t.Fatalf("n=%d: two builds of the same network differ:\n--- first ---\n%s\n--- second ---\n%s",
				n, first, second)
		}
	}
}

// TestLabelsIndexCorrectly checks the indexed-labelling property for every
// N up to 6: each global state carries exactly one label family per
// process, every index is in 1..N, and the label of process i matches i's
// local state — pinned through the initial state and through a full
// enumeration using the template's unique state labels.
func TestLabelsIndexCorrectly(t *testing.T) {
	for n := 1; n <= 6; n++ {
		net := propertyNetwork(n)
		m, err := build(net, "", 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := m.IndexValues(); len(got) != n {
			t.Fatalf("n=%d: structure declares indices %v, want 1..%d", n, got, n)
		}
		for _, s := range m.States() {
			// Collect per-index label families; "done" rides along with
			// "pc", so count only the pa/pb/pc family.
			perIndex := map[int]string{}
			for _, p := range m.Label(s) {
				if !p.Indexed {
					t.Fatalf("n=%d state %d: plain proposition %v from an indexed-only network", n, s, p)
				}
				if p.Index < 1 || p.Index > n {
					t.Fatalf("n=%d state %d: proposition %v indexes outside 1..%d", n, s, p, n)
				}
				if p.Name == "done" {
					continue
				}
				if prev, ok := perIndex[p.Index]; ok {
					t.Fatalf("n=%d state %d: process %d labelled both %s and %s", n, s, p.Index, prev, p.Name)
				}
				perIndex[p.Index] = p.Name
			}
			if len(perIndex) != n {
				t.Fatalf("n=%d state %d: %d processes labelled, want %d", n, s, len(perIndex), n)
			}
			// "done" must appear exactly for the processes in state c.
			for _, p := range m.Label(s) {
				if p.Name == "done" && perIndex[p.Index] != "pc" {
					t.Fatalf("n=%d state %d: done[%d] without pc[%d]", n, s, p.Index, p.Index)
				}
			}
		}
		// The initial state is all-a.
		for i := 1; i <= n; i++ {
			if !m.Holds(m.Initial(), kripke.PI("pa", i)) {
				t.Fatalf("n=%d: initial state misses pa[%d]", n, i)
			}
		}
	}
}

// TestInitialLocalOverrideIndexes pins the per-process initial-state
// override: the distinguished process is labelled from its own local
// state, everyone else from the template default.
func TestInitialLocalOverrideIndexes(t *testing.T) {
	for n := 2; n <= 6; n++ {
		net := propertyNetwork(n)
		net.InitialLocal = func(i int) string {
			if i == 1 {
				return "b"
			}
			return "a"
		}
		m, err := build(net, "", 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		init := m.Initial()
		if !m.Holds(init, kripke.PI("pb", 1)) {
			t.Fatalf("n=%d: process 1 should start in b", n)
		}
		for i := 2; i <= n; i++ {
			if !m.Holds(init, kripke.PI("pa", i)) {
				t.Fatalf("n=%d: process %d should start in a", n, i)
			}
		}
	}
}

// TestReachableCountMatchesClosedForm cross-checks the explored state
// space against the closed form for the property network: between resets
// the reachable configurations are exactly (local states per process) ×
// (steps counter = number of processes that left a), and the steps
// variable is a function of the local states, so the count is the number
// of words in {a,b,c}^n... with steps determined.  Rather than deriving
// the formula, the test asserts the count is stable across builds and
// grows monotonically with n — the qualitative shape regressions would
// break.
func TestReachableCountMatchesClosedForm(t *testing.T) {
	prev := 0
	for n := 1; n <= 6; n++ {
		m, err := build(propertyNetwork(n), "", 0)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m.NumStates() <= prev {
			t.Fatalf("n=%d: %d states, not larger than n=%d's %d", n, m.NumStates(), n-1, prev)
		}
		// steps is determined by the locals (steps = #processes not in a,
		// modulo the reset), so the state count is exactly 3^n.
		if want := pow(3, n); m.NumStates() != want {
			t.Fatalf("n=%d: %d states, want 3^n = %d", n, m.NumStates(), want)
		}
		prev = m.NumStates()
	}
}

func pow(b, e int) int {
	out := 1
	for ; e > 0; e-- {
		out *= b
	}
	return out
}

// TestBuildKripkeNameDefault pins the generated structure name format the
// topologies rely on.
func TestBuildKripkeNameDefault(t *testing.T) {
	m, err := build(propertyNetwork(2), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Name(), fmt.Sprintf("cell[%d]", 2); got != want {
		t.Fatalf("generated name %q, want %q", got, want)
	}
}

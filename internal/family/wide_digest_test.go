package family

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/kripke"
)

// wideInstanceTextDigests pins the SHA-256 of kripke.EncodeText for token
// instances too wide to pack into one 64-bit code (two bits per process, so
// 33 processes and up), whose states the process codec interns.  Each entry
// is topology, size, state count, digest; the mutant exercises the
// deadlock completion of broken variants on the same route.
var wideInstanceTextDigests = []struct {
	topology string
	n        int
	states   int
	digest   string
}{
	{"star", 33, 66, "ca28b18825918439b5f78a7e88c98b173806d3f0f2a88b71c11372e4412686e0"},
	{"star", 40, 80, "67dda840eece9c053e38ca0ded9b588913c1d276f8e722750ae0a7df8c9fc58f"},
	{"line", 33, 66, "86dc05cfdf227e0b4e7efb88a3bcaba3e98d5811c2ec3028fc72931fd497f413"},
	{"line", 40, 80, "bd5dca8c682cdfcd9e20239455907fcb85ebbef5d5a501dea06652b00ce6f471"},
	{"tree", 33, 66, "f3b0b7ec0f451fcc91bc13688f5be4209fa51d3e58d5d7908e6e815206ecd429"},
	{"tree", 40, 80, "ddbbfe333d5180175e567d9654167ccc751a472f6439c50b13c7d6b8d9d9f589"},
	{"torus", 34, 68, "9203c4559c42dc8ddb4638deca242bb60d6936eecd36d81754d995a73b03cc17"},
	{"torus3", 33, 66, "01678e38bbff5d73ff2ef5dac776ffa94c4c7d612101a271e85c0045624ae4aa"},
	{"line+skip-token-phase", 33, 67, "cafd81d18cbdef0547efdb4f6ca092c85aeb0d03cb055743ac51cfe8a6c29475"},
}

func TestWideInstanceTextDigests(t *testing.T) {
	ctx := context.Background()
	for _, d := range wideInstanceTextDigests {
		topo := wideDigestTopology(t, d.topology)
		m, _, err := BuildParallel(ctx, topo, d.n, 1)
		if err != nil {
			t.Fatalf("%s n=%d: %v", d.topology, d.n, err)
		}
		h := sha256.New()
		if err := kripke.EncodeText(h, m); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d %x", m.NumStates(), h.Sum(nil))
		if want := fmt.Sprintf("%d %s", d.states, d.digest); got != want {
			t.Errorf("%s n=%d: got %s, want %s", d.topology, d.n, got, want)
		}
	}
}

// wideDigestTopology resolves a topology name, or a base topology and a
// token mutation joined by "+".
func wideDigestTopology(t *testing.T, name string) Topology {
	t.Helper()
	for _, topo := range Topologies() {
		if topo.Name() == name {
			return topo
		}
		for _, mu := range TokenMutations() {
			if topo.Name()+"+"+mu.Name != name {
				continue
			}
			mutant, err := Mutate(topo, mu)
			if err != nil {
				t.Fatal(err)
			}
			return mutant
		}
	}
	t.Fatalf("unknown topology %q", name)
	return nil
}

// TestWideInstanceHasNoGroup: a token instance whose codes are interned
// ids carries no automorphism group, since a group permutes the fields of
// one-word codes, so it builds without an index action; the widest
// one-word instance keeps its group and verified action.
func TestWideInstanceHasNoGroup(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		n         int
		hasAction bool
	}{{32, true}, {33, false}, {40, false}} {
		pi, ok := Packed(Star(), c.n)
		if !ok {
			t.Fatalf("star %d has no definition", c.n)
		}
		if (pi.Group != nil) != c.hasAction {
			t.Errorf("star %d: group wired = %v, want %v", c.n, pi.Group != nil, c.hasAction)
		}
		m, sp, err := pi.Build(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		a, err := pi.OptionalIndexAction(ctx, sp, m)
		if err != nil {
			t.Fatal(err)
		}
		if (a != nil) != c.hasAction {
			t.Errorf("star %d: index action = %v, want one: %v", c.n, a != nil, c.hasAction)
		}
	}
}

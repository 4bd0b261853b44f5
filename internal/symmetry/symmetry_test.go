package symmetry_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/symmetry"
)

// inverse returns the inverse permutation.
func inverse(p symmetry.Perm) symmetry.Perm {
	out := make(symmetry.Perm, len(p))
	for i, v := range p {
		out[v] = int32(i)
	}
	return out
}

// testGroups returns a representative group of every constructor at a few
// degrees, with the packed-code field width of the token families (2 bits).
func testGroups() map[string]*symmetry.Group {
	return map[string]*symmetry.Group{
		"cyclic-1":  symmetry.Cyclic(1, 2),
		"cyclic-2":  symmetry.Cyclic(2, 2),
		"cyclic-5":  symmetry.Cyclic(5, 2),
		"cyclic-12": symmetry.Cyclic(12, 2),
		"sym-2":     symmetry.SymmetricRange(2, 2, 1, 2),
		"sym-4":     symmetry.SymmetricRange(4, 2, 1, 4),
		"sym-7":     symmetry.SymmetricRange(7, 2, 1, 7),
		"rev-2":     symmetry.Reversal(2, 2),
		"rev-9":     symmetry.Reversal(9, 2),
		"tree-3":    symmetry.TreeHeap(3, 2),
		"tree-7":    symmetry.TreeHeap(7, 2),
		"tree-10":   symmetry.TreeHeap(10, 2),
		"torus-2x3": symmetry.TorusTranslations(2, 3, 2),
		"torus-3x4": symmetry.TorusTranslations(3, 4, 2),
	}
}

// randomCode draws a code with every field populated (tail bits zero, like
// real packed states).
func randomCode(rng *rand.Rand, g *symmetry.Group) uint64 {
	width := g.Bits() * uint(g.Degree())
	if width >= 64 {
		return rng.Uint64()
	}
	return rng.Uint64() & (uint64(1)<<width - 1)
}

// TestGroupActionLaws: the randomized metamorphic battery — identity
// action, inverse cancellation, composition associativity with the action,
// canon idempotence, canon invariance under every generator, and witness
// validity.
func TestGroupActionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range testGroups() {
		id := symmetry.Identity(g.Degree())
		gens := g.Generators()
		for trial := 0; trial < 200; trial++ {
			code := randomCode(rng, g)
			if got := g.Apply(id, code); got != code {
				t.Fatalf("%s: identity moved %#x to %#x", name, code, got)
			}
			canon, w := g.CanonWitness(code)
			if got := g.Apply(w, code); got != canon {
				t.Fatalf("%s: witness of %#x maps it to %#x, canon is %#x", name, code, got, canon)
			}
			if canon > code {
				t.Fatalf("%s: canon %#x exceeds orbit member %#x", name, canon, code)
			}
			if again := g.Canon(canon); again != canon {
				t.Fatalf("%s: canon not idempotent: %#x -> %#x", name, canon, again)
			}
			for gi, gen := range gens {
				moved := g.Apply(gen, code)
				if got := g.Canon(moved); got != canon {
					t.Fatalf("%s: generator %d breaks canon invariance: %#x vs %#x", name, gi, got, canon)
				}
				if got := g.Apply(inverse(gen), moved); got != code {
					t.Fatalf("%s: inverse of generator %d does not cancel it", name, gi)
				}
			}
			if len(gens) >= 2 {
				a, b := gens[rng.Intn(len(gens))], gens[rng.Intn(len(gens))]
				composed := g.Apply(symmetry.Compose(a, b), code)
				stepped := g.Apply(a, g.Apply(b, code))
				if composed != stepped {
					t.Fatalf("%s: Compose disagrees with sequential application", name)
				}
			}
		}
	}
}

// TestOrbitLaws: orbits contain their code, are canon-constant, their size
// divides the group order (orbit–stabiliser), and every member
// canonicalises to the same representative.
func TestOrbitLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for name, g := range testGroups() {
		order := g.Order()
		for trial := 0; trial < 50; trial++ {
			code := randomCode(rng, g)
			orbit := g.OrbitAppend(nil, code)
			if !slices.Contains(orbit, code) {
				t.Fatalf("%s: orbit of %#x does not contain it", name, code)
			}
			if order%uint64(len(orbit)) != 0 {
				t.Fatalf("%s: orbit size %d does not divide group order %d", name, len(orbit), order)
			}
			canon := g.Canon(code)
			if slices.Min(orbit) != canon {
				t.Fatalf("%s: canon %#x is not the orbit minimum %#x", name, canon, slices.Min(orbit))
			}
			for _, member := range orbit {
				if g.Canon(member) != canon {
					t.Fatalf("%s: orbit member %#x canonicalises differently", name, member)
				}
			}
		}
	}
}

// TestElementsClosure: the enumerated elements form a group — closed under
// composition and inverse, containing the identity.
func TestElementsClosure(t *testing.T) {
	for name, g := range testGroups() {
		elems, ok := g.Elements(1 << 12)
		if !ok {
			continue // sym-7 has 720 elements; anything larger is skipped by cap
		}
		if uint64(len(elems)) != g.Order() {
			t.Fatalf("%s: %d elements enumerated, Order() says %d", name, len(elems), g.Order())
		}
		contains := func(p symmetry.Perm) bool {
			for _, e := range elems {
				if e.Equal(p) {
					return true
				}
			}
			return false
		}
		if !contains(symmetry.Identity(g.Degree())) {
			t.Fatalf("%s: elements lack the identity", name)
		}
		// Spot-check closure on a deterministic subset (full n² is fine for
		// the small groups here, but cap the work).
		step := 1
		if len(elems) > 24 {
			step = len(elems) / 24
		}
		for i := 0; i < len(elems); i += step {
			if !contains(inverse(elems[i])) {
				t.Fatalf("%s: element %d has no inverse in the enumeration", name, i)
			}
			for j := 0; j < len(elems); j += step {
				if !contains(symmetry.Compose(elems[i], elems[j])) {
					t.Fatalf("%s: composition of elements %d, %d escapes the enumeration", name, i, j)
				}
			}
		}
	}
}

// TestBurnsideOrbitCounts: for small degrees, the number of distinct
// canonical representatives over the whole code space equals Burnside's
// count (1/|G|) Σ_g |Fix(g)|, where |Fix(g)| = 4^cycles(g) for 2-bit
// fields.
func TestBurnsideOrbitCounts(t *testing.T) {
	small := map[string]*symmetry.Group{
		"cyclic-4":  symmetry.Cyclic(4, 2),
		"cyclic-6":  symmetry.Cyclic(6, 2),
		"sym-5":     symmetry.SymmetricRange(5, 2, 1, 5),
		"rev-6":     symmetry.Reversal(6, 2),
		"tree-7":    symmetry.TreeHeap(7, 2),
		"torus-2x3": symmetry.TorusTranslations(2, 3, 2),
	}
	for name, g := range small {
		elems, ok := g.Elements(1 << 12)
		if !ok {
			t.Fatalf("%s: element enumeration exceeded cap", name)
		}
		var fixSum uint64
		for _, p := range elems {
			fixSum += uint64(1) << (2 * cycles(p))
		}
		want := fixSum / uint64(len(elems))

		reps := map[uint64]bool{}
		total := uint64(1) << (2 * uint(g.Degree()))
		for code := uint64(0); code < total; code++ {
			reps[g.Canon(code)] = true
		}
		if uint64(len(reps)) != want {
			t.Fatalf("%s: %d orbits enumerated, Burnside gives %d", name, len(reps), want)
		}
	}
}

// cycles counts the cycles of a permutation.
func cycles(p symmetry.Perm) uint {
	seen := make([]bool, len(p))
	var n uint
	for i := range p {
		if seen[i] {
			continue
		}
		n++
		for j := i; !seen[j]; j = int(p[j]) {
			seen[j] = true
		}
	}
	return n
}

package mc

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// Metamorphic battery for the word-at-a-time CTL engine (vector.go): on
// randomized total structures — including state counts straddling the 64-bit
// word boundary — and on degenerate satisfaction sets (empty, full), the
// vector EX/EU/EG must return exactly the satisfaction sets of the scalar
// reference implementations below, and the fixpoint engines must accumulate
// exactly the same Stats counters.  The battery runs at worker budgets 0 and
// 4; the large-structure cases push the frontier past gatherParallelWords so
// the chunked parallel gather is exercised for real.

// vectorWorkerCounts are the worker budgets every equivalence case runs at.
var vectorWorkerCounts = []int{0, 4}

// ---------------------------------------------------------------------------
// The scalar reference: the CTL labelling algorithms one state at a time on
// []bool sets indexed by state, EG over a materialised f-restricted graph.
// ---------------------------------------------------------------------------

// satEXScalar returns the states that have at least one successor in f.
func (c *Checker) satEXScalar(f []bool) []bool {
	n := c.m.NumStates()
	sat := make([]bool, n)
	for s := 0; s < n; s++ {
		for _, t := range c.m.Succ(kripke.State(s)) {
			if f[t] {
				sat[s] = true
				break
			}
		}
	}
	return sat
}

// satEUScalar returns the states satisfying E[f U g]: the least fixpoint of
// Z = g ∪ (f ∩ EX Z), computed with a backwards worklist over predecessors.
func (c *Checker) satEUScalar(f, g []bool) []bool {
	n := c.m.NumStates()
	sat := make([]bool, n)
	worklist := make([]kripke.State, 0, n)
	for s := 0; s < n; s++ {
		if g[s] {
			sat[s] = true
			worklist = append(worklist, kripke.State(s))
		}
	}
	for len(worklist) > 0 {
		c.stats.FixpointIterations++
		t := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for _, s := range c.m.Pred(t) {
			if !sat[s] && f[s] {
				sat[s] = true
				worklist = append(worklist, s)
			}
		}
	}
	return sat
}

// satEGScalar returns the states satisfying EG f: the structure is
// restricted to the f states, the nontrivial strongly connected components
// of the restriction are found, and backwards reachability within f to them
// is computed.
func (c *Checker) satEGScalar(f []bool) []bool {
	n := c.m.NumStates()
	g := graph.New(n)
	for s := 0; s < n; s++ {
		if !f[s] {
			continue
		}
		for _, t := range c.m.Succ(kripke.State(s)) {
			if f[t] {
				g.AddEdge(s, int(t))
			}
		}
	}
	scc := g.SCC()
	seed := make([]bool, n)
	for comp := 0; comp < scc.NumComponents(); comp++ {
		if scc.IsTrivial(g, comp) {
			continue
		}
		for _, v := range scc.Components[comp] {
			if f[v] {
				seed[v] = true
			}
		}
	}
	return c.satEUScalar(f, seed)
}

// bitsFromBools packs a []bool state set into a BitSet of the same capacity.
func bitsFromBools(in []bool) kripke.BitSet {
	b := kripke.NewBitSet(len(in))
	for i, v := range in {
		if v {
			b.Set(i)
		}
	}
	return b
}

// notBools returns the pointwise negation of in.
func notBools(in []bool) []bool {
	out := make([]bool, len(in))
	for i, v := range in {
		out[i] = !v
	}
	return out
}

// boolSetCases yields the satisfaction-set shapes fed to the operators: a
// random set, the empty set and the full set (the two degenerate shapes hit
// the all-zero-word and all-one-word paths of the frontier sweeps).
func boolSetCases(r *rand.Rand, n int) map[string][]bool {
	random := make([]bool, n)
	for i := range random {
		random[i] = r.Intn(3) > 0
	}
	empty := make([]bool, n)
	return map[string][]bool{"random": random, "empty": empty, "full": notBools(empty)}
}

// vectorSizes mixes small random sizes with the word-boundary counts 63, 64
// and 65, so single-word, exactly-one-word and just-past-one-word layouts
// all appear.
func vectorSizes(r *rand.Rand, iter int) int {
	boundary := []int{63, 64, 65}
	if iter%4 == 3 {
		return boundary[iter/4%len(boundary)]
	}
	return 2 + r.Intn(40)
}

// assertSameSat compares a vector result with the scalar reference state by
// state, then as whole sets: Equal and Count would also see any bit set at
// or beyond the state count.
func assertSameSat(t *testing.T, label string, got kripke.BitSet, want []bool) {
	t.Helper()
	if words := (len(want) + 63) / 64; len(got) != words {
		t.Fatalf("%s: %d words, want %d", label, len(got), words)
	}
	for i := range want {
		if got.Get(i) != want[i] {
			t.Fatalf("%s: state %d: vector=%v scalar=%v", label, i, got.Get(i), want[i])
		}
	}
	ref := bitsFromBools(want)
	if !got.Equal(ref) || got.Count() != ref.Count() {
		t.Fatalf("%s: set bits beyond the %d states (count %d, want %d)", label, len(want), got.Count(), ref.Count())
	}
}

func TestVectorEXMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(860701))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		m := randomStructure(r, vectorSizes(r, iter))
		for name, f := range boolSetCases(r, m.NumStates()) {
			want := New(m).satEXScalar(f)
			for _, w := range vectorWorkerCounts {
				got, err := New(m).SetWorkers(w).satEX(bitsFromBools(f))
				if err != nil {
					t.Fatalf("iter=%d %s workers=%d: satEX: %v", iter, name, w, err)
				}
				assertSameSat(t, fmt.Sprintf("EX iter=%d %s workers=%d", iter, name, w), got, want)
			}
		}
	}
}

func TestVectorEUMatchesScalarWithStats(t *testing.T) {
	r := rand.New(rand.NewSource(860702))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		m := randomStructure(r, vectorSizes(r, iter))
		sets := boolSetCases(r, m.NumStates())
		for fname, f := range sets {
			for gname, g := range sets {
				cs := New(m)
				want := cs.satEUScalar(f, g)
				for _, w := range vectorWorkerCounts {
					cv := New(m).SetWorkers(w)
					got, err := cv.satEU(bitsFromBools(f), bitsFromBools(g))
					if err != nil {
						t.Fatalf("iter=%d f=%s g=%s workers=%d: satEU: %v", iter, fname, gname, w, err)
					}
					label := fmt.Sprintf("EU iter=%d f=%s g=%s workers=%d", iter, fname, gname, w)
					assertSameSat(t, label, got, want)
					if cv.stats.FixpointIterations != cs.stats.FixpointIterations {
						t.Fatalf("%s: FixpointIterations: vector=%d scalar=%d",
							label, cv.stats.FixpointIterations, cs.stats.FixpointIterations)
					}
				}
			}
		}
	}
}

func TestVectorEGMatchesScalarWithStats(t *testing.T) {
	r := rand.New(rand.NewSource(860703))
	iters := 60
	if testing.Short() {
		iters = 15
	}
	for iter := 0; iter < iters; iter++ {
		m := randomStructure(r, vectorSizes(r, iter))
		for name, f := range boolSetCases(r, m.NumStates()) {
			cs := New(m)
			want := cs.satEGScalar(f)
			for _, w := range vectorWorkerCounts {
				cv := New(m).SetWorkers(w)
				got, err := cv.satEG(bitsFromBools(f))
				if err != nil {
					t.Fatalf("iter=%d %s workers=%d: satEG: %v", iter, name, w, err)
				}
				label := fmt.Sprintf("EG iter=%d %s workers=%d", iter, name, w)
				assertSameSat(t, label, got, want)
				if cv.stats.FixpointIterations != cs.stats.FixpointIterations {
					t.Fatalf("%s: FixpointIterations: vector=%d scalar=%d",
						label, cv.stats.FixpointIterations, cs.stats.FixpointIterations)
				}
			}
		}
	}
}

// TestVectorParallelGatherOnLargeFrontier drives the frontier past
// gatherParallelWords (64 words = 4096 states), so the workers>1 runs use
// the chunked parallel predecessor gather rather than the inline sweep, and
// still must reproduce the scalar sets and counters exactly.
func TestVectorParallelGatherOnLargeFrontier(t *testing.T) {
	if testing.Short() {
		t.Skip("large-structure case")
	}
	r := rand.New(rand.NewSource(860704))
	const n = 5000
	m := randomStructure(r, n)
	sets := boolSetCases(r, n)
	f, g := sets["random"], sets["full"]

	cs := New(m)
	wantEU := cs.satEUScalar(f, g)
	wantEG := cs.satEGScalar(f)
	for _, w := range vectorWorkerCounts {
		cv := New(m).SetWorkers(w)
		gotEU, err := cv.satEU(bitsFromBools(f), bitsFromBools(g))
		if err != nil {
			t.Fatalf("workers=%d: satEU: %v", w, err)
		}
		assertSameSat(t, fmt.Sprintf("large EU workers=%d", w), gotEU, wantEU)
		gotEG, err := cv.satEG(bitsFromBools(f))
		if err != nil {
			t.Fatalf("workers=%d: satEG: %v", w, err)
		}
		assertSameSat(t, fmt.Sprintf("large EG workers=%d", w), gotEG, wantEG)
		if cv.stats.FixpointIterations != cs.stats.FixpointIterations {
			t.Fatalf("workers=%d: FixpointIterations: vector=%d scalar=%d",
				w, cv.stats.FixpointIterations, cs.stats.FixpointIterations)
		}
	}
}

// TestVectorDualsAtWordBoundaries: negation and the universal operators are
// complements (A ψ ≡ ¬E¬ψ), and a complement must leave the bits at and
// above the state count clear.  At word-boundary state counts, Sat of !p,
// AX p, AF p and AG p must equal the scalar oracle as whole sets, Count
// included.  (A structure needs at least one state, so n = 0 is covered by
// the kripke.BitSet tests alone.)
func TestVectorDualsAtWordBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(860705))
	ctx := context.Background()
	for _, n := range []int{1, 63, 64, 65, 129} {
		m := randomStructure(r, n)
		p := make([]bool, n)
		for s := range p {
			p[s] = m.Holds(kripke.State(s), kripke.P("p"))
		}
		oracle := New(m)
		notP := notBools(p)
		all := notBools(make([]bool, n))
		cases := []struct {
			formula string
			want    []bool
		}{
			{"!p", notP},
			{"AX p", notBools(oracle.satEXScalar(notP))},
			{"AF p", notBools(oracle.satEGScalar(notP))},
			{"AG p", notBools(oracle.satEUScalar(all, notP))},
		}
		for _, w := range vectorWorkerCounts {
			c := New(m).SetWorkers(w)
			for _, tc := range cases {
				got, err := c.Sat(ctx, logic.MustParse(tc.formula))
				if err != nil {
					t.Fatalf("n=%d workers=%d: Sat(%s): %v", n, w, tc.formula, err)
				}
				assertSameSat(t, fmt.Sprintf("n=%d workers=%d %s", n, w, tc.formula), got, tc.want)
			}
		}
	}
}

// TestVectorHoldsAtOutOfRange: a 65-state structure's sets span two words
// (128 bit positions), so HoldsAt must bound the state by the structure's
// state count, not by the set's capacity.
func TestVectorHoldsAtOutOfRange(t *testing.T) {
	m := randomStructure(rand.New(rand.NewSource(860706)), 65)
	c := New(m)
	ctx := context.Background()
	if _, err := c.HoldsAt(ctx, logic.MustParse("!p"), 64); err != nil {
		t.Fatalf("HoldsAt(64) on 65 states: %v", err)
	}
	if _, err := c.HoldsAt(ctx, logic.MustParse("!p"), 65); err == nil {
		t.Fatal("HoldsAt(65) on 65 states should report out of range")
	}
}

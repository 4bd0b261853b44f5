package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/ring"
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

// TestVectorReusedChecker: one checker answers every EU and EG case of a
// random structure in turn, so each call runs on the scratch the previous
// one left behind.  Every result must equal the scalar oracle with the same
// FixpointIterations for that call, and must still do so after all later
// calls: a returned set that aliased the scratch would change under them.
// The large case pushes frontiers past gatherParallelWords, so the kept
// per-worker accumulators are reused across levels and calls too.
func TestVectorReusedChecker(t *testing.T) {
	r := rand.New(rand.NewSource(860707))
	sizes := []int{2, 17, 63, 64, 65, 130, 700}
	if !testing.Short() {
		sizes = append(sizes, 5000)
	}
	for _, n := range sizes {
		m := randomStructure(r, n)
		sets := boolSetCases(r, n)
		names := []string{"random", "empty", "full"}
		type result struct {
			label string
			got   kripke.BitSet
			want  []bool
		}
		for _, w := range vectorWorkerCounts {
			cv := New(m).SetWorkers(w)
			var results []result
			check := func(label string, got kripke.BitSet, err error, want []bool, iters, wantIters int) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameSat(t, label, got, want)
				if iters != wantIters {
					t.Fatalf("%s: FixpointIterations: vector=%d scalar=%d", label, iters, wantIters)
				}
				results = append(results, result{label, got, want})
			}
			for _, fname := range names {
				f := sets[fname]
				for _, gname := range names {
					g := sets[gname]
					cs := New(m)
					want := cs.satEUScalar(f, g)
					before := cv.stats.FixpointIterations
					got, err := cv.satEU(bitsFromBools(f), bitsFromBools(g))
					check(fmt.Sprintf("n=%d workers=%d EU f=%s g=%s", n, w, fname, gname),
						got, err, want, cv.stats.FixpointIterations-before, cs.stats.FixpointIterations)
				}
				cs := New(m)
				want := cs.satEGScalar(f)
				before := cv.stats.FixpointIterations
				got, err := cv.satEG(bitsFromBools(f))
				check(fmt.Sprintf("n=%d workers=%d EG f=%s", n, w, fname),
					got, err, want, cv.stats.FixpointIterations-before, cs.stats.FixpointIterations)
			}
			for _, res := range results {
				assertSameSat(t, res.label+" (after later calls)", res.got, res.want)
			}
		}
	}
}

// countdownCtx is a context that reports itself cancelled from its limit-th
// Done poll on, so a test can stop a search at a chosen checkpoint.
type countdownCtx struct {
	context.Context
	polls, limit atomic.Int64
	done         chan struct{}
}

func newCountdownCtx(limit int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background(), done: make(chan struct{})}
	c.limit.Store(limit)
	return c
}

func (c *countdownCtx) Done() <-chan struct{} {
	if c.polls.Add(1) == c.limit.Load() {
		close(c.done)
	}
	return c.done
}

func (c *countdownCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// TestVectorAfterCancelledEG: an EG search cancelled mid-Tarjan leaves
// visited indices, stacked vertices and partial seeds in the scratch.  The
// same checker's next answers, EG and EU alike, must still equal the scalar
// oracle, and the cancelled subformula must be computable afresh.
func TestVectorAfterCancelledEG(t *testing.T) {
	c, f := cancelFixture(t)
	n := c.m.NumStates()
	all := constSet(n, true)
	// egSeeds polls every 4,096 visits; the second poll lands with 8,192
	// of the 20,000 states visited and the search still open.
	c.bind(newCountdownCtx(2))
	if _, err := c.egSeeds(all); !errors.Is(err, context.Canceled) {
		t.Fatalf("egSeeds under a cancelled context: err = %v, want context.Canceled", err)
	}
	visited := 0
	for _, ix := range c.scratch.index {
		if ix != -1 {
			visited++
		}
	}
	if visited == 0 || visited == n {
		t.Fatalf("cancellation did not land mid-search: %d of %d states visited", visited, n)
	}

	ctx := context.Background()
	c.bind(ctx)
	r := rand.New(rand.NewSource(860708))
	for name, fs := range boolSetCases(r, n) {
		cs := New(c.m)
		want := cs.satEGScalar(fs)
		before := c.stats.FixpointIterations
		got, err := c.satEG(bitsFromBools(fs))
		if err != nil {
			t.Fatalf("EG %s after cancellation: %v", name, err)
		}
		assertSameSat(t, "EG "+name+" after cancellation", got, want)
		if iters := c.stats.FixpointIterations - before; iters != cs.stats.FixpointIterations {
			t.Fatalf("EG %s after cancellation: FixpointIterations: vector=%d scalar=%d", name, iters, cs.stats.FixpointIterations)
		}
		wantEU := New(c.m).satEUScalar(fs, notBools(fs))
		gotEU, err := c.satEU(bitsFromBools(fs), bitsFromBools(notBools(fs)))
		if err != nil {
			t.Fatalf("EU %s after cancellation: %v", name, err)
		}
		assertSameSat(t, "EU "+name+" after cancellation", gotEU, wantEU)
	}
	got, err := c.Sat(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	want, err := New(c.m).Sat(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("Sat(%s) after a cancelled EG differs from a fresh checker's", f)
	}
}

// BenchmarkEGSeeds runs EG's seed search on ring M_12 (49,152 states) for
// four indexed atoms and their complements, eight passes per op on one
// checker whose scratch a warm-up pass allocated, so B/op shows what the
// passes themselves allocate.
func BenchmarkEGSeeds(b *testing.B) {
	inst, err := ring.Build(12)
	if err != nil {
		b.Fatal(err)
	}
	m := inst.M
	n := m.NumStates()
	var operands []kripke.BitSet
	for i, p := range []string{"d", "t", "c", "n"} {
		set := m.StatesWith(kripke.PI(p, i+1))
		if set == nil {
			set = kripke.NewBitSet(n)
		}
		operands = append(operands, set, set.Complement(n))
	}
	c := New(m)
	c.bind(context.Background())
	if _, err := c.egSeeds(operands[0]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range operands {
			if _, err := c.egSeeds(f); err != nil {
				b.Fatal(err)
			}
		}
	}
}

package ring

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bisim"
	"repro/internal/explore"
	"repro/internal/logic"
	"repro/internal/mc"
)

func TestGlobalStateBasics(t *testing.T) {
	g := NewGlobalState(4)
	if g.R() != 4 {
		t.Errorf("R = %d", g.R())
	}
	if g.Part(1) != Token {
		t.Errorf("process 1 should start with the token, got %v", g.Part(1))
	}
	for i := 2; i <= 4; i++ {
		if g.Part(i) != Neutral {
			t.Errorf("process %d should start neutral", i)
		}
	}
	if g.Holder() != 1 {
		t.Errorf("Holder = %d", g.Holder())
	}
	if !g.DelayedEmpty() {
		t.Error("initial state has no delayed process")
	}
	if g.CountPart(Neutral) != 3 {
		t.Errorf("CountPart(Neutral) = %d", g.CountPart(Neutral))
	}
	if g.Key() != "TNNN" {
		t.Errorf("Key = %q", g.Key())
	}
	if got := g.String(); got == "" {
		t.Error("String should render")
	}
	clone := g.Clone()
	clone.Parts[0] = Critical
	if g.Part(1) != Token {
		t.Error("Clone should not share backing storage")
	}
	if Part(99).String() == "" || Neutral.String() != "N" || Critical.String() != "C" {
		t.Error("Part.String wrong")
	}
}

func TestCLN(t *testing.T) {
	// Ring of 5; holder is process 2; delayed processes are 4 and 5.  The
	// closest delayed neighbour "to the left" of 2 (direction of decreasing
	// index, wrapping) is 5: distance (2-5) mod 5 = 2, versus 3 for process 4.
	g := GlobalState{Parts: []Part{Neutral, Token, Neutral, Delayed, Delayed}}
	if got := g.CLN(2); got != 5 {
		t.Errorf("CLN(2) = %d, want 5", got)
	}
	// With only process 3 delayed, cln(2) = 3 (distance 4).
	g2 := GlobalState{Parts: []Part{Neutral, Token, Delayed, Neutral, Neutral}}
	if got := g2.CLN(2); got != 3 {
		t.Errorf("CLN(2) = %d, want 3", got)
	}
	// No delayed process: cln is 0.
	g3 := NewGlobalState(3)
	if got := g3.CLN(1); got != 0 {
		t.Errorf("CLN with no delayed = %d, want 0", got)
	}
}

func TestSuccessorsFollowTheFourRules(t *testing.T) {
	// From the initial 3-process state (T, N, N): process 1 may enter its
	// critical section, and processes 2 and 3 may become delayed.  No token
	// transfer is possible because nobody is delayed.
	g := NewGlobalState(3)
	succ := g.Successors()
	if len(succ) != 3 {
		t.Fatalf("initial state has %d successors, want 3", len(succ))
	}
	keys := map[string]bool{}
	for _, s := range succ {
		keys[s.Key()] = true
	}
	for _, want := range []string{"CNN", "TDN", "TND"} {
		if !keys[want] {
			t.Errorf("missing successor %q, got %v", want, keys)
		}
	}

	// From (C, D, D) the only move is the token transfer to cln(1) = 3.
	g2 := GlobalState{Parts: []Part{Critical, Delayed, Delayed}}
	succ2 := g2.Successors()
	if len(succ2) != 1 {
		t.Fatalf("(C,D,D) has %d successors, want 1", len(succ2))
	}
	if succ2[0].Key() != "NDC" {
		t.Errorf("(C,D,D) successor = %q, want NDC", succ2[0].Key())
	}

	// From (C, N, N) the holder may leave its critical section (rule 4,
	// because nobody is delayed) and the neutral processes may delay.
	g3 := GlobalState{Parts: []Part{Critical, Neutral, Neutral}}
	succ3 := g3.Successors()
	keys3 := map[string]bool{}
	for _, s := range succ3 {
		keys3[s.Key()] = true
	}
	if !keys3["TNN"] {
		t.Error("(C,N,N) should allow the holder to return to T")
	}
	if len(succ3) != 3 {
		t.Errorf("(C,N,N) has %d successors, want 3", len(succ3))
	}
}

func TestBuildMatchesFig51(t *testing.T) {
	inst, err := Build(2)
	if err != nil {
		t.Fatalf("Build(2): %v", err)
	}
	if inst.M.NumStates() != 8 {
		t.Errorf("M_2 has %d states, want 8 (Fig 5.1)", inst.M.NumStates())
	}
	if inst.M.NumTransitions() != 14 {
		t.Errorf("M_2 has %d transitions, want 14", inst.M.NumTransitions())
	}
	if err := inst.M.Validate(); err != nil {
		t.Errorf("M_2 invalid: %v", err)
	}
	if inst.M.Initial() != 0 {
		t.Errorf("initial state id = %d", inst.M.Initial())
	}
	init := inst.StateOf(inst.M.Initial())
	if init.Key() != "TN" {
		t.Errorf("initial ring state = %q", init.Key())
	}
	if id, ok := inst.StateID(GlobalState{Parts: []Part{Delayed, Critical}}); !ok || inst.StateOf(id).Key() != "DC" {
		t.Errorf("StateID lookup failed: %v %v", id, ok)
	}
	if _, ok := inst.StateID(GlobalState{Parts: []Part{Neutral, Neutral}}); ok {
		t.Error("a state with no token holder must be unreachable")
	}
}

func TestBuildReachableCounts(t *testing.T) {
	for r := 1; r <= 7; r++ {
		inst, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		want := ExpectedReachable(r)
		if inst.M.NumStates() != want {
			t.Errorf("M_%d has %d states, want r*2^r = %d", r, inst.M.NumStates(), want)
		}
		// Cross-check against the closed-form enumeration.
		count := 0
		seen := map[string]bool{}
		EnumerateReachable(r, func(g GlobalState) bool {
			count++
			seen[g.Key()] = true
			if _, ok := inst.StateID(g); !ok {
				t.Errorf("r=%d: enumerated state %s not reached by Build", r, g)
				return false
			}
			return true
		})
		if count != want || len(seen) != want {
			t.Errorf("EnumerateReachable(%d) produced %d states (%d distinct), want %d", r, count, len(seen), want)
		}
	}
	if _, err := Build(0); err == nil {
		t.Error("Build(0) should fail")
	}
	if _, err := Build(100); err == nil {
		t.Error("Build(100) should refuse to construct an astronomically large structure")
	}
}

func TestStructuralInvariants(t *testing.T) {
	for r := 1; r <= 6; r++ {
		inst, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		if err := inst.CheckPartitionInvariant(); err != nil {
			t.Errorf("partition invariant fails for r=%d: %v", r, err)
		}
		if err := inst.CheckSingleTokenInvariant(); err != nil {
			t.Errorf("single-token invariant fails for r=%d: %v", r, err)
		}
	}
}

func TestTemporalInvariantsAndProperties(t *testing.T) {
	// The Section 5 invariants and the four properties hold on every ring
	// size we can check directly — the empirical form of the transfer
	// guaranteed by Theorem 5.
	for r := 2; r <= 5; r++ {
		inst, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		checker := mc.New(inst.M)
		for _, inv := range Invariants() {
			holds, err := checker.Holds(context.Background(), inv.Formula)
			if err != nil {
				t.Fatalf("r=%d invariant %s: %v", r, inv.Name, err)
			}
			if !holds {
				t.Errorf("r=%d: invariant %s (%s) fails", r, inv.Name, inv.Source)
			}
		}
		for _, prop := range Properties() {
			holds, err := checker.Holds(context.Background(), prop.Formula)
			if err != nil {
				t.Fatalf("r=%d property %s: %v", r, prop.Name, err)
			}
			if !holds {
				t.Errorf("r=%d: property %s (%s) fails", r, prop.Name, prop.Source)
			}
		}
	}
}

func TestPropertiesAreRestrictedICTLStar(t *testing.T) {
	for _, nf := range append(Properties(), Invariants()...) {
		if violations := logic.CheckRestricted(nf.Formula); len(violations) != 0 {
			t.Errorf("property %s is outside restricted ICTL*: %v", nf.Name, violations)
		}
	}
	if !logic.IsRestricted(IntroLiveness()) {
		t.Error("the introduction's liveness property should be restricted ICTL*")
	}
}

func TestOneProcessRingDegenerate(t *testing.T) {
	// The paper notes that the correspondence cannot be established with the
	// one-process ring because no process can ever be delayed there.  Check
	// that M_1 exists, is total, and that EF d_1 is false.
	inst, err := Build(1)
	if err != nil {
		t.Fatalf("Build(1): %v", err)
	}
	holds, err := mc.New(inst.M).Holds(context.Background(), logic.MustParse("exists i . EF d[i]"))
	if err != nil {
		t.Fatal(err)
	}
	if holds {
		t.Error("the single process can never be delayed")
	}
	// And indeed M_1 does not correspond to M_2.
	two, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bisim.IndexedCompute(context.Background(), two.M, inst.M, []bisim.IndexPair{{I: 1, I2: 1}, {I: 2, I2: 1}},
		bisim.Options{OneProps: []string{PropToken}, ReachableOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Corresponds() {
		t.Error("M_2 must not correspond to M_1")
	}
}

func TestNoIndexedCorrespondenceM2ToLargerRings(t *testing.T) {
	// Reproduction finding, negative half: contrary to the paper's Section 5
	// claim, M_2 does not indexed-correspond to any larger ring.  The
	// decision procedure shows that no (i, i') pair of reductions
	// corresponds, so no IN relation can work.
	small, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := bisim.Options{OneProps: []string{PropToken}, ReachableOnly: true}
	for r := 3; r <= 5; r++ {
		large, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		res, err := bisim.IndexedCompute(context.Background(), small.M, large.M, IndexRelation(2, r), opts)
		if err != nil {
			t.Fatalf("IndexedCompute r=%d: %v", r, err)
		}
		if res.Corresponds() {
			t.Errorf("M_2 and M_%d unexpectedly indexed-correspond", r)
		}
		for i := 1; i <= 2; i++ {
			for j := 1; j <= r; j++ {
				ok, err := bisim.Correspond(context.Background(), small.M.ReduceNormalized(i), large.M.ReduceNormalized(j), opts)
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Errorf("reductions M_2|%d and M_%d|%d unexpectedly correspond", i, r, j)
				}
			}
		}
	}
	// Sanity: M_2 corresponds to itself under the paper's IN relation.
	self, err := bisim.IndexedCompute(context.Background(), small.M, small.M, IndexRelation(2, 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !self.Corresponds() {
		t.Error("M_2 should indexed-correspond to itself")
	}
}

func TestIndexedCorrespondenceFromCutoffThree(t *testing.T) {
	// Reproduction finding, positive half: the methodology survives with a
	// cutoff of three processes — M_3 indexed-corresponds to every larger
	// ring we can build, so closed restricted ICTL* formulas (in particular
	// the four Section 5 properties) transfer from M_3 to M_r.
	small, err := Build(CutoffSize)
	if err != nil {
		t.Fatal(err)
	}
	opts := bisim.Options{OneProps: []string{PropToken}, ReachableOnly: true}
	for r := 3; r <= 6; r++ {
		large, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%d): %v", r, err)
		}
		res, err := bisim.IndexedCompute(context.Background(), small.M, large.M, CutoffIndexRelation(CutoffSize, r), opts)
		if err != nil {
			t.Fatalf("IndexedCompute r=%d: %v", r, err)
		}
		if !res.Corresponds() {
			t.Errorf("M_3 and M_%d should indexed-correspond; failing pairs: %v", r, res.FailingPairs())
		}
	}
	// The CutoffIndexRelation must be total on both sides by construction.
	in := CutoffIndexRelation(4, 7)
	coveredLeft := map[int]bool{}
	coveredRight := map[int]bool{}
	for _, p := range in {
		coveredLeft[p.I] = true
		coveredRight[p.I2] = true
	}
	for i := 1; i <= 4; i++ {
		if !coveredLeft[i] {
			t.Errorf("CutoffIndexRelation(4,7) misses small index %d", i)
		}
	}
	for j := 1; j <= 7; j++ {
		if !coveredRight[j] {
			t.Errorf("CutoffIndexRelation(4,7) misses large index %d", j)
		}
	}
}

func TestDistinguishingFormulaSeparatesM2(t *testing.T) {
	chi := DistinguishingFormula()
	if violations := logic.CheckRestricted(chi); len(violations) != 0 {
		t.Fatalf("the distinguishing formula must lie in restricted ICTL*: %v", violations)
	}
	for r := 2; r <= 6; r++ {
		inst, err := Build(r)
		if err != nil {
			t.Fatal(err)
		}
		holds, err := mc.New(inst.M).Holds(context.Background(), chi)
		if err != nil {
			t.Fatal(err)
		}
		want := r >= 3
		if holds != want {
			t.Errorf("distinguishing formula on M_%d = %v, want %v", r, holds, want)
		}
	}
}

func TestRankMatchesAppendixFormulas(t *testing.T) {
	// r(s, i) examples computed by hand from the Appendix definitions.
	tests := []struct {
		state GlobalState
		i     int
		want  int
	}{
		// i neutral: infinitely many idle transitions, rank 0 by convention.
		{GlobalState{Parts: []Part{Token, Neutral}}, 2, 0},
		// i delayed, holder in T, no neutrals: |N| + |T| + 2((1-2) mod 2 - 1) = 0+1+0 = 1.
		{GlobalState{Parts: []Part{Token, Delayed}}, 2, 1},
		// i delayed, holder in C: |N| + |T| + 0 = 0.
		{GlobalState{Parts: []Part{Critical, Delayed}}, 2, 0},
		// i delayed in a 4-ring: holder 1 in C, processes 2,3 neutral, 4 delayed:
		// |N|=2, |T|=0, distance (1-4) mod 4 = 1 => 2 + 0 + 2*0 = 2.
		{GlobalState{Parts: []Part{Critical, Neutral, Neutral, Delayed}}, 4, 2},
		// i delayed further away: holder 1 in T, process 2 delayed, 3,4 neutral:
		// distance (1-2) mod 4 = 3 => |N|=2 + |T|=1 + 2*(3-1) = 7.
		{GlobalState{Parts: []Part{Token, Delayed, Neutral, Neutral}}, 2, 7},
		// i is the holder in T: rank = |N|.
		{GlobalState{Parts: []Part{Token, Neutral, Delayed}}, 1, 1},
		// i critical with nobody delayed: rank 0.
		{GlobalState{Parts: []Part{Critical, Neutral}}, 1, 0},
		// i critical with a delayed process: rank = |N|.
		{GlobalState{Parts: []Part{Critical, Neutral, Delayed}}, 1, 1},
	}
	for _, tt := range tests {
		if got := Rank(tt.state, tt.i); got != tt.want {
			t.Errorf("Rank(%s, %d) = %d, want %d", tt.state, tt.i, got, tt.want)
		}
	}
}

func TestRankIsMaxConsecutiveIdleTransitions(t *testing.T) {
	// For every reachable state of small rings, the paper's rank formula must
	// equal the length of the longest chain of consecutive i-idle transitions
	// (or 0 when that chain is infinite).  "i-idle" uses the paper's
	// definition; the corrected rank uses the strengthened definition.
	for r := 2; r <= 4; r++ {
		EnumerateReachable(r, func(g GlobalState) bool {
			for i := 1; i <= r; i++ {
				check := func(rank int, idle func(a, b GlobalState) bool, name string) {
					length, infinite := longestIdleChain(g, i, idle, 60)
					want := rank
					if infinite {
						if want != 0 {
							t.Errorf("%s: Rank(%s,%d)=%d but the idle chain is infinite", name, g, i, want)
						}
						return
					}
					if length != want {
						t.Errorf("%s: Rank(%s,%d)=%d but longest idle chain has length %d", name, g, i, want, length)
					}
				}
				check(Rank(g, i), paperIdle(i), "paper")
				check(RankCorrected(g, i), correctedIdle(i), "corrected")
			}
			return true
		})
	}
}

// paperIdle reports whether the transition a -> b is i-idle in the paper's
// sense: i stays in the same part, and if i is critical with nobody delayed,
// nobody becomes delayed.
func paperIdle(i int) func(a, b GlobalState) bool {
	return func(a, b GlobalState) bool {
		if a.Part(i) != b.Part(i) {
			return false
		}
		if a.Part(i) == Critical && a.DelayedEmpty() && !b.DelayedEmpty() {
			return false
		}
		return true
	}
}

// correctedIdle additionally freezes the D-emptiness observation while i
// holds the token in its neutral state.
func correctedIdle(i int) func(a, b GlobalState) bool {
	return func(a, b GlobalState) bool {
		if !paperIdle(i)(a, b) {
			return false
		}
		if a.Part(i) == Token && a.DelayedEmpty() && !b.DelayedEmpty() {
			return false
		}
		return true
	}
}

// longestIdleChain returns the length of the longest chain of consecutive
// idle transitions from g, or infinite=true if a chain longer than limit
// exists (which, for these graphs, indicates an idle cycle).
func longestIdleChain(g GlobalState, i int, idle func(a, b GlobalState) bool, limit int) (length int, infinite bool) {
	type frame struct {
		state GlobalState
		depth int
	}
	best := 0
	stack := []frame{{g, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.depth > limit {
			return 0, true
		}
		if f.depth > best {
			best = f.depth
		}
		for _, next := range f.state.Successors() {
			if idle(f.state, next) {
				stack = append(stack, frame{next, f.depth + 1})
			}
		}
	}
	return best, false
}

func TestPaperRelationHasAViolation(t *testing.T) {
	// Reproduction finding: the relation exactly as printed in Section 5 is
	// not a correspondence relation.  The violation already shows up when
	// comparing M_2 with itself for (i, i') = (1, 1): the states (T,N) and
	// (T,D) are related (same part, i not critical) but fail clause 2b/2c.
	small, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 4; r++ {
		large, err := Build(r)
		if err != nil {
			t.Fatal(err)
		}
		violations := CheckExplicit(PaperRelation, small, large, 1, 1)
		if len(violations) == 0 {
			t.Errorf("expected the verbatim Section 5 relation to fail for r=%d", r)
			continue
		}
		saw2bOr2c := false
		for _, v := range violations {
			if v.Clause == "2b" || v.Clause == "2c" {
				saw2bOr2c = true
			}
		}
		if !saw2bOr2c {
			t.Errorf("r=%d: expected a transfer-clause violation, got %v", r, violations)
		}
	}

	// The distinguishing CTL* (no nexttime) formula from the finding really
	// does distinguish the two states the paper's relation identifies.
	inst, err := Build(3)
	if err != nil {
		t.Fatal(err)
	}
	phi := logic.MustParse("E[(n[1] & t[1]) U (c[1] & E[c[1] U (t[1] & n[1])])]")
	checker := mc.New(inst.M)
	tn, ok := inst.StateID(GlobalState{Parts: []Part{Token, Neutral, Neutral}})
	if !ok {
		t.Fatal("state (T,N,N) should be reachable")
	}
	tdd, ok := inst.StateID(GlobalState{Parts: []Part{Token, Delayed, Delayed}})
	if !ok {
		t.Fatal("state (T,D,D) should be reachable")
	}
	holdsTN, err := checker.HoldsAt(context.Background(), phi, tn)
	if err != nil {
		t.Fatal(err)
	}
	holdsTDD, err := checker.HoldsAt(context.Background(), phi, tdd)
	if err != nil {
		t.Fatal(err)
	}
	if !holdsTN || holdsTDD {
		t.Errorf("distinguishing formula: (T,N,N)=%v (want true), (T,D,D)=%v (want false)", holdsTN, holdsTDD)
	}
}

func TestSection5RelationsAreNotCorrespondences(t *testing.T) {
	// For r = 2 (M_2 against itself) the strengthened relation is a genuine
	// correspondence while the verbatim paper relation already fails; for
	// every r ≥ 3 both variants fail, consistent with the fact that no
	// correspondence between M_2 and M_r exists at all.
	small, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if violations := CheckExplicit(CorrectedRelation, small, small, 1, 1); len(violations) != 0 {
		t.Errorf("corrected relation should be a correspondence of M_2 with itself: %v", violations[0])
	}
	if violations := CheckExplicit(PaperRelation, small, small, 1, 1); len(violations) == 0 {
		t.Error("the verbatim Section 5 relation should already fail on M_2 itself")
	}
	for r := 3; r <= 5; r++ {
		large, err := Build(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, variant := range []RelationVariant{PaperRelation, CorrectedRelation} {
			violations := CheckExplicit(variant, small, large, 1, 1)
			if len(violations) == 0 {
				t.Errorf("%s relation unexpectedly passes for r=%d", variant, r)
				continue
			}
			sawTransfer := false
			for _, v := range violations {
				if v.Clause == "2b" || v.Clause == "2c" {
					sawTransfer = true
				}
			}
			if !sawTransfer {
				t.Errorf("%s relation for r=%d: expected a transfer-clause violation, got %v", variant, r, violations[0])
			}
		}
	}
}

func TestLocalCheckerMatchesExplicitCheck(t *testing.T) {
	// On a ring small enough to enumerate, the local checker must agree with
	// the explicit bisim.Check verdict: both relation variants have
	// violations on the 5-ring, and the local sweep finds them.
	small, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, variant := range []RelationVariant{PaperRelation, CorrectedRelation} {
		lc, err := NewLocalChecker(variant, small, 5)
		if err != nil {
			t.Fatal(err)
		}
		violations := 0
		EnumerateReachable(5, func(g GlobalState) bool {
			for _, pair := range IndexRelation(2, 5) {
				violations += len(lc.CheckState(g, pair.I, pair.I2))
			}
			return true
		})
		if violations == 0 {
			t.Errorf("%s relation should show local violations on the 5-ring", variant)
		}
		if vs := lc.CheckInitial(1, 1); len(vs) != 0 {
			t.Errorf("initial states should be related under the %s relation: %v", variant, vs)
		}
	}
}

func TestLocalCheckerLargeRingSampled(t *testing.T) {
	// The refutation scales to rings whose state graphs could never be
	// built: at r = 200 the local checker exhibits clause violations for
	// both relation variants, both at crafted states and under random
	// sampling of the reachable state space.
	small, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	const r = 200
	rng := rand.New(rand.NewSource(4242))
	next := func(n int) int { return rng.Intn(n) }

	// Crafted state for the verbatim relation: holder neutral, everyone else
	// delayed (the (T,N) vs "all delayed" failure).
	allDelayed := GlobalState{Parts: make([]Part, r)}
	allDelayed.Parts[0] = Token
	for i := 2; i <= r; i++ {
		allDelayed.Parts[i-1] = Delayed
	}
	lcPaper, err := NewLocalChecker(PaperRelation, small, r)
	if err != nil {
		t.Fatal(err)
	}
	if vs := lcPaper.CheckState(allDelayed, 1, 1); len(vs) == 0 {
		t.Error("the paper relation should fail locally at the all-delayed state for r=200")
	}

	// Crafted state for the strengthened relation: process 1 delayed while
	// another process that will be served after it is delayed too (the
	// "queued behind" failure that no M_2-based relation can avoid).
	queued := GlobalState{Parts: make([]Part, r)}
	queued.Parts[1] = Token // process 2 holds the token
	queued.Parts[0] = Delayed
	queued.Parts[2] = Delayed // process 3 is served after process 1
	lcCorrected, err := NewLocalChecker(CorrectedRelation, small, r)
	if err != nil {
		t.Fatal(err)
	}
	if vs := lcCorrected.CheckState(queued, 1, 1); len(vs) == 0 {
		t.Error("the corrected relation should fail locally at the queued-behind state for r=200")
	}

	// Random sampling also surfaces violations (the failing configurations
	// are common), and the initial states remain related.
	for _, pair := range []bisim.IndexPair{{I: 1, I2: 1}, {I: 2, I2: 2}, {I: 2, I2: r / 2}, {I: 2, I2: r}} {
		if vs := lcCorrected.CheckInitial(pair.I, pair.I2); len(vs) != 0 {
			t.Fatalf("initial check failed for %v: %v", pair, vs)
		}
	}
	sampledViolations := 0
	for sample := 0; sample < 40; sample++ {
		g := RandomReachableState(r, next)
		sampledViolations += len(lcCorrected.CheckState(g, 1, 1))
		sampledViolations += len(lcCorrected.CheckState(g, 2, r/2))
	}
	if sampledViolations == 0 {
		t.Error("random sampling at r=200 should surface clause violations for the corrected relation")
	}
}

func TestLocalCheckerInputValidation(t *testing.T) {
	small, err := Build(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLocalChecker(CorrectedRelation, nil, 10); err == nil {
		t.Error("nil small instance should be rejected")
	}
	if _, err := NewLocalChecker(CorrectedRelation, small, 1); err == nil {
		t.Error("large ring smaller than the small instance should be rejected")
	}
	lc, err := NewLocalChecker(CorrectedRelation, small, 10)
	if err != nil {
		t.Fatal(err)
	}
	wrongSize := NewGlobalState(5)
	if vs := lc.CheckState(wrongSize, 1, 1); len(vs) == 0 || vs[0].Clause != "input" {
		t.Errorf("wrong-size state should be reported, got %v", vs)
	}
}

func TestRandomReachableStateIsReachable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	next := func(n int) int { return rng.Intn(n) }
	for r := 2; r <= 6; r++ {
		inst, err := Build(r)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			g := RandomReachableState(r, next)
			if _, ok := inst.StateID(g); !ok {
				t.Fatalf("RandomReachableState produced an unreachable state %s for r=%d", g, r)
			}
		}
	}
}

func TestBuggyVariantViolatesMutualExclusion(t *testing.T) {
	inst, err := BuildBuggy(3)
	if err != nil {
		t.Fatalf("BuildBuggy: %v", err)
	}
	checker := mc.New(inst.M)
	oneToken, err := checker.Holds(context.Background(), logic.MustParse("AG (one t)"))
	if err != nil {
		t.Fatal(err)
	}
	if oneToken {
		t.Error("the buggy protocol should violate the exactly-one-token invariant")
	}
	mutex, err := checker.Holds(context.Background(), logic.MustParse("AG ((exists i . c[i]) -> (one c))"))
	if err != nil {
		t.Fatal(err)
	}
	if mutex {
		t.Error("the buggy protocol should violate mutual exclusion")
	}
	// The correct protocol satisfies both.
	good, err := Build(3)
	if err != nil {
		t.Fatal(err)
	}
	goodChecker := mc.New(good.M)
	for _, text := range []string{"AG (one t)", "AG ((exists i . c[i]) -> (one c))"} {
		holds, err := goodChecker.Holds(context.Background(), logic.MustParse(text))
		if err != nil {
			t.Fatal(err)
		}
		if !holds {
			t.Errorf("the correct protocol should satisfy %q", text)
		}
	}
	// A counterexample trace for the violated invariant can be produced.
	cx, err := checker.Counterexample(context.Background(), logic.MustParse("AG (one t)"), inst.M.Initial())
	if err != nil {
		t.Fatalf("Counterexample: %v", err)
	}
	if len(cx.States) == 0 {
		t.Error("counterexample should contain at least one state")
	}
	if _, err := BuildBuggy(0); err == nil {
		t.Error("BuildBuggy(0) should fail")
	}
}

func TestRelationVariantString(t *testing.T) {
	if PaperRelation.String() != "paper" || CorrectedRelation.String() != "corrected" {
		t.Error("RelationVariant.String wrong")
	}
	if RelationVariant(9).String() == "" {
		t.Error("unknown variant should still render")
	}
}

func TestInstanceStateRoundTrip(t *testing.T) {
	inst, err := Build(3)
	if err != nil {
		t.Fatal(err)
	}
	for id, g := range inst.States {
		if back, ok := inst.StateID(g); !ok || int(back) != id {
			t.Fatalf("StateID(StateOf(%d)) = %d, %v", id, back, ok)
		}
	}
}

// TestRingDefDeclaresExactSizes: the correct ring's Def declares exactly
// the states and transitions its exploration finds, r·2^r and
// r·2^(r−1)·(r+2) − r, and the buggy ring's Def declares none.
func TestRingDefDeclaresExactSizes(t *testing.T) {
	for r := 1; r <= 14; r++ {
		def := PackedDef(r)
		sp, err := explore.Explore(context.Background(), def, explore.Options{})
		if err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		if def.States != sp.NumStates() || def.Transitions != sp.NumTransitions() {
			t.Errorf("r=%d: declares %d states and %d transitions, explored %d and %d",
				r, def.States, def.Transitions, sp.NumStates(), sp.NumTransitions())
		}
		if buggy := PackedDefBuggy(r); buggy.States != 0 || buggy.Transitions != 0 {
			t.Errorf("r=%d: buggy ring declares %d states and %d transitions, want none",
				r, buggy.States, buggy.Transitions)
		}
	}
}

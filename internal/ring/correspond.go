package ring

import (
	"context"
	"fmt"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// This file implements the Section 5 / Appendix correspondence between the
// two-process ring M_2 and the r-process ring M_r:
//
//   - the rank function r(s, i) of the Appendix (maximum number of
//     consecutive i-idle transitions),
//   - the relation E_{i,i'} of Section 5 ("i is in the same part of s as i'
//     is in s', and if i ∈ C then D = ∅ ⇔ D' = ∅") with degrees
//     r(s,i) + r(s',i'),
//   - a strengthened ("corrected") variant of that relation, and
//   - a local clause checker that validates the relation at individual
//     states of rings far too large to build explicitly (the paper's
//     1000-process claim).
//
// Reproduction finding (machine-checked by the tests in this package and
// summarised in EXPERIMENTS.md).  The relation exactly as printed in
// Section 5 is not a correspondence relation, and — more significantly — no
// correspondence relation between M_2 and M_r (r ≥ 3) exists at all:
//
//   - The printed relation relates the M_2 state (P1 ∈ T, P2 ∈ N) to M_r
//     states in which P1 holds the token while every other process is
//     delayed; the CTL* (no nexttime) formula
//     E[(n_1 ∧ t_1) U (c_1 ∧ E[c_1 U (t_1 ∧ n_1)])] distinguishes them.
//     The gap in the Appendix is case 2(b), which asserts that after a
//     matched token transfer "both i and i' are in C, so the successor
//     states correspond" while ignoring the relation's own requirement that
//     D = ∅ ⇔ D' = ∅ for critical processes.
//   - Strengthening the side condition (CorrectedRelation, which requires
//     D = ∅ ⇔ D' = ∅ for every token holder) repairs that particular failure
//     but cannot repair the example: the closed *restricted* ICTL* formula
//     returned by DistinguishingFormula,
//
//     ∨i EF( d_i ∧ E[ d_i U (c_i ∧ ¬E[c_i U (t_i ∧ n_i)]) ] )
//
//     ("some process can reach a point where it is delayed and may enter its
//     critical section at a moment when it cannot leave it again still
//     holding the token, because other processes are queued"), is false in
//     M_2 but true in every M_r with r ≥ 3.  By Theorem 5 this proves that
//     M_2 indexed-corresponds to no larger ring, so the paper's two-process
//     cutoff claim does not hold for the model as defined in Section 5.
//   - The methodology itself survives with a cutoff of three processes: the
//     decision procedure of package bisim establishes that M_3 and M_r
//     indexed-correspond (over CutoffIndexRelation) for every r that can be
//     built explicitly, so every closed restricted ICTL* formula — in
//     particular the four Section 5 properties — has the same truth value in
//     the 1000-process ring as in the three-process ring.
//
// The relation variants, the rank function and the local checker below are
// kept precisely because they make the negative half of this finding
// executable at ring sizes (r = 200, r = 1000) whose state graphs could
// never be constructed.
//
// Building and deciding ring instances is internal/family's job, where the
// ring is one Topology beside star, line, tree and torus: family.Ring
// explores PackedDef, picks between IndexRelation and CutoffIndexRelation,
// and decides with the same options as every other topology.

// RelationVariant selects which Section 5 relation to build.
type RelationVariant int

const (
	// PaperRelation is the relation exactly as printed in Section 5.
	PaperRelation RelationVariant = iota
	// CorrectedRelation strengthens the side condition to token holders
	// (parts T and C), which makes the relation a genuine correspondence.
	CorrectedRelation
)

// String names the variant.
func (v RelationVariant) String() string {
	switch v {
	case PaperRelation:
		return "paper"
	case CorrectedRelation:
		return "corrected"
	default:
		return fmt.Sprintf("RelationVariant(%d)", int(v))
	}
}

// Rank returns the paper's rank r(s, i): the maximal number of consecutive
// i-idle transitions possible from s, or 0 when that number is infinite
// (Appendix, cases 1–5).
func Rank(g GlobalState, i int) int {
	r := g.R()
	j := g.Holder()
	numNeutral := g.CountPart(Neutral)
	switch g.Part(i) {
	case Neutral:
		return 0 // infinitely many i-idle transitions possible
	case Delayed:
		dist := ((j-i)%r + r) % r
		numToken := g.CountPart(Token)
		return numNeutral + numToken + 2*(dist-1)
	case Token:
		return numNeutral
	case Critical:
		if g.DelayedEmpty() {
			return 0
		}
		return numNeutral
	default:
		return 0
	}
}

// RankCorrected is the rank induced by the strengthened notion of an i-idle
// transition, which additionally requires that when process i holds the
// token and no process is delayed, the set of delayed processes stays empty.
// It differs from Rank only for a token holder in its neutral state with no
// delayed processes (where the paper's rank counts the |N| transitions that
// delay a neutral process, which under the strengthened relation change the
// abstract state of process i).
func RankCorrected(g GlobalState, i int) int {
	if g.Part(i) == Token && g.DelayedEmpty() {
		return 0
	}
	return Rank(g, i)
}

// Related reports whether the M_2 state a (observing process i) and the M_r
// state b (observing process i2) are related under the chosen variant of the
// Section 5 relation.
func Related(variant RelationVariant, a GlobalState, i int, b GlobalState, i2 int) bool {
	pa, pb := a.Part(i), b.Part(i2)
	if pa != pb {
		return false
	}
	switch variant {
	case PaperRelation:
		if pa == Critical {
			return a.DelayedEmpty() == b.DelayedEmpty()
		}
		return true
	case CorrectedRelation:
		if pa == Critical || pa == Token {
			return a.DelayedEmpty() == b.DelayedEmpty()
		}
		return true
	default:
		return false
	}
}

// Degree returns the degree the Section 5 construction assigns to a related
// pair: rank(a, i) + rank(b, i2), using the rank that matches the variant.
func Degree(variant RelationVariant, a GlobalState, i int, b GlobalState, i2 int) int {
	if variant == CorrectedRelation {
		return RankCorrected(a, i) + RankCorrected(b, i2)
	}
	return Rank(a, i) + Rank(b, i2)
}

// IndexRelation returns the paper's IN relation between the index sets of a
// small instance with s processes and a large instance with r processes:
// {(1,1)} ∪ {(s, i) | i ∈ {2..r}}, which for s = 2 is exactly the relation
// of Section 5.
func IndexRelation(s, r int) []bisim.IndexPair {
	out := make([]bisim.IndexPair, 0, r)
	out = append(out, bisim.IndexPair{I: 1, I2: 1})
	for i := 2; i <= r; i++ {
		out = append(out, bisim.IndexPair{I: s, I2: i})
	}
	return out
}

// CutoffIndexRelation returns an IN relation between M_small and M_r that is
// total on both index sets and pairs the initial token holder with the
// initial token holder and every other process with another non-holder:
// {(1,1)} ∪ {(small, j) | j ∈ {2..r}} ∪ {(i, r) | i ∈ {2..small-1}}.
//
// With small = 3 this is the relation under which the decision procedure
// establishes the corrected cutoff result: M_3 indexed-corresponds to M_r
// for every r ≥ 3 (see the package comment of correspond.go).
func CutoffIndexRelation(small, r int) []bisim.IndexPair {
	out := make([]bisim.IndexPair, 0, r+small)
	out = append(out, bisim.IndexPair{I: 1, I2: 1})
	for j := 2; j <= r; j++ {
		out = append(out, bisim.IndexPair{I: small, I2: j})
	}
	for i := 2; i < small; i++ {
		out = append(out, bisim.IndexPair{I: i, I2: r})
	}
	return out
}

// CutoffSize is the smallest ring that represents all larger rings: the
// reproduction shows that the paper's cutoff of two processes is too small
// (DistinguishingFormula separates M_2 from every larger ring) and that
// three processes suffice for every ring size the decision procedure can
// reach.
const CutoffSize = 3

// DistinguishingFormula returns a closed formula of the *restricted* ICTL*
// logic that is false in M_2 but true in M_r for every r ≥ 3:
//
//	∨i EF( d_i ∧ E[ d_i U (c_i ∧ ¬E[c_i U (t_i ∧ n_i)]) ] )
//
// Informally: some process can become delayed and then enter its critical
// section at a moment when other processes are still queued, so it cannot
// leave the critical section holding the token.  In the two-process ring a
// process that receives the token never has anyone queued behind it.  The
// existence of this formula refutes the claim that M_2 and M_r satisfy the
// same ICTL* formulas.
func DistinguishingFormula() logic.Formula {
	return logic.MustParse("exists i . EF(d[i] & E[d[i] U (c[i] & !E[c[i] U (t[i] & n[i])])])")
}

// BuildRelation materialises the Section 5 relation (in the chosen variant)
// between two explicitly built instances, for one index pair (i, i2).  The
// result can be fed to bisim.Check to machine-check the Appendix.
func BuildRelation(variant RelationVariant, small, large *Instance, i, i2 int) *bisim.Relation {
	rel := bisim.NewRelation(small.M.NumStates(), large.M.NumStates())
	for sIdx, sState := range small.States {
		for lIdx, lState := range large.States {
			if Related(variant, sState, i, lState, i2) {
				rel.Set(kripke.State(sIdx), kripke.State(lIdx), Degree(variant, sState, i, lState, i2))
			}
		}
	}
	return rel
}

// CheckExplicit builds the Section 5 relation between the two instances for
// the given index pair and checks it with bisim.Check on the normalised
// reductions.  It returns the violations found (nil when the relation is a
// correspondence relation).
func CheckExplicit(variant RelationVariant, small, large *Instance, i, i2 int) []bisim.Violation {
	rel := BuildRelation(variant, small, large, i, i2)
	redSmall := small.M.ReduceNormalized(i)
	redLarge := large.M.ReduceNormalized(i2)
	opts := bisim.Options{OneProps: []string{PropToken}, ReachableOnly: true}
	return bisim.Check(redSmall, redLarge, rel, opts)
}

// ---------------------------------------------------------------------------
// Local checking for very large rings.
// ---------------------------------------------------------------------------

// LocalViolation describes a clause violation found by LocalCheck.
type LocalViolation struct {
	Clause     string
	SmallState GlobalState
	LargeState GlobalState
	I, I2      int
	Detail     string
}

// Error implements the error interface.
func (v LocalViolation) Error() string {
	return fmt.Sprintf("ring: local clause %s violated for (i=%d, i'=%d) at small=%s large=%s: %s",
		v.Clause, v.I, v.I2, v.SmallState, v.LargeState, v.Detail)
}

// LocalChecker validates the Section 5 relation clause-by-clause at
// individual states of an r-process ring without ever materialising M_r.
// The small side (M_2) is materialised once.
type LocalChecker struct {
	Variant RelationVariant
	Small   *Instance
	R       int
}

// NewLocalChecker returns a checker comparing M_small (explicitly built,
// normally the two-process ring) against the r-process ring.
func NewLocalChecker(variant RelationVariant, small *Instance, r int) (*LocalChecker, error) {
	if small == nil || small.M == nil {
		return nil, fmt.Errorf("ring: LocalChecker needs an explicitly built small instance")
	}
	if r < small.R {
		return nil, fmt.Errorf("ring: LocalChecker: large ring size %d is smaller than the small instance %d", r, small.R)
	}
	return &LocalChecker{Variant: variant, Small: small, R: r}, nil
}

// CheckState verifies clauses 2a, 2b and 2c for every pair (s, large) with s
// a state of the small instance related to the given large state, for the
// index pair (i, i2).  It also verifies "totality at large": the large state
// must be related to at least one small state.  It returns all violations
// found at this state.
func (lc *LocalChecker) CheckState(large GlobalState, i, i2 int) []LocalViolation {
	var out []LocalViolation
	if large.R() != lc.R {
		return []LocalViolation{{Clause: "input", LargeState: large, I: i, I2: i2,
			Detail: fmt.Sprintf("state has %d processes, checker expects %d", large.R(), lc.R)}}
	}
	relatedAny := false
	for _, small := range lc.Small.States {
		if !Related(lc.Variant, small, i, large, i2) {
			continue
		}
		relatedAny = true
		out = append(out, lc.checkPair(small, large, i, i2)...)
	}
	if !relatedAny {
		out = append(out, LocalViolation{Clause: "total-right", LargeState: large, I: i, I2: i2,
			Detail: "large state is related to no small state (relation not total)"})
	}
	return out
}

func (lc *LocalChecker) checkPair(small, large GlobalState, i, i2 int) []LocalViolation {
	var out []LocalViolation
	// Clause 2a: same labels on the reductions — the part of i in small
	// equals the part of i2 in large (that is Related's first test) and the
	// derived O_i t_i atom agrees (it is true in every reachable state of
	// both structures because exactly one process holds the token).
	if small.Part(i) != large.Part(i2) {
		out = append(out, LocalViolation{Clause: "2a", SmallState: small, LargeState: large, I: i, I2: i2,
			Detail: "parts differ"})
		return out
	}
	k := Degree(lc.Variant, small, i, large, i2)
	if !lc.clause2b(small, large, i, i2, k) {
		out = append(out, LocalViolation{Clause: "2b", SmallState: small, LargeState: large, I: i, I2: i2,
			Detail: fmt.Sprintf("transfer condition fails at degree %d", k)})
	}
	if !lc.clause2c(small, large, i, i2, k) {
		out = append(out, LocalViolation{Clause: "2c", SmallState: small, LargeState: large, I: i, I2: i2,
			Detail: fmt.Sprintf("transfer condition fails at degree %d", k)})
	}
	return out
}

// clause2b: either the large side can stutter to a state still related to
// small with a smaller degree, or every move of the small side is either a
// stutter (smaller degree) or matched by a move of the large side.
func (lc *LocalChecker) clause2b(small, large GlobalState, i, i2, k int) bool {
	largeSuccs := large.Successors()
	for _, l1 := range largeSuccs {
		if Related(lc.Variant, small, i, l1, i2) && Degree(lc.Variant, small, i, l1, i2) < k {
			return true
		}
	}
	for _, s1 := range small.Successors() {
		if Related(lc.Variant, s1, i, large, i2) && Degree(lc.Variant, s1, i, large, i2) < k {
			continue
		}
		matched := false
		for _, l1 := range largeSuccs {
			if Related(lc.Variant, s1, i, l1, i2) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

func (lc *LocalChecker) clause2c(small, large GlobalState, i, i2, k int) bool {
	smallSuccs := small.Successors()
	for _, s1 := range smallSuccs {
		if Related(lc.Variant, s1, i, large, i2) && Degree(lc.Variant, s1, i, large, i2) < k {
			return true
		}
	}
	for _, l1 := range large.Successors() {
		if Related(lc.Variant, small, i, l1, i2) && Degree(lc.Variant, small, i, l1, i2) < k {
			continue
		}
		matched := false
		for _, s1 := range smallSuccs {
			if Related(lc.Variant, s1, i, l1, i2) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// CheckInitial verifies clause 1 (the initial states are related) for the
// index pair (i, i2) without materialising the large ring.
func (lc *LocalChecker) CheckInitial(i, i2 int) []LocalViolation {
	smallInit := lc.Small.StateOf(lc.Small.M.Initial())
	largeInit := NewGlobalState(lc.R)
	if !Related(lc.Variant, smallInit, i, largeInit, i2) {
		return []LocalViolation{{Clause: "1", SmallState: smallInit, LargeState: largeInit, I: i, I2: i2,
			Detail: "initial states are not related"}}
	}
	return nil
}

// RandomReachableState returns a uniformly chosen element of the reachable
// state space of the r-process ring, using the caller-supplied source of
// randomness (next(n) must return a value in [0, n)).  Every combination of
// token-holder position, holder part (T or C) and neutral/delayed choice for
// the remaining processes is reachable (a fact the test suite verifies
// exhaustively for small r), so sampling over that product is sampling over
// reachable states.
func RandomReachableState(r int, next func(n int) int) GlobalState {
	g := GlobalState{Parts: make([]Part, r)}
	holder := next(r) + 1
	for i := 1; i <= r; i++ {
		if i == holder {
			if next(2) == 0 {
				g.Parts[i-1] = Token
			} else {
				g.Parts[i-1] = Critical
			}
			continue
		}
		if next(2) == 0 {
			g.Parts[i-1] = Neutral
		} else {
			g.Parts[i-1] = Delayed
		}
	}
	return g
}

// SampleStates returns at least samples reachable states of the r-process
// ring for local clause checking.  For r ≥ 3 it starts with the states at
// which the printed Section 5 relation is known to break — the initial
// holder with every other process delayed, and a holder with delayed
// processes queued on both sides — because purely random states rarely hit
// the Appendix's case-2(b) gap, so a refutation sweep that skipped them
// would under-report.  It fills the rest with RandomReachableState drawing
// from next, and returns ctx's error if ctx ends between draws.
func SampleStates(ctx context.Context, r, samples int, next func(n int) int) ([]GlobalState, error) {
	var out []GlobalState
	if r >= 3 {
		allDelayed := GlobalState{Parts: make([]Part, r)}
		allDelayed.Parts[0] = Token
		for i := 1; i < r; i++ {
			allDelayed.Parts[i] = Delayed
		}
		queued := GlobalState{Parts: make([]Part, r)}
		queued.Parts[1] = Token
		queued.Parts[0] = Delayed
		queued.Parts[2] = Delayed
		out = append(out, allDelayed, queued)
	}
	for len(out) < samples {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = append(out, RandomReachableState(r, next))
	}
	return out, nil
}

// EnumerateReachable enumerates the full reachable state space of a ring of
// size r (r·2^r states) without building the Kripke structure, calling fn on
// each state; fn returning false stops the enumeration.  It is used by tests
// to cross-check Build and by LocalCheck sweeps on mid-sized rings.
func EnumerateReachable(r int, fn func(GlobalState) bool) {
	if r < 1 || r > 24 {
		return
	}
	for holder := 1; holder <= r; holder++ {
		for _, holderPart := range []Part{Token, Critical} {
			others := make([]int, 0, r-1)
			for i := 1; i <= r; i++ {
				if i != holder {
					others = append(others, i)
				}
			}
			for mask := 0; mask < 1<<len(others); mask++ {
				g := GlobalState{Parts: make([]Part, r)}
				g.Parts[holder-1] = holderPart
				for bit, proc := range others {
					if mask&(1<<bit) != 0 {
						g.Parts[proc-1] = Delayed
					} else {
						g.Parts[proc-1] = Neutral
					}
				}
				if !fn(g) {
					return
				}
			}
		}
	}
}

// Package ring implements the paper's Section 5 case study: a distributed
// mutual-exclusion algorithm for r processes arranged in a ring, where
// mutual exclusion is guaranteed by a token passed around the ring.
//
// The package builds the global state graph G_r exactly as defined in the
// paper (states are partitions (D, N, T, C) of the index set; four global
// transition rules), restricts it to the reachable states to obtain the
// Kripke structure M_r, provides the ICTL* specifications and invariants of
// Section 5, the rank function r(s, i) of the Appendix, the concrete
// correspondence relation between M_2 and M_r it induces, and a "local"
// clause checker able to validate that relation at sampled states of rings
// far too large to construct explicitly (the paper's 1000-process claim).
package ring

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/explore"
	"repro/internal/kripke"
	"repro/internal/logic"
)

// Part is the rôle a process plays in a global state.
type Part int

// The parts of a global state, following the paper: D (delayed), N (neutral
// without token), T (neutral with token), C (critical, with token).  The
// paper's fifth part O ("none of the above") is provably empty in every
// reachable state; it is represented here only by the invariant check.
const (
	Neutral  Part = iota // N: neutral, no token
	Delayed              // D: waiting for the token
	Token                // T: neutral, holding the token
	Critical             // C: critical section, holding the token
)

// String returns the paper's one-letter name for the part.
func (p Part) String() string {
	switch p {
	case Neutral:
		return "N"
	case Delayed:
		return "D"
	case Token:
		return "T"
	case Critical:
		return "C"
	default:
		return fmt.Sprintf("Part(%d)", int(p))
	}
}

// The indexed proposition names of the example (Section 5): d_i (delayed),
// n_i (neutral), t_i (has the token), c_i (critical).
const (
	PropDelayed  = "d"
	PropNeutral  = "n"
	PropToken    = "t"
	PropCritical = "c"
)

// GlobalState is one state of the ring: the part of every process (1-based
// process numbers; Parts[i-1] is the part of process i).
type GlobalState struct {
	Parts []Part
}

// NewGlobalState returns a state with every process neutral and process 1
// holding the token in its neutral state — the paper's initial state s0_r.
func NewGlobalState(r int) GlobalState {
	parts := make([]Part, r)
	parts[0] = Token
	return GlobalState{Parts: parts}
}

// R returns the ring size.
func (g GlobalState) R() int { return len(g.Parts) }

// Part returns the part of process i (1-based).
func (g GlobalState) Part(i int) Part { return g.Parts[i-1] }

// Clone returns a deep copy of the state.
func (g GlobalState) Clone() GlobalState {
	return GlobalState{Parts: append([]Part(nil), g.Parts...)}
}

// withPart returns a copy of g in which process i has the given part.
func (g GlobalState) withPart(i int, p Part) GlobalState {
	out := g.Clone()
	out.Parts[i-1] = p
	return out
}

// Holder returns the process currently holding the token (in part T or C),
// or 0 if no process holds it (which violates the paper's invariant 3 and
// never happens in reachable states).
func (g GlobalState) Holder() int {
	for i := 1; i <= g.R(); i++ {
		if p := g.Part(i); p == Token || p == Critical {
			return i
		}
	}
	return 0
}

// CountPart returns the number of processes in the given part.
func (g GlobalState) CountPart(p Part) int {
	count := 0
	for _, q := range g.Parts {
		if q == p {
			count++
		}
	}
	return count
}

// DelayedEmpty reports whether no process is delayed.
func (g GlobalState) DelayedEmpty() bool { return g.CountPart(Delayed) == 0 }

// Key returns a canonical string identifying the state.
func (g GlobalState) Key() string {
	buf := make([]byte, len(g.Parts))
	for i, p := range g.Parts {
		buf[i] = "NDTC"[p]
	}
	return string(buf)
}

// String renders the state as the paper's partition, e.g.
// "D={3} N={2} T={} C={1}".
func (g GlobalState) String() string {
	partMembers := map[Part][]int{}
	for i := 1; i <= g.R(); i++ {
		p := g.Part(i)
		partMembers[p] = append(partMembers[p], i)
	}
	format := func(name string, p Part) string {
		ms := partMembers[p]
		sort.Ints(ms)
		return fmt.Sprintf("%s=%v", name, ms)
	}
	return fmt.Sprintf("%s %s %s %s",
		format("D", Delayed), format("N", Neutral), format("T", Token), format("C", Critical))
}

// Label returns the indexed propositions of the state, following the
// paper's labelling L_r: d_i for delayed, n_i for neutral (with or without
// the token), t_i for token holders, c_i for critical processes.
func (g GlobalState) Label() []kripke.Prop {
	props := make([]kripke.Prop, 0, 2*g.R())
	for i := 1; i <= g.R(); i++ {
		switch g.Part(i) {
		case Delayed:
			props = append(props, kripke.PI(PropDelayed, i))
		case Neutral:
			props = append(props, kripke.PI(PropNeutral, i))
		case Token:
			props = append(props, kripke.PI(PropNeutral, i), kripke.PI(PropToken, i))
		case Critical:
			props = append(props, kripke.PI(PropCritical, i), kripke.PI(PropToken, i))
		}
	}
	return props
}

// CLN returns cln(j): the closest delayed neighbour to the left of process
// j, i.e. the delayed process i minimising (j - i) mod r.  It returns 0 when
// no process is delayed.
func (g GlobalState) CLN(j int) int {
	r := g.R()
	best := 0
	bestDist := r + 1
	for i := 1; i <= r; i++ {
		if i == j || g.Part(i) != Delayed {
			continue
		}
		dist := ((j-i)%r + r) % r
		if dist < bestDist {
			bestDist = dist
			best = i
		}
	}
	return best
}

// Successors returns the successor states of g under the four global
// transition rules of Section 5:
//
//  1. a neutral process becomes delayed;
//  2. the token holder j (in T or C) hands the token to cln(j), which enters
//     its critical section, while j returns to neutral;
//  3. the token holder moves from its neutral state into its critical
//     section;
//  4. the token holder leaves its critical section keeping the token,
//     provided no process is delayed.
func (g GlobalState) Successors() []GlobalState {
	var out []GlobalState
	r := g.R()
	for i := 1; i <= r; i++ {
		switch g.Part(i) {
		case Neutral:
			// Rule 1: i ∈ N becomes delayed.
			out = append(out, g.withPart(i, Delayed))
		case Token:
			// Rule 3: the holder enters its critical section.
			out = append(out, g.withPart(i, Critical))
			// Rule 2 with j = i ∈ T.
			if cln := g.CLN(i); cln != 0 {
				next := g.withPart(i, Neutral)
				next.Parts[cln-1] = Critical
				out = append(out, next)
			}
		case Critical:
			// Rule 2 with j = i ∈ C.
			if cln := g.CLN(i); cln != 0 {
				next := g.withPart(i, Neutral)
				next.Parts[cln-1] = Critical
				out = append(out, next)
			}
			// Rule 4: leave the critical section keeping the token, only
			// when no process is delayed.
			if g.DelayedEmpty() {
				out = append(out, g.withPart(i, Token))
			}
		}
	}
	return out
}

// Instance is a fully built ring instance: the Kripke structure M_r together
// with the ring-level view of every state.
type Instance struct {
	// R is the number of processes.
	R int
	// M is the Kripke structure M_r (the reachable restriction of G_r).
	M *kripke.Structure
	// States maps every kripke state to its ring state.
	States []GlobalState
	// space is the explored space M was built from: state s of M is its
	// state s, and its code table maps packed ring states to kripke states.
	space *explore.Space
}

// ---------------------------------------------------------------------------
// Packed global states.
//
// A reachable global state assigns one of four parts to each of r ≤ 16
// processes, so it packs into a uint64 at two bits per process (process i at
// bits 2(i-1), in Part's constant order).  The packed BFS of internal/explore
// works on these codes exclusively (see PackedDef): successor generation is
// register arithmetic, frontier dedup is one table probe, and no GlobalState
// (or its Key string) is ever allocated during exploration.  The
// explicit-construction limit (MaxExplicitStates) keeps r well below the
// 32-process packing capacity.
// ---------------------------------------------------------------------------

// packState packs the parts of g into its uint64 code.
func packState(g GlobalState) uint64 {
	var code uint64
	for i, p := range g.Parts {
		code |= uint64(p) << (2 * uint(i))
	}
	return code
}

// packedPart extracts the part of process i (1-based) from a packed code.
func packedPart(code uint64, i int) Part { return Part(code >> (2 * uint(i-1)) & 3) }

// withPackedPart returns code with process i's part replaced by p.
func withPackedPart(code uint64, i int, p Part) uint64 {
	shift := 2 * uint(i-1)
	return code&^(3<<shift) | uint64(p)<<shift
}

// decodeInto fills parts (length r) from a packed code.
func decodeInto(parts []Part, code uint64) {
	for i := range parts {
		parts[i] = Part(code >> (2 * uint(i)) & 3)
	}
}

// packedCLN returns cln(j) on a packed code: the delayed process closest to
// the left of j, or 0 when no process is delayed.
func packedCLN(code uint64, r, j int) int {
	for d := 1; d < r; d++ {
		i := j - d
		if i < 1 {
			i += r
		}
		if packedPart(code, i) == Delayed {
			return i
		}
	}
	return 0
}

// packedDelayedEmpty reports whether no process of a packed code is delayed.
// A delayed field is 01, so it is exactly a set low bit with a clear high
// bit; one mask test covers all processes at once.
func packedDelayedEmpty(code uint64, r int) bool {
	low := lowBitsMask(r)
	return code & ^(code>>1) & low == 0
}

// lowBitsMask returns the mask selecting the low bit of every 2-bit field of
// an r-process code (0b0101...01 over 2r bits).
func lowBitsMask(r int) uint64 {
	return 0x5555555555555555 >> (64 - 2*uint(r))
}

// appendPackedSuccessors appends the successor codes of code under the four
// global transition rules of Section 5 (see GlobalState.Successors) to dst.
// With buggy set a delayed process may also enter its critical section
// without the token (the broken variant of BuildBuggy).
func appendPackedSuccessors(dst []uint64, code uint64, r int, buggy bool) []uint64 {
	delayedEmpty := packedDelayedEmpty(code, r)
	for i := 1; i <= r; i++ {
		switch packedPart(code, i) {
		case Neutral:
			// Rule 1: i ∈ N becomes delayed.
			dst = append(dst, withPackedPart(code, i, Delayed))
		case Token:
			// Rule 3: the holder enters its critical section.
			dst = append(dst, withPackedPart(code, i, Critical))
			// Rule 2 with j = i ∈ T.
			if cln := packedCLN(code, r, i); cln != 0 {
				dst = append(dst, withPackedPart(withPackedPart(code, i, Neutral), cln, Critical))
			}
		case Critical:
			// Rule 2 with j = i ∈ C.
			if cln := packedCLN(code, r, i); cln != 0 {
				dst = append(dst, withPackedPart(withPackedPart(code, i, Neutral), cln, Critical))
			}
			// Rule 4: leave the critical section keeping the token, only
			// when no process is delayed.
			if delayedEmpty {
				dst = append(dst, withPackedPart(code, i, Token))
			}
		case Delayed:
			if buggy {
				// The broken variant: a delayed process jumps straight into
				// its critical section without the token.
				dst = append(dst, withPackedPart(code, i, Critical))
			}
		}
	}
	return dst
}

// appendPackedLabel appends the labelling L_r of a packed code to dst (see
// GlobalState.Label), in canonical Prop.Less order — one pass per
// proposition name, names ascending (c < d < n < t), indices ascending
// within each — so the builder's normalization sort is skipped entirely.
func appendPackedLabel(dst []kripke.Prop, code uint64, r int) []kripke.Prop {
	for i := 1; i <= r; i++ {
		if packedPart(code, i) == Critical {
			dst = append(dst, kripke.PI(PropCritical, i))
		}
	}
	for i := 1; i <= r; i++ {
		if packedPart(code, i) == Delayed {
			dst = append(dst, kripke.PI(PropDelayed, i))
		}
	}
	for i := 1; i <= r; i++ {
		if p := packedPart(code, i); p == Neutral || p == Token {
			dst = append(dst, kripke.PI(PropNeutral, i))
		}
	}
	for i := 1; i <= r; i++ {
		if p := packedPart(code, i); p == Token || p == Critical {
			dst = append(dst, kripke.PI(PropToken, i))
		}
	}
	return dst
}

// MaxExplicitStates bounds how many reachable states Build will enumerate.
// The reachable state space has r·2^r states, so this allows rings up to
// roughly r = 16.
const MaxExplicitStates = 1 << 21

// ErrTooLarge marks build refusals for instances beyond the
// explicit-construction limit, so callers (e.g. the HTTP service) can tell
// "this size can never be built" apart from engine failures.
var ErrTooLarge = errors.New("instance beyond the explicit-construction limit")

// Build constructs M_r for a ring of r processes (r ≥ 1) with a single
// construction worker, together with the GlobalState view of every state.
// It is for code that reads those views; family.Ring builds the same
// structure without them.  For r beyond the explicit-construction limit it
// returns an error: that is exactly the regime the correspondence theorem
// (and the LocalCheck in this package) exists for.
func Build(r int) (*Instance, error) {
	m, sp, err := buildSpace(r, PackedDef)
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("ring: building M_%d: %w", r, err)
	}
	return instanceFromSpace(r, m, sp), nil
}

// ExpectedReachable returns r · 2^r, the size of the reachable state space
// (holder position × holder in T or C × each other process in N or D),
// capped at 2^30.
func ExpectedReachable(r int) int {
	if r >= 30 {
		return 1 << 30
	}
	return r * (1 << r)
}

// StateOf returns the ring view of a kripke state.
func (in *Instance) StateOf(s kripke.State) GlobalState { return in.States[s] }

// StateID returns the kripke state of a ring state, or false if the ring
// state is not reachable.
func (in *Instance) StateID(g GlobalState) (kripke.State, bool) {
	if g.R() != in.R {
		return kripke.NoState, false
	}
	id, ok := in.space.Lookup(packState(g))
	return kripke.State(id), ok
}

// ---------------------------------------------------------------------------
// Specifications (Section 5).
// ---------------------------------------------------------------------------

// Properties returns the four ICTL* properties of Section 5, in the paper's
// order:
//
//  1. a token is transferred only upon request;
//  2. only the process with a token may enter its critical state;
//  3. if a process requests the token it eventually receives it;
//  4. every process that wants to enter its critical state eventually does.
func Properties() []NamedFormula {
	return []NamedFormula{
		{
			Name:    "token-only-on-request",
			Source:  "Section 5, property 1",
			Formula: logic.MustParse("!(exists i . EF(!d[i] & !t[i] & E[!d[i] U t[i]]))"),
		},
		{
			Name:    "critical-implies-token",
			Source:  "Section 5, property 2",
			Formula: logic.MustParse("forall i . AG(c[i] -> t[i])"),
		},
		{
			Name:    "request-eventually-token",
			Source:  "Section 5, property 3",
			Formula: logic.MustParse("forall i . AG(d[i] -> A[d[i] U t[i]])"),
		},
		{
			Name:    "request-eventually-critical",
			Source:  "Section 5, property 4",
			Formula: logic.MustParse("forall i . AG(d[i] -> AF c[i])"),
		},
	}
}

// Invariants returns the three invariants of Section 5 that establish the
// correspondence: the partition invariant is structural (checked by
// CheckPartitionInvariant), the other two are temporal formulas.
func Invariants() []NamedFormula {
	return []NamedFormula{
		{
			Name:    "request-persists",
			Source:  "Section 5, invariant 2",
			Formula: logic.MustParse("forall i . AG(d[i] -> !E[d[i] U (!d[i] & !t[i])])"),
		},
		{
			Name:    "exactly-one-token",
			Source:  "Section 5, invariant 3",
			Formula: logic.MustParse("AG (one t)"),
		},
	}
}

// NamedFormula pairs a formula with a stable name and its provenance in the
// paper.
type NamedFormula struct {
	Name    string
	Source  string
	Formula logic.Formula
}

// IntroLiveness returns the introduction's headline requirement
// ∧i AG(d_i ⇒ AF c_i) (the same as property 4); kept separate so examples
// can cite the introduction.
func IntroLiveness() logic.Formula {
	return logic.MustParse("forall i . AG(d[i] -> AF c[i])")
}

// CheckPartitionInvariant verifies invariant 1 of Section 5 on every
// reachable state of the instance: each process is in exactly one part and
// the O part is empty.  With this package's representation the invariant is
// structural, so the check amounts to validating the stored parts.
func (in *Instance) CheckPartitionInvariant() error {
	for id, g := range in.States {
		if len(g.Parts) != in.R {
			return fmt.Errorf("ring: state %d has %d parts, want %d", id, len(g.Parts), in.R)
		}
		for i, p := range g.Parts {
			if p < Neutral || p > Critical {
				return fmt.Errorf("ring: state %d: process %d is in no part (O is not empty)", id, i+1)
			}
		}
	}
	return nil
}

// CheckSingleTokenInvariant verifies invariant 3 structurally: every
// reachable state has exactly one process in T ∪ C.
func (in *Instance) CheckSingleTokenInvariant() error {
	for id, g := range in.States {
		holders := g.CountPart(Token) + g.CountPart(Critical)
		if holders != 1 {
			return fmt.Errorf("ring: state %d (%s) has %d token holders, want exactly 1", id, g, holders)
		}
	}
	return nil
}

// BuildBuggy constructs the Kripke structure of a deliberately broken
// variant of the protocol for a ring of r processes, in which a delayed
// process may enter its critical section without waiting for the token.
// The variant exists to demonstrate that the model checker detects the
// violation of mutual exclusion and produces a counterexample.  It
// deadlocks, so deadlock states receive self loops.
func BuildBuggy(r int) (*Instance, error) {
	m, sp, err := buildSpace(r, PackedDefBuggy)
	if err != nil {
		return nil, err
	}
	return instanceFromSpace(r, m.MakeTotal(), sp), nil
}

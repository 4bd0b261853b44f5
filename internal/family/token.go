package family

import (
	"fmt"

	"repro/internal/bisim"
	"repro/internal/kripke"
	"repro/internal/logic"
	"repro/internal/mutate"
	"repro/internal/process"
	"repro/internal/ring"
	"repro/internal/symmetry"
)

// This file derives concrete topologies from one protocol: token
// circulation for mutual exclusion, the same idea as Section 5's ring but
// deliberately requestless, so that an instance of size n has Θ(n) global
// states (token position × holder phase) and sweeps stay cheap at sizes
// where the ring's r·2^r state space is long out of reach.
//
// One finite-state process template is instantiated n times with
// internal/process guarded commands:
//
//   - idle      (label n_i): the process does nothing;
//   - token     (labels n_i, t_i): the process holds the token and may
//     enter its critical section or pass the token to any neighbour;
//   - critical  (labels c_i, t_i): the process is in its critical section
//     and leaves it back to the token state.
//
// The topology enters only through the neighbourhood function: who can
// receive the token from whom.  Star, line, binary tree and 2D torus below
// are the four shapes the ROADMAP's "as many scenarios as you can imagine"
// axis asked for; adding another is one neighbourhood function and one
// index relation.
//
// The reproduction's empirical finding for these families (machine-checked
// by family_test.go and experiment E10): the small instances listed as
// CutoffSize indexed-correspond to every larger instance the decision
// procedure was run on, so by Theorem 5 the restricted ICTL* specifications
// of tokenSpecs transfer from the cutoff instance to the whole family.

// Local state names of the token-circulation template.
const (
	tokenStateIdle     = "idle"
	tokenStateToken    = "token"
	tokenStateCritical = "critical"
)

// tokenTemplate is the one process template every token-circulation
// topology instantiates.  The label vocabulary deliberately reuses the
// ring's proposition names (n, t, c) so specifications read uniformly
// across topologies.
func tokenTemplate() *process.Template {
	return &process.Template{
		Name:    "token",
		States:  []string{tokenStateIdle, tokenStateToken, tokenStateCritical},
		Initial: tokenStateIdle,
		Labels: map[string][]string{
			tokenStateIdle:     {ring.PropNeutral},
			tokenStateToken:    {ring.PropNeutral, ring.PropToken},
			tokenStateCritical: {ring.PropCritical, ring.PropToken},
		},
	}
}

// tokenSpecs returns the ICTL* specifications every token-circulation
// family satisfies; all four are closed formulas of the restricted
// fragment, so Theorem 5 transfers them across corresponding sizes.
func tokenSpecs() []Spec {
	return []Spec{
		{
			Name:    "exactly-one-token",
			Source:  "family invariant (Section 4's O_i t_i atom)",
			Formula: logic.MustParse("AG (one t)"),
		},
		{
			Name:    "critical-implies-token",
			Source:  "family safety (mutual exclusion via the token)",
			Formula: logic.MustParse("forall i . AG(c[i] -> t[i])"),
		},
		{
			Name:    "token-reaches-everyone",
			Source:  "family reachability (the topology is connected)",
			Formula: logic.MustParse("forall i . AG EF t[i]"),
		},
		{
			Name:    "holder-can-hand-off",
			Source:  "family progress (no process can monopolise the token)",
			Formula: logic.MustParse("forall i . AG(t[i] -> EF(n[i] & !t[i]))"),
		},
	}
}

// tokenTopology is a token-circulation family over one graph shape.
type tokenTopology struct {
	name    string
	minSize int
	cutoff  int
	// validSize returns nil when an instance of size n exists.
	validSize func(n int) error
	// neighbors returns the 1-based neighbourhood function of the size-n
	// instance; it is only called for valid sizes.
	neighbors func(n int) func(i int) []int
	// indices returns the IN relation (defaults to foldedIndexRelation
	// when nil).
	indices func(small, n int) []bisim.IndexPair
	// mutation, when non-nil, rewrites the guarded-command rules before
	// every build: the deliberately broken variants of the mutation-testing
	// harness (see mutant.go).
	mutation *mutate.Mutation
	// group returns the automorphism group of the size-n communication
	// graph for symmetry quotients (nil: no symmetry wired).  The group is
	// only exposed for unmutated variants — a mutation rewrites individual
	// pass-rank rules and can break the process symmetry.
	group func(n int) *symmetry.Group
}

// Name implements Topology.
func (t *tokenTopology) Name() string { return t.name }

// MinSize implements Topology.
func (t *tokenTopology) MinSize() int { return t.minSize }

// CutoffSize implements Topology.
func (t *tokenTopology) CutoffSize() int { return t.cutoff }

// ValidSize implements Topology.
func (t *tokenTopology) ValidSize(n int) error {
	if n < t.minSize {
		return fmt.Errorf("%s topology needs at least %d processes, got %d", t.name, t.minSize, n)
	}
	if t.validSize != nil {
		return t.validSize(n)
	}
	return nil
}

// Atoms implements Topology: the token proposition's O_i t_i atom is part
// of the vocabulary, exactly as for the ring.
func (t *tokenTopology) Atoms() []string { return []string{ring.PropToken} }

// Specs implements Topology.
func (t *tokenTopology) Specs() []Spec { return tokenSpecs() }

// IndexRelation implements Topology.
func (t *tokenTopology) IndexRelation(small, n int) []bisim.IndexPair {
	if t.indices != nil {
		return t.indices(small, n)
	}
	return foldedIndexRelation(small, n)
}

// tokenRules returns the guarded-command rules of the token-circulation
// template over a neighbourhood function: enter/exit the critical section,
// plus one pass rule per neighbour rank (rule k moves the token from its
// holder i to the k-th neighbour of i; rules are instantiated for every
// process, so the guard re-derives i's neighbourhood).  The rule list is
// the mutation surface of the family: the harness of mutant.go rewrites it
// to produce deliberately broken variants.
func tokenRules(neigh func(i int) []int, maxDeg int) []process.Rule {
	rules := []process.Rule{
		{
			Name:  "enter-critical",
			Guard: func(v process.View, i int) bool { return v.Local(i) == tokenStateToken },
			Apply: func(v process.View, i int) process.Update {
				return process.Update{Locals: map[int]string{i: tokenStateCritical}}
			},
		},
		{
			Name:  "exit-critical",
			Guard: func(v process.View, i int) bool { return v.Local(i) == tokenStateCritical },
			Apply: func(v process.View, i int) process.Update {
				return process.Update{Locals: map[int]string{i: tokenStateToken}}
			},
		},
	}
	for k := 0; k < maxDeg; k++ {
		k := k
		rules = append(rules, process.Rule{
			Name: fmt.Sprintf("pass-%d", k),
			Guard: func(v process.View, i int) bool {
				return v.Local(i) == tokenStateToken && k < len(neigh(i))
			},
			Apply: func(v process.View, i int) process.Update {
				return process.Update{Locals: map[int]string{
					i:           tokenStateIdle,
					neigh(i)[k]: tokenStateToken,
				}}
			},
		})
	}
	return rules
}

// Packed implements Topology for every valid size: it instantiates the
// token template n times with the topology's pass rules (mutation
// applied) and returns its explore definition with the topology's
// automorphism group, when one is wired, the variant is unmutated and the
// codes are one word each (a group permutes one-word fields, never the
// ids of interned codes).  An unmutated definition declares its exact
// size; a mutated one declares none.
func (t *tokenTopology) Packed(n int) (PackedInstance, error) {
	if err := t.ValidSize(n); err != nil {
		return PackedInstance{}, fmt.Errorf("family: %w", err)
	}
	neigh := t.neighbors(n)
	maxDeg, sumDeg := 0, 0
	for i := 1; i <= n; i++ {
		d := len(neigh(i))
		maxDeg = max(maxDeg, d)
		sumDeg += d
	}
	rules := tokenRules(neigh, maxDeg)
	if t.mutation != nil {
		rewritten, err := t.mutation.Apply(rules)
		if err != nil {
			return PackedInstance{}, fmt.Errorf("family: %s: %w", t.name, err)
		}
		rules = rewritten
	}
	net := &process.Network{
		Template: tokenTemplate(),
		N:        n,
		Rules:    rules,
		InitialLocal: func(i int) string {
			if i == 1 {
				return tokenStateToken
			}
			return tokenStateIdle
		},
	}
	def, packed, err := net.Def(fmt.Sprintf("%s[%d]", t.name, n))
	if err != nil {
		return PackedInstance{}, fmt.Errorf("family: %w", err)
	}
	if t.mutation == nil {
		// The graph is connected, so the token reaches every process: n
		// holders in two phases, each holder entering its critical section
		// or passing to any neighbour, each critical process leaving it.
		def.States, def.Transitions = 2*n, 2*n+sumDeg
	}
	// A broken variant may deadlock (e.g. the token vanishes); MakeTotal
	// gives deadlock states self loops, as ring.BuildBuggy does, so CTL*
	// semantics and the correspondence definition stay aligned.
	pi := PackedInstance{Def: def, MakeTotal: t.mutation != nil, MaxStates: process.DefaultMaxStates}
	if packed && t.group != nil && t.mutation == nil {
		pi.Group = t.group(n)
	}
	return pi, nil
}

// Build implements Topology.
func (t *tokenTopology) Build(n int) (*kripke.Structure, error) { return build(t, n) }

// Star returns the star family: process 1 is the hub, processes 2..n are
// leaves, and the token shuttles hub → leaf → hub.  The hub plays the
// distinguished role of the ring's initial token holder; the leaves are
// pairwise interchangeable, which is what the folded index relation
// expresses.
func Star() Topology {
	return &tokenTopology{
		name:    "star",
		minSize: 2,
		cutoff:  3,
		neighbors: func(n int) func(i int) []int {
			return func(i int) []int {
				if i == 1 {
					out := make([]int, 0, n-1)
					for j := 2; j <= n; j++ {
						out = append(out, j)
					}
					return out
				}
				return []int{1}
			}
		},
		// The hub is fixed; the leaves (fields 1..n-1 of the packed code)
		// are pairwise interchangeable.
		group: func(n int) *symmetry.Group { return symmetry.SymmetricRange(n, 2, 1, n) },
	}
}

// Line returns the line (open chain) family: processes 1..n in a path, the
// token starting at end 1 and wandering along the path.  Both ends are
// distinguished (degree one), so the index relation pins end to end and
// folds the interior onto the small instance's interior.
func Line() Topology {
	return &tokenTopology{
		name:    "line",
		minSize: 2,
		cutoff:  3,
		neighbors: func(n int) func(i int) []int {
			return func(i int) []int {
				var out []int
				if i > 1 {
					out = append(out, i-1)
				}
				if i < n {
					out = append(out, i+1)
				}
				return out
			}
		},
		indices: lineIndexRelation,
		// The end-to-end flip i ↦ n+1-i is the path graph's one
		// non-trivial automorphism.
		group: func(n int) *symmetry.Group { return symmetry.Reversal(n, 2) },
	}
}

// lineIndexRelation pins the two ends of the line to each other ((1,1) and
// (small, n)) and folds every interior process of the large line onto the
// last interior process of the small one.  For small < 3 there is no
// interior, and the folded relation is used instead.
func lineIndexRelation(small, n int) []bisim.IndexPair {
	if small < 3 || small >= n {
		return foldedIndexRelation(small, n)
	}
	out := []bisim.IndexPair{{I: 1, I2: 1}}
	for i := 2; i < small-1; i++ {
		out = append(out, bisim.IndexPair{I: i, I2: i})
	}
	for j := small - 1; j <= n-1; j++ {
		out = append(out, bisim.IndexPair{I: small - 1, I2: j})
	}
	out = append(out, bisim.IndexPair{I: small, I2: n})
	return out
}

// Tree returns the binary-tree family: n processes in heap order (process 1
// is the root; the children of i are 2i and 2i+1), the token wandering
// along tree edges from the root.
func Tree() Topology {
	return &tokenTopology{
		name:    "tree",
		minSize: 2,
		cutoff:  3,
		neighbors: func(n int) func(i int) []int {
			return func(i int) []int {
				var out []int
				if i > 1 {
					out = append(out, i/2)
				}
				if 2*i <= n {
					out = append(out, 2*i)
				}
				if 2*i+1 <= n {
					out = append(out, 2*i+1)
				}
				return out
			}
		},
		// Aligned swaps of shape-identical sibling subtrees generate (a
		// subgroup of) the heap-shaped tree's automorphism group.
		group: func(n int) *symmetry.Group { return symmetry.TreeHeap(n, 2) },
	}
}

// TorusRows is the number of rows of the default torus family: an instance
// of size n is a TorusRows × (n/TorusRows) torus, so sizes must be multiples
// of TorusRows.
const TorusRows = 2

// Torus returns the 2D-torus family: n processes on a 2 × (n/2) torus
// (row-major numbering, process 1 at the origin), the token wandering along
// torus edges — horizontally with column wrap-around and vertically to the
// other row.
func Torus() Topology { return torusWithRows(TorusRows, "torus") }

// Torus3 returns the 3-row 2D-torus family: n processes on a 3 × (n/3)
// torus.  Its sweep workhorse is n = 12, the 3×4 torus, where — unlike the
// 2-row family — every process has four distinct neighbours.
func Torus3() Topology { return torusWithRows(3, "torus3") }

// torusWithRows builds a rows × (n/rows) torus family (row-major numbering,
// process 1 at the origin).  The neighbourhood of a process is its left and
// right column neighbours (with wrap-around) and the rows above and below
// (coinciding for rows = 2); duplicates collapse so small grids keep clean
// degree counts.
func torusWithRows(rows int, name string) Topology {
	return &tokenTopology{
		name:    name,
		minSize: 2 * rows,
		cutoff:  2 * rows,
		validSize: func(n int) error {
			if n%rows != 0 {
				return fmt.Errorf("%s topology needs a multiple of %d processes, got %d", name, rows, n)
			}
			return nil
		},
		neighbors: func(n int) func(i int) []int {
			cols := n / rows
			return func(i int) []int {
				row := (i - 1) / cols
				col := (i - 1) % cols
				at := func(r, c int) int { return r*cols + c + 1 }
				candidates := []int{
					at(row, (col+cols-1)%cols), // left
					at(row, (col+1)%cols),      // right
					at((row+1)%rows, col),      // below
					at((row+rows-1)%rows, col), // above
				}
				out := candidates[:0]
				for _, c := range candidates {
					dup := false
					for _, o := range out {
						if o == c {
							dup = true
							break
						}
					}
					if !dup {
						out = append(out, c)
					}
				}
				return out
			}
		},
		// The torus is vertex-transitive under its translation group
		// Z_rows × Z_cols (row-major fields match the process numbering).
		group: func(n int) *symmetry.Group { return symmetry.TorusTranslations(rows, n/rows, 2) },
	}
}

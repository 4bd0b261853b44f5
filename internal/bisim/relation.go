// Package bisim implements the correspondence relation of Browne, Clarke
// and Grumberg (Section 3) and its indexed variant (Section 4), together
// with a decision procedure that computes the maximal correspondence between
// two Kripke structures and the minimal degrees.
//
// A correspondence E ⊆ S × S' × N relates states of two structures; the
// third component, the degree, bounds the number of stuttering steps either
// side may take before an exact match must be reached.  Theorem 2 of the
// paper: if two structures correspond (their initial states are related and
// the relation is total on both state sets) then they satisfy exactly the
// same CTL* formulas without the nexttime operator.  Theorem 5 lifts this to
// indexed CTL* via the per-index reductions M|i.
//
// The package provides:
//
//   - Relation: an explicit relation with degrees, plus JSON serialisation
//     so relations can be exported as transfer certificates;
//   - Check: verify that a given relation satisfies the definition (used for
//     the paper's hand-built Section 5 relation);
//   - Compute: build the maximal correspondence between two structures and
//     the minimal degree of every related pair.  Two engines implement it:
//     the default partition-refinement engine (refine.go), which refines a
//     label partition of the disjoint union with a splitter queue and
//     bitset blocks, and the original nested-fixpoint procedure
//     (ComputeFixpoint, compute.go), retained as its cross-check oracle;
//   - IndexedCompute / IndexedCheck: the (i,i')-correspondences of Section 4
//     lifted over a total index relation IN, decided on a worker pool;
//   - Minimize: quotient a structure by its maximal self-correspondence,
//     which is the state-space reduction the paper's introduction motivates.
package bisim

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/kripke"
)

// Options configures how two structures are compared.
type Options struct {
	// OneProps lists indexed proposition names P for which the special
	// "exactly one" atom O_i P_i (Section 4) has been added to AP.  The
	// truth of these atoms must then agree between corresponding states.
	OneProps []string

	// ReachableOnly restricts the totality requirement (clause: E is total
	// for S and S') to the states reachable from the initial states.  This
	// is the natural reading for structures that were not pre-restricted;
	// the paper's M_r is defined as the reachable restriction of G_r, so for
	// it the two readings coincide.  Default false: all states must be
	// covered.
	ReachableOnly bool

	// MaxDegreeRounds bounds the inner degree iteration.  Zero means the
	// theoretical bound |S| + |S'| (the paper proves the minimal degree
	// never exceeds it).
	MaxDegreeRounds int

	// Workers caps the pool IndexedCompute decides the IN pairs on, zero
	// or negative meaning one worker per available CPU (the pool never
	// exceeds GOMAXPROCS).  Each pair decision is one sequential Compute,
	// and Compute itself ignores Workers, so results are byte-identical at
	// every worker count.
	Workers int

	// arena, when non-nil, recycles the engine's large scratch allocations
	// across Compute calls.  Only IndexedCompute sets it (one arena per pool
	// worker, reset between pair computes); it is deliberately unexported —
	// arenas are single-goroutine and their hand-outs die at the next reset,
	// so the field must not escape the package's own call discipline.
	arena *computeArena
}

func (o Options) normalizedOneProps() []string {
	if len(o.OneProps) == 0 {
		return nil
	}
	out := append([]string(nil), o.OneProps...)
	sort.Strings(out)
	return out
}

// labelOf returns the canonical label key used for clause 2a comparisons.
func (o Options) labelOf(m *kripke.Structure, s kripke.State) string {
	return m.LabelKeyWithOnes(s, o.normalizedOneProps())
}

// InfiniteDegree marks a pair that belongs to the candidate relation but has
// no finite degree (and therefore is not part of a correspondence).
const InfiniteDegree = -1

// Relation is an explicit correspondence candidate between two structures:
// for every pair (s, s') it records either a degree ≥ 0 or absence.
type Relation struct {
	n, n2   int
	degrees []int32 // n*n2 entries; InfiniteDegree-1 == -2 means "absent"
}

const absent = -2

// NewRelation returns an empty relation between structures with n and n2
// states.
func NewRelation(n, n2 int) *Relation {
	r := &Relation{n: n, n2: n2, degrees: make([]int32, n*n2)}
	for i := range r.degrees {
		r.degrees[i] = absent
	}
	return r
}

// Dims returns the state counts (|S|, |S'|) the relation is defined over.
func (r *Relation) Dims() (int, int) { return r.n, r.n2 }

func (r *Relation) idx(s, t kripke.State) int { return int(s)*r.n2 + int(t) }

// Set records that s corresponds to t with the given degree (≥ 0).
func (r *Relation) Set(s, t kripke.State, degree int) {
	r.degrees[r.idx(s, t)] = int32(degree)
}

// Remove deletes the pair (s, t) from the relation.
func (r *Relation) Remove(s, t kripke.State) {
	r.degrees[r.idx(s, t)] = absent
}

// Contains reports whether (s, t) is in the relation (with any degree,
// including pairs marked with an infinite degree during computation).
func (r *Relation) Contains(s, t kripke.State) bool {
	return r.degrees[r.idx(s, t)] != absent
}

// Degree returns the degree of the pair (s, t) and whether the pair is in
// the relation.  A pair may be present with InfiniteDegree while the
// decision procedure is still running; final relations returned by Compute
// only contain finite degrees.
func (r *Relation) Degree(s, t kripke.State) (int, bool) {
	d := r.degrees[r.idx(s, t)]
	if d == absent {
		return 0, false
	}
	return int(d), true
}

// Size returns the number of pairs in the relation.
func (r *Relation) Size() int {
	count := 0
	for _, d := range r.degrees {
		if d != absent {
			count++
		}
	}
	return count
}

// MaxDegree returns the largest finite degree in the relation (0 if empty).
func (r *Relation) MaxDegree() int {
	max := int32(0)
	for _, d := range r.degrees {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// Pairs returns every pair in the relation, ordered by (s, t).
func (r *Relation) Pairs() []Pair {
	var out []Pair
	for s := 0; s < r.n; s++ {
		for t := 0; t < r.n2; t++ {
			if d := r.degrees[r.idx(kripke.State(s), kripke.State(t))]; d != absent {
				out = append(out, Pair{S: kripke.State(s), T: kripke.State(t), Degree: int(d)})
			}
		}
	}
	return out
}

// RelatedLeft returns the states of the second structure related to s.
func (r *Relation) RelatedLeft(s kripke.State) []kripke.State {
	var out []kripke.State
	for t := 0; t < r.n2; t++ {
		if r.degrees[r.idx(s, kripke.State(t))] != absent {
			out = append(out, kripke.State(t))
		}
	}
	return out
}

// anyRelatedLeft reports whether s is related to at least one state of the
// second structure, without materialising the row.
func (r *Relation) anyRelatedLeft(s kripke.State) bool {
	base := int(s) * r.n2
	for t := 0; t < r.n2; t++ {
		if r.degrees[base+t] != absent {
			return true
		}
	}
	return false
}

// anyRelatedRight reports whether t is related to at least one state of the
// first structure, without materialising the column.
func (r *Relation) anyRelatedRight(t kripke.State) bool {
	for s := 0; s < r.n; s++ {
		if r.degrees[s*r.n2+int(t)] != absent {
			return true
		}
	}
	return false
}

// RelatedRight returns the states of the first structure related to t.
func (r *Relation) RelatedRight(t kripke.State) []kripke.State {
	var out []kripke.State
	for s := 0; s < r.n; s++ {
		if r.degrees[r.idx(kripke.State(s), t)] != absent {
			out = append(out, kripke.State(s))
		}
	}
	return out
}

// Pair is one element of a correspondence relation.
type Pair struct {
	S      kripke.State `json:"s"`
	T      kripke.State `json:"t"`
	Degree int          `json:"degree"`
}

// MarshalJSON serialises the relation as its list of pairs.
func (r *Relation) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N     int    `json:"n"`
		N2    int    `json:"n2"`
		Pairs []Pair `json:"pairs"`
	}{r.n, r.n2, r.Pairs()})
}

// UnmarshalJSON implements json.Unmarshaler, so relations embedded in other
// structures (e.g. transfer certificates) survive a JSON round trip.
func (r *Relation) UnmarshalJSON(data []byte) error {
	decoded, err := UnmarshalRelationJSON(data)
	if err != nil {
		return err
	}
	*r = *decoded
	return nil
}

// UnmarshalRelationJSON decodes a relation previously produced by
// MarshalJSON.
func UnmarshalRelationJSON(data []byte) (*Relation, error) {
	var js struct {
		N     int    `json:"n"`
		N2    int    `json:"n2"`
		Pairs []Pair `json:"pairs"`
	}
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("bisim: decoding relation: %w", err)
	}
	if js.N <= 0 || js.N2 <= 0 {
		return nil, fmt.Errorf("bisim: decoding relation: invalid dimensions %dx%d", js.N, js.N2)
	}
	r := NewRelation(js.N, js.N2)
	for _, p := range js.Pairs {
		if int(p.S) < 0 || int(p.S) >= js.N || int(p.T) < 0 || int(p.T) >= js.N2 {
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) out of range", p.S, p.T)
		}
		if p.Degree < 0 {
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) has negative degree %d", p.S, p.T, p.Degree)
		}
		if p.Degree > math.MaxInt32 {
			// Degrees are stored as int32 (the paper bounds minimal degrees
			// by |S| + |S'|); reject rather than silently truncate onto the
			// absent/InfiniteDegree sentinels.
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) has implausible degree %d", p.S, p.T, p.Degree)
		}
		r.Set(p.S, p.T, p.Degree)
	}
	return r, nil
}

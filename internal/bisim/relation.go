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
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/explore"
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

	// LeftAction and RightAction, when non-nil, are verified index actions
	// on exactly the first and second structure IndexedCompute compares
	// (an action verified on any other structure is an error).  With them
	// IndexedCompute decides one basis pair per orbit class of the IN
	// relation and transports its relation to the other pairs of the class
	// (see IndexedCompute).  Nil means no symmetry: every pair is decided
	// by its own Compute.  Compute ignores both.
	LeftAction, RightAction *kripke.IndexAction

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
// the related pairs (s, s') and their degrees.  It stores only the related
// pairs, as compressed sparse rows: row s lists the states of the second
// structure related to s in increasing order, each with its degree.  A
// relation therefore costs 8 bytes per related pair plus 4 bytes per state
// of the first structure, however large |S|×|S'| is.
type Relation struct {
	n, n2  int
	rowOff []int32 // rowOff[s]:rowOff[s+1] spans row s in cols and degs
	cols   []int32 // related states of the second structure
	degs   []int32 // the degree of each pair
}

// NewRelation returns an empty relation between structures with n and n2
// states.
func NewRelation(n, n2 int) *Relation {
	return &Relation{n: n, n2: n2, rowOff: make([]int32, n+1)}
}

// newRelationRows returns a relation between structures with n and n2
// states whose row s has room for exactly rowLen(s) pairs, plus a fill
// cursor per row (the row's start).  The caller fills every slot, writing
// each row in increasing order of its second-structure states.
func newRelationRows(n, n2 int, rowLen func(s int) int) (*Relation, []int32) {
	r := &Relation{n: n, n2: n2, rowOff: make([]int32, n+1)}
	cursor := make([]int32, n)
	total := 0
	for s := 0; s < n; s++ {
		cursor[s] = int32(total)
		total += rowLen(s)
		r.rowOff[s+1] = int32(total)
	}
	r.cols = make([]int32, total)
	r.degs = make([]int32, total)
	return r, cursor
}

// Dims returns the state counts (|S|, |S'|) the relation is defined over.
func (r *Relation) Dims() (int, int) { return r.n, r.n2 }

// span returns the bounds of row s in cols and degs.
func (r *Relation) span(s kripke.State) (lo, hi int) {
	return int(r.rowOff[s]), int(r.rowOff[s+1])
}

// find returns the position of (s, t) in cols and degs, or the position it
// would be inserted at and false.
func (r *Relation) find(s, t kripke.State) (int, bool) {
	lo, hi := r.span(s)
	i, ok := slices.BinarySearch(r.cols[lo:hi], int32(t))
	return lo + i, ok
}

// Set records that s corresponds to t with the given degree (≥ 0),
// overwriting the degree of a pair already present.  A new pair shifts
// the later pairs and row offsets, so Set suits hand-built relations; the
// decision procedures build their rows in one counting pass instead.
func (r *Relation) Set(s, t kripke.State, degree int) {
	i, ok := r.find(s, t)
	if ok {
		r.degs[i] = int32(degree)
		return
	}
	r.cols = slices.Insert(r.cols, i, int32(t))
	r.degs = slices.Insert(r.degs, i, int32(degree))
	for k := int(s) + 1; k <= r.n; k++ {
		r.rowOff[k]++
	}
}

// Remove deletes the pair (s, t) from the relation.
func (r *Relation) Remove(s, t kripke.State) {
	i, ok := r.find(s, t)
	if !ok {
		return
	}
	r.cols = slices.Delete(r.cols, i, i+1)
	r.degs = slices.Delete(r.degs, i, i+1)
	for k := int(s) + 1; k <= r.n; k++ {
		r.rowOff[k]--
	}
}

// Contains reports whether (s, t) is in the relation (with any degree,
// including pairs marked with an infinite degree during computation).
func (r *Relation) Contains(s, t kripke.State) bool {
	_, ok := r.find(s, t)
	return ok
}

// Degree returns the degree of the pair (s, t) and whether the pair is in
// the relation.  A pair may be present with InfiniteDegree while the
// decision procedure is still running; final relations returned by Compute
// only contain finite degrees.
func (r *Relation) Degree(s, t kripke.State) (int, bool) {
	i, ok := r.find(s, t)
	if !ok {
		return 0, false
	}
	return int(r.degs[i]), true
}

// Size returns the number of pairs in the relation.
func (r *Relation) Size() int { return len(r.cols) }

// MaxDegree returns the largest finite degree in the relation (0 if empty).
func (r *Relation) MaxDegree() int {
	max := int32(0)
	for _, d := range r.degs {
		if d > max {
			max = d
		}
	}
	return int(max)
}

// eachPair calls fn on every pair in (s, t) order.
func (r *Relation) eachPair(fn func(s, t kripke.State, degree int)) {
	for s := 0; s < r.n; s++ {
		for i := r.rowOff[s]; i < r.rowOff[s+1]; i++ {
			fn(kripke.State(s), kripke.State(r.cols[i]), int(r.degs[i]))
		}
	}
}

// Pairs returns every pair in the relation, ordered by (s, t), or nil for
// an empty relation.
func (r *Relation) Pairs() []Pair {
	if len(r.cols) == 0 {
		return nil
	}
	out := make([]Pair, 0, len(r.cols))
	r.eachPair(func(s, t kripke.State, degree int) {
		out = append(out, Pair{S: s, T: t, Degree: degree})
	})
	return out
}

// RelatedLeft returns the states of the second structure related to s.
func (r *Relation) RelatedLeft(s kripke.State) []kripke.State {
	lo, hi := r.span(s)
	if lo == hi {
		return nil
	}
	out := make([]kripke.State, hi-lo)
	for i, t := range r.cols[lo:hi] {
		out[i] = kripke.State(t)
	}
	return out
}

// RelatedRight returns the states of the first structure related to t.
func (r *Relation) RelatedRight(t kripke.State) []kripke.State {
	var out []kripke.State
	for s := 0; s < r.n; s++ {
		if r.Contains(kripke.State(s), t) {
			out = append(out, kripke.State(s))
		}
	}
	return out
}

// coverage returns the states of each structure that occur in some pair,
// in one pass over the stored pairs.
func (r *Relation) coverage() (left, right kripke.BitSet) {
	left, right = kripke.NewBitSet(r.n), kripke.NewBitSet(r.n2)
	for s := 0; s < r.n; s++ {
		if r.rowOff[s] < r.rowOff[s+1] {
			left.Set(s)
		}
	}
	for _, t := range r.cols {
		right.Set(int(t))
	}
	return left, right
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

// maxRelationStates bounds the state counts a decoded relation may claim: a
// relation costs 4 bytes per state of the first structure, so an unbounded
// count from disk or HTTP would be an allocation of the sender's choosing.
const maxRelationStates = explore.DefaultMaxStates

// UnmarshalRelationJSON decodes a relation previously produced by
// MarshalJSON.  It rejects pairs out of range, negative or implausible
// degrees, and a pair listed twice (which would carry two degrees).
func UnmarshalRelationJSON(data []byte) (*Relation, error) {
	var js struct {
		N     int    `json:"n"`
		N2    int    `json:"n2"`
		Pairs []Pair `json:"pairs"`
	}
	// json.Unmarshal appends into the slice's capacity, so counting the
	// pairs' keys up front saves growing the slice; the count is bounded
	// by the input's length.
	js.Pairs = make([]Pair, 0, bytes.Count(data, []byte(`"degree"`)))
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("bisim: decoding relation: %w", err)
	}
	if js.N <= 0 || js.N2 <= 0 || js.N > maxRelationStates || js.N2 > maxRelationStates {
		return nil, fmt.Errorf("bisim: decoding relation: invalid dimensions %dx%d", js.N, js.N2)
	}
	for _, p := range js.Pairs {
		if int(p.S) < 0 || int(p.S) >= js.N || int(p.T) < 0 || int(p.T) >= js.N2 {
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) out of range", p.S, p.T)
		}
		if p.Degree < 0 {
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) has negative degree %d", p.S, p.T, p.Degree)
		}
		if p.Degree > math.MaxInt32 {
			// Degrees are stored as int32 (the paper bounds minimal degrees
			// by |S| + |S'|); reject rather than silently truncate.
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) has implausible degree %d", p.S, p.T, p.Degree)
		}
	}
	// MarshalJSON writes pairs in (s, t) order; accept any order, but a
	// repeated pair is an error rather than last-one-wins.
	pairCmp := func(a, b Pair) int {
		if a.S != b.S {
			return cmp.Compare(a.S, b.S)
		}
		return cmp.Compare(a.T, b.T)
	}
	slices.SortFunc(js.Pairs, pairCmp)
	rowLen := make([]int32, js.N)
	for i, p := range js.Pairs {
		if i > 0 && pairCmp(js.Pairs[i-1], p) == 0 {
			return nil, fmt.Errorf("bisim: decoding relation: pair (%d,%d) listed twice", p.S, p.T)
		}
		rowLen[p.S]++
	}
	r, cursor := newRelationRows(js.N, js.N2, func(s int) int { return int(rowLen[s]) })
	for _, p := range js.Pairs {
		i := cursor[p.S]
		r.cols[i], r.degs[i] = int32(p.T), int32(p.Degree)
		cursor[p.S]++
	}
	return r, nil
}

// AppendCSR appends the relation's compressed sparse rows to dst and
// returns the extended slice.  For every state s of the first structure,
// in order, it writes the row's length, then the row's states of the
// second structure as gaps (each state minus its predecessor in the row
// minus one; the first state's predecessor is -1), then the row's degrees,
// all as unsigned varints.  The dimensions are not part of the encoding;
// DecodeCSR takes them separately.  The gap form cannot express a
// repeated or unordered pair.
func (r *Relation) AppendCSR(dst []byte) []byte {
	for s := 0; s < r.n; s++ {
		lo, hi := r.span(kripke.State(s))
		dst = binary.AppendUvarint(dst, uint64(hi-lo))
		prev := int32(-1)
		for _, t := range r.cols[lo:hi] {
			dst = binary.AppendUvarint(dst, uint64(t-prev-1))
			prev = t
		}
		for _, d := range r.degs[lo:hi] {
			dst = binary.AppendUvarint(dst, uint64(d))
		}
	}
	return dst
}

// DecodeCSR decodes a relation between structures with n and n2 states
// from the rows AppendCSR writes.  A first pass validates without
// allocating: every row's length is checked against the bytes left (a pair
// takes at least two), every state against n2 and every value against
// math.MaxInt32, and truncated or non-minimal varints and trailing bytes
// are rejected, so a relation has exactly one accepted encoding.  A second
// pass fills rows sized by the first.
func DecodeCSR(n, n2 int, data []byte) (*Relation, error) {
	if n <= 0 || n2 <= 0 || n > maxRelationStates || n2 > maxRelationStates {
		return nil, fmt.Errorf("bisim: decoding relation rows: invalid dimensions %dx%d", n, n2)
	}
	total, err := readCSR(n, n2, data, nil)
	if err != nil {
		return nil, err
	}
	r := &Relation{n: n, n2: n2, rowOff: make([]int32, n+1), cols: make([]int32, total), degs: make([]int32, total)}
	if _, err := readCSR(n, n2, data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// readCSR walks the rows of an AppendCSR encoding and returns the number
// of pairs.  With into nil it only validates; otherwise it writes the rows
// into into's arrays, which a validating walk has sized.
func readCSR(n, n2 int, data []byte, into *Relation) (int, error) {
	total := 0
	for s := 0; s < n; s++ {
		length, rest, err := uvarint32(data)
		if err != nil {
			return 0, fmt.Errorf("bisim: decoding relation rows: row %d: %w", s, err)
		}
		data = rest
		if length > len(data)/2 {
			return 0, &rowLengthError{row: s, pairs: length, left: len(data)}
		}
		t := -1
		for k := 0; k < length; k++ {
			gap, rest, err := uvarint32(data)
			if err != nil {
				return 0, fmt.Errorf("bisim: decoding relation rows: row %d: %w", s, err)
			}
			data = rest
			if gap >= n2-1-t {
				return 0, fmt.Errorf("bisim: decoding relation rows: row %d: state %d out of range", s, t+1+gap)
			}
			t += gap + 1
			if into != nil {
				into.cols[total+k] = int32(t)
			}
		}
		for k := 0; k < length; k++ {
			degree, rest, err := uvarint32(data)
			if err != nil {
				return 0, fmt.Errorf("bisim: decoding relation rows: row %d: %w", s, err)
			}
			data = rest
			if into != nil {
				into.degs[total+k] = int32(degree)
			}
		}
		total += length
		if into != nil {
			into.rowOff[s+1] = int32(total)
		}
	}
	if len(data) != 0 {
		return 0, fmt.Errorf("bisim: decoding relation rows: %d trailing bytes", len(data))
	}
	return total, nil
}

// uvarint32 reads one unsigned varint of at most math.MaxInt32 from the
// front of data and returns it with the bytes after it.  It rejects a
// truncated varint and a non-minimal one (a zero final byte after the
// first), the encodings binary.AppendUvarint never writes.
func uvarint32(data []byte) (int, []byte, error) {
	v := uint64(0)
	for i := 0; i < len(data) && i < binary.MaxVarintLen32; i++ {
		c := data[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			switch {
			case c == 0 && i > 0:
				return 0, nil, errVarintNotMinimal
			case v > math.MaxInt32:
				return 0, nil, errVarintTooLarge
			}
			return int(v), data[i+1:], nil
		}
	}
	if len(data) < binary.MaxVarintLen32 {
		return 0, nil, errVarintTruncated
	}
	return 0, nil, errVarintTooLarge
}

// rowLengthError rejects a row claiming more pairs than the bytes left
// can hold.  It formats its message only when asked, so rejecting a
// hostile length allocates nothing but the error value.
type rowLengthError struct{ row, pairs, left int }

func (e *rowLengthError) Error() string {
	return fmt.Sprintf("bisim: decoding relation rows: row %d claims %d pairs with %d bytes left", e.row, e.pairs, e.left)
}

var (
	errVarintTruncated  = errors.New("truncated varint")
	errVarintNotMinimal = errors.New("non-minimal varint")
	errVarintTooLarge   = errors.New("varint above math.MaxInt32")
)

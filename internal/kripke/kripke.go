// Package kripke implements the labelled state-transition graphs (Kripke
// structures) over which the logics of package logic are interpreted.
//
// A Structure follows Section 2 and Section 4 of Browne, Clarke and
// Grumberg: it has a finite set of states, a total transition relation, a
// distinguished initial state and a labelling that assigns to each state a
// set of atomic propositions.  Propositions are either plain ("AP" in the
// paper) or indexed by a process number ("IP × I"); the package also
// maintains, for every indexed proposition P, the derived "exactly one"
// proposition O_i P_i of Section 4.
//
// Structures are built with a Builder and are immutable afterwards, so they
// can be shared freely.  The package also provides the structural operations
// the paper relies on: restriction to the reachable part (needed to make the
// mutual-exclusion transition graph a Kripke structure), the reduction M|i
// that erases all indexed propositions except those of process i, and
// re-indexing used when comparing reductions of structures with different
// index sets.
//
// The representation is engineered for the hot paths of the correspondence
// and model-checking engines:
//
//   - labels are rows of bits over a sorted proposition vocabulary: every
//     distinct label set is one interned row of ⌈|vocabulary|/64⌉ words
//     with a dense LabelID, so label equality is an integer compare and a
//     family instance, which has a distinct label per state, pays one word
//     per state for it (labels.go);
//   - the transition relation is stored in compressed-sparse-row form over
//     32-bit state ids (one flat edge array plus offsets), so Succ/Pred
//     return subslices of shared backing with no per-state slice headers to
//     chase, a structure built from an explored state space adopts the
//     explorer's successor rows as its own (AdoptSuccessors), and the
//     predecessor rows are transposed only when the model checker first
//     reads them;
//   - the states satisfying each atomic proposition are precomputed as
//     BitSets (StatesWith), so the model checker seeds atomic labellings
//     without scanning every state's label.
//
// For the partition-refinement correspondence engine the transition relation
// is also available in bitset form (BitSet, TransitionMatrix in bitset.go),
// which makes block splits word-parallel.
package kripke

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// State identifies a state of a Structure.  States are dense integers in
// [0, NumStates), 32 bits wide like the explorer's state ids, so a
// successor row of an explored space is a row of States.
type State int32

// NoState is returned by operations that fail to find a state.
const NoState State = -1

// LabelID identifies a distinct label set of a Structure.  Two states have
// the same LabelID iff they satisfy exactly the same atomic propositions, so
// label comparison is one integer compare.  LabelIDs are dense integers in
// [0, NumLabels) and are local to one structure: comparing LabelIDs across
// structures is meaningless (compare LabelKeys instead).
type LabelID int32

// Prop is an atomic proposition: either a plain proposition (Indexed false)
// or an indexed proposition P_Index (Indexed true).
type Prop struct {
	Name    string
	Index   int
	Indexed bool
}

// P returns the plain proposition named name.
func P(name string) Prop { return Prop{Name: name} }

// PI returns the indexed proposition name_index.
func PI(name string, index int) Prop { return Prop{Name: name, Index: index, Indexed: true} }

// String renders the proposition as "name" or "name[index]".
func (p Prop) String() string {
	if p.Indexed {
		return p.Name + "[" + strconv.Itoa(p.Index) + "]"
	}
	return p.Name
}

// Less orders propositions: plain before indexed, then by name, then index.
func (p Prop) Less(q Prop) bool {
	if p.Indexed != q.Indexed {
		return !p.Indexed
	}
	if p.Name != q.Name {
		return p.Name < q.Name
	}
	return p.Index < q.Index
}

// Structure is an immutable Kripke structure.  The zero value is not usable;
// construct structures with a Builder or one of the transformation methods.
type Structure struct {
	name    string
	initial State

	// Transition relation in compressed-sparse-row form.  The successor
	// list of s is succEdges[succOff[s]:succOff[s+1]], sorted.  The arrays
	// may be adopted from the caller (AdoptSuccessors) and are never
	// written.  The predecessor rows are their transpose, built on the
	// first Pred call: only model checking reads them.
	succEdges []State
	succOff   []int32
	pred      *predCache

	// Labelling (labels.go): vocab is the sorted proposition vocabulary,
	// rows holds one row of words bits per LabelID, and labelIDs[s] is the
	// row of state s.
	vocab    []Prop
	words    int
	rows     []uint64
	labelIDs []LabelID

	// ones[onesIDs[s]] lists the indexed proposition names holding for
	// exactly one index in s, sorted.  A builder override (SetOnes) is just
	// another entry of the table.
	ones    [][]string
	onesIDs []int32

	// props and keys cache the per-proposition state sets and the
	// per-label canonical keys, built on first use (the caches are
	// pointers so shallow copies like Rename share them).
	props *propCache
	keys  *keyCache

	// reach caches the states reachable from the initial state, built on
	// first use.  It depends only on the transition relation and the
	// initial state, so reductions share it along with the CSR arrays.
	reach *reachCache

	indexValues []int
}

// reachCache lazily holds the reachable-state set of one transition
// relation.
type reachCache struct {
	once sync.Once
	set  BitSet
}

// predCache lazily holds the predecessor CSR of one transition relation:
// the predecessors of t are edges[off[t]:off[t+1]], sorted.
type predCache struct {
	once  sync.Once
	edges []State
	off   []int32
}

// Reachable returns the set of states reachable from the initial state
// (including it), computed on first use and shared by every reduction of
// the same structure.  Like StatesWith, the returned set is shared and must
// not be modified.  Safe for concurrent callers.
func (m *Structure) Reachable() BitSet {
	m.reach.once.Do(func() {
		seen := NewBitSet(m.NumStates())
		seen.Set(int(m.initial))
		stack := []State{m.initial}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, t := range m.Succ(s) {
				if !seen.Get(int(t)) {
					seen.Set(int(t))
					stack = append(stack, t)
				}
			}
		}
		m.reach.set = seen
	})
	return m.reach.set
}

// Name returns the structure's name (may be empty).
func (m *Structure) Name() string { return m.name }

// NumStates returns the number of states.
func (m *Structure) NumStates() int { return len(m.labelIDs) }

// NumTransitions returns the number of transitions.
func (m *Structure) NumTransitions() int { return len(m.succEdges) }

// Initial returns the initial state s0.
func (m *Structure) Initial() State { return m.initial }

// Succ returns the successors of s in increasing order.  The returned slice
// is a view into shared backing and must not be modified.
func (m *Structure) Succ(s State) []State { return m.succEdges[m.succOff[s]:m.succOff[s+1]] }

// Pred returns the predecessors of s in increasing order.  The returned
// slice is a view into shared backing and must not be modified.  The first
// call on a transition relation transposes it, once for every structure
// that shares the relation (its reductions and renamings); safe for
// concurrent callers.
func (m *Structure) Pred(s State) []State {
	p := m.pred
	p.once.Do(func() { p.edges, p.off = transpose(m.succOff, m.succEdges) })
	return p.edges[p.off[s]:p.off[s+1]]
}

// HasTransition reports whether there is a transition from s to t.
func (m *Structure) HasTransition(s, t State) bool {
	succ := m.Succ(s)
	i := sort.Search(len(succ), func(i int) bool { return succ[i] >= t })
	return i < len(succ) && succ[i] == t
}

// Label returns the propositions holding in s, sorted.  The slice is fresh
// and may be modified by the caller; LabelID is the allocation-free way to
// compare labels.
func (m *Structure) Label(s State) []Prop {
	id := m.labelIDs[s]
	n := 0
	for _, word := range m.row(id) {
		n += bits.OnesCount64(word)
	}
	return m.appendLabel(make([]Prop, 0, n), id)
}

// LabelID returns the interned identifier of s's label set.  Two states of
// the same structure satisfy the same atomic propositions iff their LabelIDs
// are equal.
func (m *Structure) LabelID(s State) LabelID { return m.labelIDs[s] }

// NumLabels returns the number of distinct label sets.
func (m *Structure) NumLabels() int { return len(m.rows) / m.words }

// LabelKeyByID returns the canonical key of the given label set.  Keys agree
// across structures: two states of different structures satisfy the same
// atomic propositions iff their label keys are equal.  The first call
// builds the key of every label of the structure; later calls allocate
// nothing.
func (m *Structure) LabelKeyByID(id LabelID) string { return m.labelKeys()[id] }

// LabelKey returns a canonical string for the label of s (plain and indexed
// propositions).  Two states have the same LabelKey iff they satisfy exactly
// the same atomic propositions.  The derived "exactly one" propositions are
// not part of the key; use LabelKeyWithOnes when they have been added to AP
// (Section 4's extension) and must be respected by a correspondence.  Like
// LabelKeyByID, it allocates only on the structure's first key request.
func (m *Structure) LabelKey(s State) string { return m.labelKeys()[m.labelIDs[s]] }

// LabelKeyWithOnes returns LabelKey(s) extended with the truth values of the
// "exactly one" propositions listed in oneProps.  The props must be sorted
// or at least given in the same order for the two structures being compared.
func (m *Structure) LabelKeyWithOnes(s State, oneProps []string) string {
	if len(oneProps) == 0 {
		return m.LabelKey(s)
	}
	var sb strings.Builder
	sb.WriteString(m.LabelKey(s))
	for _, p := range oneProps {
		sb.WriteString("!one:")
		sb.WriteString(p)
		sb.WriteByte('=')
		if m.ExactlyOne(s, p) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Holds reports whether proposition p is in the label of s.
func (m *Structure) Holds(s State, p Prop) bool {
	id, ok := m.propID(p)
	return ok && hasBit(m.row(m.labelIDs[s]), id)
}

// StatesWith returns the set of states whose label contains p, or nil when
// no state satisfies p.  The returned set is shared and must not be
// modified.
func (m *Structure) StatesWith(p Prop) BitSet {
	if id, ok := m.propID(p); ok {
		return m.propSets()[id]
	}
	return nil
}

// ExactlyOne reports whether exactly one index value c has prop_c in the
// label of s (the O_i prop_i atom of Section 4).
func (m *Structure) ExactlyOne(s State, prop string) bool {
	return slices.Contains(m.ones[m.onesIDs[s]], prop)
}

// OneProps returns the names of indexed propositions that hold for exactly
// one index in state s, sorted.  The slice is shared and must not be
// modified.
func (m *Structure) OneProps(s State) []string { return m.ones[m.onesIDs[s]] }

// IndexValues returns the index set I of the structure, sorted.  It is the
// set of indices that appear in indexed propositions of any state, possibly
// extended by the builder's DeclareIndex calls.
func (m *Structure) IndexValues() []int { return m.indexValues }

// States returns all states in increasing order.  The slice is fresh and may
// be modified by the caller.
func (m *Structure) States() []State {
	out := make([]State, m.NumStates())
	for i := range out {
		out[i] = State(i)
	}
	return out
}

// IsTotal reports whether every state has at least one successor, as the
// semantics of CTL* requires.
func (m *Structure) IsTotal() bool {
	for s := 0; s < m.NumStates(); s++ {
		if m.succOff[s] == m.succOff[s+1] {
			return false
		}
	}
	return true
}

// DeadlockStates returns the states without successors, in increasing order.
func (m *Structure) DeadlockStates() []State {
	var out []State
	for s := 0; s < m.NumStates(); s++ {
		if m.succOff[s] == m.succOff[s+1] {
			out = append(out, State(s))
		}
	}
	return out
}

// AtomNames returns the plain proposition names used anywhere in the
// structure, sorted.
func (m *Structure) AtomNames() []string {
	out := []string{}
	for _, p := range m.vocab {
		if !p.Indexed {
			out = append(out, p.Name)
		}
	}
	return out
}

// IndexedPropNames returns the indexed proposition names used anywhere in
// the structure, sorted.
func (m *Structure) IndexedPropNames() []string {
	out := []string{}
	for _, p := range m.vocab {
		if p.Indexed && (len(out) == 0 || out[len(out)-1] != p.Name) {
			out = append(out, p.Name)
		}
	}
	return out
}

// Validate checks the structural invariants of the Kripke structure: the
// initial state is in range, the transition relation is total, and every
// transition endpoint is a valid state.  It returns nil if the structure is
// well formed.
func (m *Structure) Validate() error {
	n := m.NumStates()
	if n == 0 {
		return fmt.Errorf("kripke: structure %q has no states", m.name)
	}
	if m.initial < 0 || int(m.initial) >= n {
		return fmt.Errorf("kripke: structure %q: initial state %d out of range [0,%d)", m.name, m.initial, n)
	}
	for s := 0; s < n; s++ {
		ss := m.Succ(State(s))
		if len(ss) == 0 {
			return fmt.Errorf("kripke: structure %q: state %d has no successors (relation must be total)", m.name, s)
		}
		for _, t := range ss {
			if t < 0 || int(t) >= n {
				return fmt.Errorf("kripke: structure %q: transition %d -> %d out of range", m.name, s, t)
			}
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

// Builder incrementally constructs a Structure.  Construct Builders with
// NewBuilder; they are not safe for concurrent use.
//
// Label sets are interned as they are added: a label is a row of bits over
// the propositions seen so far, and AddState with a label set already seen
// costs no allocation beyond the per-state id.  Callers on hot paths may
// therefore reuse one scratch props slice across AddState calls (the
// builder never keeps a reference to the argument).
//
// A build hands the builder's label ids and label rows to the structure
// without copying them.  A builder used again after a build copies them
// back first (own), so every structure it built stays as it was.
type Builder struct {
	name         string
	labelIDs     []LabelID
	onesOverride map[State][]string
	edges        []uint64 // from<<32 | to; deduplicated at Build
	succOff      []int32  // adopted successor CSR (AdoptSuccessors), or nil
	succ         []State
	initial      State
	initialSet   bool
	indexValues  map[int]bool
	indexMask    uint64 // indices 0..63 already in indexValues (fast path)

	// vocab lists the propositions in first-sight order; a proposition's
	// position is its bit in the rows of labels.  Build sorts it.
	vocab   []Prop
	propID  map[Prop]int32
	labels  rowTable
	scratch []uint64 // one row, reused by every AddState

	// shared marks labelIDs, vocab and labels.rows as the last built
	// structure's: the rows are rewritten over its sorted vocabulary, and
	// propID and the intern slots are stale until own re-bases them.
	shared bool
}

// NewBuilder returns a Builder for a structure with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:         name,
		onesOverride: make(map[State][]string),
		indexValues:  make(map[int]bool),
		propID:       make(map[Prop]int32),
		labels:       rowTable{w: 1},
		scratch:      make([]uint64, 1),
	}
}

// SetOnes overrides the derived "exactly one" propositions of a state.  By
// default the truth of O_i P_i is computed from the state's indexed label
// (exactly one index value carries P); structures derived from *reduced*
// labels (Section 4's M|i) no longer contain the other indices, so
// operations such as quotienting must carry the original truth values over
// explicitly.  Passing nil restores the derived behaviour.
func (b *Builder) SetOnes(s State, props []string) error {
	if int(s) < 0 || int(s) >= len(b.labelIDs) {
		return fmt.Errorf("kripke: SetOnes: state %d out of range", s)
	}
	if props == nil {
		delete(b.onesOverride, s)
		return nil
	}
	cp := append([]string(nil), props...)
	sort.Strings(cp)
	b.onesOverride[s] = cp
	return nil
}

// internLabel sets the bits of props in the builder's scratch row and
// returns the dense id of the label set, creating it on first sight.  The
// props need not be sorted or distinct; only a first sight copies the row.
func (b *Builder) internLabel(props []Prop) LabelID {
	clear(b.scratch)
	for _, p := range props {
		id, ok := b.propID[p]
		if !ok {
			id = b.addProp(p)
		}
		setBit(b.scratch, int(id))
	}
	return b.labels.intern(b.scratch)
}

// own gives the builder private copies of the label ids, vocabulary and
// rows that the last build handed to its structure, re-based on that
// structure's sorted vocabulary: the prop ids and intern slots are rebuilt
// for the rewritten rows.  A label keeps its LabelID, so a later build
// numbers labels exactly as a builder that never built would.  Every
// method that changes them calls it first, before it reads any of them.
func (b *Builder) own() {
	if !b.shared {
		return
	}
	b.shared = false
	b.labelIDs = slices.Clone(b.labelIDs)
	b.vocab = slices.Clone(b.vocab)
	clear(b.propID)
	for p, prop := range b.vocab {
		b.propID[prop] = int32(p)
	}
	b.labels.rows = slices.Clone(b.labels.rows)
	b.labels.rehash(len(b.labels.slots))
	b.scratch = make([]uint64, b.labels.w)
}

// addProp adds p to the vocabulary, widening every row when p needs a new
// word.
func (b *Builder) addProp(p Prop) int32 {
	id := int32(len(b.vocab))
	b.vocab = append(b.vocab, p)
	b.propID[p] = id
	if p.Indexed {
		b.recordIndex(p.Index)
	}
	if w := int(id)/64 + 1; w > b.labels.w {
		b.labels.widen(2 * b.labels.w)
		b.scratch = append(b.scratch, make([]uint64, b.labels.w-len(b.scratch))...)
	}
	return id
}

// recordIndex notes an index value seen in a label.  Small indices hit a
// bitmask before the map.
func (b *Builder) recordIndex(i int) {
	if 0 <= i && i < 64 {
		if b.indexMask&(1<<uint(i)) != 0 {
			return
		}
		b.indexMask |= 1 << uint(i)
	}
	b.indexValues[i] = true
}

// AddState adds a state labelled with props and returns its identifier.
// The props may come in any order and may repeat; the slice is not
// retained.
func (b *Builder) AddState(props ...Prop) State {
	b.own()
	b.labelIDs = append(b.labelIDs, b.internLabel(props))
	return State(len(b.labelIDs) - 1)
}

// Grow pre-allocates the builder's state and label tables for a caller
// that knows (approximately) how many states the structure will have.  A
// family instance has a distinct label per state, so the label table is
// sized for one label per state.
func (b *Builder) Grow(states int) {
	b.own()
	b.labelIDs = grow(b.labelIDs, states)
	b.labels.reserve(states)
}

// grow returns s with room for n more elements.  Unlike slices.Grow it
// allocates only the new backing array in every build mode (under -race,
// slices.Grow also materialises the n-element slice it appends).
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make(S, len(s), len(s)+n)
	copy(out, s)
	return out
}

// SetLabel replaces the label of an existing state.
func (b *Builder) SetLabel(s State, props ...Prop) error {
	if int(s) < 0 || int(s) >= len(b.labelIDs) {
		return fmt.Errorf("kripke: SetLabel: state %d out of range", s)
	}
	b.own()
	b.labelIDs[s] = b.internLabel(props)
	return nil
}

// AddTransition adds the transition from -> to.  Duplicate transitions are
// ignored.  It returns an error if either endpoint does not exist yet.
func (b *Builder) AddTransition(from, to State) error {
	n := len(b.labelIDs)
	if int(from) < 0 || int(from) >= n || int(to) < 0 || int(to) >= n {
		return fmt.Errorf("kripke: AddTransition(%d, %d): state out of range [0,%d)", from, to, n)
	}
	if b.succOff != nil {
		return fmt.Errorf("kripke: AddTransition(%d, %d): the successor rows were adopted", from, to)
	}
	b.edges = append(b.edges, uint64(from)<<32|uint64(uint32(to)))
	return nil
}

// AdoptSuccessors sets the whole transition relation from a successor CSR
// over the states added so far: succ[off[s]:off[s+1]] lists the successors
// of s, strictly ascending.  The built structure keeps both slices as its
// successor rows without copying them, so the caller must not modify them
// afterwards; the structure allocates nothing for its transition relation
// until the first Pred call transposes it.  One pass validates the rows and
// names the first bad one.  It fails if AddTransition was used, and later
// AddTransition calls fail.
func (b *Builder) AdoptSuccessors(off []int32, succ []State) error {
	n := len(b.labelIDs)
	bad := func(row int, format string, args ...any) error {
		return fmt.Errorf("kripke: AdoptSuccessors: row %d: %s", row, fmt.Sprintf(format, args...))
	}
	switch {
	case len(b.edges) > 0:
		return fmt.Errorf("kripke: AdoptSuccessors: transitions were already added")
	case len(off) != n+1:
		return bad(max(min(len(off)-1, n), 0), "%d offsets for %d states, want %d", len(off), n, n+1)
	case off[0] != 0:
		return bad(0, "starts at offset %d, want 0", off[0])
	}
	for s := 0; s < n; s++ {
		if off[s+1] < off[s] || int(off[s+1]) > len(succ) {
			return bad(s, "offsets %d..%d are not a range of [0,%d]", off[s], off[s+1], len(succ))
		}
		prev := State(-1)
		for _, t := range succ[off[s]:off[s+1]] {
			if t <= prev || int(t) >= n {
				return bad(s, "successor %d after %d is not ascending in [0,%d)", t, prev, n)
			}
			prev = t
		}
	}
	if int(off[n]) != len(succ) {
		return bad(n-1, "ends at offset %d, but %d successors were given", off[n], len(succ))
	}
	b.succOff, b.succ = off, succ
	return nil
}

// SetInitial designates the initial state.
func (b *Builder) SetInitial(s State) error {
	if int(s) < 0 || int(s) >= len(b.labelIDs) {
		return fmt.Errorf("kripke: SetInitial: state %d out of range", s)
	}
	b.initial = s
	b.initialSet = true
	return nil
}

// DeclareIndex records that index value i belongs to the index set I even if
// no state labels a proposition with it (useful for processes that never
// satisfy any indexed proposition in some reachable state).
func (b *Builder) DeclareIndex(i int) { b.recordIndex(i) }

// NumStates returns the number of states added so far.
func (b *Builder) NumStates() int { return len(b.labelIDs) }

// Build finalises the structure.  It returns an error if no state was added,
// if the initial state was never set, or if the transition relation is not
// total.  Use BuildPartial to allow non-total relations (e.g. before a
// reachability restriction).
func (b *Builder) Build() (*Structure, error) {
	m, err := b.BuildPartial()
	if err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// BuildPartial finalises the structure without requiring the transition
// relation to be total.  The paper's mutual-exclusion transition graph G_r is
// of this kind: it only becomes a Kripke structure after restriction to the
// states reachable from the initial state.
func (b *Builder) BuildPartial() (*Structure, error) {
	if len(b.labelIDs) == 0 {
		return nil, fmt.Errorf("kripke: Build: structure %q has no states", b.name)
	}
	if !b.initialSet {
		return nil, fmt.Errorf("kripke: Build: structure %q has no initial state", b.name)
	}
	// The structure takes the label ids and rows, and canonical rewrites
	// the rows in place.  A shared builder's are canonical already (own
	// re-bases them before any change), so a second build shares them
	// unchanged.
	n := len(b.labelIDs)
	m := &Structure{
		name:     b.name,
		initial:  b.initial,
		labelIDs: b.labelIDs,
		props:    &propCache{},
		keys:     &keyCache{},
		reach:    &reachCache{},
	}
	m.vocab, m.rows, m.words = canonical(b.vocab, b.labels.rows, b.labels.w)
	b.labelIDs, b.vocab, b.labels.rows, b.labels.w = m.labelIDs, m.vocab, m.rows, m.words
	b.shared = true
	if b.succOff != nil {
		m.setSucc(b.succOff, b.succ)
	} else {
		b.edges = m.setEdges(n, b.edges)
	}

	// The "exactly one" sets: derived per label id, overridden per state.
	ones := newOnesTable()
	derived := derivedOnes(m.vocab, m.rows, m.words, ones)
	m.onesIDs = make([]int32, n)
	for s, id := range m.labelIDs {
		m.onesIDs[s] = derived[id]
		if len(b.onesOverride) > 0 {
			if override, ok := b.onesOverride[State(s)]; ok {
				m.onesIDs[s] = ones.intern(override)
			}
		}
	}
	m.ones = ones.sets

	m.indexValues = make([]int, 0, len(b.indexValues))
	//lint:ordered index values are collected then sorted immediately below
	for i := range b.indexValues {
		m.indexValues = append(m.indexValues, i)
	}
	sort.Ints(m.indexValues)
	return m, nil
}

// setEdges sorts and deduplicates edges (from<<32 | to) in place, installs
// them as the successor CSR of an n-state structure and returns the
// deduplicated edges.
func (m *Structure) setEdges(n int, edges []uint64) []uint64 {
	slices.Sort(edges)
	edges = slices.Compact(edges)
	off := make([]int32, n+1)
	succ := make([]State, len(edges))
	for i, e := range edges {
		off[int(e>>32)+1]++
		succ[i] = State(uint32(e))
	}
	for s := 0; s < n; s++ {
		off[s+1] += off[s]
	}
	m.setSucc(off, succ)
	return edges
}

// setSucc installs a successor CSR with ascending rows, with an empty
// predecessor cache for the new relation.
func (m *Structure) setSucc(off []int32, succ []State) {
	m.succOff, m.succEdges = off, succ
	m.pred = &predCache{}
}

// transpose returns the predecessor CSR of a successor CSR with ascending
// rows, filled by counting.  Sources are placed from the last state down,
// each row's cursor falling from its end to its start, so every
// predecessor row comes out ascending with no cursor array.
func transpose(off []int32, succ []State) ([]State, []int32) {
	n := len(off) - 1
	predOff := make([]int32, n+1)
	for _, t := range succ {
		predOff[t]++
	}
	for t := 1; t < n; t++ {
		predOff[t] += predOff[t-1]
	}
	predOff[n] = int32(len(succ))
	pred := make([]State, len(succ))
	for s := n - 1; s >= 0; s-- {
		for _, t := range succ[off[s]:off[s+1]] {
			predOff[t]--
			pred[predOff[t]] = State(s)
		}
	}
	return pred, predOff
}

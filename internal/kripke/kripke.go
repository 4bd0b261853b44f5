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
//   - label sets are interned: every distinct label set gets a dense LabelID,
//     so label equality is an integer compare and the canonical LabelKey is a
//     table lookup instead of a string build;
//   - the transition relation is stored in compressed-sparse-row form (one
//     flat edge array plus offsets per direction), so Succ/Pred return
//     subslices of shared backing with no per-state slice headers to chase;
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// State identifies a state of a Structure.  States are dense integers in
// [0, NumStates).
type State int

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

	// Transition relation in compressed-sparse-row form, both directions.
	// The successor list of s is succEdges[succOff[s]:succOff[s+1]], sorted;
	// likewise for predecessors.
	succEdges []State
	succOff   []int32
	predEdges []State
	predOff   []int32

	// Interned labelling: labelIDs[s] indexes the distinct-label tables.
	labelIDs  []LabelID
	labelSets [][]Prop // per LabelID, sorted by Prop.Less, deduplicated
	labelKeys []string // per LabelID, canonical key

	// ones[s] lists the indexed proposition names holding for exactly one
	// index in s.  States sharing a LabelID alias one slice unless a builder
	// override forced a per-state value.
	ones [][]string

	// props caches the per-proposition state sets, built on first use (the
	// cache is a pointer so shallow copies like Rename share it).
	props *propCache

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

// propCache lazily holds the per-proposition state sets of one structure.
type propCache struct {
	once sync.Once
	sets map[Prop]BitSet
}

// propSets returns the per-proposition state sets, building them on first
// use.  Safe for concurrent callers: structures are immutable and shared.
func (m *Structure) propSets() map[Prop]BitSet {
	m.props.once.Do(func() {
		m.props.sets = buildPropStates(m.NumStates(), m.labelIDs, m.labelSets)
	})
	return m.props.sets
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
// slice is a view into shared backing and must not be modified.
func (m *Structure) Pred(s State) []State { return m.predEdges[m.predOff[s]:m.predOff[s+1]] }

// HasTransition reports whether there is a transition from s to t.
func (m *Structure) HasTransition(s, t State) bool {
	succ := m.Succ(s)
	i := sort.Search(len(succ), func(i int) bool { return succ[i] >= t })
	return i < len(succ) && succ[i] == t
}

// Label returns the propositions holding in s, sorted.  The returned slice
// is shared by all states with the same label set and must not be modified.
func (m *Structure) Label(s State) []Prop { return m.labelSets[m.labelIDs[s]] }

// LabelID returns the interned identifier of s's label set.  Two states of
// the same structure satisfy the same atomic propositions iff their LabelIDs
// are equal.
func (m *Structure) LabelID(s State) LabelID { return m.labelIDs[s] }

// NumLabels returns the number of distinct label sets.
func (m *Structure) NumLabels() int { return len(m.labelSets) }

// LabelKeyByID returns the canonical key of the given label set.  Keys agree
// across structures: two states of different structures satisfy the same
// atomic propositions iff their label keys are equal.
func (m *Structure) LabelKeyByID(id LabelID) string { return m.labelKeys[id] }

// LabelSetByID returns the label set with the given id, sorted.  The
// returned slice must not be modified.
func (m *Structure) LabelSetByID(id LabelID) []Prop { return m.labelSets[id] }

// LabelKey returns a canonical string for the label of s (plain and indexed
// propositions).  Two states have the same LabelKey iff they satisfy exactly
// the same atomic propositions.  The derived "exactly one" propositions are
// not part of the key; use LabelKeyWithOnes when they have been added to AP
// (Section 4's extension) and must be respected by a correspondence.
func (m *Structure) LabelKey(s State) string { return m.labelKeys[m.labelIDs[s]] }

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
	bs, ok := m.propSets()[p]
	return ok && bs.Get(int(s))
}

// StatesWith returns the set of states whose label contains p, or nil when
// no state satisfies p.  The returned set is shared and must not be
// modified.
func (m *Structure) StatesWith(p Prop) BitSet { return m.propSets()[p] }

// ExactlyOne reports whether exactly one index value c has prop_c in the
// label of s (the O_i prop_i atom of Section 4).
func (m *Structure) ExactlyOne(s State, prop string) bool {
	for _, o := range m.ones[s] {
		if o == prop {
			return true
		}
	}
	return false
}

// OneProps returns the names of indexed propositions that hold for exactly
// one index in state s, sorted.
func (m *Structure) OneProps(s State) []string { return m.ones[s] }

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
	set := map[string]bool{}
	for _, lbl := range m.labelSets {
		for _, p := range lbl {
			if !p.Indexed {
				set[p.Name] = true
			}
		}
	}
	return sortedStrings(set)
}

// IndexedPropNames returns the indexed proposition names used anywhere in
// the structure, sorted.
func (m *Structure) IndexedPropNames() []string {
	set := map[string]bool{}
	for _, lbl := range m.labelSets {
		for _, p := range lbl {
			if p.Indexed {
				set[p.Name] = true
			}
		}
	}
	return sortedStrings(set)
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

func sortedStrings(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	//lint:ordered keys are collected then sorted immediately below
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

// Builder incrementally constructs a Structure.  The zero value is ready to
// use.  Builders are not safe for concurrent use.
//
// Label sets are interned as they are added, so AddState with a label set
// already seen costs no allocation beyond the per-state id; callers on hot
// paths may therefore reuse one scratch props slice across AddState calls
// (the builder never keeps a reference to the argument).
type Builder struct {
	name         string
	labelIDs     []LabelID
	labelSets    [][]Prop
	labelKeys    []string
	labelOnes    [][]string // derived "exactly one" props per LabelID
	intern       map[string]LabelID
	onesOverride map[State][]string
	edges        []uint64 // from<<32 | to; deduplicated at Build
	initial      State
	initialSet   bool
	indexValues  map[int]bool

	scratchProps []Prop
	scratchKey   []byte
	propArena    []Prop // slab backing for interned label sets
	indexMask    uint64 // indices 0..63 already in indexValues (fast path)
}

// NewBuilder returns a Builder for a structure with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:         name,
		intern:       make(map[string]LabelID),
		onesOverride: make(map[State][]string),
		indexValues:  make(map[int]bool),
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

// internLabel normalizes props into the builder's scratch space and returns
// the dense id of the label set, creating it on first sight.  Only a first
// sight clones the props (and materialises the key string); duplicates are
// allocation free.
func (b *Builder) internLabel(props []Prop) LabelID {
	lbl := normalizeLabelInto(b.scratchProps[:0], props)
	b.scratchProps = lbl[:0]
	b.scratchKey = appendLabelKey(b.scratchKey[:0], lbl)
	if id, ok := b.intern[string(b.scratchKey)]; ok {
		return id
	}
	return b.internNew(lbl, string(b.scratchKey))
}

// internNew records a label set seen for the first time.  lbl must be sorted
// and deduplicated; it is cloned, so callers may reuse it.
func (b *Builder) internNew(lbl []Prop, key string) LabelID {
	id := LabelID(len(b.labelSets))
	// Structures whose labels carry per-index atoms (every family instance)
	// intern a distinct set per state, so the clone is the builder's hottest
	// allocation; slab-allocating the clones amortises it away.  Handed-out
	// slices are full-capacity views, so a slab refill never moves them.
	var cp []Prop
	if len(lbl) > 0 {
		if cap(b.propArena)-len(b.propArena) < len(lbl) {
			// Slabs double up to 64K props, so small structures stay
			// small and million-state builds refill rarely.
			size := 2 * cap(b.propArena)
			if size < 256 {
				size = 256
			}
			if size > 64*1024 {
				size = 64 * 1024
			}
			if size < len(lbl) {
				size = len(lbl)
			}
			b.propArena = make([]Prop, 0, size)
		}
		start := len(b.propArena)
		b.propArena = append(b.propArena, lbl...)
		cp = b.propArena[start:len(b.propArena):len(b.propArena)]
	}
	b.intern[key] = id
	b.labelSets = append(b.labelSets, cp)
	b.labelKeys = append(b.labelKeys, key)
	b.labelOnes = append(b.labelOnes, computeOnes(cp))
	for _, p := range cp {
		if p.Indexed {
			b.recordIndex(p.Index)
		}
	}
	return id
}

// recordIndex notes an index value seen in a label.  Small indices hit a
// bitmask before the map: a million-state build records r indices a few
// million times, and the map assignments would dominate internNew.
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
func (b *Builder) AddState(props ...Prop) State {
	b.labelIDs = append(b.labelIDs, b.internLabel(props))
	return State(len(b.labelIDs) - 1)
}

// AddStateNormalized adds a state whose label is already sorted by Prop.Less
// and deduplicated, skipping the normalization sort — the dominant cost of
// AddState for builders that generate labels in canonical order (one linear
// order check remains, and a label that fails it is normalized as usual).
// The slice is not retained; callers may reuse it.
func (b *Builder) AddStateNormalized(props []Prop) State {
	for i := 1; i < len(props); i++ {
		if !props[i-1].Less(props[i]) {
			return b.AddState(props...)
		}
	}
	b.scratchKey = appendLabelKey(b.scratchKey[:0], props)
	id, ok := b.intern[string(b.scratchKey)]
	if !ok {
		id = b.internNew(props, string(b.scratchKey))
	}
	b.labelIDs = append(b.labelIDs, id)
	return State(len(b.labelIDs) - 1)
}

// Grow pre-allocates the builder's state and edge tables for a caller that
// knows (approximately) how large the structure will be.
func (b *Builder) Grow(states, edges int) {
	b.labelIDs = slices.Grow(b.labelIDs, states)
	b.edges = slices.Grow(b.edges, edges)
}

// SetLabel replaces the label of an existing state.
func (b *Builder) SetLabel(s State, props ...Prop) error {
	if int(s) < 0 || int(s) >= len(b.labelIDs) {
		return fmt.Errorf("kripke: SetLabel: state %d out of range", s)
	}
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
	b.edges = append(b.edges, uint64(from)<<32|uint64(uint32(to)))
	return nil
}

// AddTransitionRow adds a transition from from to every state in row.  It
// validates from once and amortises the per-edge bounds check, which
// matters when a pre-explored state space replays millions of edges
// through the builder.
func (b *Builder) AddTransitionRow(from State, row []int32) error {
	n := len(b.labelIDs)
	if int(from) < 0 || int(from) >= n {
		return fmt.Errorf("kripke: AddTransitionRow(%d): state out of range [0,%d)", from, n)
	}
	base := uint64(from) << 32
	for _, to := range row {
		if to < 0 || int(to) >= n {
			return fmt.Errorf("kripke: AddTransitionRow(%d, %d): state out of range [0,%d)", from, to, n)
		}
		b.edges = append(b.edges, base|uint64(uint32(to)))
	}
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
	n := len(b.labelIDs)
	m := &Structure{
		name:      b.name,
		initial:   b.initial,
		labelIDs:  append([]LabelID(nil), b.labelIDs...),
		labelSets: b.labelSets,
		labelKeys: b.labelKeys,
	}

	// Edges sorted by (from, to) give the successor CSR directly; a second
	// counting pass over the same order fills sorted predecessor rows.
	slices.Sort(b.edges)
	edges := slices.Compact(b.edges)
	b.edges = edges
	m.succOff = make([]int32, n+1)
	m.predOff = make([]int32, n+1)
	for _, e := range edges {
		m.succOff[int(e>>32)+1]++
		m.predOff[int(uint32(e))+1]++
	}
	for s := 0; s < n; s++ {
		m.succOff[s+1] += m.succOff[s]
		m.predOff[s+1] += m.predOff[s]
	}
	m.succEdges = make([]State, len(edges))
	m.predEdges = make([]State, len(edges))
	predNext := make([]int32, n)
	copy(predNext, m.predOff[:n])
	for i, e := range edges {
		from, to := State(e>>32), State(uint32(e))
		m.succEdges[i] = to
		m.predEdges[predNext[to]] = from
		predNext[to]++
	}

	// The "exactly one" sets: derived per label id, overridden per state.
	m.ones = make([][]string, n)
	for s, id := range m.labelIDs {
		if override, ok := b.onesOverride[State(s)]; ok {
			m.ones[s] = override
		} else {
			m.ones[s] = b.labelOnes[id]
		}
	}

	m.props = &propCache{}
	m.reach = &reachCache{}

	m.indexValues = make([]int, 0, len(b.indexValues))
	//lint:ordered index values are collected then sorted immediately below
	for i := range b.indexValues {
		m.indexValues = append(m.indexValues, i)
	}
	sort.Ints(m.indexValues)
	return m, nil
}

// buildPropStates computes the per-proposition state sets of a structure.
func buildPropStates(n int, labelIDs []LabelID, labelSets [][]Prop) map[Prop]BitSet {
	out := make(map[Prop]BitSet)
	for s, id := range labelIDs {
		for _, p := range labelSets[id] {
			bs, ok := out[p]
			if !ok {
				bs = NewBitSet(n)
				out[p] = bs
			}
			bs.Set(s)
		}
	}
	return out
}

// normalizeLabelInto sorts and deduplicates props into dst (reused scratch).
func normalizeLabelInto(dst []Prop, props []Prop) []Prop {
	if len(props) == 0 {
		return dst
	}
	dst = append(dst, props...)
	sort.Slice(dst, func(i, j int) bool { return dst[i].Less(dst[j]) })
	out := dst[:1]
	for _, p := range dst[1:] {
		if p != out[len(out)-1] {
			out = append(out, p)
		}
	}
	return out
}

// computeOnes returns the names of indexed propositions that appear with
// exactly one index in the label, sorted.  lbl is sorted by Prop.Less, so
// indexed propositions are grouped by name in ascending name order and one
// linear pass suffices (the result inherits the sort).
func computeOnes(lbl []Prop) []string {
	// Count first so the result is a single exact-size allocation (or none):
	// computeOnes runs once per distinct label set, i.e. once per state for
	// family instances.
	count := 0
	for i := 0; i < len(lbl); {
		if !lbl[i].Indexed {
			i++
			continue
		}
		j := i + 1
		for j < len(lbl) && lbl[j].Name == lbl[i].Name {
			j++
		}
		if j-i == 1 {
			count++
		}
		i = j
	}
	if count == 0 {
		return nil
	}
	out := make([]string, 0, count)
	for i := 0; i < len(lbl); {
		if !lbl[i].Indexed {
			i++
			continue
		}
		j := i + 1
		for j < len(lbl) && lbl[j].Name == lbl[i].Name {
			j++
		}
		if j-i == 1 {
			out = append(out, lbl[i].Name)
		}
		i = j
	}
	return out
}

// appendLabelKey appends the canonical key of lbl to dst.  Prop.String is
// inlined so building a key costs no allocation beyond dst itself; callers
// on hot paths reuse a scratch buffer.
func appendLabelKey(dst []byte, lbl []Prop) []byte {
	for _, p := range lbl {
		dst = append(dst, p.Name...)
		if p.Indexed {
			dst = append(dst, '[')
			dst = strconv.AppendInt(dst, int64(p.Index), 10)
			dst = append(dst, ']')
		}
		dst = append(dst, ';')
	}
	return dst
}

package kripke

import (
	"math/bits"
	"slices"
	"strconv"
	"sync"
)

// This file holds the labelling representation.  A structure's labels are
// rows of bits over its proposition vocabulary:
//
//   - the vocabulary is the sorted (Prop.Less) list of the propositions that
//     occur in some label, and a proposition's position is its prop id;
//   - each distinct label set is one row of w = ⌈|vocabulary|/64⌉ words (at
//     least one) in a single flat slice, and its LabelID is the row number;
//   - the "exactly one" atoms of Section 4 are a small interned table of
//     distinct name sets, and each state holds an id into it.
//
// A family instance has a distinct label per state, so a label costs one
// row (eight bytes for every instance of the sweep) rather than a cloned
// []Prop, a key string and a ones slice.

// wordsFor returns the row width for a vocabulary of n propositions.
func wordsFor(n int) int { return max(1, (n+63)/64) }

// rowTable interns label rows of a fixed width: each distinct row is stored
// once in rows and gets the next dense LabelID.  The open-addressed slots
// hold LabelID+1 (zero marks an empty slot); a lookup hashes the row's
// words and compares candidates in place against rows, so it allocates
// nothing.
type rowTable struct {
	w     int
	rows  []uint64
	slots []int32
}

// len returns the number of interned rows.
func (t *rowTable) len() int { return len(t.rows) / t.w }

// row returns the words of row id.
func (t *rowTable) row(id LabelID) []uint64 { return t.rows[int(id)*t.w : (int(id)+1)*t.w] }

func hashRow(row []uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range row {
		h = (h ^ x) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	return h
}

// intern returns the id of row, adding a copy of it on first sight.
func (t *rowTable) intern(row []uint64) LabelID {
	if 2*(t.len()+1) > len(t.slots) {
		t.rehash(max(16, 2*len(t.slots)))
	}
	mask := uint64(len(t.slots) - 1)
	for i := hashRow(row) & mask; ; i = (i + 1) & mask {
		slot := t.slots[i]
		if slot == 0 {
			id := LabelID(t.len())
			t.rows = append(t.rows, row...)
			t.slots[i] = int32(id) + 1
			return id
		}
		if slices.Equal(t.row(LabelID(slot-1)), row) {
			return LabelID(slot - 1)
		}
	}
}

// reserve sizes the table for n rows, so a builder that knows its label
// count up front grows neither the rows nor the slots.
func (t *rowTable) reserve(n int) {
	t.rows = grow(t.rows, n*t.w)
	if 2*n > len(t.slots) {
		size := 16
		for size < 2*n {
			size *= 2
		}
		t.rehash(size)
	}
}

// rehash rebuilds the slots at the given power-of-two size.
func (t *rowTable) rehash(size int) {
	t.slots = make([]int32, size)
	mask := uint64(size - 1)
	for id := 0; id < t.len(); id++ {
		i := hashRow(t.row(LabelID(id))) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id) + 1
	}
}

// widen relays the rows out at width w (at least the current width); the
// new words are zero.
func (t *rowTable) widen(w int) {
	rows := make([]uint64, t.len()*w, cap(t.rows)/t.w*w)
	for id := 0; id < t.len(); id++ {
		copy(rows[id*w:], t.row(LabelID(id)))
	}
	t.w, t.rows = w, rows
	t.rehash(max(16, len(t.slots)))
}

// setBit adds prop id p to row.
func setBit(row []uint64, p int) { row[p>>6] |= 1 << (uint(p) & 63) }

// hasBit reports whether prop id p is in row.
func hasBit(row []uint64, p int) bool { return row[p>>6]&(1<<(uint(p)&63)) != 0 }

// countRange returns the number of prop ids in [lo, hi) set in row.
func countRange(row []uint64, lo, hi int) int {
	n := 0
	for k := lo >> 6; k <= (hi-1)>>6; k++ {
		word := row[k]
		if k == lo>>6 {
			word &= ^uint64(0) << (uint(lo) & 63)
		}
		if k == (hi-1)>>6 && hi&63 != 0 {
			word &= 1<<(uint(hi)&63) - 1
		}
		n += bits.OnesCount64(word)
	}
	return n
}

// mapRow sets in dst the image to[p] of every prop id p of row, skipping
// ids mapped to -1.  dst must be zero on entry.
func mapRow(dst, row []uint64, to []int32) {
	for k, word := range row {
		for word != 0 {
			p := k<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if q := to[p]; q >= 0 {
				setBit(dst, int(q))
			}
		}
	}
}

// canonical sorts vocab by Prop.Less, drops the propositions no row of
// width w uses, and rewrites rows over the result in place, at a width no
// wider than w.  It returns its inputs unchanged when they are canonical
// already; otherwise the vocabulary is fresh and the rows are a prefix of
// rows' backing, so the caller must own rows.  The propositions of vocab
// must be distinct, so distinct rows stay distinct and LabelIDs are
// preserved.
func canonical(vocab []Prop, rows []uint64, w int) ([]Prop, []uint64, int) {
	used := make([]uint64, w)
	for i, x := range rows {
		used[i%w] |= x
	}
	order := make([]int32, 0, len(vocab))
	for p := range vocab {
		if hasBit(used, p) {
			order = append(order, int32(p))
		}
	}
	slices.SortFunc(order, func(a, b int32) int { return compareProps(vocab[a], vocab[b]) })
	w2 := wordsFor(len(order))
	identity := len(order) == len(vocab) && w2 == w
	for i, p := range order {
		identity = identity && int(p) == i
	}
	if identity {
		return slices.Clip(vocab), slices.Clip(rows), w
	}
	sorted := make([]Prop, len(order))
	to := make([]int32, len(vocab))
	for p := range to {
		to[p] = -1
	}
	for i, p := range order {
		sorted[i] = vocab[p]
		to[p] = int32(i)
	}
	// Row l moves down to words l*w2 ≤ l*w, so it overwrites no row after
	// it; a copy of it is the input while its own words are rewritten.
	row := make([]uint64, w)
	n := len(rows) / w
	for l := 0; l < n; l++ {
		copy(row, rows[l*w:(l+1)*w])
		dst := rows[l*w2 : (l+1)*w2]
		clear(dst)
		mapRow(dst, row, to)
	}
	return sorted, slices.Clip(rows[:n*w2]), w2
}

// compareProps orders propositions as Prop.Less does.
func compareProps(a, b Prop) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// onesTable interns the distinct "exactly one" name sets of a structure.
// Each set is stored once, sorted; equal sets get equal ids.
type onesTable struct {
	sets [][]string
	ids  map[string]int32
	key  []byte
}

func newOnesTable() *onesTable { return &onesTable{ids: make(map[string]int32)} }

// intern returns the id of the sorted name set names, cloning it on first
// sight.
func (t *onesTable) intern(names []string) int32 {
	t.key = t.key[:0]
	for _, n := range names {
		t.key = append(t.key, n...)
		t.key = append(t.key, 0)
	}
	if id, ok := t.ids[string(t.key)]; ok {
		return id
	}
	id := int32(len(t.sets))
	t.sets = append(t.sets, slices.Clone(names))
	t.ids[string(t.key)] = id
	return id
}

// derivedOnes returns, for every row of width w over the sorted vocabulary
// vocab, the id in ones of its derived "exactly one" set: the indexed
// proposition names carried by exactly one index.  vocab is sorted, so the
// indexed propositions of one name are a contiguous range of prop ids in
// ascending name order, and one count per range decides each name.
func derivedOnes(vocab []Prop, rows []uint64, w int, ones *onesTable) []int32 {
	type group struct{ lo, hi int }
	var groups []group
	for p := 0; p < len(vocab); p++ {
		if !vocab[p].Indexed {
			continue
		}
		g := group{lo: p}
		for p+1 < len(vocab) && vocab[p+1].Name == vocab[p].Name {
			p++
		}
		g.hi = p + 1
		groups = append(groups, g)
	}
	out := make([]int32, len(rows)/w)
	var names []string
	for l := range out {
		row := rows[l*w : (l+1)*w]
		names = names[:0]
		for _, g := range groups {
			if countRange(row, g.lo, g.hi) == 1 {
				names = append(names, vocab[g.lo].Name)
			}
		}
		out[l] = ones.intern(names)
	}
	return out
}

// propCache lazily holds the per-proposition state sets of one structure,
// indexed by prop id; a proposition no state carries has a nil set.
type propCache struct {
	once sync.Once
	sets []BitSet
}

// propSets returns the per-proposition state sets, building them on first
// use by walking each state's set bits.  Safe for concurrent callers:
// structures are immutable and shared.
func (m *Structure) propSets() []BitSet {
	m.props.once.Do(func() {
		n := m.NumStates()
		sets := make([]BitSet, len(m.vocab))
		for s, id := range m.labelIDs {
			for k, word := range m.row(id) {
				for word != 0 {
					p := k<<6 | bits.TrailingZeros64(word)
					word &= word - 1
					if sets[p] == nil {
						sets[p] = NewBitSet(n)
					}
					sets[p].Set(s)
				}
			}
		}
		m.props.sets = sets
	})
	return m.props.sets
}

// keyCache lazily holds the canonical key of every label of one structure.
type keyCache struct {
	once sync.Once
	keys []string
}

// labelKeys returns the canonical key of every LabelID, building them on
// first use.  Safe for concurrent callers.
func (m *Structure) labelKeys() []string {
	m.keys.once.Do(func() {
		keys := make([]string, m.NumLabels())
		var lbl []Prop
		var buf []byte
		for id := range keys {
			lbl = m.appendLabel(lbl[:0], LabelID(id))
			buf = appendLabelKey(buf[:0], lbl)
			keys[id] = string(buf)
		}
		m.keys.keys = keys
	})
	return m.keys.keys
}

// appendLabel appends the propositions of label id to dst, sorted.
func (m *Structure) appendLabel(dst []Prop, id LabelID) []Prop {
	for k, word := range m.row(id) {
		for word != 0 {
			dst = append(dst, m.vocab[k<<6|bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return dst
}

// propID returns the prop id of p, or false when no label carries p.
func (m *Structure) propID(p Prop) (int, bool) {
	return slices.BinarySearchFunc(m.vocab, p, compareProps)
}

// row returns the words of label id.
func (m *Structure) row(id LabelID) []uint64 {
	return m.rows[int(id)*m.words : (int(id)+1)*m.words]
}

// relabel returns m with every proposition p replaced by f(p), or dropped
// where f reports false.  The transition relation, the reachable set and
// the "exactly one" atoms (which live in AP) are shared with m.  The work
// is one pass over m's vocabulary and one over its distinct labels, whose
// images are interned: distinct labels of m may collapse onto one.
func (m *Structure) relabel(name string, indexValues []int, f func(Prop) (Prop, bool)) *Structure {
	img := make([]Prop, len(m.vocab))
	kept := make([]bool, len(m.vocab))
	var vocab []Prop
	for p, prop := range m.vocab {
		img[p], kept[p] = f(prop)
		if kept[p] {
			vocab = append(vocab, img[p])
		}
	}
	slices.SortFunc(vocab, compareProps)
	vocab = slices.Compact(vocab)
	to := make([]int32, len(m.vocab))
	for p := range to {
		to[p] = -1
		if kept[p] {
			q, _ := slices.BinarySearchFunc(vocab, img[p], compareProps)
			to[p] = int32(q)
		}
	}
	w := wordsFor(len(vocab))
	table := rowTable{w: w}
	idMap := make([]LabelID, m.NumLabels())
	scratch := make([]uint64, w)
	for id := range idMap {
		clear(scratch)
		mapRow(scratch, m.row(LabelID(id)), to)
		idMap[id] = table.intern(scratch)
	}
	out := &Structure{
		name:        name,
		initial:     m.initial,
		succEdges:   m.succEdges, // the relation is untouched; share the CSR arrays
		succOff:     m.succOff,
		pred:        m.pred,  // same relation, transposed at most once
		reach:       m.reach, // same relation and initial state, same reachable set
		vocab:       vocab,
		words:       w,
		rows:        table.rows,
		labelIDs:    make([]LabelID, len(m.labelIDs)),
		ones:        m.ones, // the O_i P_i atoms live in AP and are preserved verbatim
		onesIDs:     m.onesIDs,
		props:       &propCache{},
		keys:        &keyCache{},
		indexValues: indexValues,
	}
	for s, id := range m.labelIDs {
		out.labelIDs[s] = idMap[id]
	}
	return out
}

// appendLabelKey appends the canonical key of lbl to dst.  Prop.String is
// inlined so building a key costs no allocation beyond dst itself.
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

package kripke

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// This file pins the observable behaviour of the row-labelled, CSR-packed
// representation to a straightforward reference model: randomized builders
// construct a structure twice — once through the real Builder and once as
// plain slices — and every accessor the engines rely on (Succ, Pred, Label,
// LabelID, LabelKey, Holds, StatesWith, ExactlyOne, OneProps,
// HasTransition, EncodeText) must agree state for state, on the built
// structure and on every transformation of it.  Any future change to the
// packed representation that alters observable semantics fails here rather
// than deep inside bisim or mc.

// refStructure is the naive reference representation.
type refStructure struct {
	name    string
	initial int
	succ    [][]int  // per state, sorted and deduplicated
	labels  [][]Prop // per state, normalized
	ones    [][]string
}

// refLabelKey reproduces the canonical key contract.
func refLabelKey(lbl []Prop) string { return string(appendLabelKey(nil, lbl)) }

// refNormalize is an independent normalization: sort+dedup.
func refNormalize(props []Prop) []Prop {
	cp := append([]Prop(nil), props...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Less(cp[j]) })
	out := cp[:0]
	for i, p := range cp {
		if i == 0 || p != cp[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// refOnes recomputes the "exactly one" names with a map.
func refOnes(lbl []Prop) []string {
	counts := map[string]int{}
	for _, p := range lbl {
		if p.Indexed {
			counts[p.Name]++
		}
	}
	var out []string
	for name, c := range counts {
		if c == 1 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// text renders the reference in the text format.
func (ref *refStructure) text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "structure %s\n", sanitizeName(ref.name))
	for s, lbl := range ref.labels {
		fmt.Fprintf(&sb, "state %d", s)
		if s == ref.initial {
			sb.WriteString(" initial")
		}
		if len(lbl) > 0 {
			sb.WriteString(" :")
			for _, p := range lbl {
				sb.WriteString(" " + p.String())
			}
		}
		sb.WriteString("\n")
	}
	for s, row := range ref.succ {
		if len(row) > 0 {
			fmt.Fprintf(&sb, "trans %d", s)
			for _, t := range row {
				fmt.Fprintf(&sb, " %d", t)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// testVocabulary returns n distinct propositions: every fourth is plain,
// the rest are indexed under one of three names with indices 1..7 and
// beyond, so some names occur at one index of a label and some at several.
func testVocabulary(n int) []Prop {
	names := []string{"a", "b", "c"}
	out := make([]Prop, n)
	for k := range out {
		if k%4 == 0 {
			out[k] = P(fmt.Sprintf("p%d", k))
		} else {
			out[k] = PI(names[k%3], 1+k/3)
		}
	}
	return out
}

// randomizedBuild generates a pseudo-random structure over a 16-prop
// vocabulary; see randomizedBuildOver.
func randomizedBuild(seed uint64, nStates int) (*Structure, *refStructure, error) {
	var vocab []Prop
	for _, name := range []string{"a", "b", "c", "d"} {
		vocab = append(vocab, P(name), PI(name, 1), PI(name, 2), PI(name, 3))
	}
	return randomizedBuildOver(seed, nStates, vocab)
}

// randomizedBuildOver generates a pseudo-random structure from the seed
// through the real Builder while recording the reference model.  The last
// state carries the whole vocabulary (in reverse order), so the rows are as
// wide as the vocabulary needs and widen after earlier labels were
// interned; the other labels are random draws, some with repeats.  A SetLabel (within the vocabulary, which must hold a[2]) and a
// few SetOnes overrides (some naming a proposition outside the vocabulary)
// exercise the builder's other label paths.
func randomizedBuildOver(seed uint64, nStates int, vocab []Prop) (*Structure, *refStructure, error) {
	rng := seed
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	b := NewBuilder(fmt.Sprintf("rand-%d", seed))
	ref := &refStructure{name: fmt.Sprintf("rand-%d", seed), succ: make([][]int, nStates)}
	for s := 0; s < nStates; s++ {
		var props []Prop
		if s == nStates-1 {
			props = slices.Clone(vocab)
			slices.Reverse(props)
		} else {
			for k := next(8); k > 0; k-- {
				p := vocab[next(len(vocab))]
				props = append(props, p)
				if next(5) == 0 {
					props = append(props, p)
				}
			}
		}
		b.AddState(props...)
		lbl := refNormalize(props)
		ref.labels = append(ref.labels, lbl)
		ref.ones = append(ref.ones, refOnes(lbl))
	}
	for e := 0; e < nStates*3; e++ {
		from, to := next(nStates), next(nStates)
		if err := b.AddTransition(State(from), State(to)); err != nil {
			return nil, nil, err
		}
		if !slices.Contains(ref.succ[from], to) {
			ref.succ[from] = append(ref.succ[from], to)
			slices.Sort(ref.succ[from])
		}
	}
	if nStates > 2 {
		s := 1 + next(nStates-1)
		override := []Prop{vocab[0], PI("a", 2)}
		if err := b.SetLabel(State(s), override...); err != nil {
			return nil, nil, err
		}
		lbl := refNormalize(override)
		ref.labels[s] = lbl
		ref.ones[s] = refOnes(lbl)
	}
	for k := 0; k < 3; k++ {
		s := next(nStates)
		ones := [][]string{{"zz"}, {"zz", "a"}, {}}[next(3)]
		if err := b.SetOnes(State(s), ones); err != nil {
			return nil, nil, err
		}
		ref.ones[s] = append([]string(nil), ones...)
		sort.Strings(ref.ones[s])
	}
	if err := b.SetInitial(0); err != nil {
		return nil, nil, err
	}
	m, err := b.BuildPartial()
	return m, ref, err
}

// checkReference compares every accessor of m against ref and reports the
// first few disagreements under tag.
func checkReference(t *testing.T, tag string, m *Structure, ref *refStructure) {
	t.Helper()
	n := len(ref.labels)
	if m.NumStates() != n {
		t.Fatalf("%s: NumStates = %d, want %d", tag, m.NumStates(), n)
	}
	errs := 0
	fail := func(format string, args ...any) {
		t.Helper()
		if errs++; errs <= 10 {
			t.Errorf(tag+": "+format, args...)
		}
	}
	pred := make([][]int, n)
	for s, row := range ref.succ {
		for _, u := range row {
			pred[u] = append(pred[u], s)
		}
	}
	var props []Prop
	for _, lbl := range ref.labels {
		props = append(props, lbl...)
	}
	props = refNormalize(append(props, P("absent"), PI("a", 99)))
	names := []string{"a", "b", "c", "d", "z", "zz", "absent"}
	for s := 0; s < n; s++ {
		st := State(s)
		if got := fmt.Sprint(m.Succ(st)); got != fmt.Sprint(ref.succ[s]) {
			fail("state %d: Succ = %v, want %v", s, got, ref.succ[s])
		}
		if got := fmt.Sprint(m.Pred(st)); got != fmt.Sprint(pred[s]) {
			fail("state %d: Pred = %v, want %v", s, got, pred[s])
		}
		for u := 0; u < n; u++ {
			if got, want := m.HasTransition(st, State(u)), slices.Contains(ref.succ[s], u); got != want {
				fail("HasTransition(%d, %d) = %v, want %v", s, u, got, want)
			}
		}
		if got, want := fmt.Sprint(m.Label(st)), fmt.Sprint(ref.labels[s]); got != want {
			fail("state %d: Label = %v, want %v", s, got, want)
		}
		if got, want := m.LabelKey(st), refLabelKey(ref.labels[s]); got != want {
			fail("state %d: LabelKey = %q, want %q", s, got, want)
		}
		if got := m.LabelKeyByID(m.LabelID(st)); got != m.LabelKey(st) {
			fail("state %d: LabelKeyByID(LabelID) = %q, LabelKey = %q", s, got, m.LabelKey(st))
		}
		if got, want := fmt.Sprint(m.OneProps(st)), fmt.Sprint(ref.ones[s]); got != want {
			fail("state %d: OneProps = %v, want %v", s, got, want)
		}
		for _, name := range names {
			if got, want := m.ExactlyOne(st, name), slices.Contains(ref.ones[s], name); got != want {
				fail("state %d: ExactlyOne(%q) = %v, want %v", s, name, got, want)
			}
		}
		for _, p := range props {
			want := slices.Contains(ref.labels[s], p)
			if got := m.Holds(st, p); got != want {
				fail("state %d: Holds(%v) = %v, want %v", s, p, got, want)
			}
			if bs := m.StatesWith(p); (bs != nil && bs.Get(s)) != want {
				fail("state %d: StatesWith(%v) disagrees with the reference", s, p)
			}
		}
		// Interning contract: equal LabelIDs iff equal labels.
		for u := 0; u < n; u++ {
			sameID := m.LabelID(st) == m.LabelID(State(u))
			if sameLabel := slices.Equal(ref.labels[s], ref.labels[u]); sameID != sameLabel {
				fail("LabelID agreement (%d,%d) = %v but label agreement = %v", s, u, sameID, sameLabel)
			}
		}
	}
	for _, p := range props {
		if bs := m.StatesWith(p); bs != nil && bs.Empty() {
			fail("StatesWith(%v) is empty but not nil", p)
		}
	}
	if m.Initial() != State(ref.initial) {
		fail("Initial = %d, want %d", m.Initial(), ref.initial)
	}
	var buf bytes.Buffer
	if err := EncodeText(&buf, m); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), ref.text(); got != want {
		fail("EncodeText:\n%s\nwant:\n%s", got, want)
	}
}

// refInduced is the reference of m.Induced(keep).
func (ref *refStructure) induced(keep []int) *refStructure {
	out := &refStructure{name: ref.name, succ: make([][]int, len(keep))}
	pos := map[int]int{}
	for i, s := range keep {
		pos[s] = i
		out.labels = append(out.labels, ref.labels[s])
		out.ones = append(out.ones, ref.ones[s])
	}
	for i, s := range keep {
		for _, u := range ref.succ[s] {
			if j, ok := pos[u]; ok {
				out.succ[i] = append(out.succ[i], j)
			}
		}
		slices.Sort(out.succ[i])
	}
	out.initial = pos[ref.initial]
	return out
}

// relabelled returns the reference with every label mapped through f
// (props for which f reports false dropped); the relation and the ones are
// unchanged.
func (ref *refStructure) relabelled(name string, f func(Prop) (Prop, bool)) *refStructure {
	out := &refStructure{name: name, initial: ref.initial, succ: ref.succ, ones: ref.ones}
	for _, lbl := range ref.labels {
		var mapped []Prop
		for _, p := range lbl {
			if q, ok := f(p); ok {
				mapped = append(mapped, q)
			}
		}
		out.labels = append(out.labels, refNormalize(mapped))
	}
	return out
}

// TestRepresentationMatchesReference builds random structures over
// vocabularies whose rows take one word (16, 63 and 64 propositions) and
// several (65 and 129), and checks the structure and its Induced,
// MakeTotal, Reindex and ReduceNormalized transformations — SetOnes
// overrides included — against the reference model.
func TestRepresentationMatchesReference(t *testing.T) {
	vocabs := map[int][]Prop{63: testVocabulary(63), 64: testVocabulary(64), 65: testVocabulary(65), 129: testVocabulary(129)}
	for seed := uint64(1); seed <= 25; seed++ {
		nStates := 3 + int(seed%13)
		for _, size := range []int{16, 63, 64, 65, 129} {
			var m *Structure
			var ref *refStructure
			var err error
			if size == 16 {
				m, ref, err = randomizedBuild(seed, nStates)
			} else {
				m, ref, err = randomizedBuildOver(seed, nStates, vocabs[size])
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			tag := fmt.Sprintf("seed %d vocab %d", seed, size)
			checkReference(t, tag, m, ref)
			if want := wordsFor(size); m.words != want {
				t.Errorf("%s: rows are %d words, want %d", tag, m.words, want)
			}

			// Induced: every other state, reversed, with the initial state.
			var keep []int
			for s := nStates - 1; s >= 0; s -= 2 {
				keep = append(keep, s)
			}
			if !slices.Contains(keep, 0) {
				keep = append(keep, 0)
			}
			keepStates := make([]State, len(keep))
			for i, s := range keep {
				keepStates[i] = State(s)
			}
			sub, _ := m.Induced(keepStates)
			checkReference(t, tag+" Induced", sub, ref.induced(keep))

			// MakeTotal: deadlocks get self loops, labels and ones stay.
			total := &refStructure{name: ref.name, initial: ref.initial, labels: ref.labels, ones: ref.ones}
			for s, row := range ref.succ {
				if len(row) == 0 {
					row = []int{s}
				}
				total.succ = append(total.succ, row)
			}
			checkReference(t, tag+" MakeTotal", m.MakeTotal(), total)

			// Reindex: a shift of every index, plus two indices merged.
			rename := map[int]int{1: 100, 2: 100, 3: 3}
			re := m.Reindex(rename)
			checkReference(t, tag+" Reindex", re, ref.relabelled(ref.name, func(p Prop) (Prop, bool) {
				if to, ok := rename[p.Index]; ok && p.Indexed {
					p.Index = to
				}
				return p, true
			}))

			// ReduceNormalized at two indices.
			for _, keepIndex := range []int{1, 2} {
				red := m.ReduceNormalized(keepIndex)
				checkReference(t, fmt.Sprintf("%s ReduceNormalized(%d)", tag, keepIndex), red,
					ref.relabelled(fmt.Sprintf("%s|%d", ref.name, keepIndex), func(p Prop) (Prop, bool) {
						switch {
						case !p.Indexed:
							return p, true
						case p.Index == keepIndex:
							return PI(p.Name, 0), true
						}
						return p, false
					}))
			}
		}
	}
}

// TestTextRoundTripByteIdentical: encoding a randomized structure, decoding
// it, and encoding it again must produce identical bytes — the CSR and
// label rows must be invisible to the interchange formats.
func TestTextRoundTripByteIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		m, _, err := randomizedBuild(seed, 4+int(seed%9))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var first bytes.Buffer
		if err := EncodeText(&first, m); err != nil {
			t.Fatalf("seed %d: encode: %v", seed, err)
		}
		decoded, err := DecodeText(strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		var second bytes.Buffer
		if err := EncodeText(&second, decoded); err != nil {
			t.Fatalf("seed %d: re-encode: %v", seed, err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("seed %d: text round-trip is not byte-identical:\n--- first\n%s\n--- second\n%s",
				seed, first.String(), second.String())
		}
	}
}

// TestReductionMatchesPerStateReference: ReduceNormalized reduces per
// distinct LabelID; the result must equal the naive per-state reduction.
func TestReductionMatchesPerStateReference(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		m, ref, err := randomizedBuild(seed, 5+int(seed%7))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for keep := 1; keep <= 3; keep++ {
			red := m.ReduceNormalized(keep)
			for s := 0; s < m.NumStates(); s++ {
				var want []Prop
				for _, p := range ref.labels[s] {
					switch {
					case !p.Indexed:
						want = append(want, p)
					case p.Index == keep:
						want = append(want, PI(p.Name, 0))
					}
				}
				want = refNormalize(want)
				if got := fmt.Sprint(red.Label(State(s))); got != fmt.Sprint(want) {
					t.Errorf("seed %d keep %d state %d: reduced label = %v, want %v", seed, keep, s, got, want)
				}
				if got, wantKey := red.LabelKey(State(s)), refLabelKey(want); got != wantKey {
					t.Errorf("seed %d keep %d state %d: reduced key = %q, want %q", seed, keep, s, got, wantKey)
				}
				// The relation and the ones sets are shared verbatim.
				if fmt.Sprint(red.Succ(State(s))) != fmt.Sprint(m.Succ(State(s))) {
					t.Errorf("seed %d keep %d state %d: reduction changed Succ", seed, keep, s)
				}
				if fmt.Sprint(red.OneProps(State(s))) != fmt.Sprint(m.OneProps(State(s))) {
					t.Errorf("seed %d keep %d state %d: reduction changed OneProps", seed, keep, s)
				}
			}
		}
	}
}

package kripke

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// buildDiamond returns a four-state structure used by several tests:
//
//	0{p} -> 1{q}, 0 -> 2{q,d[1]}, 1 -> 3{r,d[1],d[2]}, 2 -> 3, 3 -> 3
func buildDiamond(t *testing.T) *Structure {
	t.Helper()
	b := NewBuilder("diamond")
	s0 := b.AddState(P("p"))
	s1 := b.AddState(P("q"))
	s2 := b.AddState(P("q"), PI("d", 1))
	s3 := b.AddState(P("r"), PI("d", 1), PI("d", 2))
	for _, e := range [][2]State{{s0, s1}, {s0, s2}, {s1, s3}, {s2, s3}, {s3, s3}} {
		if err := b.AddTransition(e[0], e[1]); err != nil {
			t.Fatalf("AddTransition: %v", err)
		}
	}
	if err := b.SetInitial(s0); err != nil {
		t.Fatalf("SetInitial: %v", err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestPropOrderingAndString(t *testing.T) {
	if got := P("a").String(); got != "a" {
		t.Errorf("P(a).String() = %q", got)
	}
	if got := PI("d", 3).String(); got != "d[3]" {
		t.Errorf("PI(d,3).String() = %q", got)
	}
	if !P("z").Less(PI("a", 1)) {
		t.Error("plain propositions should sort before indexed ones")
	}
	if !PI("a", 1).Less(PI("a", 2)) {
		t.Error("indexed propositions should sort by index")
	}
	if PI("b", 1).Less(PI("a", 2)) {
		t.Error("indexed propositions should sort by name first")
	}
}

func TestParseProp(t *testing.T) {
	tests := []struct {
		in      string
		want    Prop
		wantErr bool
	}{
		{"a", P("a"), false},
		{"d[3]", PI("d", 3), false},
		{"tok[12]", PI("tok", 12), false},
		{"", Prop{}, true},
		{"d[", Prop{}, true},
		{"d[x]", Prop{}, true},
		{"[3]", Prop{}, true},
	}
	for _, tt := range tests {
		got, err := ParseProp(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseProp(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("ParseProp(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestBuilderAndAccessors(t *testing.T) {
	m := buildDiamond(t)
	if m.NumStates() != 4 {
		t.Fatalf("NumStates = %d, want 4", m.NumStates())
	}
	if m.NumTransitions() != 5 {
		t.Fatalf("NumTransitions = %d, want 5", m.NumTransitions())
	}
	if m.Initial() != 0 {
		t.Errorf("Initial = %d", m.Initial())
	}
	if !m.Holds(0, P("p")) || m.Holds(0, P("q")) {
		t.Error("labels of state 0 wrong")
	}
	if !m.Holds(3, PI("d", 2)) {
		t.Error("state 3 should satisfy d[2]")
	}
	if !m.HasTransition(0, 1) || m.HasTransition(1, 0) {
		t.Error("HasTransition wrong")
	}
	if got := len(m.Succ(0)); got != 2 {
		t.Errorf("Succ(0) has %d entries", got)
	}
	if got := len(m.Pred(3)); got != 3 {
		t.Errorf("Pred(3) has %d entries, want 3", got)
	}
	if got := m.AtomNames(); strings.Join(got, ",") != "p,q,r" {
		t.Errorf("AtomNames = %v", got)
	}
	if got := m.IndexedPropNames(); strings.Join(got, ",") != "d" {
		t.Errorf("IndexedPropNames = %v", got)
	}
	if got := m.IndexValues(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("IndexValues = %v", got)
	}
	if !m.IsTotal() {
		t.Error("diamond should be total")
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExactlyOneLabels(t *testing.T) {
	m := buildDiamond(t)
	if !m.ExactlyOne(2, "d") {
		t.Error("state 2 has exactly one d index")
	}
	if m.ExactlyOne(3, "d") {
		t.Error("state 3 has two d indices")
	}
	if m.ExactlyOne(0, "d") {
		t.Error("state 0 has no d index")
	}
	if got := m.OneProps(2); len(got) != 1 || got[0] != "d" {
		t.Errorf("OneProps(2) = %v", got)
	}
}

func TestLabelKeyWithOnes(t *testing.T) {
	m := buildDiamond(t)
	if m.LabelKey(1) == m.LabelKey(2) {
		t.Error("states 1 and 2 have different labels")
	}
	plain := m.LabelKeyWithOnes(2, nil)
	if plain != m.LabelKey(2) {
		t.Error("LabelKeyWithOnes(nil) should equal LabelKey")
	}
	withOnes := m.LabelKeyWithOnes(2, []string{"d"})
	if withOnes == m.LabelKey(2) {
		t.Error("LabelKeyWithOnes should extend the key")
	}
	if m.LabelKeyWithOnes(2, []string{"d"}) == m.LabelKeyWithOnes(3, []string{"d"}) {
		// state 2 has exactly one d, state 3 has two; labels already differ,
		// but the one-extension must differ as well.
		t.Error("one-extension should distinguish the states")
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	if _, err := b.Build(); err == nil {
		t.Error("Build with no states should fail")
	}
	s := b.AddState(P("p"))
	if _, err := b.Build(); err == nil {
		t.Error("Build with no initial state should fail")
	}
	if err := b.SetInitial(s); err != nil {
		t.Fatalf("SetInitial: %v", err)
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build with non-total relation should fail")
	}
	if err := b.AddTransition(s, State(7)); err == nil {
		t.Error("AddTransition to unknown state should fail")
	}
	if err := b.SetInitial(State(9)); err == nil {
		t.Error("SetInitial out of range should fail")
	}
	if err := b.SetLabel(State(9), P("p")); err == nil {
		t.Error("SetLabel out of range should fail")
	}
	if err := b.AddTransition(s, s); err != nil {
		t.Fatalf("AddTransition: %v", err)
	}
	// Duplicate transitions are silently ignored.
	if err := b.AddTransition(s, s); err != nil {
		t.Fatalf("duplicate AddTransition: %v", err)
	}
	m, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if m.NumTransitions() != 1 {
		t.Errorf("duplicate transition should be deduplicated, got %d", m.NumTransitions())
	}
}

// TestBuilderReuseAfterBuild: a build hands the builder's label ids and
// label rows to its structure, and the rows are rewritten there over the
// sorted vocabulary.  A builder used again after a build, one that failed
// validation included, must leave every structure it built byte-identical
// under EncodeText, and its final build must equal, LabelIDs included, that
// of a builder that never built before.  The wide label's 130 propositions,
// seen in reverse order, widen the builder's rows to four words, which the
// build narrows to three in place.
func TestBuilderReuseAfterBuild(t *testing.T) {
	var wide []Prop
	for k := 129; k >= 0; k-- {
		wide = append(wide, P(fmt.Sprintf("w%03d", k)))
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each step changes the builder; a build may follow any of them.
	steps := []func(b *Builder){
		func(b *Builder) {
			b.AddState(P("z"), PI("d", 2))
			b.AddState(P("a"))
			b.AddState(wide...)
			must(b.AddTransition(0, 1))
			must(b.AddTransition(1, 2))
			must(b.AddTransition(2, 0))
			must(b.SetInitial(0))
		},
		func(b *Builder) { must(b.SetLabel(1, P("z"), P("c"))) },
		func(b *Builder) {
			b.AddState(P("b"), PI("d", 1))
			must(b.AddTransition(3, 0))
			must(b.AddTransition(2, 3))
		},
		func(b *Builder) { b.AddState(P("a")) }, // state 4 has no successors yet
		func(b *Builder) {
			must(b.AddTransition(4, 4))
			b.Grow(8)
			b.AddState(append(wide[:3:3], P("y"))...)
			must(b.AddTransition(5, 5))
			must(b.SetLabel(0, wide[7], PI("d", 3)))
		},
	}
	encode := func(m *Structure) string {
		var buf bytes.Buffer
		must(EncodeText(&buf, m))
		return buf.String()
	}
	run := func(buildAfter map[int]bool) (final *Structure, built []*Structure, texts []string) {
		b := NewBuilder("reuse")
		for i, step := range steps {
			step(b)
			if !buildAfter[i] {
				continue
			}
			m, err := b.Build()
			if i == 3 {
				if err == nil {
					t.Fatal("Build with a state without successors should fail")
				}
				continue
			}
			must(err)
			built, texts = append(built, m), append(texts, encode(m))
		}
		final, err := b.Build()
		must(err)
		return final, built, texts
	}

	want, _, _ := run(nil)
	for _, after := range []map[int]bool{{0: true}, {1: true}, {2: true}, {3: true}, {0: true, 1: true, 2: true, 3: true}} {
		got, built, texts := run(after)
		if encode(got) != encode(want) || got.NumLabels() != want.NumLabels() {
			t.Fatalf("builds after steps %v: final structure\n%s\nwant\n%s", after, encode(got), encode(want))
		}
		for s := range want.NumStates() {
			if got.LabelID(State(s)) != want.LabelID(State(s)) {
				t.Fatalf("builds after steps %v: state %d has LabelID %d, want %d",
					after, s, got.LabelID(State(s)), want.LabelID(State(s)))
			}
		}
		for i, m := range built {
			if encode(m) != texts[i] {
				t.Errorf("builds after steps %v: build %d changed after the builder was reused:\n%s\nwas\n%s",
					after, i, encode(m), texts[i])
			}
		}
	}
}

func TestRestrictReachable(t *testing.T) {
	b := NewBuilder("unreachable")
	s0 := b.AddState(P("p"))
	s1 := b.AddState(P("q"))
	orphan := b.AddState(P("z"))
	_ = b.AddTransition(s0, s1)
	_ = b.AddTransition(s1, s0)
	_ = b.AddTransition(orphan, s0)
	_ = b.SetInitial(s0)
	m, err := b.BuildPartial()
	if err != nil {
		t.Fatalf("BuildPartial: %v", err)
	}
	restricted, oldOf := m.RestrictReachable()
	if restricted.NumStates() != 2 {
		t.Fatalf("reachable restriction has %d states, want 2", restricted.NumStates())
	}
	if len(oldOf) != 2 {
		t.Fatalf("oldOf has %d entries", len(oldOf))
	}
	if err := restricted.Validate(); err != nil {
		t.Errorf("restricted structure invalid: %v", err)
	}
	if restricted.Holds(restricted.Initial(), P("z")) {
		t.Error("orphan label leaked into restriction")
	}
}

func TestReduceAndNormalize(t *testing.T) {
	m := buildDiamond(t)
	red := m.Reduce(1)
	if red.Holds(3, PI("d", 2)) {
		t.Error("Reduce(1) should drop d[2]")
	}
	if !red.Holds(3, PI("d", 1)) {
		t.Error("Reduce(1) should keep d[1]")
	}
	if !red.Holds(3, P("r")) {
		t.Error("Reduce should keep plain propositions")
	}
	norm := m.ReduceNormalized(2)
	if !norm.Holds(3, PI("d", 0)) {
		t.Error("ReduceNormalized(2) should rename d[2] to d[0]")
	}
	if norm.Holds(3, PI("d", 2)) {
		t.Error("ReduceNormalized(2) should not keep the original index")
	}
	// The reduction shares the transition relation.
	if red.NumTransitions() != m.NumTransitions() {
		t.Error("Reduce should not change transitions")
	}
	// The "exactly one" bookkeeping survives reductions: state 3 has two d
	// processes, so O_d is false there even after reducing to one index.
	if red.ExactlyOne(3, "d") {
		t.Error("Reduce must preserve the original exactly-one truth values")
	}
	if !red.ExactlyOne(2, "d") {
		t.Error("Reduce must preserve exactly-one truth at state 2")
	}
}

func TestMakeTotalAndDeadlocks(t *testing.T) {
	b := NewBuilder("dead")
	s0 := b.AddState(P("p"))
	s1 := b.AddState(P("q"))
	_ = b.AddTransition(s0, s1)
	_ = b.SetInitial(s0)
	m, err := b.BuildPartial()
	if err != nil {
		t.Fatalf("BuildPartial: %v", err)
	}
	if m.IsTotal() {
		t.Error("structure with deadlock should not be total")
	}
	if got := m.DeadlockStates(); len(got) != 1 || got[0] != s1 {
		t.Errorf("DeadlockStates = %v", got)
	}
	total := m.MakeTotal()
	if !total.IsTotal() {
		t.Error("MakeTotal should produce a total structure")
	}
	if !total.HasTransition(s1, s1) {
		t.Error("MakeTotal should add a self loop on the deadlock state")
	}
	if again := total.MakeTotal(); again != total {
		t.Error("MakeTotal on a total structure should return it unchanged")
	}
}

func TestReindexAndRename(t *testing.T) {
	m := buildDiamond(t)
	re := m.Reindex(map[int]int{1: 10, 2: 20})
	if !re.Holds(3, PI("d", 10)) || !re.Holds(3, PI("d", 20)) {
		t.Error("Reindex should rename indices")
	}
	if re.Holds(3, PI("d", 1)) {
		t.Error("Reindex left the old index")
	}
	if got := re.IndexValues(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("IndexValues after Reindex = %v", got)
	}
	renamed := m.Rename("other")
	if renamed.Name() != "other" || m.Name() != "diamond" {
		t.Error("Rename should only affect the copy")
	}
}

func TestTextEncodeDecodeRoundTrip(t *testing.T) {
	m := buildDiamond(t)
	var buf bytes.Buffer
	if err := EncodeText(&buf, m); err != nil {
		t.Fatalf("EncodeText: %v", err)
	}
	decoded, err := DecodeText(&buf)
	if err != nil {
		t.Fatalf("DecodeText: %v", err)
	}
	if decoded.NumStates() != m.NumStates() || decoded.NumTransitions() != m.NumTransitions() {
		t.Fatalf("round trip changed sizes: %d/%d vs %d/%d",
			decoded.NumStates(), decoded.NumTransitions(), m.NumStates(), m.NumTransitions())
	}
	for s := 0; s < m.NumStates(); s++ {
		if decoded.LabelKey(State(s)) != m.LabelKey(State(s)) {
			t.Errorf("state %d label changed by round trip", s)
		}
	}
	if decoded.Initial() != m.Initial() {
		t.Error("initial state changed by round trip")
	}
}

func TestDecodeTextErrors(t *testing.T) {
	cases := []string{
		"state x",
		"state 0\ntrans 0",
		"trans 0 1",
		"state 0 : p\nstate 1 : q\ntrans 0 5",
		"state 0 : p",           // no initial
		"bogus directive",       // unknown directive
		"state 0 p",             // missing colon
		"state 0 initial : [3]", // bad proposition
	}
	for _, in := range cases {
		if _, err := DecodeText(strings.NewReader(in)); err == nil {
			t.Errorf("DecodeText(%q) unexpectedly succeeded", in)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := buildDiamond(t)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	decoded, err := UnmarshalStructureJSON(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if decoded.NumStates() != m.NumStates() || decoded.NumTransitions() != m.NumTransitions() {
		t.Fatal("JSON round trip changed sizes")
	}
	for s := 0; s < m.NumStates(); s++ {
		if decoded.LabelKey(State(s)) != m.LabelKey(State(s)) {
			t.Errorf("state %d label changed by JSON round trip", s)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	m := buildDiamond(t)
	dot := m.DOT()
	for _, want := range []string{"digraph", "s0", "s3", "->", "doublecircle"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	m := buildDiamond(t)
	st := m.ComputeStats()
	if st.States != 4 || st.Transitions != 5 || st.ReachableState != 4 || st.Deadlocks != 0 {
		t.Errorf("ComputeStats = %+v", st)
	}
	if !strings.Contains(st.String(), "4 states") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

func TestInducedSubstructure(t *testing.T) {
	m := buildDiamond(t)
	sub, oldOf := m.Induced([]State{0, 1, 3})
	if sub.NumStates() != 3 {
		t.Fatalf("Induced has %d states", sub.NumStates())
	}
	if len(oldOf) != 3 || oldOf[2] != 3 {
		t.Errorf("oldOf = %v", oldOf)
	}
	// Transition 0->2 is dropped because state 2 is excluded.
	if sub.NumTransitions() != 3 {
		t.Errorf("Induced transitions = %d, want 3", sub.NumTransitions())
	}
}

// TestAdoptSuccessorsRejectsMalformedRows: AdoptSuccessors validates the
// whole CSR before adopting it, and every rejection names the row at
// fault.
func TestAdoptSuccessorsRejectsMalformedRows(t *testing.T) {
	cases := []struct {
		name string
		off  []int32
		succ []State
		row  string
	}{
		{"short offsets", []int32{0, 1, 2}, []State{1, 2}, "row 2:"},
		{"long offsets", []int32{0, 1, 2, 3, 3}, []State{1, 2, 0}, "row 3:"},
		{"nonzero start", []int32{1, 1, 2, 3}, []State{1, 2, 0}, "row 0:"},
		{"decreasing offsets", []int32{0, 2, 1, 3}, []State{1, 2, 0}, "row 1:"},
		{"offset past the successors", []int32{0, 1, 5, 5}, []State{1, 2, 0}, "row 1:"},
		{"unsorted row", []int32{0, 2, 3, 4}, []State{2, 1, 2, 0}, "row 0:"},
		{"duplicate target", []int32{0, 1, 3, 4}, []State{1, 2, 2, 0}, "row 1:"},
		{"target out of range", []int32{0, 1, 2, 3}, []State{1, 3, 0}, "row 1:"},
		{"negative target", []int32{0, 1, 2, 3}, []State{1, 2, -1}, "row 2:"},
		{"successors past the last row", []int32{0, 1, 2, 3}, []State{1, 2, 0, 1}, "row 2:"},
	}
	for _, tc := range cases {
		b := NewBuilder("three")
		for i := 0; i < 3; i++ {
			b.AddState(PI("s", i))
		}
		err := b.AdoptSuccessors(tc.off, tc.succ)
		if err == nil {
			t.Errorf("%s: AdoptSuccessors(%v, %v) accepted malformed rows", tc.name, tc.off, tc.succ)
			continue
		}
		if !strings.Contains(err.Error(), tc.row) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, strings.TrimSuffix(tc.row, ":"))
		}
	}
}

// TestAdoptSuccessorsMatchesAddTransition: the adopted rows and the edge
// list route give the same relation in both directions, and the adopted
// route keeps the caller's successor array instead of copying it.
func TestAdoptSuccessorsMatchesAddTransition(t *testing.T) {
	edges := [][2]State{{0, 1}, {0, 2}, {1, 2}, {2, 0}, {2, 1}, {2, 2}}
	off := []int32{0, 2, 3, 6}
	succ := []State{1, 2, 2, 0, 1, 2}
	build := func(adopt bool) *Structure {
		b := NewBuilder("tri")
		for i := 0; i < 3; i++ {
			b.AddState(PI("s", i))
		}
		if adopt {
			if err := b.AdoptSuccessors(off, succ); err != nil {
				t.Fatal(err)
			}
			if err := b.AddTransition(0, 0); err == nil {
				t.Error("AddTransition after AdoptSuccessors should fail")
			}
		} else {
			for _, e := range edges {
				if err := b.AddTransition(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			if err := b.AdoptSuccessors(off, succ); err == nil {
				t.Error("AdoptSuccessors after AddTransition should fail")
			}
		}
		if err := b.SetInitial(0); err != nil {
			t.Fatal(err)
		}
		m, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	adopted, listed := build(true), build(false)
	var want, got bytes.Buffer
	if err := EncodeText(&want, listed); err != nil {
		t.Fatal(err)
	}
	if err := EncodeText(&got, adopted); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("adopted rows encode as\n%s\nwant\n%s", got.String(), want.String())
	}
	for s := State(0); s < 3; s++ {
		if a, l := fmt.Sprint(adopted.Pred(s)), fmt.Sprint(listed.Pred(s)); a != l {
			t.Errorf("Pred(%d) = %s, want %s", s, a, l)
		}
	}
	if &adopted.Succ(0)[0] != &succ[0] {
		t.Error("the adopted structure copied the successor array")
	}
}
